"""The benchmark's tracer still fits the package it traces.

``perfbench/spans.py`` rebinds the methods it names in ``METHODS`` by
looking each one up in its class's ``__dict__``, so deleting or renaming
one of them breaks every traced benchmark run.  This test imports the
modules ``METHODS`` names, then enters and exits a ``Tracer`` over them, so
such a deletion fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_wraps_and_restores_every_method_it_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    named = {
        (getattr(importlib.import_module(f"wedgepower.{short}"), cls_name), method)
        for short, classes in spans.METHODS.items()
        for cls_name, methods in classes.items()
        for method in methods
    }
    before = {(cls, method): vars(cls).get(method) for cls, method in named}
    tracer = spans.Tracer()
    try:
        tracer.__enter__()  # a KeyError here names a method the tracer looks for and the package lacks
        assert all(vars(cls)[method] is not before[cls, method] for cls, method in named)
    finally:
        tracer.__exit__(None, None, None)
    assert {(cls, method): vars(cls).get(method) for cls, method in named} == before
