"""Start-up loads only what a command runs, each case in a fresh interpreter.

``import wedgepower`` loads no module of the package: its public names are
looked up in their home modules when read.  The command line loads geometry
and JSON, and each subcommand imports the module it runs, so a planar check
never pays for the 3D witness, the corner cut, the renderer, hashlib or
numpy.  Every case runs under ``python -I`` so that nothing the test
session imported hides an import.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

PLANAR_ONLY = ("hashlib", "numpy", "multiprocessing")
COMMAND_MODULES = ("harness", "wedge", "cornercut", "counterexample3d", "render")


def _fresh(body: str, *argv: str):
    """Run ``body`` in an isolated interpreter on this checkout and return what it prints as JSON."""
    script = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"
    result = subprocess.run(
        [sys.executable, "-I", "-c", script, *argv], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_a_bare_interpreter_loads_none_of_the_watched_modules():
    # else the checks below could not see these modules come in
    assert _fresh(f"print(json.dumps(sorted(set(sys.modules) & set({PLANAR_ONLY!r}))))") == []


def test_importing_the_package_loads_none_of_its_modules():
    loaded = _fresh("import wedgepower\nprint(json.dumps(sorted(sys.modules)))")
    assert not [m for m in loaded if m.startswith("wedgepower.")]


def test_importing_the_command_line_loads_only_geometry_and_json():
    loaded = _fresh("import wedgepower.cli\nprint(json.dumps(sorted(sys.modules)))")
    assert {m for m in loaded if m.startswith("wedgepower")} == {
        "wedgepower",
        "wedgepower.cli",
        "wedgepower.geometry",
        "wedgepower.jsonio",
    }
    assert not set(loaded) & {*PLANAR_ONLY, *(f"wedgepower.{m}" for m in COMMAND_MODULES)}


RUN = """
import contextlib, io
from wedgepower.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["verify-grid", "--grid", "2x2"], 0, {"harness", "wedge"}),
        (["verify-polygon", "--input", DATA / "triangle-4.json"], 0, {"harness", "wedge"}),
        (["p-good", "--input", DATA / "triangle-4.json", "-p", "2"], 2, {"harness", "wedge"}),
        (["check-convex", "--input", DATA / "square-2-corners.json"], 2, {"wedge"}),
        (["wedge", "--input", DATA / "triangle-4.json", "-p", "2"], 0, {"wedge"}),
        (["equivalent", "--input", DATA / "triangle-4.json", "--input", DATA / "triangle-4-image.json"], 0, set()),
        (["cornercut", "-d", "2", "-B", "3"], 0, {"cornercut", "wedge"}),
        (["render", "--input", DATA / "triangle-4.json"], 0, {"render"}),
    ],
    ids=["verify-grid", "verify-polygon", "p-good", "check-convex", "wedge", "equivalent", "cornercut", "render"],
)
def test_a_planar_command_loads_only_the_modules_it_runs(argv, code, modules):
    outcome = _fresh(RUN, *map(str, argv))
    assert outcome["code"] == code
    loaded = set(outcome["modules"])
    assert {m for m in loaded if m.startswith("wedgepower.")} == {
        f"wedgepower.{m}" for m in {"cli", "geometry", "jsonio", *modules}
    }
    assert not loaded & set(PLANAR_ONLY)


def test_only_the_witness_loads_hashlib_and_numpy():
    outcome = _fresh(RUN, "counterexample3d")
    assert outcome["code"] == 0
    assert {"wedgepower.counterexample3d", "hashlib", "numpy"} <= set(outcome["modules"])


def test_every_public_name_is_its_home_module_object():
    outcome = _fresh(
        """
import importlib
import wedgepower
from wedgepower import *
star = {name: globals()[name] for name in wedgepower.__all__}
print(json.dumps({
    "same": [
        getattr(wedgepower, name) is star[name] is getattr(importlib.import_module(f"wedgepower.{home}"), name)
        for name, home in wedgepower._HOME.items()
    ],
    "all": wedgepower.__all__,
    "dir": dir(wedgepower),
}))
"""
    )
    assert outcome["same"] and all(outcome["same"])
    assert len(outcome["all"]) == len(outcome["same"]) == 26
    assert set(outcome["all"]) <= set(outcome["dir"])


def test_an_unknown_name_is_an_attribute_error():
    outcome = _fresh(
        """
import wedgepower
try:
    wedgepower.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    )
    assert outcome == "module 'wedgepower' has no attribute 'no_such_name'"
