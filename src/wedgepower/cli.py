"""Command-line entry point.

Every subcommand reads and writes the shared JSON schemas and uses stable
exit codes: 0 when the computation succeeds and any checked claim holds,
2 when a claim is refuted (non-convexity found, no equivalence, not
p-good, a violated grid run), and 1 for usage, input or budget errors.

One pipeline in ``main`` runs every subcommand: it checks the number of
``--input`` files the subcommand declares, reads them, runs the
subcommand on them, writes its JSON, or SVG for ``render``, to stdout or
to ``--output``, and exits 0 or 2 on whether the claim holds.  A
ValueError from the run names the first input that is not planar, or
else the first input; an unreadable file is named by the reader.

Only the geometry and JSON modules load with the command line; each
subcommand imports the module it runs when it starts, so a planar check
never loads the 3D witness, the corner cut or the renderer.
"""

import argparse
import itertools
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .geometry import BudgetError, PointConfig, are_equivalent
from .jsonio import config_to_json, dumps, read_point_config

if TYPE_CHECKING:
    from .harness import GridSpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _abridged_runs(text: str) -> str:
    """``text`` with each overlong run and line cut, so an echoed argument or path keeps the line short.

    A run of more than 15 digits is cut as ``wedge._abridged`` cuts a count,
    read as text since an echoed argument may be past the interpreter's
    limit on int().  Then any run of more than 128 bytes, all of it
    whitespace or quotes or none of it, keeps its first 32 bytes and its
    length.  A line still over 192 bytes, such as one echoing many short
    words, keeps its first 160 bytes and its length.  Bytes are counted as
    ``_size`` counts them; a cut keeps whole characters, and the length it
    prints is in characters.
    """
    text = re.sub(r"\d{16,}", lambda run: f"{run[0][:4]}... ({len(run[0])} digits)", text)
    text = re.sub(r"[^\s'\"]+|[\s'\"]+", lambda run: _cut(run[0], 128, 32), text)
    return "\n".join(_cut(line, 192, 160) for line in text.split("\n"))


def _cut(text: str, most: int, keep: int) -> str:
    """``text`` if it is at most ``most`` bytes, else its whole characters within ``keep`` bytes and its length."""
    if _size(text) <= most:
        return text
    kept = sum(1 for _ in itertools.takewhile(lambda end: end <= keep, itertools.accumulate(map(_size, text))))
    return f"{text[:kept]}... ({len(text)} characters)"


def _size(text: str) -> int:
    """The bytes ``text`` takes on a UTF-8 stderr, where an argument's undecodable byte prints as a 6-byte escape."""
    return len(text.encode("utf-8", "backslashreplace"))


def _parse_grid(text: str) -> "GridSpec":
    from .harness import GridSpec

    try:
        w, h = map(int, text.lower().split("x"))
    except ValueError as exc:
        raise UsageError(f"--grid expects WxH with integers, got {text!r}") from exc
    return GridSpec(w, h)


def _cmd_wedge(args: argparse.Namespace, config: PointConfig) -> tuple[dict, bool]:
    from .wedge import wedge_power

    in_range = 0 <= args.p <= len(config)
    if not in_range:
        note = f"note: no subsets of size {args.p} in a {len(config)}-point set; emitting the empty set"
        print(_abridged_runs(note), file=sys.stderr)
    # in_range is an extra key, ignored when read back as a configuration
    return {**config_to_json(wedge_power(config, args.p)), "in_range": in_range}, True


def _cmd_check_convex(args: argparse.Namespace, config: PointConfig) -> tuple[dict, bool]:
    from .wedge import check_lattice_convex

    report = check_lattice_convex(config)
    return report.to_json(), report.convex


def _cmd_verify_polygon(args: argparse.Namespace, config: PointConfig) -> tuple[dict, bool]:
    from .harness import verify_polygon

    report = verify_polygon(config)
    return report.to_json(), report.verdict == "conforms"


def _cmd_verify_grid(args: argparse.Namespace) -> tuple[dict, bool]:
    from .harness import verify_grid

    summary = verify_grid(_parse_grid(args.grid), jobs=args.jobs)
    return summary.to_json(), not summary.violations


def _cmd_p_good(args: argparse.Namespace, config: PointConfig) -> tuple[dict, bool]:
    from .harness import is_p_good

    witness = is_p_good(config, args.p)
    found = witness is not None
    return {"p": args.p, "p_good": found, "witness": list(witness) if found else None}, found


def _cmd_cornercut(args: argparse.Namespace) -> tuple[dict, bool]:
    from .cornercut import verify_corner_cut

    report = verify_corner_cut(args.d, args.B)
    missing = [list(p) for p in report.missing]
    payload = {"d": args.d, "B": args.B, "wedge_size": report.cardinality, "convex": report.convex, "missing": missing}
    return payload, report.convex


def _cmd_counterexample3d(args: argparse.Namespace) -> tuple[dict, bool]:
    from .counterexample3d import verify_counterexample

    report = verify_counterexample()
    return report.to_json(), report.holds


def _cmd_equivalent(args: argparse.Namespace, first: PointConfig, second: PointConfig) -> tuple[dict, bool]:
    witness = are_equivalent(first, second)
    if witness is None:
        return {"equivalent": False, "map": None}, False
    matrix = [list(row) for row in witness.matrix]
    return {"equivalent": True, "map": {"matrix": matrix, "translation": list(witness.translation)}}, True


def _cmd_render(args: argparse.Namespace, config: PointConfig) -> tuple[str, bool]:
    from .render import render_svg

    return render_svg(config, args.hull), True


def build_parser() -> _Parser:
    parser = _Parser(prog="wedgepower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, inputs: int = 1, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, inputs=inputs, input=None)
        if inputs:
            p.add_argument("--input", action="append", metavar="PATH", help="point configuration JSON")
        p.add_argument("--output", metavar="PATH", help="write result here instead of stdout")
        return p

    p = add("wedge", _cmd_wedge, help="sums of all fixed-size subsets")
    p.add_argument("-p", type=int, required=True, help="subset size")

    add("check-convex", _cmd_check_convex, help="is the set the lattice points of its hull")

    add("verify-polygon", _cmd_verify_polygon, help="convexity of every wedge power of one configuration")

    p = add("verify-grid", _cmd_verify_grid, inputs=0, help="exhaustive check over a small grid")
    p.add_argument("--grid", required=True, metavar="WxH")
    p.add_argument("--jobs", type=int, default=1)

    p = add("p-good", _cmd_p_good, help="common wedge point of all one-vertex deletions")
    p.add_argument("-p", type=int, required=True, help="subset size")

    p = add("cornercut", _cmd_cornercut, inputs=0, help="corner-cut convexity at one truncation")
    p.add_argument("-d", type=int, required=True, help="subset size")
    p.add_argument("-B", type=int, required=True, help="truncation bound")

    add("counterexample3d", _cmd_counterexample3d, inputs=0, help="the three-dimensional witness run")

    add("equivalent", _cmd_equivalent, inputs=2,
        help="a unimodular map between two configurations, read off their normal forms")

    p = add("render", _cmd_render, help="SVG dot diagram of a planar configuration")
    p.add_argument("--hull", action="store_true", help="draw the convex hull outline")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        paths = args.input or []
        if len(paths) != args.inputs:
            two = "equivalent needs exactly two --input files"
            raise UsageError(two if args.inputs == 2 else "exactly one --input file is required")
        configs = [read_point_config(path) for path in paths]
        try:
            payload, holds = args.func(args, *configs)
        except ValueError as exc:  # a refused input is named: the first that is not planar, or else the first
            named = [path for path, config in zip(paths, configs) if config.dim != 2] + paths
            if not named:
                raise
            raise ValueError(f"{named[0]}: {exc}") from exc
        text = payload if isinstance(payload, str) else dumps(payload)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
        return 0 if holds else 2
    except UsageError as exc:
        print(_abridged_runs(str(exc)), file=sys.stderr)
        return 1
    except (BudgetError, ValueError, OSError) as exc:
        print(_abridged_runs(f"error: {exc}"), file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input needs more than this machine can allocate", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
