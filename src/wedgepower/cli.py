"""Command-line entry point.

Every subcommand reads and writes the shared JSON schemas and uses stable
exit codes: 0 when the computation succeeds and any checked claim holds,
2 when a claim is refuted (non-convexity found, no equivalence, not
p-good, a violated grid run), and 1 for usage, input or budget errors.

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


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _single_input(args: argparse.Namespace) -> PointConfig:
    if not args.input or len(args.input) != 1:
        raise UsageError("exactly one --input file is required")
    return read_point_config(args.input[0])


def _named(path: str, compute, *args):
    """``compute(*args)``, with a ValueError it raises prefixed by ``path``: a refused input is named by its file."""
    try:
        return compute(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_grid(text: str) -> "GridSpec":
    from .harness import GridSpec

    try:
        w, h = map(int, text.lower().split("x"))
    except ValueError as exc:
        raise UsageError(f"--grid expects WxH with integers, got {text!r}") from exc
    return GridSpec(w, h)


def _cmd_wedge(args: argparse.Namespace) -> int:
    from .wedge import wedge_power

    config = _single_input(args)
    in_range = 0 <= args.p <= len(config)
    if not in_range:
        note = f"note: no subsets of size {args.p} in a {len(config)}-point set; emitting the empty set"
        print(_abridged_runs(note), file=sys.stderr)
    result = wedge_power(config, args.p)
    payload = config_to_json(result)
    payload["in_range"] = in_range  # extra key, ignored when read back as a configuration
    _write(dumps(payload), args.output)
    return 0


def _cmd_check_convex(args: argparse.Namespace) -> int:
    from .wedge import check_lattice_convex

    config = _single_input(args)
    report = _named(args.input[0], check_lattice_convex, config)
    _write(dumps(report.to_json()), args.output)
    return 0 if report.convex else 2


def _cmd_verify_polygon(args: argparse.Namespace) -> int:
    from .harness import verify_polygon

    config = _single_input(args)
    report = _named(args.input[0], verify_polygon, config)
    _write(dumps(report.to_json()), args.output)
    return 0 if report.verdict == "conforms" else 2


def _cmd_verify_grid(args: argparse.Namespace) -> int:
    from .harness import verify_grid

    summary = verify_grid(_parse_grid(args.grid), jobs=args.jobs)
    _write(dumps(summary.to_json()), args.output)
    return 0 if not summary.violations else 2


def _cmd_p_good(args: argparse.Namespace) -> int:
    from .harness import is_p_good

    config = _single_input(args)
    witness = _named(args.input[0], is_p_good, config, args.p)
    payload = {
        "p": args.p,
        "p_good": witness is not None,
        "witness": list(witness) if witness is not None else None,
    }
    _write(dumps(payload), args.output)
    return 0 if witness is not None else 2


def _cmd_cornercut(args: argparse.Namespace) -> int:
    from .cornercut import verify_corner_cut

    report = verify_corner_cut(args.d, args.B)
    payload = {
        "d": args.d,
        "B": args.B,
        "wedge_size": report.cardinality,
        "convex": report.convex,
        "missing": [list(p) for p in report.missing],
    }
    _write(dumps(payload), args.output)
    return 0 if report.convex else 2


def _cmd_counterexample3d(args: argparse.Namespace) -> int:
    from .counterexample3d import verify_counterexample

    report = verify_counterexample()
    _write(dumps(report.to_json()), args.output)
    return 0 if report.holds else 2


def _cmd_equivalent(args: argparse.Namespace) -> int:
    if not args.input or len(args.input) != 2:
        raise UsageError("equivalent needs exactly two --input files")
    first, second = map(read_point_config, args.input)
    witness = _named(args.input[first.dim == 2], are_equivalent, first, second)  # names the first non-planar file
    payload = {
        "equivalent": witness is not None,
        "map": None
        if witness is None
        else {
            "matrix": [list(row) for row in witness.matrix],
            "translation": list(witness.translation),
        },
    }
    _write(dumps(payload), args.output)
    return 0 if witness is not None else 2


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_svg

    config = _single_input(args)
    _write(_named(args.input[0], render_svg, config, args.hull), args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wedgepower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, reads_input: bool = True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if reads_input:
            p.add_argument("--input", action="append", metavar="PATH", help="point configuration JSON")
        p.add_argument("--output", metavar="PATH", help="write result here instead of stdout")
        return p

    p = add("wedge", _cmd_wedge, help="sums of all fixed-size subsets")
    p.add_argument("-p", type=int, required=True, help="subset size")

    add("check-convex", _cmd_check_convex, help="is the set the lattice points of its hull")

    add("verify-polygon", _cmd_verify_polygon, help="convexity of every wedge power of one configuration")

    p = add("verify-grid", _cmd_verify_grid, reads_input=False, help="exhaustive check over a small grid")
    p.add_argument("--grid", required=True, metavar="WxH")
    p.add_argument("--jobs", type=int, default=1)

    p = add("p-good", _cmd_p_good, help="common wedge point of all one-vertex deletions")
    p.add_argument("-p", type=int, required=True, help="subset size")

    p = add("cornercut", _cmd_cornercut, reads_input=False, help="corner-cut convexity at one truncation")
    p.add_argument("-d", type=int, required=True, help="subset size")
    p.add_argument("-B", type=int, required=True, help="truncation bound")

    add("counterexample3d", _cmd_counterexample3d, reads_input=False, help="the three-dimensional witness run")

    add("equivalent", _cmd_equivalent, help="a unimodular map between two configurations, read off their normal forms")

    p = add("render", _cmd_render, help="SVG dot diagram of a planar configuration")
    p.add_argument("--hull", action="store_true", help="draw the convex hull outline")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
