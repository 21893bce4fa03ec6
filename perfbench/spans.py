"""Per-layer spans recorded from outside the program.

``Tracer`` rebinds the public functions of every loaded ``wedgepower``
module, plus the table and configuration methods, to timing wrappers.  The
rebinding is applied to every module that holds the function, so names
imported with ``from .x import y`` are traced too.  Each wrapper records a
span at the layer boundary with the span that called it; spans are
aggregated in memory by (name, parent) into call counts, total time and
self time (total minus the time covered by child spans).  A few counts are
taken at the same boundaries so that ratios are measured where the work
happens.
"""

import functools
import inspect
import sys
import time

perf = time.perf_counter

PACKAGE = "wedgepower"
ROOT_SPAN = "bench.iteration"

# Per-point primitives: a wrapper would cost more than the call and would
# swamp the layer times it is meant to measure.
UNWRAPPED = frozenset({"geometry.cross"})

# Methods carrying layer work, by module: class name -> method names.
METHODS = {
    "wedge": {"SubsetSumTable": ("__init__", "coords", "points_at")},
    "geometry": {"PointConfig": ("of",)},
}

# Per-layer metrics: (name, unit, better, what it should move on which workload).
# Times are self seconds per traced iteration; counts are per iteration.
PER_LAYER = (
    ("wedge.table_build_s", "s", "lower", "solve_s_p50 and peak_rss_mb on witness3d; a little on polygon"),
    ("wedge.table_builds", "count", "lower", "solve_s_p50 and peak_rss_mb on witness3d; a little on polygon"),
    ("wedge.table_cells", "count", "lower", "solve_s_p50 and peak_rss_mb on witness3d; a little on polygon"),
    ("wedge.useful_cell_ratio", "ratio", "higher", "solve_s_p50 and peak_rss_mb on witness3d; a little on polygon"),
    ("wedge.extract_s", "s", "lower", "solve_s_p50 on polygon and grid; barely witness3d"),
    ("wedge.power_calls", "count", "lower", "solve_s_p50 on polygon and grid; barely witness3d"),
    ("wedge.convexity_check_s", "s", "lower", "solve_s_p50 on polygon and grid; barely witness3d"),
    ("geometry.config_build_s", "s", "lower", "solve_s_p50 on polygon and grid; barely witness3d"),
    ("geometry.hull_s", "s", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("geometry.hull_calls", "count", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("geometry.lattice_scan_s", "s", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("geometry.lattice_scan_calls", "count", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("geometry.equivalence_s", "s", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("geometry.equivalence_calls", "count", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("geometry.vertex_set_s", "s", "lower", "solve_s_p50 on grid and polygon; not witness3d"),
    ("harness.enumerate_s", "s", "lower", "solve_s_p50 on grid only"),
    ("harness.masks_tried", "count", "lower", "solve_s_p50 on grid only"),
    ("harness.enum_yield", "configs/mask", "higher", "solve_s_p50 on grid only"),
    ("harness.verify_polygon_s", "s", "lower", "solve_s_p50 on grid only"),
    ("harness.p_good_s", "s", "lower", "solve_s_p50 on grid only"),
    ("harness.union_decomp_s", "s", "lower", "solve_s_p50 on grid only"),
    ("harness.tables_per_config", "tables/config", "lower", "solve_s_p50 on grid only"),
    ("harness.jobs2_speedup", "ratio", "higher", "wall time of grid at jobs=2; grid only"),
    ("cornercut.verify_s", "s", "lower", "solve_s_p50 on polygon"),
    ("cornercut.wedge_points", "count", "lower", "solve_s_p50 on polygon"),
    ("counterexample3d.simplex_build_s", "s", "lower", "solve_s_p50 on witness3d"),
    ("counterexample3d.verify_s", "s", "lower", "solve_s_p50 on witness3d"),
    ("cli.run_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_frac", "ratio", "lower", "nothing: the cost of this tracing"),
)

SELF_TIME = {
    "wedge.table_build_s": ("wedge.SubsetSumTable.__init__",),
    "wedge.extract_s": ("wedge.SubsetSumTable.coords", "wedge.SubsetSumTable.points_at"),
    "wedge.convexity_check_s": ("wedge.check_lattice_convex", "harness.is_lattice_convex"),
    "geometry.config_build_s": ("geometry.PointConfig.of",),
    "geometry.hull_s": ("geometry.convex_hull_2d",),
    "geometry.lattice_scan_s": ("geometry.lattice_points_of_polytope",),
    "geometry.equivalence_s": (
        "geometry.are_equivalent",
        "geometry.exception_index",
        "geometry.exceptional_triangle",
    ),
    "geometry.vertex_set_s": ("geometry.vertex_set", "geometry.remove_vertex"),
    "harness.enumerate_s": ("harness.enumerate_lattice_convex",),
    "harness.verify_polygon_s": ("harness.verify_polygon",),
    "harness.p_good_s": ("harness.is_p_good",),
    "harness.union_decomp_s": ("harness.union_decomposition_holds",),
    "cornercut.verify_s": ("cornercut.verify_corner_cut", "cornercut.truncated_quadrant"),
    "counterexample3d.simplex_build_s": ("counterexample3d.build_colored_simplex",),
    "counterexample3d.verify_s": (
        "counterexample3d.verify_counterexample",
        "counterexample3d.witness_point",
    ),
}

CALLS = {
    "wedge.table_builds": "wedge.SubsetSumTable.__init__",
    "wedge.power_calls": "wedge.wedge_power",
    "geometry.hull_calls": "geometry.convex_hull_2d",
    "geometry.lattice_scan_calls": "geometry.lattice_points_of_polytope",
    "geometry.equivalence_calls": "geometry.are_equivalent",
}


class Tracer:
    """Span and count recorder; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.counts = {
            "table_cells": 0,
            "table_popcount": 0,
            "masks_tried": 0,
            "configs_enumerated": 0,
            "cornercut_points": 0,
        }
        self._saved: list[tuple[object, str, object]] = []
        self._observers = {
            "wedge.SubsetSumTable.__init__": self._observe_table,
            "wedge.SubsetSumTable.coords": self._observe_coords,
            "harness.enumerate_lattice_convex": self._observe_enumeration,
        }

    # -- counts taken at layer boundaries ---------------------------------

    def _observe_table(self, args, result) -> None:
        table = args[0]
        self.counts["table_cells"] += table.total_cells
        self.counts["table_popcount"] += table.count(table.depth)

    def _observe_coords(self, args, result) -> None:
        if any(frame[0] == "cornercut.verify_corner_cut" for frame in self.stack):
            self.counts["cornercut_points"] += len(result)

    def _observe_enumeration(self, args, result) -> None:
        # the enumerator walks every nonempty subset mask of the grid's cells
        self.counts["masks_tried"] += (1 << args[0].cell_count) - 1
        self.counts["configs_enumerated"] += len(result)

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, spans = self.stack, self.spans
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                entry = spans.get((name, parent))
                if entry is None:
                    entry = spans[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                began = perf()
                observe(args, result)
                if stack:  # keep the count's own cost out of the caller's self time
                    stack[-1][1] += perf() - began
            return result

        return traced

    def call(self, fn, *args):
        """Run ``fn`` as the root span of one iteration."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    # -- rebinding ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        prefix = PACKAGE + "."
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(prefix))
        ]
        wrappers = {}  # original -> wrapper, shared by every module that imports it
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(prefix):
                    continue
                name = f"{value.__module__.removeprefix(prefix)}.{value.__qualname__}"
                if name in UNWRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(name, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        for module in modules:
            short = module.__name__.removeprefix(prefix)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    self._saved.append((cls, method, raw))
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(f"{short}.{cls_name}.{method}", raw.__func__))
                    else:
                        wrapped = self.wrap(f"{short}.{cls_name}.{method}", raw)
                    setattr(cls, method, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """calls, total seconds and self seconds per span name, over all parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, own) in self.spans.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return out

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """The span-derived per-layer metrics, per traced iteration.

        A layer the workload never enters reads 0.
        """
        named = self.by_name()
        counts = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics = {
            key: sum(named.get(n, (0, 0.0, 0.0))[2] for n in names) / iterations
            for key, names in SELF_TIME.items()
        }
        metrics.update(
            {key: named.get(n, (0,))[0] / iterations for key, n in CALLS.items()}
        )
        table_builds = named.get("wedge.SubsetSumTable.__init__", (0,))[0]
        metrics["wedge.table_cells"] = counts["table_cells"] / iterations
        metrics["wedge.useful_cell_ratio"] = ratio(counts["table_popcount"], counts["table_cells"])
        metrics["harness.masks_tried"] = counts["masks_tried"] / iterations
        metrics["harness.enum_yield"] = ratio(counts["configs_enumerated"], counts["masks_tried"])
        metrics["harness.tables_per_config"] = ratio(table_builds, counts["configs_enumerated"])
        metrics["cornercut.wedge_points"] = counts["cornercut_points"] / iterations
        return metrics

    def span_table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
            for (name, parent), (calls, total, own) in sorted(
                self.spans.items(), key=lambda item: -item[1][2]
            )
        ]
