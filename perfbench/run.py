"""The wedgepower benchmark: one workload, one fresh process, a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {witness3d,grid,polygon} --seed N \
        --seconds S --trace {0,1}

After one untimed warm-up iteration, one caller runs iterations back to
back (jobs=1) for S seconds; an
iteration is one full verification of the workload's claims through the
public functions the command line calls, and every result is checked
against frozen answers.  ``wedgepower`` is imported from ``src/`` of the
checkout, with no install step.

--trace 0 reports the end-to-end metrics: median and tail seconds per
iteration, the process's peak RSS, and set-up time (import plus input
construction, the median of several fresh interpreters).  --trace 1
alternates untraced and traced iterations for S seconds, reports the
per-layer metrics listed in ``spans.PER_LAYER``, runs the matching command
line once and checks that its stdout is byte-identical to the in-process
result, and for grid measures the jobs=2 speed-up.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
including host details and the span table, is written to
``perfbench/out/``.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import PER_LAYER, Tracer
from workloads import WORKLOADS

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
# The end-to-end metrics of the result line.  failed_frac is printed with
# them but travels in the "failed" and "attempted" fields, since it is 0
# whenever every answer is right.
END_TO_END = ("solve_s_p50", "solve_s_tail", "peak_rss_mb", "setup_s")
SUBPROCESS_TIMEOUT_S = 120


def load_package():
    """Import wedgepower and its command line from the checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("wedgepower")
    importlib.import_module("wedgepower.cli")
    location = Path(package.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"wedgepower was imported from {location}, not from {SRC}")
    return package


def host_info(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    # imported here, after wedgepower, so that set-up probes time numpy's import
    import numpy

    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


class Loop:
    """Closed-loop iterations with every result checked outside the timed region."""

    def __init__(self, package, workload, inputs):
        self.package = package
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0

    def check(self, result) -> None:
        errors = self.workload.check(self.package, self.inputs, result)
        if errors:
            self.failed += 1
            print(f"FAILED {self.workload.name}: {'; '.join(errors)}", file=sys.stderr)

    def run(self, seconds: float, tracer=None, **kwargs):
        """Iterate until ``seconds`` have passed, at least once; return (samples, last result)."""
        samples: list[float] = []
        result = None
        start = perf()
        while not samples or perf() - start < seconds:
            result = None
            gc.collect()  # so that no iteration pays for collecting its predecessor's garbage
            self.attempted += 1
            try:
                if tracer is None:
                    began = perf()
                    result = self.workload.iterate(self.package, self.inputs, **kwargs)
                    samples.append(perf() - began)
                else:
                    with tracer:
                        began = perf()
                        result = tracer.call(self.workload.iterate, self.package, self.inputs)
                        samples.append(perf() - began)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                if perf() - start >= seconds:
                    break
                continue
            self.check(result)
        return samples, result


def measure_setup(workload: str, seed: int) -> list[float]:
    """Import plus input construction, timed inside fresh interpreters."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_cli(package, workload, inputs, result, loop: Loop) -> float:
    """Run the matching command line once; a stdout or exit-code mismatch is a failure."""
    arguments, expected = workload.cli(package, inputs, result, OUT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    loop.attempted += 1
    began = perf()
    done = subprocess.run([sys.executable, "-m", "wedgepower", *arguments], cwd=ROOT, env=env,
                          capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
    elapsed = perf() - began
    if done.returncode != 0 or done.stdout != expected.encode():
        loop.failed += 1
        print(f"FAILED cli {' '.join(arguments)}: exit {done.returncode}, "
              f"stdout {'matches' if done.stdout == expected.encode() else 'differs'}",
              file=sys.stderr)
    return elapsed


def end_to_end(package, workload, inputs, args, loop: Loop, record: dict) -> dict:
    setup = measure_setup(workload.name, args.seed)
    loop.run(0)  # warm-up: the first iteration in a process also pays first-touch memory
    samples, _ = loop.run(args.seconds)
    tail_value, tail_pct = tail(samples)
    record.update(setup_samples=setup, samples=samples, tail_percentile=tail_pct)
    return {
        "solve_s_p50": (statistics.median(samples), "s",
                        f"median of n={len(samples)}"),
        "solve_s_tail": (tail_value, "s",
                         f"p{tail_pct:.0f} of n={len(samples)}"
                         + (", the maximum: ten samples or fewer" if len(samples) <= 10 else "")),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of this process"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "failed_frac": (loop.failed / loop.attempted, "fraction",
                        f"{loop.failed}/{loop.attempted}; carried by the failed and attempted fields"),
    }


def per_layer(package, workload, inputs, args, loop: Loop, record: dict) -> dict:
    tracer = Tracer()
    loop.run(0)  # warm-up, as in the end-to-end run
    plain: list[float] = []
    traced: list[float] = []
    start = perf()
    while not traced or perf() - start < args.seconds:
        # alternate, so that drift in the machine's speed hits both sides alike
        plain += loop.run(0)[0]
        more, result = loop.run(0, tracer=tracer)
        traced += more
    if not plain or not traced or result is None:
        raise RuntimeError("no traced iteration completed")
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["cli.run_s"] = run_cli(package, workload, inputs, result, loop)
    metrics["harness.jobs2_speedup"] = 0.0  # only grid has a jobs option
    if workload.name == "grid":
        # wall time only: forked workers keep their spans to themselves
        jobs2, _ = loop.run(0, jobs=2)
        if jobs2:
            metrics["harness.jobs2_speedup"] = statistics.median(plain) / jobs2[0]
    record.update(untraced_samples=plain, traced_samples=traced, spans=tracer.span_table())
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    notes = {name: moves for name, _, _, moves in PER_LAYER}
    return {name: (metrics[name], units[name], notes[name]) for name, *_ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    began = perf()
    try:
        package = load_package()
    except ImportError as exc:
        print(f"error: cannot import wedgepower from {SRC}: {exc}", file=sys.stderr)
        return 1
    inputs = workload.build(package, args.seed)
    if args.setup_probe:
        print(perf() - began)
        return 0

    host = host_info(args.seed)
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
          f"numpy={host['numpy']} seed={args.seed}")
    print(f"workload: {workload.name} (closed loop, one caller, jobs=1, {args.seconds:g} s)")
    print(f"  why: {workload.why}")
    print(f"  stresses: {workload.stresses}")
    print(f"  spares: {workload.spares}")

    OUT.mkdir(exist_ok=True)
    loop = Loop(package, workload, inputs)
    record = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace, "host": host}
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(package, workload, inputs, args, loop, record)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}  ({note})")
    failed_frac = loop.failed / loop.attempted
    record.update(attempted=loop.attempted, failed=loop.failed, failed_frac=failed_frac,
                  metrics={name: {"value": v, "unit": u, "note": n} for name, (v, u, n) in metrics.items()})
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    gated = [name for name, *_ in PER_LAYER] if args.trace else END_TO_END
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
