"""arrowhead benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload ir-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # every workload in turn

The library is imported from the src/ directory of the checkout this file
sits in. A run sets the workload up 21 times (imports, reference universe,
seeded inputs, temp directory) and reports the median as setup_s. The seed
then draws an op list of at least 100 ops (360 on recipes), and the list is
issued in passes, each op only after the previous one returned: at least
three passes, and more while another fits in --seconds. Each pass takes the
ops in a fresh order unless the workload's ops depend on their order. Every
answer is checked afterwards against reference.json and, for colorings,
from definitions (defs.py).

Times are scaled to a reference machine speed. The speed of a shared
machine drifts by tens of percent within seconds, so after each op and
around each set-up the run times a fixed piece of Python work, the probe.
A time is divided by the median of the sixteen probe times nearest it and
multiplied by PROBE_REF_S, the probe's time at the reference speed. An
op's scaled latency is its median over the passes. The unscaled wall-clock
figures are printed above the result for comparison.

--trace 0 prints the end-to-end metrics. --trace 1 spends half of --seconds
on untraced passes, issues the list once more with the library's public
functions wrapped (tracer.py), and prints the per-layer metrics, including
the tracing overhead (traced minus fastest untraced pass). Spans are written
to .bench_out/spans-<workload>.bin under the checkout.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics; the lines above it repeat the metrics for people.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import combinations  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
TMP_ROOT = CHECKOUT / ".bench_tmp"
OUT_DIR = CHECKOUT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 21
PROBE_SPARSE = 70  # 4-subsets of 11 points with no two adjacent
PROBE_REF_S = 200e-6  # the probe's time at the reference speed
PROBE_REACH = 8  # probes each side of a timed step that set its speed
MIN_PASSES = 3
MODULES = ("graphs", "coloring", "arrowing", "constructions", "search", "cli", "errors")


@dataclass
class Raised:
    """An op that raised an unexpected exception instead of answering."""

    error: str


@dataclass
class Pass:
    results: list  # (op, answer) in list order
    latencies: list  # wall seconds, in list order
    scaled: list  # seconds at the reference speed, in list order; empty if not probed
    wall: float


def probe() -> float:
    """Wall time of a fixed piece of work in the library's style (tuples from
    combinations, bit masks, a dict and a set), which frees all it allocates:
    the machine's speed just now."""
    t0 = perf_counter()
    masks = {}
    for combo in combinations(range(11), 4):
        m = 0
        for v in combo:
            m |= 1 << v
        masks[m] = len(masks)
    sparse = {i for m, i in masks.items() if not m & (m >> 1)}
    if len(sparse) != PROBE_SPARSE:
        raise AssertionError("probe miscounted")
    return perf_counter() - t0


def scale(times: list, probes: list) -> list:
    """Each time at the reference speed. probes[i] was taken right after
    times[i]; the speed for times[i] is the median of the probes from i-REACH
    to i+REACH-1."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_REACH):i + PROBE_REACH]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def import_library() -> SimpleNamespace:
    """Fresh import of arrowhead from the checkout, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "arrowhead" or m.startswith("arrowhead.")]:
        del sys.modules[name]
    importlib.import_module("arrowhead")
    return SimpleNamespace(**{m: importlib.import_module(f"arrowhead.{m}") for m in MODULES})


def set_up(cls, seed: int, tiny: bool):
    """Everything a run pays before its first op; returns (workload, seconds)."""
    t0 = perf_counter()
    lib = import_library()
    ref = json.loads(workloads.REFERENCE.read_text())
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=TMP_ROOT)
    workload = cls(lib)
    workload.prepare(ref, seed, tmp, tiny)
    return workload, perf_counter() - t0


def draw(workload, min_ops: int) -> list:
    """The run's op list: whole cycles from the seeded stream, at least min_ops ops."""
    cycles, ops = [], 0
    for cycle in workload.cycles():
        cycles.append(cycle)
        ops += len(cycle.ops)
        if ops >= min_ops:
            return cycles


def timed_pass(workload, cycles, rng=None, tracer=None, probing=False) -> Pass:
    """Issue every op of the list once, each after the previous one returned.

    With rng, each cycle's ops go in a fresh random order, so a slow spell of
    the machine hits different ops in different passes. With probing, a
    probe runs after each op and the pass also returns scaled latencies.
    Results and latencies stay in list order.
    """
    size = sum(len(cycle.ops) for cycle in cycles)
    results, latencies = [None] * size, [0.0] * size
    issued, probes = [], []  # list index and probe time, in issue order
    base = 0
    start = perf_counter()
    for cycle in cycles:
        order = list(range(len(cycle.ops)))
        if rng is not None:
            rng.shuffle(order)
        for j in order:
            op = cycle.ops[j]
            if tracer is not None:
                tracer.op_id = base + j
            t0 = perf_counter()
            try:
                answer = workload.run(op, cycle)
            except Exception as exc:  # counted as a failed op, never fatal
                answer = Raised(repr(exc))
            latencies[base + j] = perf_counter() - t0
            results[base + j] = (op, answer)
            if probing:
                issued.append(base + j)
                probes.append(probe())
        workload.end_cycle(cycle)
        base += len(cycle.ops)
    wall = perf_counter() - start
    scaled = [0.0] * len(issued)
    for i, value in zip(issued, scale([latencies[i] for i in issued], probes)):
        scaled[i] = value
    return Pass(results, latencies, scaled, wall)


def repeat(workload, cycles, seconds: float, min_passes: int, probing: bool) -> list[Pass]:
    """At least min_passes passes over the same op list, more while seconds allow."""
    rng = None if workload.ordered else workload.rng
    passes = []
    start = perf_counter()
    # stop before a pass that would likely end past the deadline
    while len(passes) < min_passes or perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(timed_pass(workload, cycles, rng, probing=probing))
    return passes


def count_failures(workload, passes) -> tuple[int, int]:
    """(attempted, failed) over every op of every pass; the first few failures
    are described on stderr."""
    results = [r for p in passes for r in p.results]
    failed = 0
    for op, answer in results:
        try:
            ok = not isinstance(answer, Raised) and workload.check(op, answer)
        except Exception as exc:  # an answer of the wrong shape fails its check
            ok, answer = False, Raised(f"check raised {exc!r}")
        if not ok:
            failed += 1
            if failed <= 3:
                inputs = {k: v for k, v in op.items() if isinstance(v, (str, int, float))}
                print(f"failed op {inputs}: {answer!r}"[:500], file=sys.stderr)
    return len(results), failed


def latency_figures(per_pass: list[list]) -> tuple[float, float, float]:
    """(ops_per_s, p50, p90) of the ops' median latencies over the passes."""
    lat = [statistics.median(samples) for samples in zip(*per_pass)]
    return len(lat) / sum(lat), statistics.median(lat), statistics.quantiles(lat, n=10)[-1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    ops_per_s, p50, p90 = latency_figures([p.scaled for p in passes])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_s.p50": (p50, "s"),
        "op_s.p90": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, cycles, seconds: float) -> tuple[dict, list[Pass]]:
    """Untraced passes for half the time (at least two, so the fastest is a
    fair reference), then one traced pass over the same list."""
    plain = repeat(workload, cycles, seconds / 2, 2, probing=False)
    tracer = tracing.Tracer()
    tracer.install(workload.lib)
    try:
        tracer.begin()
        traced = timed_pass(workload, cycles, tracer=tracer)
        traced_wall = tracer.finish()
    finally:
        tracer.uninstall()
    untraced_wall = min(p.wall for p in plain)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.ops"] = (len(traced.latencies), "count")
    tracer.write(OUT_DIR / f"spans-{workload.name}.bin")
    return metrics, plain + [traced]


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, min_ops: int | None = None):
    """One benchmark run; returns (summary lines, result object)."""
    cls = workloads.WORKLOADS[name]
    setups, tmps = [], []
    probes = [probe() for _ in range(PROBE_REACH)]
    try:
        for _ in range(SETUP_REPS):
            workload, spent = set_up(cls, seed, tiny)
            setups.append(spent)
            tmps.append(workload.tmp)
            probes += [probe() for _ in range(PROBE_REACH)]
        # set-up k sits between the probes [k*REACH, (k+2)*REACH)
        setup_scaled = [
            t * PROBE_REF_S / statistics.median(probes[k * PROBE_REACH:(k + 2) * PROBE_REACH])
            for k, t in enumerate(setups)
        ]
        cycles = draw(workload, min_ops or workload.min_ops)
        if trace:
            metrics, passes = per_layer(workload, cycles, seconds)
        else:
            passes = repeat(workload, cycles, seconds, MIN_PASSES, probing=True)
            metrics = end_to_end(passes, statistics.median(setup_scaled))
        attempted, failed = count_failures(workload, passes)
    finally:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)
    ops = len(passes[0].latencies)
    ops_per_s, p50, p90 = latency_figures([p.latencies for p in passes])
    lines = [
        f"# workload {name}, seed {seed}, trace {int(trace)}: {ops} ops x {len(passes)} passes,"
        f" pass wall min {min(p.wall for p in passes):.3f} s, median {statistics.median(p.wall for p in passes):.3f} s",
        f"# unscaled wall clock: setup_s {statistics.median(setups):.4g} s, ops_per_s {ops_per_s:.4g} 1/s,"
        f" op_s.p50 {p50:.4g} s, op_s.p90 {p90:.4g} s, set-up probe median {statistics.median(probes) * 1e6:.0f} us"
        f" (reference {PROBE_REF_S * 1e6:.0f} us)",
        f"failed_ratio {failed / attempted:.4f} ratio",
    ]
    lines += [f"{key} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
        help="one workload, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arrowhead" / "__init__.py").is_file():
        print(f"error: no arrowhead sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so peak_rss_mb is each workload's own peak
        for name in workloads.WORKLOADS:
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *argv]).returncode
            if code:
                return code
        return 0
    sys.path.insert(0, str(SRC))
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
