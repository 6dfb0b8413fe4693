"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that every
answer is correct, that each run prints exactly the metrics BENCHMARK.json
names with their units, and that the traced per-layer self times add up to
the traced wall time. Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402

LAYER_BUCKETS = [f"{layer}.self_s" for layer in ["bench"] + run.tracing.LAYERS]


def main() -> int:
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in spec["workloads"]:
        name = name["name"]
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            _, result = run.run(name, seed=1, seconds=0.2, trace=trace, tiny=True, min_ops=10)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {key: value["unit"] for key, value in metrics.items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} answers wrong")
            if trace:
                total = sum(metrics[key]["value"] for key in LAYER_BUCKETS)
                wall = metrics["trace.wall_s"]["value"]
                if abs(total - wall) > 0.05 * wall:
                    problems.append(f"{name}: layer self times sum to {total:.4f} s, traced wall is {wall:.4f} s")
            print(f"{name} trace={int(trace)}: {result['attempted']} ops, {len(metrics)} metrics", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
