"""Record the benchmark's input universes and reference answers.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: every input a workload can draw, the answer
the library gave for it, and the least of three timings of that answer in
seconds (the cost that stratifies the draws). Every coloring in an answer is re-checked from
definitions (defs.py) before it is recorded, and recording stops on the
first one that fails. Re-record only when a change is meant to alter
answers; the benchmark then compares later commits against the new file.
"""
from __future__ import annotations

import json
import random
import signal
import sys
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import arrowhead  # noqa: E402
from arrowhead import arrowing, cli, coloring, constructions, errors, graphs, search  # noqa: E402

import workloads  # noqa: E402

LIB = SimpleNamespace(
    graphs=graphs, coloring=coloring, arrowing=arrowing, constructions=constructions,
    search=search, cli=cli, errors=errors,
)

# prove-dense: dense random hosts drawn per index, and classical K_n cases
# one step either side of the threshold
DENSE_HOSTS = 320
DENSE_ORDERS = (8, 10)
DENSE_P = (0.8, 0.95)
DENSE_PAIRS = [("K3", "K3"), ("K3", "P3"), ("P3", "K3"), ("K3", "K2+K1"), ("K2+K1", "K3")]
# A host stays out of the universe when its proof takes more than
# DENSE_WORK_LIMIT leaves plus prunes (about 0.5 s at recording): one such
# proof would take a large share of a pass, so the host drawn would decide a
# run's figures. A proof still running after DENSE_GUARD_S is far above the
# limit and is stopped.
DENSE_WORK_LIMIT = 200_000
DENSE_GUARD_S = 10
CLASSICAL = [
    (5, "K3", "K3"), (6, "K3", "K3"), (6, "K3", "C4"), (7, "K3", "C4"), (5, "C4", "C4"),
    (6, "C4", "C4"), (6, "P4", "K3"), (7, "P4", "K3"), (6, "K3", "S3"), (7, "K3", "S3"),
    (6, "K3", "P4"), (7, "K3", "P4"), (8, "K3", "C5"), (9, "K3", "C5"),
]

# recipes: (group, method, alpha, omega, host orders, edge probabilities, count)
RECIPE_HOSTS = [
    ("T1", "T1", 2, 3, (3, 5), (0.3, 0.8), 10),
    ("T1", "T1", 3, 3, (5, 8), (0.3, 0.8), 10),
    ("T1", "T1", 2, 4, (6, 9), (0.3, 0.8), 10),
    ("T1", "T1", 3, 4, (12, 15), (0.3, 0.8), 10),
    ("L2", "L2", 2, 3, (3, 5), (0.4, 0.9), 10),
    ("L2", "L2", 2, 4, (4, 7), (0.4, 0.9), 10),
    ("L2", "L2", 2, 5, (5, 9), (0.4, 0.9), 10),
    ("T3-small", "T3", 3, 5, (12, 14), (0.3, 0.7), 40),
    ("T3-small", "T3", 4, 4, (12, 15), (0.3, 0.7), 40),
    ("T3-small", "T3", 3, 6, (12, 16), (0.3, 0.7), 40),
    ("T3-large", "T3", 4, 5, (17, 19), (0.3, 0.7), 30),
    ("T3-large", "T3", 3, 7, (17, 20), (0.3, 0.7), 30),
    ("T3-large", "T3", 4, 6, (17, 20), (0.3, 0.7), 30),
]


class _TimeUp(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeUp


def named(name: str):
    if name == "K2+K1":
        return graphs.Graph.from_edges(3, [(0, 1)])
    return cli.parse_graph_arg(name)


def random_graph(rng: random.Random, orders, probs):
    n = rng.randint(*orders)
    p = rng.uniform(*probs)
    return graphs.Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def panel():
    """Patterns on 2 to 4 vertices with at least one edge, in catalog order."""
    catalog = search.bundled_catalog()
    return [g for order in (2, 3, 4) for g in catalog.graphs(order) if g.edge_count()]


def timed(workload, op, repeats=3):
    """Recorded answer fields plus cost, the least of repeats timings."""
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        answer = workload.run(op, workloads.Cycle([]))
        costs.append(time.perf_counter() - t0)
    if not workload.certified(op, answer):
        raise SystemExit(f"{workload.name}: answer for {op} fails the definition-level check")
    return dict(workload.record(answer), cost=round(min(costs), 6))


def record(workload, item):
    workload._checked = {}
    return dict(item, **timed(workload, workload.load(item)))


def dense_work(f, g, h) -> int | None:
    """Leaves plus prunes of the proof, or None if it outlasts the guard."""
    signal.setitimer(signal.ITIMER_REAL, DENSE_GUARD_S)
    try:
        result = arrowing.strongly_arrows(f, g, h)
    except _TimeUp:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result.colorings_explored + result.prunes


def main() -> None:
    emit = graphs.emit_graph6
    pats = [emit(g) for g in panel()]
    ref = {"commit_note": "answers recorded with arrowhead " + arrowhead.__version__}

    sweep = workloads.IrSweep(LIB)
    ref["ir"] = [record(sweep, {"g6": g, "h6": h}) for g in pats for h in pats]
    print(f"ir: {len(ref['ir'])} pairs", file=sys.stderr)

    prove = workloads.ProveDense(LIB)
    signal.signal(signal.SIGALRM, _alarm)
    items, skipped = [], 0
    for i in range(DENSE_HOSTS):
        rng = random.Random(f"prove-dense-universe:{i}")
        g, h = DENSE_PAIRS[i % len(DENSE_PAIRS)]
        f = random_graph(rng, DENSE_ORDERS, DENSE_P)
        work = dense_work(f, named(g), named(h))
        if work is None or work > DENSE_WORK_LIMIT:
            skipped += 1
            continue
        items.append(record(prove, {"kind": "induced", "f6": emit(f), "g6": emit(named(g)), "h6": emit(named(h))}))
    for n, g, h in CLASSICAL:
        items.append(record(prove, {"kind": "classical", "n": n, "g6": emit(named(g)), "h6": emit(named(h))}))
    ref["prove"] = items
    print(f"prove: {len(items)} instances, {skipped} dense hosts over {DENSE_WORK_LIMIT} leaves+prunes left out", file=sys.stderr)

    recipes = workloads.Recipes(LIB)
    items = []
    for group, method, alpha, omega, orders, probs, count in RECIPE_HOSTS:
        for i in range(count):
            rng = random.Random(f"recipes-universe:{group}:{alpha}:{omega}:{i}")
            item = {"group": group, "method": method, "f6": emit(random_graph(rng, orders, probs)), "omega": omega}
            if method != "L2":
                item["alpha"] = alpha
            items.append(record(recipes, item))
    connected = [g for g in panel() if graphs.is_connected(g)]
    for g in connected:
        for h in pats:
            items.append(record(recipes, {"group": "CH", "method": "CH", "g6": emit(g), "h6": h}))
    for g in pats:
        for h in pats:
            items.append(record(recipes, {"group": "BR", "method": "BR", "g6": g, "h6": h}))
    ref["recipes"] = items
    print(f"recipes: {len(items)} instances", file=sys.stderr)

    with open(HERE / "reference.json", "w") as out:
        out.write("{\n")
        keys = list(ref)
        for k, key in enumerate(keys):
            value = ref[key]
            if isinstance(value, list):
                rows = ",\n".join("  " + json.dumps(row, sort_keys=True) for row in value)
                out.write(f'"{key}": [\n{rows}\n]')
            else:
                out.write(f'"{key}": {json.dumps(value)}')
            out.write(",\n" if k < len(keys) - 1 else "\n")
        out.write("}\n")


if __name__ == "__main__":
    main()
