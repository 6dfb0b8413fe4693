"""The four workloads: seeded op streams over recorded input universes.

Each workload's universe (its pattern pairs, hosts and recipe instances) is
fixed in reference.json together with the answer recorded for every input
and the time it took when recorded. The run seed only decides which inputs
are drawn and in what order. Draws are stratified by recorded cost: the
universe is cut into strata of similar cost and every cycle takes one input
from each stratum, so runs with different seeds do comparable work.

A workload turns the seed into cycles of ops; run() performs one op against
the library, looking every function up through its module at call time so a
tracer can wrap it, and check() compares the answer with the reference and
re-checks colorings from definitions (defs.py).
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import defs

REFERENCE = Path(__file__).resolve().parent / "reference.json"
IR_CACHED_N_MAX = 5


@dataclass
class Cycle:
    ops: list
    cache: str | None = None  # ir-cached: this pass's fresh cache file


def coloring_digest(red, blue) -> str:
    text = json.dumps([sorted(map(list, red)), sorted(map(list, blue))])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def _strata(items: list, count: int) -> list[list]:
    ranked = sorted(items, key=lambda item: item["cost"])
    return [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count] for i in range(count)]


class _Decks:
    """One seeded, reshuffled deck per stratum; draw() takes one card from each,
    in stratum order."""

    def __init__(self, strata: list[list], rng: random.Random):
        self.strata = strata
        self.rng = rng
        self.decks: list[list] = [[] for _ in strata]

    def draw(self) -> list:
        out = []
        for stratum, deck in zip(self.strata, self.decks):
            if not deck:
                deck.extend(stratum)
                self.rng.shuffle(deck)
            out.append(deck.pop())
        return out


def _zipf_counts(distinct: int, total: int) -> list[int]:
    """Call counts proportional to 1/rank, each at least 1, summing to total."""
    weights = [1 / r for r in range(1, distinct + 1)]
    spare = total - distinct
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(s) for s in shares]
    by_remainder = sorted(range(distinct), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Workload:
    name = ""
    section = ""  # the reference.json list this workload draws from
    fields: tuple = ()  # the recorded answer fields
    ordered = False  # True when an op's work depends on the ops before it
    min_ops = 100  # least ops in a run's list, so p90 has 10 samples beyond it

    def __init__(self, lib):
        self.lib = lib

    def prepare(self, ref: dict, seed: int, tmp: str, tiny: bool = False) -> None:
        """Parse the universe and seed the draws; part of the timed set-up."""
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tmp = tmp
        self.tiny = tiny
        self.items = [self.load(item) for item in ref[self.section]]
        self.decks = _Decks(self.strata(), self.rng)
        self._checked: dict = {}

    def load(self, item: dict) -> dict:
        """Reference item -> op, with its graphs parsed by the library."""
        op = dict(item)
        for key in ("f", "g", "h"):
            if key + "6" in item:
                op[key] = self.lib.graphs.parse_graph6(item[key + "6"])
        return op

    def strata(self) -> list[list]:
        raise NotImplementedError

    def cycles(self):
        """Endless stream of Cycle objects."""
        while True:
            ops = self.decks.draw()
            self.rng.shuffle(ops)
            yield Cycle(ops)

    def run(self, op, cycle: Cycle):
        raise NotImplementedError

    def record(self, answer) -> dict:
        """The answer fields kept in reference.json."""
        raise NotImplementedError

    def expected(self, op) -> dict:
        return {key: op[key] for key in self.fields}

    def certified(self, op, answer) -> bool:
        """Definition-level re-check of a coloring in the answer, if any."""
        return True

    def check(self, op, answer) -> bool:
        return self.record(answer) == self.expected(op) and self.certified(op, answer)

    def end_cycle(self, cycle: Cycle) -> None:
        pass


class IrSweep(Workload):
    name = "ir-sweep"
    section = "ir"
    fields = ("ir", "witness")

    def strata(self):
        return _strata(self.items, 8 if self.tiny else 112)

    def run(self, op, cycle):
        search = self.lib.search
        return search.ir_exact(op["g"], op["h"], search.bundled_catalog(), n_max=6)

    def record(self, answer):
        if isinstance(answer, self.lib.search.IRResult):
            return {"ir": answer.value, "witness": answer.witness_arrowing_graph}
        return {"ir": None, "witness": None}


class ProveDense(Workload):
    name = "prove-dense"
    section = "prove"
    fields = ("arrows",)

    def load(self, item):
        op = super().load(item)
        if op["kind"] == "classical":
            op["host_def"] = defs.complete_graph(op["n"])
        else:
            op["host_def"] = defs.parse_g6(op["f6"])
        return op

    def strata(self):
        induced = [op for op in self.items if op["kind"] == "induced"]
        classical = [op for op in self.items if op["kind"] == "classical"]
        if self.tiny:
            return _strata(induced, 6) + [[op] for op in classical[:2]]
        # every classical case twice, so the mix stays about 3:1
        return _strata(induced, 168) + [[op] for op in classical] * 2

    def run(self, op, cycle):
        arrowing = self.lib.arrowing
        if op["kind"] == "induced":
            return arrowing.strongly_arrows(op["f"], op["g"], op["h"])
        return arrowing.arrows_complete_non_induced(op["n"], op["g"], op["h"])

    def record(self, answer):
        return {"arrows": answer.arrows}

    def certified(self, op, answer):
        if answer.arrows:
            return answer.witness is None
        red, blue = set(answer.witness.red), set(answer.witness.blue)
        key = (id(op), coloring_digest(red, blue))
        if key not in self._checked:
            self._checked[key] = defs.is_refutation(
                op["host_def"], red, blue, defs.parse_g6(op["g6"]), defs.parse_g6(op["h6"]),
                induced=op["kind"] == "induced",
            )
        return self._checked[key]


class IrCached(Workload):
    name = "ir-cached"
    section = "ir"
    fields = ("ir", "witness")
    ordered = True  # first sightings write the cache, later calls read it

    def prepare(self, ref, seed, tmp, tiny=False):
        self.distinct, self.calls = (4, 12) if tiny else (35, 150)
        super().prepare(ref, seed, tmp, tiny)
        self.counts = _zipf_counts(self.distinct, self.calls)

    def strata(self):
        return _strata(self.items, self.distinct)

    def cycles(self):
        # Popularity rank r always goes to a pair from stratum ranks[r], a
        # fixed permutation, so every seed gets the same cost profile by rank.
        ranks = list(range(self.distinct))
        random.Random("ir-cached ranks").shuffle(ranks)
        n = 0
        while True:
            pairs = self.decks.draw()
            ops = [pairs[stratum] for stratum, count in zip(ranks, self.counts) for _ in range(count)]
            self.rng.shuffle(ops)
            n += 1
            yield Cycle(ops, os.path.join(self.tmp, f"cache-{n}.json"))

    def run(self, op, cycle):
        out = io.StringIO()
        argv = ["ir", "--g", op["g6"], "--h", op["h6"], "--n-max", str(IR_CACHED_N_MAX), "--cache", cycle.cache]
        with redirect_stdout(out):
            code = self.lib.cli.main(argv)
        return code, out.getvalue()

    def record(self, answer):
        code, text = answer
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError):
            return {"exit": code}
        if code == 0:
            return {"ir": result["ir"], "witness": result["witness"]}
        return {"ir": result["ir"], "witness": None} if code == 10 else {"exit": code}

    def expected(self, op):
        if op["ir"] is not None and op["ir"] <= IR_CACHED_N_MAX:
            return {"ir": op["ir"], "witness": op["witness"]}
        return {"ir": None, "witness": None}

    def end_cycle(self, cycle):
        for suffix in ("", ".lock", ".tmp"):
            if os.path.exists(cycle.cache + suffix):
                os.remove(cycle.cache + suffix)


class Recipes(Workload):
    name = "recipes"
    section = "recipes"
    fields = ("digest",)

    # The groups the recipes workload is defined by, each an equal share of
    # a cycle: there is no usage record to weight them by. Two cycles make a
    # list, so that p50, which falls where the groups' costs overlap, does
    # not hang on a few draws.
    GROUPS = ("T1", "L2", "CH", "BR", "T3-small", "T3-large")
    PER_GROUP = 30
    min_ops = 2 * PER_GROUP * len(GROUPS)

    def strata(self):
        out = []
        for group in self.GROUPS:
            out += _strata([op for op in self.items if op["group"] == group], 2 if self.tiny else self.PER_GROUP)
        return out

    def run(self, op, cycle):
        cons = self.lib.constructions
        method = op["method"]
        try:
            if method == "BR":
                return cons.bound_report(op["g"], op["h"])
            if method == "CH":
                return cons.chvatal_harary_coloring(op["g"], op["h"])[1]
            if method == "T1":
                return cons.theorem1_coloring(op["f"], op["alpha"], op["omega"])[0]
            if method == "L2":
                return cons.lemma2_coloring(op["f"], op["omega"])[0]
            return cons.theorem3_coloring(op["f"], op["alpha"], op["omega"])[0]
        except self.lib.errors.ConstructionError:
            return None  # a legitimate outcome: no certified coloring

    def record(self, answer):
        if answer is None:
            return {"digest": None}
        if isinstance(answer, self.lib.constructions.BoundReport):
            return {"digest": report_digest(answer.to_json_dict())}
        return {"digest": coloring_digest(answer.red, answer.blue)}

    def certified(self, op, answer):
        if answer is None or op["method"] == "BR":
            return True
        key = id(op)
        if key not in self._checked:
            self._checked[key] = certified_from_definitions(op, answer.host_order, set(answer.red), set(answer.blue))
        return self._checked[key]


def certified_from_definitions(inst: dict, n: int, red: set, blue: set) -> bool:
    """Re-check a recipe coloring against the predicate its recipe promises."""
    method = inst["method"]
    if method == "CH":
        g, h = defs.parse_g6(inst["g6"]), defs.parse_g6(inst["h6"])
        return defs.is_refutation(defs.complete_graph(n), red, blue, g, h, induced=False)
    host = defs.parse_g6(inst["f6"])
    if red & blue or (red | blue) != defs.edge_set(host):
        return False
    if not defs.blue_clique_free(n, blue, inst["omega"]):
        return False
    if method == "T3":
        return defs.red_isolatefree_ok(host, blue, inst["alpha"])
    return defs.red_components_ok(n, red, inst.get("alpha", 2))


WORKLOADS = {w.name: w for w in (IrSweep, ProveDense, IrCached, Recipes)}
