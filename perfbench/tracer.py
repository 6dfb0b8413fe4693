"""Spans around arrowhead's public functions, recorded from outside the library.

Tracer.install replaces each listed function wherever a caller looks it up:
every module attribute of the arrowhead package bound to the original
function object, and the class attribute for methods. Each call records a
span (name, start, end, parent span, op id) in flat arrays; self time is the
span's duration minus the time covered by its child spans. uninstall puts
the originals back.
"""
from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

# layer -> traced functions; "Class.method" names a method, and the
# ResultCache constructor, which loads the cache file, is reported as
# ResultCache.load.
TRACED = {
    "graphs": [
        "parse_graph6", "emit_graph6", "induced_subgraph", "find_induced_embedding",
        "find_subgraph_embedding", "independence_number", "clique_number", "lex_least_clique",
    ],
    "coloring": [
        "verify_witness", "find_mono_induced", "red_component_independence_ok",
        "blue_clique_free", "red_isolatefree_independence_ok",
    ],
    "arrowing": ["strongly_arrows", "arrows_complete_non_induced", "ramsey_number_exact"],
    "constructions": [
        "theorem1_coloring", "lemma2_coloring", "theorem3_coloring",
        "chvatal_harary_coloring", "bound_report",
    ],
    "search": ["ir_exact", "Catalog.graphs", "ResultCache.load", "ResultCache.get", "ResultCache.put"],
    "cli": ["main"],
}
LAYERS = list(TRACED)
RECIPES = ("theorem1_coloring", "lemma2_coloring", "theorem3_coloring", "chvatal_harary_coloring")
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters = {
            "copy_subsets": 0, "copy_hits": 0, "leaves": 0, "prunes": 0, "results": 0,
            "arrows": 0, "cache_gets": 0, "cache_hits": 0, "cache_bytes": 0, "certified": 0,
        }
        self.op_id = -1
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> list:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0, nid]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        idx, child, nid = frame
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_s[nid] += (t1 - t0) - child
        self.calls[nid] += 1

    def begin(self) -> None:
        """Open the root span that covers one traced pass."""
        self._root = (self._open(0), perf_counter())

    def finish(self) -> float:
        """Close the root span and return its wall time."""
        frame, t0 = self._root
        t1 = perf_counter()
        self._close(frame, t0, t1)
        return t1 - t0

    def _wrap(self, name: str, fn, hook=None):
        nid = self.ids[name]
        tracer = self

        def traced(*args, **kwargs):
            # The span is [t0, t1]. The tracer's own work around it, from
            # outer0 to outer1, is booked to the benchmark and counted as
            # child time of the caller, so it is in nobody's self time.
            outer0 = perf_counter()
            frame = tracer._open(nid)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf_counter()
                tracer._close(frame, t0, t1)
                if returned and hook is not None:
                    hook(tracer.counters, result, args)
                outer1 = perf_counter()
                tracer.self_s[0] += (outer1 - outer0) - (t1 - t0)
                if tracer._stack:
                    tracer._stack[-1][1] += outer1 - outer0

        return traced

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key == "arrowhead" or key.startswith("arrowhead.")]
        for layer, fns in TRACED.items():
            home = getattr(lib, layer)
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    attr = "__init__" if meth == "load" else meth
                    cls = getattr(home, cls_name)
                    original = vars(cls)[attr]
                    self._set(cls, attr, self._wrap(name, original, _HOOKS.get(name)))
                    continue
                original = getattr(home, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            site = module.__name__.rpartition(".")[2]
                            hook = _HOOKS.get((site, name)) or _HOOKS.get(name)
                            self._set(module, attr, self._wrap(name, original, hook))

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        layer_self = {layer: 0.0 for layer in [ROOT] + LAYERS}
        for nid, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += self.self_s[nid]
            if nid:
                out[f"{name}.calls"] = (self.calls[nid], "count")
                out[f"{name}.self_s"] = (self.self_s[nid], "s")
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = (value, "s")
        c = self.counters
        recipe_calls = sum(self.calls[self.ids[f"constructions.{fn}"]] for fn in RECIPES)
        out["graphs.find_induced_embedding.hit_ratio"] = (_ratio(c["copy_hits"], c["copy_subsets"]), "ratio")
        out["arrowing.leaves"] = (c["leaves"], "count")
        out["arrowing.prunes"] = (c["prunes"], "count")
        out["arrowing.arrows_ratio"] = (_ratio(c["arrows"], c["results"]), "ratio")
        out["search.cache.hit_ratio"] = (_ratio(c["cache_hits"], c["cache_gets"]), "ratio")
        out["search.cache.bytes"] = (c["cache_bytes"], "B")
        out["constructions.certified_ratio"] = (_ratio(c["certified"], recipe_calls), "ratio")
        out["trace.spans"] = (len(self.name), "count")
        return out

    def write(self, path) -> None:
        """Header line of JSON, then the five span arrays in native byte order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [["name", "H"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counters, keyed by span name or by (calling module, span name) ---------

def _copy_subset(c, result, args):
    c["copy_subsets"] += 1


def _copy_hit(c, result, args):
    c["copy_hits"] += result is not None


def _arrowing(c, result, args):
    c["results"] += 1
    c["arrows"] += result.arrows
    c["leaves"] += result.colorings_explored
    c["prunes"] += result.prunes


def _cache_get(c, result, args):
    c["cache_gets"] += 1
    c["cache_hits"] += result is not None


def _cache_put(c, result, args):
    c["cache_bytes"] += os.path.getsize(args[0].path)


def _certified(c, result, args):
    c["certified"] += 1


_HOOKS = {
    ("arrowing", "graphs.induced_subgraph"): _copy_subset,
    ("arrowing", "graphs.find_induced_embedding"): _copy_hit,
    "arrowing.strongly_arrows": _arrowing,
    "arrowing.arrows_complete_non_induced": _arrowing,
    "search.ResultCache.get": _cache_get,
    "search.ResultCache.put": _cache_put,
    **{f"constructions.{fn}": _certified for fn in RECIPES},
}
