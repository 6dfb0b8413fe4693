"""Red/blue edge colorings, monochromatic-pattern detection, and certification.

A coloring is total: every host edge is red or blue. Certification predicates
state what a witness coloring must defeat. The red-side predicate looks at
components of the red spanning subgraph as graphs in their own right (a red
path P_3 has independence 2 even when its endpoints are adjacent in the
host).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ColoringMismatchError, PreconditionError
from .graphs import (
    Embedding,
    Graph,
    check_embedding,
    components,
    find_induced_embedding,
    independence_number,
    induced_subgraph,
    lex_least_clique,
)

RED = "red"
BLUE = "blue"

ORACLE_ORDER_LIMIT = 16


# Bounded above the 1,891 vertex pairs of a graph of order MAX_ORDER.
@lru_cache(maxsize=2048)
def _pair(u: int, v: int) -> tuple[int, int]:
    """The one tuple for vertex pair (u, v), u < v, shared by every coloring.

    A stored coloring then costs its two frozensets but no tuple per edge,
    so a caller holding many colorings grows by less.
    """
    return (u, v)


def _norm_pairs(pairs) -> frozenset[tuple[int, int]]:
    out = set()
    for u, v in pairs:
        if u == v:
            raise ColoringMismatchError(f"loop pair ({u},{v}) in coloring")
        out.add(_pair(u, v) if u < v else _pair(v, u))
    return frozenset(out)


@dataclass(frozen=True)
class EdgeColoring:
    """Total red/blue assignment on the edges of a host graph."""

    host_order: int
    red: frozenset[tuple[int, int]]
    blue: frozenset[tuple[int, int]]

    @staticmethod
    def of(host_order: int, red, blue) -> "EdgeColoring":
        """The coloring with these red and blue pairs, each pair taken
        unordered. Equal colorings alive at once are one object, so a caller
        that keeps the same answer many times holds it once."""
        r = _norm_pairs(red)
        b = _norm_pairs(blue)
        overlap = r & b
        if overlap:
            raise ColoringMismatchError(f"edges colored twice: {sorted(overlap)}")
        key = (host_order, r, b)
        c = _INTERNED.get(key)
        if c is None:
            c = _INTERNED[key] = EdgeColoring(host_order, r, b)
        return c

    @staticmethod
    def monochrome(host: Graph, color: str) -> "EdgeColoring":
        edges = host.edges()
        if color == RED:
            return EdgeColoring.of(host.n, edges, [])
        if color == BLUE:
            return EdgeColoring.of(host.n, [], edges)
        raise ValueError(f"unknown color {color!r}")

    def color_of(self, u: int, v: int) -> str | None:
        key = (min(u, v), max(u, v))
        if key in self.red:
            return RED
        if key in self.blue:
            return BLUE
        return None

    def swapped(self) -> "EdgeColoring":
        return EdgeColoring(self.host_order, self.blue, self.red)

    def check_against(self, host: Graph) -> None:
        """Raise unless this coloring covers exactly the edges of host."""
        if host.n != self.host_order:
            raise ColoringMismatchError(
                f"coloring is for order {self.host_order}, host has order {host.n}"
            )
        host_edges = set(host.edges())
        colored = set(self.red) | set(self.blue)
        missing = host_edges - colored
        if missing:
            raise ColoringMismatchError(f"host edges left uncolored: {sorted(missing)}")
        extra = colored - host_edges
        if extra:
            raise ColoringMismatchError(f"colored pairs are not host edges: {sorted(extra)}")

    def red_graph(self) -> Graph:
        return Graph.from_edges(self.host_order, self.red)

    def blue_graph(self) -> Graph:
        return Graph.from_edges(self.host_order, self.blue)

    def to_json_dict(self) -> dict:
        return {
            "n": self.host_order,
            "red": sorted([list(e) for e in self.red]),
            "blue": sorted([list(e) for e in self.blue]),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EdgeColoring":
        if not isinstance(data, dict) or set(data) != {"n", "red", "blue"}:
            raise ColoringMismatchError('coloring JSON must have exactly the keys "n", "red", "blue"')
        n = data["n"]
        if not isinstance(n, int) or n < 0:
            raise ColoringMismatchError('"n" must be a non-negative integer')
        sides = {}
        for key in (RED, BLUE):
            pairs = data[key]
            if not isinstance(pairs, list):
                raise ColoringMismatchError(f'"{key}" must be a list of [u, v] pairs')
            seen = []
            for item in pairs:
                if (
                    not isinstance(item, list)
                    or len(item) != 2
                    or not all(isinstance(x, int) for x in item)
                ):
                    raise ColoringMismatchError(f'"{key}" entries must be [u, v] integer pairs')
                u, v = item
                if not (0 <= u < v < n):
                    raise ColoringMismatchError(f'"{key}" pair [{u}, {v}] must satisfy 0 <= u < v < n')
                seen.append((u, v))
            if len(set(seen)) != len(seen):
                raise ColoringMismatchError(f'duplicate pairs in "{key}"')
            sides[key] = seen
        return EdgeColoring.of(n, sides[RED], sides[BLUE])


# (host_order, red, blue) -> the live EdgeColoring with those fields; an
# entry goes when its coloring is no longer referenced.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Violation:
    """A monochromatic induced copy that defeats a claimed witness coloring."""

    color: str
    embedding: Embedding


def find_mono_induced(host: Graph, c: EdgeColoring, pattern: Graph, color: str) -> Violation | None:
    """First induced copy of pattern whose interior edges all carry color.

    The embedding returned is the lexicographically first one, so reruns
    produce identical certificates.
    """
    c.check_against(host)
    if color not in (RED, BLUE):
        raise ValueError(f"unknown color {color!r}")
    side = c.red if color == RED else c.blue
    emb = find_induced_embedding(host, pattern, lambda u, v: (min(u, v), max(u, v)) in side)
    return Violation(color, emb) if emb is not None else None


def verify_witness(host: Graph, c: EdgeColoring, g: Graph, h: Graph) -> Violation | None:
    """None when c avoids both a red induced g and a blue induced h.

    Checks the red side first, so a doubly bad coloring reports red.
    """
    return find_mono_induced(host, c, g, RED) or find_mono_induced(host, c, h, BLUE)


def validate_violation(host: Graph, c: EdgeColoring, pattern: Graph, violation: Violation) -> bool:
    """Recheck a Violation from the definitions, independent of the finder."""
    side = c.red if violation.color == RED else c.blue
    if not check_embedding(host, pattern, violation.embedding):
        return False
    image = violation.embedding.map
    for a, b in combinations(sorted(image), 2):
        if host.has_edge(a, b) and (a, b) not in side:
            return False
    return True


# ---------------------------------------------------------------------------
# certification predicates

def red_component_independence_ok(host: Graph, c: EdgeColoring, alpha: int) -> bool:
    """Every component of the red spanning subgraph has independence <= alpha-1."""
    if alpha < 2:
        raise PreconditionError("alpha must be at least 2")
    c.check_against(host)
    red = c.red_graph()
    for comp in components(red):
        if independence_number(induced_subgraph(red, comp)) > alpha - 1:
            return False
    return True


def blue_clique_free(host: Graph, c: EdgeColoring, omega: int) -> bool:
    """No omega host vertices are pairwise joined by blue edges."""
    if omega < 2:
        raise PreconditionError("omega must be at least 2")
    c.check_against(host)
    return lex_least_clique(c.blue_graph(), omega) is None


def red_isolatefree_independence_ok(host: Graph, c: EdgeColoring, alpha: int) -> bool:
    """Exhaustive red-side check: no all-red vertex set induces an isolate-free
    subgraph of independence >= alpha.

    This defeats every isolate-free pattern with independence alpha at once,
    which is why it costs 2^n; hosts above ORACLE_ORDER_LIMIT vertices are
    refused. Meant as a test oracle and for certifying small constructions,
    not as a production check.
    """
    if alpha < 1:
        raise PreconditionError("alpha must be at least 1")
    if host.n > ORACLE_ORDER_LIMIT:
        raise PreconditionError(
            f"exhaustive red-side check refused above {ORACLE_ORDER_LIMIT} vertices (got {host.n})"
        )
    c.check_against(host)
    blue_rows = [0] * host.n
    for u, v in c.blue:
        blue_rows[u] |= 1 << v
        blue_rows[v] |= 1 << u
    for mask in range(1 << host.n):
        if mask.bit_count() < alpha:
            continue
        verts = [v for v in range(host.n) if (mask >> v) & 1]
        if any(blue_rows[v] & mask for v in verts):
            continue  # a blue edge inside, not all red
        if any(host.adj[v] & mask == 0 for v in verts):
            continue  # isolated inside the set
        if independence_number(induced_subgraph(host, verts)) >= alpha:
            return False
    return True
