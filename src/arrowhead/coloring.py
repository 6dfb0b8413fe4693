"""Red/blue edge colorings, monochromatic-pattern detection, and certification.

A coloring is total: every host edge is red or blue. It is stored as
neighbour bitmask rows, the format of Graph.adj, which the recipes paint and
every check walks without building a graph; vertex pairs appear only where a
coloring is built from or read as pairs. Certification predicates state what
a witness coloring must defeat. The red-side predicate looks at components
of the red spanning subgraph as graphs in their own right (a red path P_3
has independence 2 even when its endpoints are adjacent in the host).

This module is the one judge of refuting colorings, and it imports nothing
but graphs and errors, so it shares no code with the search that finds
them. verify_witness judges a coloring a user hands in, and the CH recipe's
blocks go through the same embedder walk (_find_mono). The search's
refutations, fresh or read back from a result cache, are judged on their
edge bitsets by _fault, against copy lists from the embedder (_copies): one
bit test per copy, not an embedding search per coloring. The search builds
the same masks from its own subset tables (arrowing._copy_masks), so a fault
in that builder cannot also hide in its check. A host with no copy of g is
refuted all red without a search; that coloring goes through _fault too,
where it passes exactly when the host's list of g copies is empty, and so
do the copy-union colorings a sweep without a cache reads off the search's
masks (arrowing._union_refutation). Bit i of a refutation's int is the
i-th edge of _edge_order(f), which the judge builds from f itself and the
search imports as its branching order.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

from .errors import ColoringMismatchError, PreconditionError
from .graphs import (
    Embedding,
    Graph,
    _bits,
    _clique,
    _components,
    _embeddings,
    find_induced_embedding,
)

RED = "red"
BLUE = "blue"


def _pairs(rows: Iterable[int]) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, that these neighbour rows join, sorted."""
    return [(u, v) for u, row in enumerate(rows) for v in _bits(row >> u << u)]


def _rows_of(host_order: int, pairs) -> tuple[int, ...]:
    """Neighbour rows of these unordered pairs of vertices 0..host_order-1."""
    rows = [0] * host_order
    for u, v in pairs:
        if u == v:
            raise ColoringMismatchError(f"loop pair ({u},{v}) in coloring")
        if not (0 <= u < host_order and 0 <= v < host_order):
            raise ColoringMismatchError(f"colored pair {(min(u, v), max(u, v))} is outside 0..{host_order - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


@dataclass(frozen=True)
class EdgeColoring:
    """Total red/blue assignment on the edges of a host graph.

    red_rows[v] and blue_rows[v] are vertex v's neighbour bitmasks in the red
    and the blue spanning subgraph; red and blue give them as pairs (u, v), u < v.
    """

    host_order: int
    red_rows: tuple[int, ...]
    blue_rows: tuple[int, ...]

    @staticmethod
    def of(host_order: int, red, blue) -> "EdgeColoring":
        """The coloring with these red and blue pairs, each pair taken
        unordered. A loop or a vertex outside 0..host_order-1 raises
        ColoringMismatchError, and so does what from_rows refuses."""
        return EdgeColoring.from_rows(host_order, _rows_of(host_order, red), _rows_of(host_order, blue))

    @staticmethod
    def from_rows(host_order: int, red_rows: Iterable[int], blue_rows: Iterable[int]) -> "EdgeColoring":
        """The coloring with these red and blue neighbour rows, each as
        Graph.adj holds rows; an edge colored twice raises
        ColoringMismatchError. Equal colorings alive at once are one object,
        held in the one table of equal answers (_shared)."""
        r, b = tuple(red_rows), tuple(blue_rows)
        if any(map(int.__and__, r, b)):
            raise ColoringMismatchError(f"edges colored twice: {_pairs(map(int.__and__, r, b))}")
        return _shared(EdgeColoring, host_order, r, b)

    @staticmethod
    def monochrome(host: Graph, color: str) -> "EdgeColoring":
        empty = (0,) * host.n
        if color == RED:
            return _shared(EdgeColoring, host.n, host.adj, empty)
        if color == BLUE:
            return _shared(EdgeColoring, host.n, empty, host.adj)
        raise ValueError(f"unknown color {color!r}")

    @property
    def red(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pairs(self.red_rows))

    @property
    def blue(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pairs(self.blue_rows))

    def color_of(self, u: int, v: int) -> str | None:
        if 0 <= u < self.host_order and 0 <= v < self.host_order:
            if self.red_rows[u] >> v & 1:
                return RED
            if self.blue_rows[u] >> v & 1:
                return BLUE
        return None

    def swapped(self) -> "EdgeColoring":
        return _shared(EdgeColoring, self.host_order, self.blue_rows, self.red_rows)

    def check_against(self, host: Graph) -> None:
        """Raise unless this coloring covers exactly the edges of host."""
        if host.n != self.host_order:
            raise ColoringMismatchError(
                f"coloring is for order {self.host_order}, host has order {host.n}"
            )
        colored = tuple(map(int.__or__, self.red_rows, self.blue_rows))
        if colored == host.adj:
            return
        missing = _pairs(a & ~c for a, c in zip(host.adj, colored))
        if missing:
            raise ColoringMismatchError(f"host edges left uncolored: {missing}")
        extra = _pairs(c & ~a for a, c in zip(host.adj, colored))
        raise ColoringMismatchError(f"colored pairs are not host edges: {extra}")

    def red_graph(self) -> Graph:
        return Graph(self.host_order, self.red_rows)

    def blue_graph(self) -> Graph:
        return Graph(self.host_order, self.blue_rows)

    def to_json_dict(self) -> dict:
        return {
            "n": self.host_order,
            "red": [list(e) for e in _pairs(self.red_rows)],
            "blue": [list(e) for e in _pairs(self.blue_rows)],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EdgeColoring":
        if not isinstance(data, dict) or set(data) != {"n", "red", "blue"}:
            raise ColoringMismatchError('coloring JSON must have exactly the keys "n", "red", "blue"')
        n = data["n"]
        # JSON true and false are not integers, though Python's bools are ints
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
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
                    or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
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


# (make, *args) -> the live make(*args): the one table behind equal
# colorings, arrowing results, bound reports and IR results; an entry goes
# when its value is no longer referenced.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(make, *args):
    """The live make(*args), made if none is, so equal answers alive at
    once are one object."""
    key = (make, *args)
    value = _SHARED.get(key)
    if value is None:
        value = _SHARED[key] = make(*args)
    return value


@dataclass(frozen=True)
class Violation:
    """A monochromatic induced copy that defeats a claimed witness coloring."""

    color: str
    embedding: Embedding


def _find_mono(host: Graph, c: EdgeColoring, pattern: Graph, color: str, induced: bool = True) -> Violation | None:
    """find_mono_induced on a coloring already checked against host; induced=False finds any copy."""
    rows = c.red_rows if color == RED else c.blue_rows
    emb = find_induced_embedding(host, pattern, rows, induced)
    return Violation(color, emb) if emb is not None else None


def find_mono_induced(host: Graph, c: EdgeColoring, pattern: Graph, color: str) -> Violation | None:
    """First induced copy of pattern whose interior edges all carry color.

    The embedding returned is the lexicographically first one, so reruns
    produce identical certificates.
    """
    c.check_against(host)
    if color not in (RED, BLUE):
        raise ValueError(f"unknown color {color!r}")
    return _find_mono(host, c, pattern, color)


def verify_witness(host: Graph, c: EdgeColoring, g: Graph, h: Graph) -> Violation | None:
    """None when c avoids both a red induced g and a blue induced h.

    Checks the red side first, so a doubly bad coloring reports red.
    """
    c.check_against(host)
    return _find_mono(host, c, g, RED) or _find_mono(host, c, h, BLUE)


def _edge_order(f: Graph) -> tuple[tuple[int, int], ...]:
    """f's edges in the order of every edge bitset: f.edges() stably sorted
    by descending degree sum, so the search colors the busiest edges first."""
    return tuple(sorted(f.edges(), key=lambda e: -(f.degree(e[0]) + f.degree(e[1]))))


def _order_of(host) -> tuple[tuple[int, int], ...]:
    """_edge_order(host.f), kept by a search record as host[_order_of]."""
    return _edge_order(host.f)


def _edge_rows(host, edge_set: int) -> tuple[int, ...]:
    """Neighbour rows of f of the edges whose bits edge_set holds."""
    edges = host[_order_of]
    rows = [0] * host.f.n
    while edge_set:
        low = edge_set & -edge_set
        edge_set ^= low
        u, v = edges[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def _copies(host, pattern: Graph, induced: bool) -> tuple[int, ...]:
    """Bitmask over f's edges, in _edge_order, of each copy of pattern in
    f, from the embedder; host is a search record (arrowing._Host).

    The embedder yields one embedding per copy, and a copy's mask holds the
    images of pattern's edges: for an induced copy those are the host edges
    inside it. This shares no code with arrowing._copy_masks, which builds
    the same masks from the subset tables.
    """
    f = host.f
    bit = [[0] * f.n for _ in range(f.n)]
    for i, (u, v) in enumerate(host[_order_of]):
        bit[u][v] = bit[v][u] = 1 << i
    pairs = pattern.edges()
    return tuple(sorted({
        sum(bit[image[a]][image[b]] for a, b in pairs)
        for image in _embeddings(f, pattern, None, induced)
    }))


def _fault(host, g: Graph, h: Graph, induced: bool, red_set: int, blue_set: int) -> str | None:
    """What keeps (red_set, blue_set) from refuting f -> (g, h), or None.

    The sides are edge bitsets in _edge_order; g and h have an edge each.
    The check shares no code with the copy masks: the sides must be
    disjoint, lie inside and cover f's edges, and no copy of g from _copies
    may lie inside the red side, nor a copy of h inside the blue side. An
    empty blue side holds no copy of h, so its list is not built.
    """
    n_edges = len(host[_order_of])
    if red_set & blue_set or (red_set | blue_set) >> n_edges:
        return "search colored an edge twice or a non-edge"
    if red_set | blue_set != (1 << n_edges) - 1:
        return "search left host edges uncolored"
    # the sides partition f's edges, so a copy lies inside one side when
    # none of its edges is on the other
    for copy in host[_copies, g, induced]:
        if not copy & blue_set:
            return "search returned a coloring with a red copy of g"
    if blue_set:
        for copy in host[_copies, h, induced]:
            if not copy & red_set:
                return "search returned a coloring with a blue copy of h"
    return None


# ---------------------------------------------------------------------------
# certification predicates

def red_component_independence_ok(host: Graph, c: EdgeColoring, alpha: int) -> bool:
    """Every component of the red spanning subgraph has independence <= alpha-1:
    no alpha of its vertices are a clique of the red rows' complement."""
    if alpha < 2:
        raise PreconditionError("alpha must be at least 2")
    c.check_against(host)
    apart = [~row for row in c.red_rows]
    return all(_clique(apart, alpha, comp) is None for comp in _components(c.red_rows))


def blue_clique_free(host: Graph, c: EdgeColoring, omega: int) -> bool:
    """No omega host vertices are pairwise joined by blue edges."""
    if omega < 2:
        raise PreconditionError("omega must be at least 2")
    c.check_against(host)
    return _clique(c.blue_rows, omega, (1 << c.host_order) - 1) is None


def red_isolatefree_independence_ok(host: Graph, c: EdgeColoring, alpha: int) -> bool:
    """No vertex set free of blue edges induces an isolate-free subgraph of
    independence >= alpha, so every isolate-free pattern of independence
    alpha is defeated at once.

    A violation exists exactly when some independent alpha-set I of the host
    can give each of its vertices one host neighbour so that I plus those
    neighbours, at most 2*alpha vertices, spans no blue edge. The check
    backtracks over that witness, in n^O(alpha) time at every host order.
    """
    if alpha < 1:
        raise PreconditionError("alpha must be at least 1")
    c.check_against(host)
    adj = host.adj
    blue = c.blue_rows

    def cover(ind: list[int], i: int, members: int, blocked: int) -> bool:
        # members is the set so far, blocked the vertices with a blue edge into it
        while i < alpha and adj[ind[i]] & members:
            i += 1
        if i == alpha:
            return True
        cand = adj[ind[i]] & ~blocked
        while cand:
            bit = cand & -cand
            cand ^= bit
            if cover(ind, i + 1, members | bit, blocked | blue[bit.bit_length() - 1]):
                return True
        return False

    def grow(ind: list[int], cand: int, members: int, blocked: int) -> bool:
        if len(ind) == alpha:
            return cover(ind, 0, members, blocked)
        while cand.bit_count() >= alpha - len(ind):
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            ind.append(v)
            now = blocked | blue[v]
            # each vertex of I still needs a neighbour outside the blocked set
            if all(adj[x] & ~now for x in ind) and grow(ind, cand & ~adj[v], members | bit, now):
                return True
            ind.pop()
        return False

    return not grow([], (1 << host.n) - 1, 0, 0)
