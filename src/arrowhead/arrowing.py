"""Exact strong-arrowing decisions by exhaustive coloring search.

strongly_arrows(f, g, h) answers whether every red/blue coloring of the edges
of f contains a red induced copy of g or a blue induced copy of h. The search
walks a binary tree over edge colors and prunes a branch as soon as the edges
colored so far already complete a monochromatic copy, so the reported
coloring count is the number of leaves reached, not 2^|E(f)|.

The classical (non-induced, complete host) variant lives here too: it is
the same search with ordinary instead of induced containment. Both build
their copy masks with one builder, _copy_masks, which compares each host
k-subset's adjacency code with the pattern's precomputed labelled codes
instead of embedding the pattern subset by subset.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .coloring import BLUE, RED, EdgeColoring, verify_witness
from .errors import PreconditionError
from .graphs import Graph, complete, find_induced_embedding


@dataclass(frozen=True)
class ArrowingResult:
    """Verdict plus search effort.

    colorings_explored counts complete colorings the search reached; prunes
    counts branches cut before all edges were colored. Both depend on the
    branching order, so treat them as diagnostics, not invariants.
    """

    arrows: bool
    witness: EdgeColoring | None
    colorings_explored: int
    prunes: int


@dataclass(frozen=True)
class NotFoundBelow:
    """Outcome of a bounded minimum search that exhausted its order budget."""

    n_max: int


def _edge_order(f: Graph) -> list[tuple[int, int]]:
    # Branch on busiest edges first: their color constrains the most copies.
    return sorted(f.edges(), key=lambda e: -(f.degree(e[0]) + f.degree(e[1])))


# Cached because a catalog sweep builds masks for the same patterns on every host.
@lru_cache(maxsize=128)
def _pattern_codes(pattern: Graph) -> dict[int, tuple[int, ...]]:
    """Labelled adjacency codes of pattern, each mapped to its set bit positions.

    Bit t of a code is the t-th vertex pair of combinations(range(k), 2). The
    codes are the orbit of pattern's own code under relabelling, at most k!
    of them; closing it under adjacent transpositions costs orbit size, not
    k!, so a clique pattern has one code found in k - 1 steps.
    """
    k = pattern.n
    pairs = list(combinations(range(k), 2))
    slot = {pair: t for t, pair in enumerate(pairs)}
    swaps = []
    for a in range(k - 1):
        tau = list(range(k))
        tau[a], tau[a + 1] = a + 1, a
        swaps.append([slot[min(tau[i], tau[j]), max(tau[i], tau[j])] for i, j in pairs])
    codes: dict[int, tuple[int, ...]] = {}
    todo = [tuple(slot[e] for e in pattern.edges())]
    while todo:
        on = todo.pop()
        code = sum(1 << t for t in on)
        if code not in codes:
            codes[code] = on
            todo.extend(tuple(move[t] for t in on) for move in swaps)
    return codes


def _copy_masks(f: Graph, pattern: Graph, edge_index: dict[tuple[int, int], int], induced: bool) -> list[int]:
    """Bitmask over f's edges for each copy of pattern in f.

    A k-subset of f holds an induced copy when its code is one of pattern's
    codes, and the mask is the subset's interior. It holds a non-induced copy
    for every pattern code that fits inside its code, and the mask is that
    code's edges only.
    """
    codes = _pattern_codes(pattern)
    edge_bit = {e: 1 << i for e, i in edge_index.items()}
    masks = set()
    for verts in combinations(range(f.n), pattern.n):
        bits = [edge_bit.get(pair, 0) for pair in combinations(verts, 2)]
        code = sum(1 << t for t, bit in enumerate(bits) if bit)
        if induced:
            fits = [code] if code in codes else []
        else:
            fits = [p for p in codes if p & ~code == 0]
        for p in fits:
            masks.add(sum(bits[t] for t in codes[p]))
    return sorted(masks)


def _search(n_edges, red_masks, blue_masks):
    """DFS over total colorings. Returns (witness_masks or None, leaves, prunes).

    A copy mask contained in one side's colored set kills that branch; only
    masks through the edge colored last need checking, since the parent node
    already survived. leaves counts complete colorings reached, prunes counts
    branches cut short.
    """
    red_by_edge = [[m for m in red_masks if (m >> i) & 1] for i in range(n_edges)]
    blue_by_edge = [[m for m in blue_masks if (m >> i) & 1] for i in range(n_edges)]
    leaves = 0
    prunes = 0
    # stack entries: (depth, red_set, blue_set, side of the edge at depth-1)
    stack = [(0, 0, 0, None)]
    while stack:
        depth, red_set, blue_set, side = stack.pop()
        if side is not None:
            i = depth - 1
            if side == 0:
                dead = any(m & red_set == m for m in red_by_edge[i])
            else:
                dead = any(m & blue_set == m for m in blue_by_edge[i])
            if dead:
                if depth == n_edges:
                    leaves += 1
                else:
                    prunes += 1
                continue
        if depth == n_edges:
            leaves += 1
            return (red_set, blue_set), leaves, prunes
        bit = 1 << depth
        # LIFO: push blue first so the red branch is explored first.
        stack.append((depth + 1, red_set, blue_set | bit, 1))
        stack.append((depth + 1, red_set | bit, blue_set, 0))
    return None, leaves, prunes


def _run(f: Graph, g: Graph, h: Graph, induced: bool) -> ArrowingResult:
    if g.edge_count() == 0 or h.edge_count() == 0:
        raise PreconditionError("patterns must have at least one edge")
    edges = _edge_order(f)
    edge_index = {e: i for i, e in enumerate(edges)}
    red_masks = _copy_masks(f, g, edge_index, induced)
    blue_masks = _copy_masks(f, h, edge_index, induced)
    witness_sets, leaves, prunes = _search(len(edges), red_masks, blue_masks)
    if witness_sets is None:
        return ArrowingResult(True, None, leaves, prunes)
    red_set, blue_set = witness_sets
    red = [edges[i] for i in range(len(edges)) if (red_set >> i) & 1]
    blue = [edges[i] for i in range(len(edges)) if (blue_set >> i) & 1]
    witness = EdgeColoring.of(f.n, red, blue)
    if induced:
        bad = verify_witness(f, witness, g, h)
        if bad is not None:
            raise AssertionError(f"search returned a non-witness coloring: {bad}")
    else:
        if (
            find_induced_embedding(witness.red_graph(), g, induced=False) is not None
            or find_induced_embedding(witness.blue_graph(), h, induced=False) is not None
        ):
            raise AssertionError("search returned a non-witness coloring")
    return ArrowingResult(False, witness, leaves, prunes)


def strongly_arrows(f: Graph, g: Graph, h: Graph) -> ArrowingResult:
    """Decide f => (g, h): red induced g or blue induced h in every coloring."""
    return _run(f, g, h, induced=True)


def arrows_complete_non_induced(n: int, g: Graph, h: Graph) -> ArrowingResult:
    """Classical arrowing on K_n with ordinary (not induced) containment."""
    return _run(complete(n), g, h, induced=False)


def ramsey_number_exact(g: Graph, h: Graph, n_max: int) -> int | NotFoundBelow:
    """Least n <= n_max with K_n -> (g, h) non-induced, else NotFoundBelow."""
    if g.edge_count() == 0 or h.edge_count() == 0:
        raise PreconditionError("patterns must have at least one edge")
    lo = max(g.n, h.n)
    for n in range(lo, n_max + 1):
        if arrows_complete_non_induced(n, g, h).arrows:
            return n
    return NotFoundBelow(n_max)
