"""Exact strong-arrowing decisions by exhaustive coloring search.

strongly_arrows(f, g, h) answers whether every red/blue coloring of the edges
of f contains a red induced copy of g or a blue induced copy of h. The search
walks a binary tree over edge colors with unit propagation: a copy with all
but one edge in one color forces its last edge to the other color, and a
branch closes as soon as the edges colored so far complete a monochromatic
copy. So a proof reaches no complete coloring at all; its effort is the
number of branches closed, not 2^|E(f)|.

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
from .graphs import Graph, _bits, complete, find_induced_embedding


@dataclass(frozen=True)
class ArrowingResult:
    """Verdict plus search effort.

    colorings_explored counts complete colorings the search reached: 0 on a
    proof, 1 on a refutation (the witness). prunes counts branches closed by
    a conflict, including conflicts found while propagating forced colors.
    Both depend on the branching order, so treat them as diagnostics, not
    invariants.
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
    """DFS with unit propagation. Returns (witness_masks or None, leaves, prunes).

    Branches on the lowest-index uncolored edge, red first. After an edge
    gets a color, that side's copy masks through it are scanned: a mask
    wholly inside the side is a conflict and closes the branch, and a mask
    with one uncolored edge left forces that edge to the other color, which
    is then scanned the same way. A forced move only removes subtrees in
    which every coloring completes a monochromatic copy, so the first
    complete coloring reached is the lexicographically least refuting one,
    the same a DFS without forced moves finds. leaves counts complete
    colorings reached (0 on a proof, 1 on a refutation); prunes counts
    branches closed by a conflict, including conflicts met while propagating.
    """
    if not n_edges:
        return (0, 0), 1, 0
    # by_edge[side][i]: that side's copy masks through edge i
    by_edge = ([[] for _ in range(n_edges)], [[] for _ in range(n_edges)])
    for lists, masks in zip(by_edge, (red_masks, blue_masks)):
        for m in masks:
            for i in _bits(m):
                lists[i].append(m)
    full = (1 << n_edges) - 1
    prunes = 0
    # stack entries: (red_set, blue_set, edge just colored, its side); LIFO,
    # so the red child is pushed last and explored first
    stack = [(0, 1, 0, 1), (1, 0, 0, 0)]
    while stack:
        red_set, blue_set, i, side = stack.pop()
        todo = [(i, side)]
        while todo:
            i, side = todo.pop()
            own, other = (blue_set, red_set) if side else (red_set, blue_set)
            free = ~own
            # the uncolored edges of each copy through edge i that can still complete
            rests = [m & free for m in by_edge[side][i] if not m & other]
            if 0 in rests:
                prunes += 1
                break
            for rest in rests:
                if not rest & (rest - 1) and not rest & other:
                    other |= rest
                    todo.append((rest.bit_length() - 1, 1 - side))
            if side:
                red_set = other
            else:
                blue_set = other
        else:  # propagation ended without a conflict
            colored = red_set | blue_set
            if colored == full:
                return (red_set, blue_set), 1, prunes
            bit = ~colored & (colored + 1)  # the lowest uncolored edge
            j = bit.bit_length() - 1
            stack.append((red_set, blue_set | bit, j, 1))
            stack.append((red_set | bit, blue_set, j, 0))
    return None, 0, prunes


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
