"""Exact strong-arrowing decisions by exhaustive coloring search.

strongly_arrows(f, g, h) answers whether every red/blue coloring of the edges
of f contains a red induced copy of g or a blue induced copy of h. The search
walks a binary tree over edge colors with unit propagation: a copy with all
but one edge in one color forces its last edge to the other color, and a
branch closes as soon as the edges colored so far complete a monochromatic
copy. So a proof reaches no complete coloring at all; its effort is the
number of branches closed, not 2^|E(f)|. The walk dives: it takes each red
child in place and stacks only the blue children it may come back to. A
dive ends as soon as every copy of g holds a blue edge: coloring every
edge left red then completes no red copy and adds no blue edge, so the
all-red completion is the dive's own leaf and is returned at once (DPLL's
pure-literal rule, which settles every remaining edge red). Propagation
counts each copy's edges of its own color for all copies at once, as
packed bitsets over copy indices, one level per count (DPLL's counting
scheme done bit-parallel on Python ints), so coloring an edge costs a
fixed number of integer operations however many copies pass through it.
The tree, the witnesses and the counters are those of the scan over each
edge's list of copy masks that the counting replaced.

The classical (non-induced, complete host) variant lives here too: it is
the same search with ordinary instead of induced containment. Both build
their copy masks with one builder, _copy_masks, which compares each host
k-subset's adjacency code with the pattern's precomputed labelled codes
instead of embedding the pattern subset by subset. What is derived from
one host lives in one record (_Host), a dict that a decision looks up once
and reads with one subscript per entry: the subsets' codes and interiors
per k, and per (pattern, kind) the search's side record (_Side: the masks,
each edge's copies as a bitset over copy indices repeated at every count
level, the OR of the one-edge masks and the search's level shifts) and
the check's copy lists, each built on first ask and kept, so a sweep over
many pattern pairs builds each once per host. The entry points resolve
their patterns to one shared instance each (_pattern), so those entries
match by identity.

This module holds the search only. Each refuting coloring it returns, all
red for a host with no copy of g included, is judged by coloring._fault,
and its blue side is decoded by coloring._edge_rows, in the judge's edge
order, the search's own; the red rows are f's rows without the blue ones,
since the judge checked that the two sides cover f's edges.

The search also closes branches that cannot hold the lexicographically least
refuting coloring. Swapping two twin vertices of f (vertices whose
neighbourhoods agree outside the pair) is an automorphism of f, so it maps
refuting colorings to refuting colorings; a branch whose colors already make
its image under such a swap lexicographically smaller is closed. The least
refuting coloring is never larger than its own image, so no cut removes it
and witnesses are those of the search without cuts. prunes counts these
symmetry cuts together with the conflicts.

Before the first branch the search colors every edge that is a copy of g
by itself blue and every edge that is a copy of h by itself red, and
propagates from them as from any forced edge (root forcing; K2+K1's
induced copies, for one, are single edges). The other color on such an
edge completes a copy, so this too removes only colorings that refute
nothing, and witnesses are unchanged. An edge that is a copy on both sides
closes the root as a proof, with leaves 0 and prunes 1. The one-edge
copies come with the side record, found once per host, pattern and kind,
not per search.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .coloring import EdgeColoring, _edge_order, _edge_rows, _fault, _shared
from .errors import PreconditionError
from .graphs import Graph, _bits, complete


@dataclass(frozen=True)
class ArrowingResult:
    """Verdict plus search effort.

    colorings_explored counts complete colorings the search reached: 0 on a
    proof, 1 on a refutation (the witness). prunes counts branches closed by
    a conflict, including conflicts found while propagating forced colors
    (the root's forcing of one-edge copies among them), and branches closed
    by a symmetry cut. Both depend on the branching order and on the cuts,
    so treat them as diagnostics, not invariants. Equal results alive
    at once are one object, held in coloring._shared's one table of equal
    answers, so a caller keeping many holds each once.
    """

    arrows: bool
    witness: EdgeColoring | None
    colorings_explored: int
    prunes: int


@dataclass(frozen=True, slots=True)
class NotFoundBelow:
    """Outcome of a bounded minimum search that exhausted its order budget."""

    n_max: int


# A catalog sweep to order 6 visits at most 1 + 2 + 4 + 11 + 34 + 156 = 208
# hosts, and the prove universe of perfbench/reference.json holds 296 (282
# induced hosts and 14 complete ones); _host keeps a record for each host of
# both at once, so a sweep over many pattern pairs, or a second pass over the
# prove items, builds each host's tables once.
_KEPT_HOSTS = 512


class _Host(dict):
    """What the search and its check derive from one host f, each built on
    the first ask and kept: host[build, *args] is build(host, *args) and
    host[build] is build(host). A hit, by the search or by the judge
    (coloring._fault, _copies, _edge_rows), is one dict subscript.

    edges, coloring._edge_order(f), the search's branching order, is built
    with the record; the rest on first ask, since a host settled without a
    search does not read its twin swaps. Per (pattern, kind) it keeps the
    search's _Side and the check's copy lists, which share no code with the
    subset tables and masks; the check keeps its own edge order too.
    """

    __slots__ = ("f", "edges")

    def __init__(self, f: Graph):
        self.f = f
        self.edges = _edge_order(f)

    def __missing__(self, key):
        build, *args = key if type(key) is tuple else (key,)
        value = self[key] = build(self, *args)
        return value


@lru_cache(maxsize=_KEPT_HOSTS)
def _host(f: Graph) -> _Host:
    return _Host(f)


# Equal patterns are one instance here, so the pattern keys of host records,
# holder masks and pattern caches match by identity, with no Graph.__eq__
# call. Keyed by the rows, which compare in C.
@lru_cache(maxsize=128)
def _pattern(adj: tuple[int, ...]) -> Graph:
    return Graph(len(adj), adj)


# One value per n_max, so a caller keeping many answers holds each once
# (like coloring._shared; NotFoundBelow has slots, so no weak reference).
@lru_cache(maxsize=16)
def _not_found_below(n_max: int) -> NotFoundBelow:
    return NotFoundBelow(n_max)


class _Twins(NamedTuple):
    """f's twin transpositions as edge permutations (see _twin_swaps)."""

    # each (a_mask, b_mask, pairs)
    swaps: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    # the ORs of the swaps' a_masks and of their b_masks: a cut needs a blue
    # a-edge and a red b-edge in one swap, and testing these first skips the
    # per-swap walk at most nodes of a short search. Measured on a Xeon:
    # without them the ir-sweep benchmark ran 5-8% fewer ops/s, with p50
    # 7-9% higher, in every one of 7 paired 10 s runs
    a_any: int
    b_any: int


_NO_TWINS = _Twins((), 0, 0)


def _twin_swaps(host: _Host) -> _Twins:
    """Edge permutations of f's twin transpositions, for the search's symmetry cuts.

    Vertices u and v are twins when their neighbourhoods agree outside
    {u, v}; swapping them is then an automorphism of f. Twinship is an
    equivalence relation, and the transpositions of consecutive members of
    each class are taken. Each swap is (a_mask, b_mask, pairs): pairs are
    the edges it moves as (1 << a, 1 << b), a < b in edges index, sorted by
    a; a_mask and b_mask are the ORs of their a and b bits. The record
    keeps the swaps and the ORs of all a_masks and of all b_masks.
    """
    f = host.f
    classes: list[list[int]] = []
    for v in range(f.n):
        for members in classes:
            u = members[0]
            if f.adj[u] & ~(1 << v) == f.adj[v] & ~(1 << u):
                members.append(v)
                break
        else:
            classes.append([v])
    index = {e: i for i, e in enumerate(host.edges)}
    swaps = []
    a_any = b_any = 0
    for members in classes:
        for u, v in zip(members, members[1:]):
            # the moved edges are {u, x} <-> {v, x} for every common neighbour x
            moved = sorted(
                sorted((index[min(u, x), max(u, x)], index[min(v, x), max(v, x)]))
                for x in _bits(f.adj[u] & f.adj[v])
            )
            if moved:
                pairs = tuple((1 << a, 1 << b) for a, b in moved)
                a_mask = sum(a for a, _ in pairs)
                b_mask = sum(b for _, b in pairs)
                swaps.append((a_mask, b_mask, pairs))
                a_any |= a_mask
                b_any |= b_mask
    return _Twins(tuple(swaps), a_any, b_any)


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


def _subset_table(host: _Host, k: int) -> dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """f's k-subsets grouped by adjacency code: code -> (interiors, edge bits).

    Bit t of a subset's code says whether its t-th vertex pair of
    combinations(verts, 2) is an edge of f, and that pair's edge bit is
    1 << (its index in host.edges), or 0 for a non-edge. The interior is
    the sum of the edge bits. None of it depends on the pattern.
    """
    edge_bit = {e: 1 << i for i, e in enumerate(host.edges)}
    groups: dict[int, tuple[list, list]] = {}
    for verts in combinations(range(host.f.n), k):
        bits = tuple([edge_bit.get(pair, 0) for pair in combinations(verts, 2)])
        code = sum(1 << t for t, bit in enumerate(bits) if bit)
        interiors, members = groups.setdefault(code, ([], []))
        interiors.append(sum(bits))
        members.append(bits)
    return {code: (tuple(i), tuple(m)) for code, (i, m) in groups.items()}


def _copy_masks(host: _Host, pattern: Graph, induced: bool) -> tuple[int, ...]:
    """Bitmask over f's edges, in host.edges order, for each copy of pattern
    in f.

    A k-subset of f holds an induced copy when its code is one of pattern's
    codes, and the mask is the subset's interior. It holds a non-induced copy
    for every pattern code that fits inside its code, and the mask is that
    code's edges only. The masks are the subset table's own ints.
    """
    codes = _pattern_codes(pattern)
    table = host[_subset_table, pattern.n]
    if induced:
        masks = {m for code in codes if code in table for m in table[code][0]}
    else:
        masks = {
            sum(bits[t] for t in codes[p])
            for code, (_, members) in table.items()
            for p in codes
            if p & ~code == 0
            for bits in members
        }
    return tuple(sorted(masks))


class _Side(NamedTuple):
    """One side's copies of a pattern in a host, indexed for counting
    propagation (see _search). Copy j is masks[j]; w (width) is the number
    of copies and K the edge count of each. A thermometer over the copies
    packs K levels of w bits, level c holding the copies with at least c
    edges of the side's own color."""

    masks: tuple[int, ...]
    width: int
    # inc[i]: the copies through edge i, repeated at every level
    inc: tuple[int, ...]
    # the OR of the one-edge copies, the edges that are a copy by themselves
    units: int
    # level 1's bits, and the shifts that bring the top level, and the one
    # below it, down to level 1
    low: int
    top: int
    near: int


def _side(n_edges: int, masks) -> _Side:
    """The _Side of a family of copy masks of one size over n_edges edges."""
    w = len(masks)
    levels = masks[0].bit_count() if masks else 0
    rep = sum(1 << c * w for c in range(levels))
    through = [0] * n_edges
    for j, m in enumerate(masks):
        if m.bit_count() != levels:
            raise ValueError("copy masks differ in size, as no pattern's copies do")
        for i in _bits(m):
            through[i] |= 1 << j
    units = sum(set(masks)) if levels == 1 else 0
    top = (levels - 1) * w
    return _Side(tuple(masks), w, tuple(t * rep for t in through), units, (1 << w) - 1, top, max(top - w, 0))


def _copy_side(host: _Host, pattern: Graph, induced: bool) -> _Side:
    """The _Side of pattern's copies in host, kept by the host record."""
    return _side(len(host.edges), _copy_masks(host, pattern, induced))


def _lex_larger_than_image(swaps, red_set, blue_set) -> bool:
    """Whether, under some swap, every completion of this partial coloring
    has a lexicographically smaller image (red before blue).

    A swap's first pair whose two edges differ decides: (blue, red) makes
    the image smaller, (red, blue) larger. A pair with an uncolored edge
    leaves it undecided.
    """
    for a_mask, b_mask, pairs in swaps:
        if a_mask & blue_set and b_mask & red_set:
            for a, b in pairs:
                if a & blue_set:
                    if b & red_set:
                        return True
                    if not b & blue_set:
                        break
                elif not (a & red_set and b & red_set):
                    break
    return False


def _search(n_edges, red, blue, twins=_NO_TWINS):
    """DFS with unit propagation. Returns (witness_masks or None, leaves, prunes).

    red and blue are the two sides' _Side records. Branches on the
    lowest-index uncolored edge, red first, and dives: the red child is
    explored in place and only the blue child is stacked, to be resumed when
    the branch below closes. Propagation counts, per copy, the edges of its
    side's own color that it holds, for all copies at once: each side keeps
    a thermometer (see _Side) and a dead set, the copies holding an edge of
    the other color, kept at every level like inc. When an edge gets a
    color, the live copies through it move up one level with a shift, an OR
    and an AND. A copy reaching its top level is a conflict and closes the
    branch; a copy one level below it has one edge left, which is forced to
    the other color and counted the same way. A forced move only removes
    subtrees in which every coloring completes a monochromatic copy, so the
    first complete coloring reached is the lexicographically least refuting
    one, the same a DFS without forced moves finds.

    A node whose propagation ends without a conflict, with every red copy
    dead (each holds a blue edge), returns its all-red completion. Red
    completes no copy there, and the blue side is final and, with no
    conflict, holds no whole copy. That completion is the first leaf the
    dive would reach, red first: no red child meets a conflict, and no cut
    closes a branch holding the least refuting coloring. So leaves is 1 and
    prunes the count so far, as at that leaf; a complete coloring with no
    conflict is this case with no edge left.

    Before the first branch every red unit (red.units) is colored blue and
    every blue unit red, as forced moves, and the same propagation runs
    from all of them. An edge in both closes the root (leaves 0, prunes 1):
    every coloring holds a copy on it.

    twins holds edge permutations, as _twin_swaps gives, that map both mask
    families onto themselves. A branch whose colors make every completion
    lexicographically larger than its image under one of them is closed:
    the image refutes too, so the least refuting coloring is not there.

    leaves counts complete colorings reached (0 on a proof, 1 on a
    refutation); prunes counts branches closed by a conflict, including
    conflicts met while propagating, and by a symmetry cut.
    """
    if red.units & blue.units:
        return None, 0, 1
    red_masks, red_width, red_inc, red_units, red_low, red_top, red_near = red
    blue_masks, blue_width, blue_inc, blue_units, blue_low, blue_top, blue_near = blue
    swaps, a_any, b_any = twins
    full = (1 << n_edges) - 1
    prunes = 0
    # the node in hand: its two color sets, the thermometers red_count and
    # blue_count, the dead sets, and todo, the colored edges still to count
    # as (edge, side), side 1 for blue. The root has the units colored, the
    # copies their colors kill marked dead and one forced move per unit.
    red_set, blue_set = blue_units, red_units
    red_count = blue_count = red_dead = blue_dead = 0
    todo = []
    for j in _bits(red_units):
        red_dead |= red_inc[j]
        todo.append((j, 1))
    for j in _bits(blue_units):
        blue_dead |= blue_inc[j]
        todo.append((j, 0))
    # the blue children still to explore, each with its parent's sets and
    # counts and its edge, whose blue is counted when it is resumed; the
    # deepest comes last
    stack = []
    while True:
        while todo:
            i, side = todo.pop()
            # the live copies through i each gain an own edge: a copy at
            # level c also sets level c + 1; step is level 1's bits of them
            if side:
                live = blue_inc[i] & ~blue_dead
                if not live:
                    continue
                step = live & blue_low
                blue_count |= ((blue_count << blue_width) | step) & live
                top = blue_count >> blue_top
                near = step & ~top & (blue_count >> blue_near)
            else:
                live = red_inc[i] & ~red_dead
                if not live:
                    continue
                step = live & red_low
                red_count |= ((red_count << red_width) | step) & live
                top = red_count >> red_top
                near = step & ~top & (red_count >> red_near)
            if step & top:  # a copy is whole
                prunes += 1
                break
            # each copy one level below the top has one edge left, forced
            # to the other color; none left means an own edge still queued
            while near:
                bit = near & -near
                near ^= bit
                j = bit.bit_length() - 1
                if side:
                    rest = blue_masks[j] & ~blue_set
                    if rest and not rest & red_set:
                        f = rest.bit_length() - 1
                        red_set |= rest
                        blue_dead |= blue_inc[f]
                        todo.append((f, 0))
                else:
                    rest = red_masks[j] & ~red_set
                    if rest and not rest & blue_set:
                        f = rest.bit_length() - 1
                        blue_set |= rest
                        red_dead |= red_inc[f]
                        todo.append((f, 1))
                if not rest:
                    break
            else:
                continue
            prunes += 1
            break
        else:  # propagation ended without a conflict
            # every red copy holds a blue edge, so the all-red completion,
            # this dive's own leaf, refutes
            if red_dead & red_low == red_low:
                return (full ^ blue_set, blue_set), 1, prunes
            colored = red_set | blue_set
            if not (a_any & blue_set and b_any & red_set and _lex_larger_than_image(swaps, red_set, blue_set)):
                bit = ~colored & (colored + 1)  # the lowest uncolored edge
                i = bit.bit_length() - 1
                stack.append((red_set, blue_set | bit, red_count, blue_count, red_dead, blue_dead, i))
                # the red child, in place
                red_set |= bit
                blue_dead |= blue_inc[i]
                todo = [(i, 0)]
                continue
            prunes += 1
        # the branch closed: resume the deepest blue child left
        if not stack:
            return None, 0, prunes
        red_set, blue_set, red_count, blue_count, red_dead, blue_dead, i = stack.pop()
        red_dead |= red_inc[i]
        todo = [(i, 1)]


def _refute(host: _Host, g: Graph, h: Graph, induced: bool):
    """(red_set, blue_set) of the least refuting coloring of f, checked, or
    None when f arrows (g, h); then leaves and prunes. g and h have an edge
    each, as every entry point checks before its first host.

    The sides are edge bitsets in coloring._edge_order, as the search
    gives them, and _fault checks them. Any fault raises AssertionError, as
    it can only be a fault in the search.

    A host with no copy of g is settled without a search: coloring every
    edge red refutes it, and that is the least refuting coloring, the one
    the search reaches first with no conflict and no cut (no edge is blue),
    so leaves and prunes are 1 and 0. _fault judges it like any other.
    """
    red = host[_copy_side, g, induced]
    if not red.masks:
        found, leaves, prunes = ((1 << len(host.edges)) - 1, 0), 1, 0
    else:
        found, leaves, prunes = _search(len(host.edges), red, host[_copy_side, h, induced], host[_twin_swaps])
    if found is not None:
        fault = _fault(host, g, h, induced, *found)
        if fault is not None:
            raise AssertionError(fault)
    return found, leaves, prunes


def _run(f: Graph, g: Graph, h: Graph, induced: bool) -> ArrowingResult:
    if not any(g.adj) or not any(h.adj):
        raise PreconditionError("patterns must have at least one edge")
    host = _host(f)
    found, leaves, prunes = _refute(host, _pattern(g.adj), _pattern(h.adj), induced)
    if found is None:
        return _shared(ArrowingResult, True, None, leaves, prunes)
    # the judge checked that the sides cover f's edges, so red is the rest
    blue_rows = _edge_rows(host, found[1])
    witness = _shared(EdgeColoring, f.n, tuple(map(int.__xor__, f.adj, blue_rows)), blue_rows)
    return _shared(ArrowingResult, False, witness, leaves, prunes)


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
    if n_max < 1:
        raise PreconditionError(f"n_max must be at least 1, got {n_max}")
    lo = max(g.n, h.n)
    for n in range(lo, n_max + 1):
        if arrows_complete_non_induced(n, g, h).arrows:
            return n
    return _not_found_below(n_max)
