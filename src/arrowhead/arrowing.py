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
instead of embedding the pattern subset by subset. What is derived from
one host lives in one record (_Host) that a decision looks up once: the
subsets' codes and interiors per k, and per (pattern, kind) the search's
index of the masks by edge and the check's copy lists, each built on first
ask and kept, so a sweep over many pattern pairs builds each once per host.

Every refuting coloring the search returns is checked against copy lists
that share no code with the masks: the embedder lists each copy of a
pattern once, as an edge bitset. A coloring refutes when no copy of g lies
inside its red edges and no copy of h inside its blue ones, so each check
is one bit test per copy, not an embedding search per coloring; a
witness read back from a result cache is turned into edge bitsets and
goes through the same check (_fault). A host
with no copy of g needs no search: coloring every edge red refutes it, and
that is the least refuting coloring, the one the search reaches first; its
check is that the host's list of g copies is empty.

The search also closes branches that cannot hold the lexicographically least
refuting coloring. Swapping two twin vertices of f (vertices whose
neighbourhoods agree outside the pair) is an automorphism of f, so it maps
refuting colorings to refuting colorings; a branch whose colors already make
its image under such a swap lexicographically smaller is closed. The least
refuting coloring is never larger than its own image, so no cut removes it
and witnesses are those of the search without cuts. prunes counts these
symmetry cuts together with the conflicts.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .coloring import EdgeColoring, _intern
from .errors import PreconditionError
from .graphs import Graph, _bits, _embeddings, complete


@dataclass(frozen=True)
class ArrowingResult:
    """Verdict plus search effort.

    colorings_explored counts complete colorings the search reached: 0 on a
    proof, 1 on a refutation (the witness). prunes counts branches closed by
    a conflict, including conflicts found while propagating forced colors,
    and branches closed by a symmetry cut. Both depend on the branching
    order, so treat them as diagnostics, not invariants. Equal results alive
    at once are one object, so a caller keeping many holds each once.
    """

    arrows: bool
    witness: EdgeColoring | None
    colorings_explored: int
    prunes: int


# (arrows, witness, colorings_explored, prunes) -> the live result; an entry
# goes with its last reference.
_RESULTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _result(arrows: bool, witness: EdgeColoring | None, leaves: int, prunes: int) -> ArrowingResult:
    """The live result with these fields, made if none is."""
    key = (arrows, witness, leaves, prunes)
    res = _RESULTS.get(key)
    if res is None:
        res = _RESULTS[key] = ArrowingResult(arrows, witness, leaves, prunes)
    return res


@dataclass(frozen=True, slots=True)
class NotFoundBelow:
    """Outcome of a bounded minimum search that exhausted its order budget."""

    n_max: int


# A catalog sweep to order 6 visits at most 1 + 2 + 4 + 11 + 34 + 156 = 208
# hosts and a dense-proof benchmark pass at most 182; _host keeps a record
# for each, so a sweep over many pattern pairs builds each host's tables once.
_SWEEP_HOSTS = 208


class _Host:
    """What the search and its check derive from one host f. Built with the
    record: edges (f's edges busiest first, the order of every edge bitset),
    n_edges, bits ((u, v) -> edge bit, to read stored witnesses), rebuilds
    (edges make up f.adj) and swaps; the rest through get, on first ask.
    bits and the copy lists share no code with the subset tables and masks.
    """

    def __init__(self, f: Graph):
        self.f = f
        # Branch on busiest edges first: their color constrains the most copies.
        self.edges = tuple(sorted(f.edges(), key=lambda e: -(f.degree(e[0]) + f.degree(e[1]))))
        self.n_edges = len(self.edges)
        self.bits = {e: 1 << i for i, e in enumerate(self.edges)}
        self.rebuilds = _edge_rows(self, (1 << self.n_edges) - 1) == f.adj
        self.swaps = _twin_swaps(f, self.edges)
        self._kept: dict = {}

    def get(self, build, *args):
        """build(self, *args), built on the first ask and kept."""
        key = (build, *args)
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build(self, *args)
        return value


@lru_cache(maxsize=_SWEEP_HOSTS)
def _host(f: Graph) -> _Host:
    return _Host(f)


def _twin_swaps(f: Graph, edges) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """Edge permutations of f's twin transpositions, for the search's symmetry cuts.

    Vertices u and v are twins when their neighbourhoods agree outside
    {u, v}; swapping them is then an automorphism of f. Twinship is an
    equivalence relation, and the transpositions of consecutive members of
    each class are taken. Each is (a_mask, b_mask, pairs): pairs are the
    edges it moves as (1 << a, 1 << b), a < b in edges index, sorted by
    a; a_mask and b_mask are the ORs of their a and b bits.
    """
    classes: list[list[int]] = []
    for v in range(f.n):
        for members in classes:
            u = members[0]
            if f.adj[u] & ~(1 << v) == f.adj[v] & ~(1 << u):
                members.append(v)
                break
        else:
            classes.append([v])
    index = {e: i for i, e in enumerate(edges)}
    swaps = []
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
    return tuple(swaps)


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
    table = host.get(_subset_table, pattern.n)
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


def _by_edge(host: _Host, pattern: Graph, induced: bool) -> tuple[tuple[int, ...], ...]:
    """For each edge index of host, the copy masks of pattern through that edge."""
    lists: list[list[int]] = [[] for _ in range(host.n_edges)]
    for m in _copy_masks(host, pattern, induced):
        for i in _bits(m):
            lists[i].append(m)
    return tuple(map(tuple, lists))


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


def _search(n_edges, red_by_edge, blue_by_edge, swaps=()):
    """DFS with unit propagation. Returns (witness_masks or None, leaves, prunes).

    Branches on the lowest-index uncolored edge, red first. After an edge
    gets a color, that side's copy masks through it are scanned: a mask
    wholly inside the side is a conflict and closes the branch, and a mask
    with one uncolored edge left forces that edge to the other color, which
    is then scanned the same way. A forced move only removes subtrees in
    which every coloring completes a monochromatic copy, so the first
    complete coloring reached is the lexicographically least refuting one,
    the same a DFS without forced moves finds.

    swaps are edge permutations, as _twin_swaps gives, that map both mask
    families onto themselves. A branch whose colors make every completion
    lexicographically larger than its image under one of them is closed:
    the image refutes too, so the least refuting coloring is not there.
    leaves counts complete colorings reached (0 on a proof, 1 on a
    refutation); prunes counts branches closed by a conflict, including
    conflicts met while propagating, and by a symmetry cut.
    """
    if not n_edges:
        return (0, 0), 1, 0
    # by_edge[side][i]: that side's copy masks through edge i (see _by_edge)
    by_edge = (red_by_edge, blue_by_edge)
    full = (1 << n_edges) - 1
    prunes = 0
    # a cut needs a blue a-edge and a red b-edge in one swap; testing the
    # unions first skips the per-swap walk at most nodes of a short search
    a_any = b_any = 0
    for a_mask, b_mask, _ in swaps:
        a_any |= a_mask
        b_any |= b_mask
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
            if (
                a_any & blue_set
                and b_any & red_set
                and _lex_larger_than_image(swaps, red_set, blue_set)
            ):
                prunes += 1
                continue
            bit = ~colored & (colored + 1)  # the lowest uncolored edge
            j = bit.bit_length() - 1
            stack.append((red_set, blue_set | bit, j, 1))
            stack.append((red_set | bit, blue_set, j, 0))
    return None, 0, prunes


def _edge_rows(host: _Host, edge_set: int) -> tuple[int, ...]:
    """Neighbour bitmask per vertex of f of the edges whose host.edges bits
    edge_set holds."""
    edges = host.edges
    rows = [0] * host.f.n
    while edge_set:
        low = edge_set & -edge_set
        edge_set ^= low
        u, v = edges[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def _copies(host: _Host, pattern: Graph, induced: bool) -> tuple[int, ...]:
    """Bitmask over f's edges, in host.edges order, of each copy of pattern
    in f, from the embedder.

    The embedder yields one embedding per copy, and a copy's mask holds the
    images of pattern's edges: for an induced copy those are the host edges
    inside it. This shares no code with _copy_masks, which builds the same
    masks from the subset tables.
    """
    f = host.f
    bit = [[0] * f.n for _ in range(f.n)]
    for i, (u, v) in enumerate(host.edges):
        bit[u][v] = bit[v][u] = 1 << i
    pairs = pattern.edges()
    return tuple(sorted({
        sum(bit[image[a]][image[b]] for a, b in pairs)
        for image in _embeddings(f, pattern, None, induced)
    }))


def _fault(host: _Host, g: Graph, h: Graph, induced: bool, red_set: int, blue_set: int) -> str | None:
    """What keeps (red_set, blue_set) from refuting f -> (g, h), or None.

    The sides are edge bitsets in host.edges index; g and h have an edge
    each. The check shares no code with the copy masks: the sides must be
    disjoint, lie inside and cover f's edges (whose order is checked once
    per host to rebuild f.adj), and no copy of g from _copies may lie inside
    the red side, nor a copy of h inside the blue side. An empty blue side
    holds no copy of h, so its list is not built.
    """
    if red_set & blue_set or (red_set | blue_set) >> host.n_edges:
        return "search colored an edge twice or a non-edge"
    if red_set | blue_set != (1 << host.n_edges) - 1 or not host.rebuilds:
        return "search left host edges uncolored"
    # a copy lies inside a side when none of its edges is outside it
    if not all(map((~red_set).__and__, host.get(_copies, g, induced))):
        return "search returned a coloring with a red copy of g"
    if blue_set and not all(map((~blue_set).__and__, host.get(_copies, h, induced))):
        return "search returned a coloring with a blue copy of h"
    return None


def _refute(host: _Host, g: Graph, h: Graph, induced: bool):
    """(red_set, blue_set) of the least refuting coloring of f, checked, or
    None when f arrows (g, h); then leaves and prunes.

    The sides are edge bitsets in host.edges index, as the search gives
    them, and _fault checks them. Any fault raises AssertionError, as it
    can only be a fault in the search.

    A host with no copy of g is settled without a search: coloring every
    edge red refutes it, and that is the least refuting coloring, the one
    the search reaches first with no conflict and no cut (no edge is blue),
    so leaves and prunes are 1 and 0. Its check is that _copies finds no g
    in f; the blue side is empty and holds no h.
    """
    if not any(g.adj) or not any(h.adj):
        raise PreconditionError("patterns must have at least one edge")
    red = host.get(_by_edge, g, induced)
    if not any(red):
        if host.get(_copies, g, induced):
            raise AssertionError("search returned a coloring with a red copy of g")
        return ((1 << host.n_edges) - 1, 0), 1, 0
    blue = host.get(_by_edge, h, induced)
    found, leaves, prunes = _search(host.n_edges, red, blue, host.swaps)
    if found is not None:
        fault = _fault(host, g, h, induced, *found)
        if fault is not None:
            raise AssertionError(fault)
    return found, leaves, prunes


def _witness_sets(host: _Host, data) -> tuple[int, int] | None:
    """(red_set, blue_set) of a stored witness of f, as edge bitsets in
    host.edges index, or None when it is malformed.

    The witness is {"n": f.n, "red": pairs, "blue": pairs}, each pair an
    [int, int] list [u, v] that is an edge of f with u < v, and no pair
    named twice on one side; None is returned for exactly the JSON that
    EdgeColoring.from_json_dict plus check_against would reject, short of
    an edge on both sides or one on neither, which _fault finds.
    """
    if type(data) is not dict or data.keys() != {"n", "red", "blue"}:
        return None
    n = data["n"]
    if type(n) is not int or n != host.f.n:
        return None
    bits = host.bits
    sides = []
    for pairs in (data["red"], data["blue"]):
        if type(pairs) is not list:
            return None
        side = 0
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                return None
            u, v = pair
            # True and 1.0 would match the key 1
            if type(u) is not int or type(v) is not int:
                return None
            bit = bits.get((u, v), 0)
            if not bit or side & bit:
                return None
            side |= bit
        sides.append(side)
    return sides[0], sides[1]


def _witness_json(host: _Host, red_set: int, blue_set: int) -> dict:
    """The stored witness of the coloring of f with these edge bitsets:
    {"n": f.n, "red": pairs, "blue": pairs}, each side its sorted [u, v]
    lists, u < v."""
    edges = host.edges
    red, blue = (sorted(list(edges[i]) for i in _bits(side)) for side in (red_set, blue_set))
    return {"n": host.f.n, "red": red, "blue": blue}


def _run(f: Graph, g: Graph, h: Graph, induced: bool) -> ArrowingResult:
    host = _host(f)
    found, leaves, prunes = _refute(host, g, h, induced)
    if found is None:
        return _result(True, None, leaves, prunes)
    red_set, blue_set = found
    witness = _intern(f.n, _edge_rows(host, red_set), _edge_rows(host, blue_set))
    return _result(False, witness, leaves, prunes)


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
