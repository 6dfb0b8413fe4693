"""Answer checks written from the definitions, sharing no code with arrowhead.

Graphs here are plain (n, rows) pairs: rows[v] is the neighbour bitmask of
vertex v. Edge sets are sets of (u, v) pairs with u < v. Everything is brute
force over vertex subsets or injective maps, which is affordable because the
benchmark's patterns have at most five vertices.
"""
from __future__ import annotations

from itertools import combinations, permutations


def parse_g6(text: str) -> tuple[int, tuple[int, ...]]:
    """Decode a short-form graph6 string (order at most 62)."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> (5 - i)) & 1 for i in range(6))
    rows = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return n, tuple(rows)


def complete_graph(n: int) -> tuple[int, tuple[int, ...]]:
    full = (1 << n) - 1
    return n, tuple(full ^ (1 << v) for v in range(n))


def edge_set(graph) -> set[tuple[int, int]]:
    n, rows = graph
    return {(u, v) for v in range(n) for u in range(v) if rows[u] >> v & 1}


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def has_mono_copy(host, pattern, side: set, induced: bool) -> bool:
    """Is there a copy of pattern in host whose edges all lie in side?

    Induced copies need host adjacency to match pattern adjacency on every
    pair of the image; ordinary copies only need pattern edges to land on
    host edges.
    """
    n, rows = host
    k, prow = pattern
    pattern_edges = [(a, b) for b in range(k) for a in range(b) if prow[a] >> b & 1]
    for image in permutations(range(n), k):
        ok = True
        for a, b in combinations(range(k), 2):
            want = prow[a] >> b & 1
            have = rows[image[a]] >> image[b] & 1
            if (induced and want != have) or (want and not have):
                ok = False
                break
        if ok and all(_pair(image[a], image[b]) in side for a, b in pattern_edges):
            return True
    return False


def is_refutation(host, red: set, blue: set, g, h, induced: bool) -> bool:
    """Does the colouring red/blue cover host's edges and avoid a red g and a blue h?"""
    if red & blue or (red | blue) != edge_set(host):
        return False
    return not has_mono_copy(host, g, red, induced) and not has_mono_copy(host, h, blue, induced)


def _rows_of(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _has_clique(rows, cand: int, need: int) -> bool:
    if need == 0:
        return True
    while cand.bit_count() >= need:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if _has_clique(rows, cand & rows[v], need - 1):
            return True
    return False


def _independence(rows, verts: list[int]) -> int:
    best = 0
    for size in range(1, len(verts) + 1):
        if not any(
            all(not rows[a] >> b & 1 for a, b in combinations(s, 2)) for s in combinations(verts, size)
        ):
            break
        best = size
    return best


def blue_clique_free(n: int, blue: set, omega: int) -> bool:
    """No omega vertices pairwise joined by blue edges."""
    return not _has_clique(_rows_of(n, blue), (1 << n) - 1, omega)


def red_components_ok(n: int, red: set, alpha: int) -> bool:
    """Every component of the red graph has independence at most alpha - 1."""
    rows = _rows_of(n, red)
    seen = 0
    for v in range(n):
        if seen >> v & 1:
            continue
        comp, frontier = 1 << v, 1 << v
        while frontier:
            nxt = 0
            for u in range(n):
                if frontier >> u & 1:
                    nxt |= rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        verts = [u for u in range(n) if comp >> u & 1]
        if _independence(rows, verts) > alpha - 1:
            return False
    return True


def red_isolatefree_ok(host, blue: set, alpha: int) -> bool:
    """No vertex set free of blue edges induces in host an isolate-free graph
    of independence at least alpha.

    Such a set exists exactly when some independent alpha-set I of host can
    give each of its vertices a host neighbour so that I plus those
    neighbours spans no blue edge, so the search runs over that small witness.
    """
    n, rows = host
    blue_rows = _rows_of(n, blue)

    def extend(members: int, todo: list[int]) -> bool:
        if not todo:
            return True
        v, rest = todo[0], todo[1:]
        if rows[v] & members:
            return extend(members, rest)
        for u in range(n):
            if rows[v] >> u & 1 and not blue_rows[u] & members:
                if extend(members | 1 << u, rest):
                    return True
        return False

    for ind in combinations(range(n), alpha):
        if any(rows[a] >> b & 1 for a, b in combinations(ind, 2)):
            continue
        members = sum(1 << v for v in ind)
        if extend(members, list(ind)):
            return False
    return True
