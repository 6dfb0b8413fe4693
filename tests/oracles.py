"""Independent brute-force oracles for cross-checking the library.

Everything here recomputes from first principles: subsets and permutations,
no bitset tricks, no pruning, no reuse of the library's search code. Slow on
purpose; keep inputs small. The one exception is plain_dfs_search, the
library's earlier arrowing DFS, kept as the differential reference for the
search that replaced it.
"""
from itertools import combinations, permutations, product

from arrowhead.graphs import Graph


def brute_independence(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for verts in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(verts, 2)):
                return r
    return best


def brute_clique(g: Graph) -> int:
    for r in range(g.n, 0, -1):
        for verts in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(verts, 2)):
                return r
    return 0


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return k
    raise AssertionError("unreachable")


def brute_is_iso(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    for perm in permutations(range(a.n)):
        if all(a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
               for u, v in combinations(range(a.n), 2)):
            return True
    return False


def brute_induced_copies(host: Graph, pattern: Graph) -> list[tuple[int, ...]]:
    """Vertex sets inducing the pattern, as sorted tuples, each listed once."""
    out = []
    for verts in combinations(range(host.n), pattern.n):
        sub_edges = {(u, v) for u, v in combinations(verts, 2) if host.has_edge(u, v)}
        if len(sub_edges) != pattern.edge_count():
            continue
        for perm in permutations(verts):
            if all(host.has_edge(perm[u], perm[v]) == pattern.has_edge(u, v)
                   for u, v in combinations(range(pattern.n), 2)):
                out.append(verts)
                break
    return out


def brute_subgraph_copies(host: Graph, pattern: Graph) -> list[frozenset]:
    """Edge images of non-induced copies, as frozensets of host edges."""
    seen = set()
    for verts in combinations(range(host.n), pattern.n):
        for perm in permutations(verts):
            if all(host.has_edge(perm[u], perm[v]) for u, v in pattern.edges()):
                image = frozenset(
                    (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pattern.edges()
                )
                seen.add(image)
    return list(seen)


def naive_strongly_arrows(f: Graph, g: Graph, h: Graph):
    """(arrows, witness_red_set or None) by enumerating all 2^E colorings.

    A coloring is a set of red edges; everything else is blue. Copies are
    precomputed as interior edge sets over induced vertex sets.
    """
    edges = f.edges()
    e = len(edges)
    g_copies = []
    for verts in brute_induced_copies(f, g):
        g_copies.append({(u, v) for u, v in combinations(verts, 2) if f.has_edge(u, v)})
    h_copies = []
    for verts in brute_induced_copies(f, h):
        h_copies.append({(u, v) for u, v in combinations(verts, 2) if f.has_edge(u, v)})
    for mask in range(1 << e):
        red = {edges[i] for i in range(e) if mask >> i & 1}
        red_hit = any(c <= red for c in g_copies)
        blue_hit = any(not (c & red) for c in h_copies)
        if not red_hit and not blue_hit:
            return False, red
    return True, None


def brute_certified_coloring(f: Graph, alpha: int, omega: int):
    """Red edge set of some coloring passing both isolate-free certificates,
    or None when no coloring of f does, by trying all 2^E colorings.

    Red side: no vertex set whose host edges are all red induces an
    isolate-free subgraph of independence >= alpha. Blue side: no omega
    vertices are pairwise joined by blue edges. Both are checked over plain
    vertex subsets; a coloring is its set of red edges, the rest blue.
    """
    edges = f.edges()
    e = len(edges)
    red_forbidden = []  # interiors that must not be all red
    for r in range(1, f.n + 1):
        for verts in combinations(range(f.n), r):
            if not all(any(f.has_edge(v, w) for w in verts if w != v) for v in verts):
                continue
            sub = Graph.from_edges(
                r, [(i, j) for i, j in combinations(range(r), 2) if f.has_edge(verts[i], verts[j])]
            )
            if brute_independence(sub) >= alpha:
                red_forbidden.append({(u, v) for u, v in combinations(verts, 2) if f.has_edge(u, v)})
    blue_forbidden = [  # host omega-cliques, whose interiors must not be all blue
        set(combinations(verts, 2))
        for verts in combinations(range(f.n), omega)
        if all(f.has_edge(u, v) for u, v in combinations(verts, 2))
    ]
    for mask in range(1 << e):
        red = {edges[i] for i in range(e) if mask >> i & 1}
        if any(s <= red for s in red_forbidden):
            continue
        if any(not (s & red) for s in blue_forbidden):
            continue
        return red
    return None


def plain_dfs_search(n_edges, red_masks, blue_masks):
    """DFS over total colorings. Returns (witness_masks or None, leaves, prunes).

    Takes the same mask arguments as arrowing._search and must find the same
    lexicographically least refuting coloring (red before blue, edges in
    index order), but makes no forced moves.

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
