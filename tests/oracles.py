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


def brute_canonical_form(g: Graph) -> tuple[bool, ...]:
    """The least adjacency code of g, over (u, v) pairs in lexicographic
    order, among the relabellings that list its vertices by ascending
    degree. Isomorphic graphs of one order, and only they, share it."""
    by_degree: dict[int, list[int]] = {}
    for v in range(g.n):
        by_degree.setdefault(sum(g.has_edge(v, w) for w in range(g.n)), []).append(v)
    pairs = list(combinations(range(g.n), 2))
    return min(
        tuple(g.has_edge(order[u], order[v]) for u, v in pairs)
        for order in (
            [v for block in blocks for v in block]
            for blocks in product(*(permutations(vs) for _, vs in sorted(by_degree.items())))
        )
    )


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
    g_copies, h_copies = brute_interiors(f, g), brute_interiors(f, h)
    for mask in range(1 << e):
        red = {edges[i] for i in range(e) if mask >> i & 1}
        if brute_refutes(g_copies, h_copies, red):
            return False, red
    return True, None


def brute_interiors(host: Graph, pattern: Graph) -> list[set]:
    """The host edges inside each induced copy of pattern, as sets of pairs."""
    return [
        {(u, v) for u, v in combinations(verts, 2) if host.has_edge(u, v)}
        for verts in brute_induced_copies(host, pattern)
    ]


def brute_refutes(g_copies, h_copies, red) -> bool:
    """Whether coloring the pairs in red red and every other edge blue
    leaves no copy of g all red and no copy of h all blue, given the
    copies' interiors (brute_interiors)."""
    return not any(c <= red for c in g_copies) and all(c & red for c in h_copies)


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


def brute_red_isolatefree_ok(f: Graph, blue, alpha: int) -> bool:
    """True when no vertex set spanning no blue pair induces in f an
    isolate-free subgraph of independence >= alpha, by trying every vertex
    set. blue holds the blue edges as (u, v) pairs with u < v; every other
    edge of f is red.
    """
    for r in range(alpha, f.n + 1):
        for verts in combinations(range(f.n), r):
            inside = [(i, j) for i, j in combinations(range(r), 2) if f.has_edge(verts[i], verts[j])]
            if any((verts[i], verts[j]) in blue for i, j in inside):
                continue
            sub = Graph.from_edges(r, inside)
            if all(any(sub.has_edge(i, j) for j in range(r) if j != i) for i in range(r)):
                if brute_independence(sub) >= alpha:
                    return False
    return True


def plain_dfs_search(n_edges, red_masks, blue_masks):
    """DFS over total colorings. Returns (witness_masks or None, leaves, prunes).

    Takes the copy masks that arrowing._search's side records are built from
    and must find the same lexicographically least refuting coloring (red
    before blue, edges in index order), but makes no forced moves.

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


def brute_embeddings(host: Graph, pattern: Graph, allowed=None, induced=True):
    """Every map in permutations(range(host.n), pattern.n) order that
    embeds pattern in host, as tuples.

    A pattern edge a < b must land on a host edge (u, v) = (image[a],
    image[b]), and when allowed rows are given, allowed[u] must have bit v.
    With induced, pattern non-edges must land on host non-edges.
    """
    for image in permutations(range(host.n), pattern.n):
        ok = True
        for a, b in combinations(range(pattern.n), 2):
            u, v = image[a], image[b]
            if pattern.has_edge(a, b):
                ok = host.has_edge(u, v) and (allowed is None or (allowed[u] >> v) & 1)
            elif induced:
                ok = not host.has_edge(u, v)
            if not ok:
                break
        if ok:
            yield image


def brute_first_embedding(host: Graph, pattern: Graph, allowed=None, induced=True):
    """The first map that brute_embeddings lists, or None."""
    return next(brute_embeddings(host, pattern, allowed, induced), None)


def check_embedding(host: Graph, pattern: Graph, emb, induced: bool = True) -> bool:
    """Whether emb (an Embedding) maps pattern into host, checked pair by pair
    from the definition: induced, or with induced=False pattern edges only."""
    if emb.pattern_order != pattern.n or len(emb.map) != pattern.n:
        return False
    if len(set(emb.map)) != len(emb.map):
        return False
    if any(not (0 <= w < host.n) for w in emb.map):
        return False
    for a in range(pattern.n):
        for b in range(a + 1, pattern.n):
            want = pattern.has_edge(a, b)
            have = host.has_edge(emb.map[a], emb.map[b])
            if induced and want != have:
                return False
            if not induced and want and not have:
                return False
    return True


class PairColoring:
    """Reference coloring kept as frozensets of pairs (u, v), u < v, for
    differential tests of EdgeColoring's neighbour rows. Building one and
    checking it against a host give the library's error texts, as strings
    here instead of exceptions.
    """

    def __init__(self, n: int, red: frozenset, blue: frozenset):
        self.n, self.red, self.blue = n, red, blue

    @staticmethod
    def of(n: int, red, blue):
        """The coloring, or the text of the error building it must raise."""
        sides = []
        for pairs in (red, blue):
            side = set()
            for u, v in pairs:
                if u == v:
                    return f"loop pair ({u},{v}) in coloring"
                if not (0 <= u < n and 0 <= v < n):
                    return f"colored pair {(min(u, v), max(u, v))} is outside 0..{n - 1}"
                side.add((min(u, v), max(u, v)))
            sides.append(frozenset(side))
        if sides[0] & sides[1]:
            return f"edges colored twice: {sorted(sides[0] & sides[1])}"
        return PairColoring(n, *sides)

    def color_of(self, u: int, v: int):
        key = (min(u, v), max(u, v))
        return "red" if key in self.red else "blue" if key in self.blue else None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "red": sorted([list(e) for e in self.red]),
            "blue": sorted([list(e) for e in self.blue]),
        }

    def check_against(self, host: Graph):
        """None when the pairs are exactly host's edges, else the error text."""
        if host.n != self.n:
            return f"coloring is for order {self.n}, host has order {host.n}"
        host_edges = set(host.edges())
        colored = self.red | self.blue
        if host_edges - colored:
            return f"host edges left uncolored: {sorted(host_edges - colored)}"
        if colored - host_edges:
            return f"colored pairs are not host edges: {sorted(colored - host_edges)}"
        return None
