"""Dense small-graph core: bitmask adjacency, graph6 text I/O, exact invariants.

Graphs are simple, undirected, labelled 0..n-1, and immutable. Order is capped
at 62 vertices (the graph6 short form) and every solver here is exact; the
whole package targets desk-scale instances, not asymptotics.

Conventions for degenerate orders: the 0-vertex and 1-vertex graphs count as
connected, and only graphs with at least one vertex can have isolated
vertices (so K_1 has one).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import Graph6Error, OrderLimitError

MAX_ORDER = 62


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with one neighbour bitmask per vertex.

    Equality and hashing are on the labelled structure, not the isomorphism
    class.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} adjacent to out-of-range vertex")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in range(v):
                if ((self.adj[u] >> v) & 1) != ((self.adj[v] >> u) & 1):
                    raise ValueError(f"asymmetric adjacency at ({u},{v})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.n) for u in range(v) if self.has_edge(u, v)]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()})"


# ---------------------------------------------------------------------------
# named constructors

def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(rays: int) -> Graph:
    """Star with the given number of rays: K_{1,rays} on rays+1 vertices."""
    return Graph.from_edges(rays + 1, [(0, i) for i in range(1, rays + 1)])


def matching(k: int) -> Graph:
    """k pairwise disjoint edges on 2k vertices."""
    return Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def disjoint_union(parts: Iterable[Graph]) -> Graph:
    rows: list[int] = []
    for g in parts:
        off = len(rows)
        rows.extend(row << off for row in g.adj)
    return Graph(len(rows), tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled 0.. in the given order."""
    verts = list(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in _bits(g.adj[v]):
            j = pos.get(w)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(verts), tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Image of g under the permutation perm, where perm[v] is v's new label."""
    p = list(perm)
    return Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# exact invariants

def _max_clique_size(adj: tuple[int, ...], cand: int) -> int:
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        v = (cand & -cand).bit_length() - 1
        expand(size + 1, cand & adj[v])
        rest = cand & ~(1 << v)
        if size + rest.bit_count() > best:
            expand(size, rest)

    expand(0, cand)
    return best


def clique_number(g: Graph) -> int:
    return _max_clique_size(g.adj, (1 << g.n) - 1)


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def _greedy_color_count(g: Graph, order: list[int]) -> int:
    colors: dict[int, int] = {}
    for v in order:
        taken = {colors[u] for u in g.neighbors(v) if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return 1 + max(colors.values(), default=-1)


def _colorable(g: Graph, k: int, order: list[int]) -> bool:
    colors = [-1] * g.n

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        banned = 0
        for u in g.neighbors(v):
            if colors[u] >= 0:
                banned |= 1 << colors[u]
        # a fresh color beyond used+1 is symmetric to used+1, skip it
        for c in range(min(used + 1, k)):
            if (banned >> c) & 1:
                continue
            colors[v] = c
            if place(i + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    return place(0, 0)


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    low = clique_number(g)
    high = _greedy_color_count(g, order)
    for k in range(low, high):
        if _colorable(g, k, order):
            return k
    return high


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def has_isolated_vertex(g: Graph) -> bool:
    return g.n >= 1 and any(row == 0 for row in g.adj)


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    out = []
    seen = 0
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(list(_bits(comp)))
    return out


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    verts = list(vertices)
    return all(g.has_edge(u, v) for u, v in combinations(verts, 2))


def lex_least_clique(g: Graph, k: int, within: int | None = None) -> tuple[int, ...] | None:
    """Lexicographically least clique of size exactly k, or None.

    Cliques are ascending vertex tuples; within restricts the search to the
    vertices of that bitmask.
    """
    if k < 0:
        raise ValueError("clique size must be non-negative")
    cand0 = (1 << g.n) - 1 if within is None else within
    out: list[int] = []

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            out.append(v)
            if grow(cand & g.adj[v], need - 1):
                return True
            out.pop()
        return False

    return tuple(out) if grow(cand0, k) else None


def cliques_of_size(g: Graph, k: int, within: int | None = None) -> list[tuple[int, ...]]:
    """All cliques of size exactly k inside the mask, in lexicographic order."""
    allowed = list(range(g.n)) if within is None else list(_bits(within))
    return [c for c in combinations(allowed, k) if is_clique(g, c)]


# ---------------------------------------------------------------------------
# embeddings

@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertices 0..k-1 to host vertices."""

    pattern_order: int
    map: tuple[int, ...]


def find_induced_embedding(
    host: Graph,
    pattern: Graph,
    edge_predicate: Callable[[int, int], bool] | None = None,
    induced: bool = True,
) -> Embedding | None:
    """First embedding of pattern in host, or None.

    This one backtracker serves both kinds of containment: an induced
    embedding maps edges to edges and non-edges to non-edges; with
    induced=False only pattern edges must land on host edges. Pattern vertices
    are assigned in index order and host candidates are tried ascending, so
    the embedding found first is the lexicographically smallest one; a fixed
    input always reproduces the same witness. When an edge_predicate is
    given, the image of every pattern edge must satisfy it (for an induced
    embedding those are exactly the host edges inside the image).
    """
    p = pattern.n
    if p > host.n:
        return None
    image: list[int] = []
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        if i == p:
            return True
        prow = pattern.adj[i]
        for w in range(host.n):
            bit = 1 << w
            if used & bit:
                continue
            ok = True
            for j in range(i):
                want = (prow >> j) & 1
                have = (host.adj[image[j]] >> w) & 1
                if want != have and (induced or want):
                    ok = False
                    break
                if want and edge_predicate is not None and not edge_predicate(image[j], w):
                    ok = False
                    break
            if not ok:
                continue
            image.append(w)
            used |= bit
            if place(i + 1):
                return True
            image.pop()
            used &= ~bit
        return False

    return Embedding(p, tuple(image)) if place(0) else None


def find_subgraph_embedding(host: Graph, pattern: Graph) -> Embedding | None:
    """First not-necessarily-induced embedding: pattern edges must map to host edges."""
    return find_induced_embedding(host, pattern, induced=False)


def check_embedding(
    host: Graph,
    pattern: Graph,
    emb: Embedding,
    edge_predicate: Callable[[int, int], bool] | None = None,
    induced: bool = True,
) -> bool:
    """Definition-level validation of an embedding, independent of the search."""
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
            if want and edge_predicate is not None and not edge_predicate(emb.map[a], emb.map[b]):
                return False
    return True


# ---------------------------------------------------------------------------
# graph6 short form

def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (short form, order at most 62).

    Raises Graph6Error naming the 0-based byte offset of the first problem.
    """
    s = text.rstrip("\r\n")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error(0, "empty input")
    for i, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(i, f"byte {ord(ch)} outside graph6 range 63..126")
    n = ord(s[0]) - 63
    if n == 63:
        raise Graph6Error(0, "long-form order prefix '~' is not supported (order > 62)")
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(s) < expected:
        raise Graph6Error(len(s), f"truncated: expected {expected} bytes for order {n}")
    if len(s) > expected:
        raise Graph6Error(expected, f"excess data: expected {expected} bytes for order {n}")
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            byte = ord(s[1 + idx // 6]) - 63
            if (byte >> (5 - idx % 6)) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    # padding bits past the triangle must be zero
    for j in range(nbits, (expected - 1) * 6):
        byte = ord(s[1 + j // 6]) - 63
        if (byte >> (5 - j % 6)) & 1:
            raise Graph6Error(1 + j // 6, "nonzero padding bit")
    return Graph(n, tuple(rows))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (short form)."""
    if g.n > MAX_ORDER:
        raise OrderLimitError(f"graph6 short form caps order at {MAX_ORDER}, got {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | (1 if g.has_edge(u, v) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)
