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
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

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
    class. The hash is computed on the first call and kept: per-host records
    and pattern-keyed caches hash the same graphs on every lookup, while
    most graphs a recipe builds are never hashed. Rows are kept as a tuple.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "adj", tuple(self.adj))  # a tuple is kept as it is
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

    _hash = None  # not a field: hash((n, adj)), set on the first call

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.adj))
            object.__setattr__(self, "_hash", h)
        return h

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
        return [(u, v) for v in range(self.n) for u in _bits(self.adj[v] & ((1 << v) - 1))]

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

# Built once per order: a classical decision asks for K_n on every call, and
# the host records key by it.
@lru_cache(maxsize=64)
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
    """Subgraph induced on the given vertices, relabelled 0.. in the given
    order; ValueError for a repeated vertex or one outside 0..n-1."""
    verts = list(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    if len(pos) < len(verts):
        raise ValueError(f"repeated vertex in {verts}")
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for order {g.n}")
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in _bits(g.adj[v]):
            j = pos.get(w)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(verts), tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Image of g under the permutation perm, where perm[v] is v's new label;
    ValueError unless perm is a permutation of 0..n-1."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError(f"{p} is not a permutation of 0..{g.n - 1}")
    return Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# exact invariants

def clique_number(g: Graph) -> int:
    return _clique_number(g.adj, g.n)


def independence_number(g: Graph) -> int:
    return _clique_number([~row for row in g.adj], g.n)


def _clique_number(rows, n: int) -> int:
    """Order of the largest clique of the graph on 0..n-1 with these rows."""
    k = 0
    while _clique(rows, k + 1, (1 << n) - 1) is not None:
        k += 1
    return k


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
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    k = clique_number(g)
    while not _colorable(g, k, order):
        k += 1
    return k


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def has_isolated_vertex(g: Graph) -> bool:
    return g.n >= 1 and any(row == 0 for row in g.adj)


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    return [list(_bits(comp)) for comp in _components(g.adj)]


def _components(rows: tuple[int, ...]) -> Iterator[int]:
    """Connected components of the graph with these neighbour rows, as
    vertex bitmasks, ordered by least vertex."""
    unseen = (1 << len(rows)) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        unseen &= ~comp
        yield comp


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    verts = list(vertices)
    return all(g.has_edge(u, v) for u, v in combinations(verts, 2))


def lex_least_clique(g: Graph, k: int, within: int | None = None) -> tuple[int, ...] | None:
    """Lexicographically least clique of size exactly k, or None.

    Cliques are ascending vertex tuples; within restricts the search to the
    vertices of that bitmask, ValueError when it is negative or has a bit
    at or above g.n.
    """
    if k < 0:
        raise ValueError("clique size must be non-negative")
    if within is None:
        within = (1 << g.n) - 1
    elif within < 0 or within >> g.n:
        raise ValueError(f"vertex mask {within:#b} is not a subset of 0..{g.n - 1}")
    return _clique(g.adj, k, within)


def _clique(rows, k: int, cand: int) -> tuple[int, ...] | None:
    """Lexicographically least k-clique inside the vertex bitmask cand of the
    graph with these neighbour rows, or None. Only the bits above v of rows[v]
    are read, so ~rows[v] serves as v's row in the complement."""
    out: list[int] = []

    def grow(cand: int, need: int) -> bool:
        # need >= 1; a vertex is tried only when enough of its neighbours are left
        while cand.bit_count() >= need:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            nxt = cand & rows[v]
            if nxt.bit_count() >= need - 1:
                out.append(v)
                if need == 1 or grow(nxt, need - 1):
                    return True
                out.pop()
        return False

    return tuple(out) if k == 0 or grow(cand, k) else None


def cliques_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All cliques of size exactly k, in lexicographic order."""
    return [c for c in combinations(range(g.n), k) if is_clique(g, c)]


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
    allowed: tuple[int, ...] | None = None,
    induced: bool = True,
) -> Embedding | None:
    """First embedding of pattern in host, or None: the first one that
    _embeddings yields.

    This one backtracker serves both kinds of containment: an induced
    embedding maps edges to edges and non-edges to non-edges; with
    induced=False only pattern edges must land on host edges. The embedding
    found first is the lexicographically smallest one, so a fixed input
    always reproduces the same witness. allowed, when given, is one
    neighbour bitmask per host vertex, and every pattern edge must then land
    on a host edge that its row allows (for an induced embedding those are
    exactly the host edges inside the image).
    """
    image = next(_embeddings(host, pattern, allowed, induced), None)
    return None if image is None else Embedding(pattern.n, image)


def _embeddings(
    host: Graph,
    pattern: Graph,
    allowed: tuple[int, ...] | None = None,
    induced: bool = True,
) -> Iterator[tuple[int, ...]]:
    """One embedding of pattern in host per copy, as image tuples, in
    lexicographic order.

    Embeddings that differ by an automorphism of pattern are one copy, and
    of those only the lexicographically least is yielded (the lex-leader
    rule): for each automorphism sigma other than the identity, with i its
    first moved vertex, the image of i must be below the image of sigma(i).
    The least embedding of all is the least of its copy, so it comes first.
    A host whose usable edges are fewer than pattern's has no embedding and
    is answered without a search.
    """
    if pattern.n > host.n:
        return iter(())
    rows = host.adj if allowed is None else tuple(map(int.__and__, host.adj, allowed))
    plan = _placement_plan(pattern, induced)
    if sum(map(int.bit_count, rows)) < plan[4]:  # ends: twice the edge count
        return iter(())
    return _walk(host.adj, rows, plan)


def _walk(adj, rows, plan, start=()):
    """Embeddings as image tuples, in lexicographic order, that begin with
    the images in start, a prefix the caller has checked.

    adj is the host's rows and rows its usable edge rows. Pattern vertices
    are placed in index order, each one's candidates lowest vertex first.
    The candidates for pattern vertex i form one bitmask: the unused host
    vertices, intersected with the usable row of the image of each earlier
    neighbour of i (plan's joined), with the complement of the host row of
    the image of each earlier non-neighbour (apart), and with the vertices
    above the image of each earlier vertex named in above. The later
    vertices that above puts over i need that many unused vertices above
    its image, so a pattern with many automorphisms, such as K_n in K_n, is
    not walked through every increasing prefix that cannot be completed.
    """
    joined, apart, above, need, _ = plan
    p = len(joined)
    if not p:
        yield ()
        return
    full = (1 << len(adj)) - 1
    image = [*start] + [0] * (p - len(start))
    untried = [0] * p  # candidates of each placed vertex not tried yet
    used = i = 0
    cand = full
    if need[0]:
        cand = _below_top(full, need[0])
    if start:  # the loop places start's last vertex, as its only candidate
        i = len(start) - 1
        cand = 1 << start[i]
        for v in start[:i]:
            used |= 1 << v
    floor = i
    while True:
        if cand:
            low = cand & -cand
            image[i] = low.bit_length() - 1
            if i + 1 == p:
                yield tuple(image)
                cand ^= low
                continue
            untried[i] = cand ^ low
            used |= low
            i += 1
            cand = full ^ used
            for j in joined[i]:
                cand &= rows[image[j]]
            for j in apart[i]:
                cand &= ~adj[image[j]]
            for j in above[i]:
                cand &= -2 << image[j]  # the vertices above image[j]
            if need[i]:
                cand &= _below_top(full ^ used, need[i])
        else:
            i -= 1
            if i < floor:
                return
            used ^= 1 << image[i]
            cand = untried[i]


def _below_top(free: int, k: int) -> int:
    """The vertices with at least k > 0 members of free above them."""
    if free.bit_count() < k:
        return 0
    for _ in range(k - 1):
        free ^= 1 << free.bit_length() - 1
    return (1 << free.bit_length() - 1) - 1


# Cached because a sweep embeds the same few patterns in every host.
@lru_cache(maxsize=128)
def _placement_plan(pattern: Graph, induced: bool) -> tuple:
    """(joined, apart, above, need, ends): for each pattern vertex i, its
    neighbours among 0..i-1, when induced its non-neighbours among them, the
    earlier vertices whose images must lie below i's, and the number of
    later vertices whose images must lie above i's; ends is twice pattern's
    edge count, the sum of its row sizes.

    above holds the lex-leader rule. An automorphism whose first moved
    vertex is i fixes 0..i-1, so the vertices j it can send i to form the
    orbit of i under the automorphisms fixing 0..i-1; each such j > i gets i
    in above[j]. Whether some automorphism sends i to j is one walk of
    pattern into itself from the start (0, ..., i - 1, j), so the group is
    never listed whole.
    """
    n = pattern.n
    adj = pattern.adj
    earlier = [(1 << i) - 1 for i in range(n)]
    joined = tuple(tuple(_bits(row & low)) for row, low in zip(adj, earlier))
    apart = tuple(tuple(_bits(~row & low)) for row, low in zip(adj, earlier))
    unordered = (joined, apart, ((),) * n, (0,) * n, 0)
    above: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # the start (0, ..., i - 1, j) holds when j meets 0..i-1 as i does
            start = (*range(i), j)
            if (adj[i] ^ adj[j]) & earlier[i] == 0 and next(_walk(adj, adj, unordered, start), None):
                above[j].append(i)
    if not induced:
        apart = ((),) * n
    need = tuple(sum(i in a for a in above) for i in range(n))
    return joined, apart, tuple(map(tuple, above)), need, 2 * pattern.edge_count()


def find_subgraph_embedding(host: Graph, pattern: Graph) -> Embedding | None:
    """First not-necessarily-induced embedding: pattern edges must map to host edges."""
    return find_induced_embedding(host, pattern, induced=False)


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
