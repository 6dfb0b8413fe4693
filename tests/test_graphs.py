import random
from itertools import combinations

import pytest

from arrowhead.arrowing import strongly_arrows
from arrowhead.errors import Graph6Error, OrderLimitError
from arrowhead.graphs import (
    Embedding,
    Graph,
    _embeddings,
    chromatic_number,
    clique_number,
    cliques_of_size,
    complement,
    complete,
    components,
    cycle,
    disjoint_union,
    emit_graph6,
    find_induced_embedding,
    find_subgraph_embedding,
    has_isolated_vertex,
    independence_number,
    induced_subgraph,
    is_clique,
    is_connected,
    lex_least_clique,
    matching,
    parse_graph6,
    path,
    relabel,
    star,
)

from .conftest import random_graph
from .oracles import (
    brute_chromatic,
    brute_clique,
    brute_embeddings,
    brute_first_embedding,
    brute_independence,
    brute_induced_copies,
    brute_is_iso,
    brute_subgraph_copies,
    check_embedding,
)


# ---------------------------------------------------------------------------
# constructors

def test_complete_graph_shape():
    k4 = complete(4)
    assert k4.n == 4
    assert k4.edge_count() == 6
    assert all(k4.has_edge(u, v) for u, v in combinations(range(4), 2))


def test_path_and_cycle_shapes():
    p4 = path(4)
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]
    c5 = cycle(5)
    assert c5.edge_count() == 5
    assert c5.has_edge(0, 4)
    assert not c5.has_edge(0, 2)


def test_star_and_matching_shapes():
    s3 = star(3)
    assert s3.n == 4
    assert sorted(s3.degree(v) for v in range(4)) == [1, 1, 1, 3]
    m = matching(3)
    assert m.n == 6
    assert m.edges() == [(0, 1), (2, 3), (4, 5)]


def test_degenerate_sizes():
    assert complete(1).edge_count() == 0
    assert path(1).n == 1
    assert star(0).n == 1
    assert cycle(3).edge_count() == 3
    with pytest.raises(ValueError):
        cycle(2)


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(6, 0.5, rng)
        assert complement(complement(g)) == g
        assert g.edge_count() + complement(g).edge_count() == 15


def test_disjoint_union_offsets():
    g = disjoint_union([complete(3), path(2)])
    assert g.n == 5
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_induced_subgraph_keeps_order():
    c5 = cycle(5)
    sub = induced_subgraph(c5, [0, 2, 3])
    # vertices 0,2,3 relabel to 0,1,2; only the 2-3 edge survives, as 1-2
    assert sub.n == 3
    assert sub.edges() == [(1, 2)]


@pytest.mark.parametrize("vertices", [[0, 0], [-1, 0], [3], [1, 2, 1]])
def test_induced_subgraph_rejects_a_bad_vertex_list(vertices):
    # a repeated vertex or one outside 0..n-1 is refused, as Graph.from_edges
    # refuses such an edge, not read as some other vertex set
    with pytest.raises(ValueError):
        induced_subgraph(path(3), vertices)


def test_relabel_is_isomorphism():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(7, 0.4, rng)
        perm = list(range(7))
        rng.shuffle(perm)
        assert brute_is_iso(g, relabel(g, perm))


@pytest.mark.parametrize("perm", [[0, 1, 1], [1, 0], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1]])
def test_relabel_rejects_a_perm_that_is_not_a_permutation(perm):
    # a repeated, missing, extra or out-of-range label is refused, not read
    # as some graph that is no image of g
    with pytest.raises(ValueError):
        relabel(Graph.from_edges(3, [(0, 1)]), perm)


def test_equality_and_hash_are_on_the_labelled_structure():
    # the hash is kept on the instance after its first call; it must stay
    # that of the fields, and equality must not see it
    g = path(3)
    key = hash(g)
    same = Graph.from_edges(3, [(1, 2), (0, 1)])
    assert same == g and hash(same) == key == hash((g.n, g.adj))
    assert {g: "p3"}[same] == "p3"
    assert relabel(g, [1, 0, 2]) != g  # isomorphic, differently labelled


def test_rows_given_as_a_list_are_those_of_a_tuple():
    # rows passed as a list are kept as a tuple, so the graph equals and
    # hashes like complete(3), and a decision can key its host record by it
    k3 = complete(3)
    listed = Graph(3, [6, 5, 3])
    assert listed.adj == (6, 5, 3)
    assert listed == k3 and hash(listed) == hash(k3)
    assert {k3: "k3"}[listed] == "k3"
    assert strongly_arrows(Graph(6, list(complete(6).adj)), k3, k3) == strongly_arrows(complete(6), k3, k3)


def test_graph_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric adjacency


# ---------------------------------------------------------------------------
# invariants against the oracles

def test_invariants_match_oracles_on_catalog(catalog):
    for order in range(1, 6):
        for g in catalog.graphs(order):
            assert clique_number(g) == brute_clique(g)
            assert independence_number(g) == brute_independence(g)
            assert chromatic_number(g) == brute_chromatic(g)


def test_invariants_match_oracles_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.random(), rng)
        assert clique_number(g) == brute_clique(g)
        assert independence_number(g) == brute_independence(g)
        if n <= 6:  # the color oracle enumerates all k^n assignments
            assert chromatic_number(g) == brute_chromatic(g)


def test_clique_independence_complement_duality():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(7, rng.random(), rng)
        assert clique_number(g) == independence_number(complement(g))


def test_known_invariant_values(named):
    assert chromatic_number(named["C5"]) == 3
    assert chromatic_number(named["C4"]) == 2
    assert chromatic_number(named["K4"]) == 4
    assert independence_number(named["C5"]) == 2
    assert clique_number(named["2K2"]) == 2


# ---------------------------------------------------------------------------
# connectivity, components, cliques

def test_connectivity_and_components():
    assert is_connected(path(5))
    assert not is_connected(matching(2))
    assert components(matching(2)) == [[0, 1], [2, 3]]
    assert components(Graph.from_edges(3, [])) == [[0], [1], [2]]
    assert has_isolated_vertex(star(0))
    assert not has_isolated_vertex(path(2))


def test_is_clique_and_lex_least():
    k4 = complete(4)
    assert is_clique(k4, [0, 2, 3])
    assert not is_clique(cycle(4), [0, 1, 2])
    assert lex_least_clique(k4, 3) == (0, 1, 2)
    assert lex_least_clique(cycle(4), 3) is None
    # candidate mask without vertex 0
    assert lex_least_clique(k4, 3, within=0b1110) == (1, 2, 3)
    assert lex_least_clique(k4, 0, within=0) == ()


@pytest.mark.parametrize("within", [0b11000, 0b1000, -1, -0b100])
def test_lex_least_clique_rejects_a_mask_outside_the_vertices(within):
    with pytest.raises(ValueError):
        lex_least_clique(complete(3), 2, within=within)


def test_cliques_of_size_enumerates_all():
    c5 = cycle(5)
    assert cliques_of_size(c5, 2) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert cliques_of_size(c5, 3) == []


# ---------------------------------------------------------------------------
# graph6 round trips and error reporting

def test_graph6_round_trip_entire_catalog(catalog):
    for order in range(1, 8):
        with open(catalog.path_for(order)) as fh:
            for line in fh:
                s = line.strip()
                g = parse_graph6(s)
                assert g.n == order
                assert emit_graph6(g) == s


def test_graph6_known_strings():
    assert emit_graph6(cycle(5)) == "Dhc"
    assert emit_graph6(complete(6)) == "E~~w"
    assert emit_graph6(matching(2)) == "C`"
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6("D??").edge_count() == 0
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D" + chr(40))  # byte below the printable window
    assert exc.value.offset == 1

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A??")  # one payload byte too many for order 2
    assert exc.value.offset == 2

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D")  # order 5 needs two payload bytes
    assert exc.value.offset == 1

    with pytest.raises(Graph6Error):
        parse_graph6("AO")  # nonzero padding bit

    with pytest.raises(Graph6Error) as exc:
        parse_graph6("~??")  # long form is out of scope
    assert exc.value.offset == 0


def test_graph6_order_cap():
    assert emit_graph6(complete(62)).startswith(chr(62 + 63))
    with pytest.raises(OrderLimitError):
        emit_graph6(Graph(63, tuple([0] * 63)))


def test_graph6_round_trip_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        assert parse_graph6(emit_graph6(g)) == g


# ---------------------------------------------------------------------------
# embeddings

def test_find_induced_embedding_matches_oracle(catalog, sweep_patterns):
    patterns = sweep_patterns + [cycle(5)]
    rng = random.Random(3)
    for host in catalog.graphs(5):
        rows = [0] * host.n  # allowed rows over random pairs, host edges or not
        for u, v in combinations(range(host.n), 2):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for pat in patterns:
            emb = find_induced_embedding(host, pat)
            copies = brute_induced_copies(host, pat)
            if copies:
                assert emb is not None
                assert check_embedding(host, pat, emb)
                assert tuple(sorted(emb.map)) in copies
            else:
                assert emb is None
            emb = find_induced_embedding(host, pat, induced=False)
            images = brute_subgraph_copies(host, pat)
            if images:
                assert emb is not None
                assert check_embedding(host, pat, emb, induced=False)
                m = emb.map
                assert frozenset((min(m[u], m[v]), max(m[u], m[v])) for u, v in pat.edges()) in images
            else:
                assert emb is None
            # the first embedding found is the first in permutations order
            for allowed in (None, tuple(rows)):
                for induced in (True, False):
                    emb = find_induced_embedding(host, pat, allowed, induced)
                    first = brute_first_embedding(host, pat, allowed, induced)
                    assert (emb.map if emb else None) == first, (host, pat, allowed, induced)


def test_embeddings_yield_one_per_copy(catalog, sweep_patterns):
    # embeddings that differ by an automorphism of the pattern are one copy;
    # each one yielded is the least of its copy, and there are as many as
    # copies: all embeddings over the automorphism count
    hosts = [g for order in range(1, 6) for g in catalog.graphs(order)]
    hosts += [complete(n) for n in range(5, 9)]
    for pat in sweep_patterns + [cycle(5)]:
        auts = list(brute_embeddings(pat, pat))
        for host in hosts:
            if host.n > 5 and pat != cycle(5):
                continue
            for induced in (True, False):
                got = list(_embeddings(host, pat.adj, None, induced))
                assert got == sorted(set(got)), (host, pat, induced)
                for image in got:
                    assert check_embedding(host, pat, Embedding(pat.n, image), induced=induced)
                    assert image == min(tuple(image[s[v]] for v in range(pat.n)) for s in auts)
                every = sum(1 for _ in brute_embeddings(host, pat, None, induced))
                assert len(got) * len(auts) == every, (host, pat, induced)
    # a non-induced C5 in K8: 6,720 embeddings, 672 copies
    assert len(list(_embeddings(complete(8), cycle(5).adj, None, False))) == 672


def test_find_induced_embedding_is_deterministic():
    host = parse_graph6("Dhc")  # 5-cycle
    emb = find_induced_embedding(host, path(3))
    assert emb is not None
    assert check_embedding(host, path(3), emb)
    assert emb == find_induced_embedding(host, path(3))


def test_find_subgraph_embedding_not_induced():
    host = complete(4)
    assert find_induced_embedding(host, path(3)) is None
    emb = find_subgraph_embedding(host, path(3))
    assert emb is not None
    assert check_embedding(host, path(3), emb, induced=False)


def test_edge_predicate_restricts_embeddings():
    host = complete(3)
    allowed = (0b010, 0b101, 0b010)  # the edges (0, 1) and (1, 2)

    assert find_induced_embedding(host, complete(3), allowed) is None
    emb = find_induced_embedding(host, complete(2), allowed)
    assert emb is not None
    assert set(emb.map) in ({0, 1}, {1, 2})


def test_check_embedding_rejects_garbage():
    host = cycle(4)
    pat = path(3)
    assert not check_embedding(host, pat, Embedding(3, (0, 0, 1)))
    assert not check_embedding(host, pat, Embedding(3, (0, 1)))
    assert not check_embedding(host, pat, Embedding(3, (0, 1, 5)))
    assert not check_embedding(host, pat, Embedding(2, (0, 1, 2)))
    # valid images in C4: any walk of two edges has non-adjacent ends
    assert check_embedding(host, pat, Embedding(3, (1, 0, 3)))
    assert check_embedding(host, pat, Embedding(3, (0, 1, 2)))
    # in K3 the same image picks up a chord, so the induced check fails
    assert not check_embedding(complete(3), pat, Embedding(3, (0, 1, 2)))
    assert check_embedding(complete(3), pat, Embedding(3, (0, 1, 2)), induced=False)
