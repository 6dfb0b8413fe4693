import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowhead.arrowing import (
    ArrowingResult,
    NotFoundBelow,
    _copy_masks,
    _edge_order,
    _search,
    arrows_complete_non_induced,
    ramsey_number_exact,
    strongly_arrows,
)
from arrowhead.coloring import EdgeColoring, verify_witness
from arrowhead.errors import PreconditionError
from arrowhead.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    find_subgraph_embedding,
    matching,
    path,
    relabel,
    star,
)

from .conftest import random_graph
from .oracles import (
    brute_induced_copies,
    brute_is_iso,
    brute_subgraph_copies,
    naive_strongly_arrows,
    plain_dfs_search,
)


# ---------------------------------------------------------------------------
# fixed examples

def test_matching_pair_arrows():
    # any blue edge is a blue K_2; the all-red coloring shows the red 2K_2
    res = strongly_arrows(matching(2), matching(2), complete(2))
    assert res.arrows
    assert res.witness is None


def test_k5_does_not_arrow_triangles():
    res = strongly_arrows(complete(5), complete(3), complete(3))
    assert not res.arrows
    assert res.witness is not None
    assert brute_is_iso(res.witness.red_graph(), cycle(5))
    assert brute_is_iso(res.witness.blue_graph(), cycle(5))
    assert verify_witness(complete(5), res.witness, complete(3), complete(3)) is None


def test_k6_arrows_triangles():
    res = strongly_arrows(complete(6), complete(3), complete(3))
    assert res.arrows
    assert res.witness is None
    assert res.colorings_explored >= 0 and res.prunes >= 0


def test_results_are_deterministic():
    a = strongly_arrows(complete(5), complete(3), complete(3))
    b = strongly_arrows(complete(5), complete(3), complete(3))
    assert a == b


def test_edgeless_host_is_trivial_nonarrower():
    host = Graph.from_edges(3, [])
    res = strongly_arrows(host, complete(2), complete(2))
    assert not res.arrows
    assert res.witness.red == frozenset() and res.witness.blue == frozenset()


def test_edgeless_patterns_rejected():
    k1 = complete(1)
    with pytest.raises(PreconditionError):
        strongly_arrows(complete(3), k1, complete(2))
    with pytest.raises(PreconditionError):
        strongly_arrows(complete(3), complete(2), Graph.from_edges(2, []))
    with pytest.raises(PreconditionError):
        arrows_complete_non_induced(3, k1, k1)
    with pytest.raises(PreconditionError):
        ramsey_number_exact(k1, complete(2), 4)


# ---------------------------------------------------------------------------
# classical (non-induced) variant

def test_classical_examples():
    assert arrows_complete_non_induced(6, complete(3), complete(3)).arrows
    assert arrows_complete_non_induced(3, path(3), path(3)).arrows
    assert not arrows_complete_non_induced(2, path(3), path(3)).arrows
    res = arrows_complete_non_induced(5, complete(3), complete(3))
    assert not res.arrows
    assert brute_is_iso(res.witness.red_graph(), cycle(5))


def test_classical_witness_has_no_mono_subgraph_copy():
    res = arrows_complete_non_induced(5, path(4), complete(3))
    if not res.arrows:
        assert find_subgraph_embedding(res.witness.red_graph(), path(4)) is None
        assert find_subgraph_embedding(res.witness.blue_graph(), complete(3)) is None


def test_ramsey_number_values():
    assert ramsey_number_exact(complete(3), complete(3), 8) == 6
    assert ramsey_number_exact(path(3), path(3), 5) == 3
    assert ramsey_number_exact(complete(2), complete(2), 5) == 2
    missed = ramsey_number_exact(complete(3), complete(3), 5)
    assert isinstance(missed, NotFoundBelow)
    assert missed.n_max == 5


def test_ramsey_asymmetric_pair():
    # R(P_3, K_3) = 5: the 4-vertex red perfect matching kills both sides
    assert ramsey_number_exact(path(3), complete(3), 6) == 5


# ---------------------------------------------------------------------------
# copy masks

def test_copy_masks_match_oracles(catalog):
    # induced masks are the interiors of induced vertex sets; non-induced
    # masks are the edge images of pattern copies
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), star(3), matching(2), complete(4)]
    hosts = [g for order in range(1, 7) for g in catalog.graphs(order)]
    hosts += [complete(n) for n in range(2, 9)]
    for host in hosts:
        edge_index = {e: i for i, e in enumerate(_edge_order(host))}

        def edge_sets(masks):
            assert masks == sorted(set(masks))
            return {frozenset(e for e, i in edge_index.items() if (m >> i) & 1) for m in masks}

        for pat in panel:
            interiors = {
                frozenset(e for e in combinations(verts, 2) if host.has_edge(*e))
                for verts in brute_induced_copies(host, pat)
            }
            assert edge_sets(_copy_masks(host, pat, edge_index, True)) == interiors, (host, pat)
            images = set(brute_subgraph_copies(host, pat))
            assert edge_sets(_copy_masks(host, pat, edge_index, False)) == images, (host, pat)


# ---------------------------------------------------------------------------
# properties

def test_verdict_symmetric_in_the_pattern_pair(catalog):
    pats = [complete(2), path(3), complete(3), matching(2)]
    for host in catalog.graphs(4):
        for g, h in product(pats, repeat=2):
            assert strongly_arrows(host, g, h).arrows == strongly_arrows(host, h, g).arrows


def test_verdict_survives_isolated_vertex_padding(catalog):
    # all four patterns are isolate-free, so a lone extra vertex can never
    # take part in a copy and the verdict must not move
    pats = [complete(2), path(3), complete(3), matching(2)]
    pad = complete(1)
    for host in catalog.graphs(4):
        padded = disjoint_union([host, pad])
        for g in pats:
            for h in pats:
                assert (
                    strongly_arrows(host, g, h).arrows
                    == strongly_arrows(padded, g, h).arrows
                )


def test_verdict_invariant_under_relabeling():
    rng = random.Random(47)
    hosts = [random_graph(5, 0.5, rng), random_graph(6, 0.4, rng), cycle(5)]
    pairs = [(path(3), complete(3)), (matching(2), complete(2))]
    for host in hosts:
        for g, h in pairs:
            base = strongly_arrows(host, g, h).arrows
            for _ in range(100):
                perm = list(range(host.n))
                rng.shuffle(perm)
                assert strongly_arrows(relabel(host, perm), g, h).arrows == base


def test_agrees_with_naive_enumeration_small(catalog):
    pats = {
        "K2": complete(2),
        "P3": path(3),
        "K3": complete(3),
        "2K2": matching(2),
        "P4": path(4),
    }
    hosts = [g for order in range(2, 5) for g in catalog.graphs(order)]
    for host in hosts:
        for g in pats.values():
            for h in pats.values():
                expected, counter = naive_strongly_arrows(host, g, h)
                got = strongly_arrows(host, g, h)
                assert got.arrows == expected, (host, g, h, counter)
                if not got.arrows:
                    assert verify_witness(host, got.witness, g, h) is None


def test_every_witness_reverifies(catalog):
    pairs = [
        (path(3), complete(3)),
        (complete(3), complete(3)),
        (matching(2), complete(2)),
        (path(4), path(3)),
    ]
    for host in catalog.graphs(5):
        for g, h in pairs:
            res = strongly_arrows(host, g, h)
            if not res.arrows:
                res.witness.check_against(host)
                assert verify_witness(host, res.witness, g, h) is None


# ---------------------------------------------------------------------------
# the propagating search against the plain DFS it replaced

@st.composite
def mask_families(draw):
    n = draw(st.integers(1, 14))
    mask = st.lists(st.integers(0, n - 1), min_size=1, max_size=6).map(
        lambda idx: sum(1 << i for i in set(idx))
    )
    return n, draw(st.lists(mask, max_size=30)), draw(st.lists(mask, max_size=30))


@settings(max_examples=300, deadline=None)
@given(mask_families())
def test_search_matches_plain_dfs(family):
    # forced moves prune only subtrees without a refuting coloring, so the
    # first one found is the plain DFS's lexicographically least one
    n, red_masks, blue_masks = family
    witness, leaves, prunes = _search(n, red_masks, blue_masks)
    expected = plain_dfs_search(n, red_masks, blue_masks)[0]
    assert witness == expected
    assert leaves == (witness is not None) and prunes >= 0


def _oracle_result(host, g, h, induced):
    edges = _edge_order(host)
    edge_index = {e: i for i, e in enumerate(edges)}
    found = plain_dfs_search(
        len(edges), _copy_masks(host, g, edge_index, induced), _copy_masks(host, h, edge_index, induced)
    )[0]
    if found is None:
        return None
    red_set, blue_set = found
    return EdgeColoring.of(
        host.n,
        [e for e, i in edge_index.items() if (red_set >> i) & 1],
        [e for e, i in edge_index.items() if (blue_set >> i) & 1],
    )


def test_verdicts_and_witnesses_match_plain_dfs(catalog):
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), matching(2)]
    for host in [g for order in range(1, 7) for g in catalog.graphs(order)]:
        for g, h in product(panel, repeat=2):
            res = strongly_arrows(host, g, h)
            assert res.witness == _oracle_result(host, g, h, True), (host, g, h)
            assert res.arrows == (res.witness is None)
    for n in range(2, 9):
        for g, h in product(panel, repeat=2):
            res = arrows_complete_non_induced(n, g, h)
            assert res.witness == _oracle_result(complete(n), g, h, False), (n, g, h)
            assert res.arrows == (res.witness is None)


def test_k9_arrows_k3_k4_within_counted_work():
    # R(3, 4) = 9. The bound counts closed branches, not seconds: the plain
    # DFS needs 1,270,376 leaves plus prunes here, propagation about 101,000.
    res = arrows_complete_non_induced(9, complete(3), complete(4))
    assert res.arrows
    assert res.colorings_explored == 0
    assert res.colorings_explored + res.prunes <= 250_000
