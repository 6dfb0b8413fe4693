import hashlib
import json
import random
from functools import reduce
from itertools import combinations, product
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowhead import arrowing
from arrowhead.arrowing import (
    ArrowingResult,
    NotFoundBelow,
    _copy_masks,
    _copy_side,
    _host,
    _lex_larger_than_image,
    _refute,
    _search,
    _side,
    _twin_swaps,
    _union_refutation,
    arrows_complete_non_induced,
    ramsey_number_exact,
    strongly_arrows,
)
from arrowhead.coloring import EdgeColoring, _copies, _edge_order, _fault, verify_witness
from arrowhead.errors import PreconditionError
from arrowhead.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    find_subgraph_embedding,
    matching,
    parse_graph6,
    path,
    relabel,
    star,
)
from arrowhead.search import ResultCache, ir_exact

from .conftest import random_graph
from .oracles import (
    brute_induced_copies,
    brute_interiors,
    brute_is_iso,
    brute_refutes,
    brute_subgraph_copies,
    naive_strongly_arrows,
    plain_dfs_search,
)
from .tree_digest import digest_patterns, refute_digest

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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


def test_equal_arrowing_results_are_one_object():
    k3 = complete(3)
    refuted = strongly_arrows(complete(5), k3, k3)
    assert strongly_arrows(complete(5), k3, k3) is refuted
    proved = arrows_complete_non_induced(6, k3, k3)
    assert arrows_complete_non_induced(6, k3, k3) is proved
    assert strongly_arrows(complete(6), k3, k3) is proved


def test_equal_ir_results_are_one_object(catalog, tmp_path):
    first = ir_exact(matching(2), complete(2), catalog, n_max=4)
    assert ir_exact(matching(2), complete(2), catalog, n_max=4) is first
    assert ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(tmp_path / "ir.json")) is first


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
    # 1 is the least cap allowed, and no K_n with n <= 1 holds a K3
    assert ramsey_number_exact(complete(3), complete(3), 1) == NotFoundBelow(1)


@pytest.mark.parametrize("n_max", [0, -1])
def test_ramsey_refuses_an_order_cap_below_1(n_max):
    with pytest.raises(PreconditionError, match="at least 1"):
        ramsey_number_exact(complete(3), complete(3), n_max)


def test_ramsey_asymmetric_pair():
    # R(P_3, K_3) = 5: the 4-vertex red perfect matching kills both sides
    assert ramsey_number_exact(path(3), complete(3), 6) == 5


# ---------------------------------------------------------------------------
# copy masks

def test_copy_masks_match_oracles(catalog, sweep_patterns):
    # induced masks are the interiors of induced vertex sets; non-induced
    # masks are the edge images of pattern copies. The check's copy lists,
    # which the embedder builds, must hold the same masks.
    assert len(sweep_patterns) == 14
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), star(3), matching(2), complete(4)]
    cases = [(host, pat) for order in range(1, 7) for host in catalog.graphs(order) for pat in sweep_patterns]
    cases += [(complete(n), pat) for n in range(2, 9) for pat in panel]
    cases += [(complete(n), pat) for n in range(5, 10) for pat in (complete(3), complete(4), cycle(5))]
    for host, pat in cases:
        record = _host(host)
        edge_index = {e: i for i, e in enumerate(_edge_order(host))}

        def edge_sets(masks):
            assert masks == tuple(sorted(set(masks)))
            return {frozenset(e for e, i in edge_index.items() if (m >> i) & 1) for m in masks}

        interiors = {
            frozenset(e for e in combinations(verts, 2) if host.has_edge(*e))
            for verts in brute_induced_copies(host, pat)
        }
        images = set(brute_subgraph_copies(host, pat))
        assert edge_sets(_copy_masks(record, pat.adj, True)) == interiors, (host, pat)
        assert edge_sets(_copy_masks(record, pat.adj, False)) == images, (host, pat)
        assert edge_sets(_copies(record, pat.adj, True)) == interiors, (host, pat)
        assert edge_sets(_copies(record, pat.adj, False)) == images, (host, pat)


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
    n = draw(st.integers(0, 14))
    if not n:  # no edges, no copies
        return 0, [], []

    def family():
        # every copy of one pattern has |E(pattern)| edges, so each side
        # draws one copy size; size 1 gives one-edge copies, which the
        # search colors at its root, and an edge drawn on both sides is a
        # copy on both
        size = draw(st.integers(1, min(n, 6)))
        mask = st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True).map(
            lambda idx: sum(1 << i for i in idx)
        )
        return draw(st.lists(mask, max_size=30))

    return n, family(), family()


def test_a_family_of_mixed_copy_sizes_is_refused():
    with pytest.raises(ValueError, match="differ in size"):
        _side(3, [0b001, 0b110])


@settings(max_examples=300, deadline=None)
@given(mask_families())
def test_search_matches_plain_dfs(family):
    # forced moves prune only subtrees without a refuting coloring, so the
    # first one found is the plain DFS's lexicographically least one, with
    # or without the one-edge copies colored at the root
    n, red_masks, blue_masks = family
    red, blue = _side(n, red_masks), _side(n, blue_masks)
    assert red.units == sum({m for m in red_masks if not m & (m - 1)})
    assert blue.units == sum({m for m in blue_masks if not m & (m - 1)})

    expected = plain_dfs_search(n, red_masks, blue_masks)[0]
    # without the units, so no root forcing
    witness, leaves, prunes = _search(n, red._replace(units=0), blue._replace(units=0))
    assert witness == expected
    assert leaves == (witness is not None) and prunes >= 0
    witness, leaves, prunes = _search(n, red, blue)
    assert witness == expected
    assert leaves == (witness is not None) and prunes >= 0
    if red.units & blue.units:
        assert (witness, leaves, prunes) == (None, 0, 1)
    if not n:  # the empty coloring refutes, found at the root
        assert (witness, leaves, prunes) == ((0, 0), 1, 0)


def _oracle_result(host, g, h, induced):
    record = _host(host)
    edge_index = {e: i for i, e in enumerate(_edge_order(host))}
    found = plain_dfs_search(
        host.edge_count(), _copy_masks(record, g.adj, induced), _copy_masks(record, h.adj, induced)
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
    # K2+K1's induced copies are single edges, so root forcing colors them
    # all blue before the first branch: it does most of the work there
    k2_k1 = parse_graph6("B_")
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), matching(2), k2_k1]
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


def test_witnesses_are_pinned(catalog):
    # test_verdicts_and_witnesses_match_plain_dfs checks the witnesses against
    # an oracle that follows the host records' edge order, so it moves with
    # them; this digest does not. A change to the search's edge order or
    # branching that moves it must update it and say why
    panel = [path(3), complete(3), path(4), cycle(4), matching(2)]
    reds = [
        None if (w := strongly_arrows(f, g, h).witness) is None else sorted(w.red)
        for order in range(3, 7)
        for f in catalog.graphs(order)
        for g, h in product(panel, repeat=2)
    ]
    assert len(reds) == 5125
    assert hashlib.sha256(json.dumps(reds).encode()).hexdigest()[:16] == "5308585b9ac0db9b"


def _effort_digest(results):
    """Digest of each result's [arrows, colorings_explored, prunes], in order,
    and the prunes of the proofs and of all."""
    rows = [[res.arrows, res.colorings_explored, res.prunes] for res in results]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    return digest, sum(p for arrows, _, p in rows if arrows), sum(p for _, _, p in rows)


# The next two pin the search tree, not only the answers: leaves and prunes
# count every branch closed, so a change to how propagation finds its forced
# moves and conflicts that keeps the tree keeps these digests.

def test_prove_items_search_effort_is_pinned():
    items = json.loads(REFERENCE.read_text())["prove"]
    assert len(items) == 307
    results = [
        strongly_arrows(parse_graph6(item["f6"]), parse_graph6(item["g6"]), parse_graph6(item["h6"]))
        if item["kind"] == "induced"
        else arrows_complete_non_induced(item["n"], parse_graph6(item["g6"]), parse_graph6(item["h6"]))
        for item in items
    ]
    assert [res.arrows for res in results] == [item["arrows"] for item in items]
    assert _effort_digest(results) == ("3726e8fe3b79c78d", 1135, 1268)


def test_a_second_pass_over_the_prove_items_builds_no_host(fresh_hosts):
    # the host records hold the prove universe whole: a second pass finds
    # each of its hosts' records, so it makes no miss
    items = json.loads(REFERENCE.read_text())["prove"]
    ops = [
        (strongly_arrows, parse_graph6(item["f6"]), parse_graph6(item["g6"]), parse_graph6(item["h6"]))
        if item["kind"] == "induced"
        else (arrows_complete_non_induced, item["n"], parse_graph6(item["g6"]), parse_graph6(item["h6"]))
        for item in items
    ]
    first = [decide(f, g, h) for decide, f, g, h in ops]
    misses = _host.cache_info().misses
    assert misses > 208  # more hosts than an order-6 sweep visits
    assert [decide(f, g, h) for decide, f, g, h in ops] == first
    assert _host.cache_info().misses == misses


def test_complete_graphs_are_built_once():
    # a classical decision reads K_n from one instance per order, and every
    # classical verdict of the prove universe is that of a K_n built afresh
    assert complete(9) is complete(9)
    items = [item for item in json.loads(REFERENCE.read_text())["prove"] if item["kind"] == "classical"]
    assert len(items) == 14
    for item in items:
        n, g, h = item["n"], parse_graph6(item["g6"]), parse_graph6(item["h6"])
        res = arrows_complete_non_induced(n, g, h)
        assert res.arrows == item["arrows"], item
        assert res == arrowing._run(Graph(n, complete(n).adj), g, h, False), item


def test_witness_panel_search_effort_is_pinned(catalog):
    # the loop of test_witnesses_are_pinned
    panel = [path(3), complete(3), path(4), cycle(4), matching(2)]
    results = [
        strongly_arrows(f, g, h)
        for order in range(3, 7)
        for f in catalog.graphs(order)
        for g, h in product(panel, repeat=2)
    ]
    assert len(results) == 5125
    assert _effort_digest(results) == ("db2de1373afa201c", 256, 439)


def test_catalog_search_trees_are_pinned():
    # every (found, leaves, prunes) of _refute over the catalog to order 6,
    # 13 patterns, ordered pairs and both kinds (tests/tree_digest.py): a
    # change to the search's tree, its cuts or its exits that moves a single
    # witness or counter moves it. CI pins order 7 the same way
    assert refute_digest(range(1, 7)) == (70304, "29a2cc3d951b73fe")


def _searched(host, g, h, induced):
    """(witness, leaves, prunes) of _search run directly on host's masks."""
    record = _host(host)
    edges = _edge_order(host)
    found, leaves, prunes = _search(
        len(edges), _copy_side(record, g.adj, induced), _copy_side(record, h.adj, induced), record[_twin_swaps]
    )
    red_set, blue_set = found
    side = {True: [], False: []}
    for i, e in enumerate(edges):
        side[bool(red_set >> i & 1)].append(e)
    assert blue_set == (1 << len(edges)) - 1 - red_set
    return EdgeColoring.of(host.n, side[True], side[False]), leaves, prunes


def test_union_refutations_match_brute_copies(catalog):
    # every catalog host to order 6 and every ordered pair of tree_digest's
    # 13 patterns: an offered coloring is blue on g's union or red on h's,
    # and passes the judge and the brute check; a declined host has a copy
    # of h inside g's union and a copy of g inside h's union
    patterns = digest_patterns()
    offered = 0
    for host in [f for order in range(1, 7) for f in catalog.graphs(order)]:
        record = _host(host)
        edges = _edge_order(host)
        interiors = {p: brute_interiors(host, p) for p in patterns}
        unions = {p: set().union(*interiors[p]) for p in patterns}
        for g, h in product(patterns, repeat=2):
            found = _union_refutation(record, g.adj, h.adj, True)
            if found is None:
                assert any(c <= unions[g] for c in interiors[h]), (host, g, h)
                assert any(c <= unions[h] for c in interiors[g]), (host, g, h)
                continue
            offered += 1
            assert _fault(record, g.adj, h.adj, True, *found) is None, (host, g, h)
            red, blue = ({e for i, e in enumerate(edges) if side >> i & 1} for side in found)
            assert blue == set(edges) - red
            assert blue == unions[g] or red == unions[h], (host, g, h)
            assert brute_refutes(interiors[g], interiors[h], red), (host, g, h)
    assert offered == 30268


def test_hosts_without_g_match_the_search(catalog):
    # a host holding no copy of g is settled without a search: its all-red
    # witness and its counts must be those the search itself reaches
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), matching(2)]
    settled = 0
    for host in [f for order in range(1, 7) for f in catalog.graphs(order)]:
        for induced, copies in ((True, brute_induced_copies), (False, brute_subgraph_copies)):
            for g in panel:
                if copies(host, g):
                    continue
                for h in panel:
                    res = arrowing._run(host, g, h, induced)
                    expected = _searched(host, g, h, induced)
                    assert (res.witness, res.colorings_explored, res.prunes) == expected, (host, g, h)
                    assert res.witness.red_rows == host.adj
                    settled += 1
    for g, h in product(panel, repeat=2):
        for n in range(1, g.n):
            res = arrows_complete_non_induced(n, g, h)
            expected = _searched(complete(n), g, h, False)
            assert (res.witness, res.colorings_explored, res.prunes) == expected, (n, g, h)
    assert settled == 4332


def test_k9_arrows_k3_k4_within_counted_work():
    # R(3, 4) = 9. The bound counts closed branches, not seconds: the plain
    # DFS needs 1,270,376 leaves plus prunes here, propagation about 101,000.
    res = arrows_complete_non_induced(9, complete(3), complete(4))
    assert res.arrows
    assert res.colorings_explored == 0
    assert res.colorings_explored + res.prunes <= 250_000


def test_k10_arrows_c4_k4_within_counted_work():
    # R(C4, K4) = 10. Without the twin cuts this proof closes about
    # 1,866,000 branches; K10's transpositions bring it near 1,300.
    res = arrows_complete_non_induced(10, cycle(4), complete(4))
    assert res.arrows
    assert res.colorings_explored == 0
    assert res.colorings_explored + res.prunes <= 5_000


def test_dense_host_arrows_k2_k1_k3_within_counted_work():
    # This order-10 host has 37 edges and 7 induced copies of K2+K1, each a
    # single edge. Those 7 edges are colored blue at the root, and
    # propagating from them closes the proof in 1; without root forcing the
    # DFS closes 15,167 branches, trying blue on the 30 edges that lie in
    # no red copy.
    res = strongly_arrows(parse_graph6("In}~M~znW"), parse_graph6("B_"), complete(3))
    assert res.arrows
    assert res.colorings_explored == 0
    assert res.colorings_explored + res.prunes <= 5


def test_a_one_edge_copy_on_both_sides_closes_the_root():
    # K2+K1's one edge is a copy of K2+K1 by itself, red or blue
    k2_k1 = parse_graph6("B_")
    res = strongly_arrows(k2_k1, k2_k1, k2_k1)
    assert res.arrows
    assert (res.colorings_explored, res.prunes) == (0, 1)


def _exit_check(n, red_masks, blue_masks):
    """_search's answer on these families, which must be the plain DFS's
    witness with leaves 1 and prunes 0, and all red outside its blue side."""
    found = _search(n, _side(n, red_masks), _side(n, blue_masks))
    assert found == (plain_dfs_search(n, red_masks, blue_masks)[0], 1, 0)
    red_set, blue_set = found[0]
    assert red_set == (1 << n) - 1 ^ blue_set
    return blue_set


def test_the_dive_ends_at_the_root_when_every_red_copy_is_a_unit():
    # root forcing colors the three units blue, which kills every red copy,
    # so the all-red completion is the witness before the first branch:
    # each unit's blue raises a blue copy {i, i + 1} to its last edge, which
    # propagation forces red, and edges 6 and 7, still uncolored, go red
    blue_masks = [0b11, 0b1100, 0b110000]
    assert _exit_check(8, [0b1, 0b100, 0b10000], blue_masks) == 0b10101


def test_the_dive_ends_where_the_last_red_copy_dies():
    # edge 0 red forces edge 1 blue, killing copy {0, 1}; edge 2 red forces
    # edge 3 blue, killing {2, 3}, the last red copy: the rest of the dive,
    # edges 4 to 7, is all red with no further branch. Ending when the
    # first red copy dies would return {2, 3} all red
    red_masks = [0b11, 0b1100]
    blue_masks = [0b110000, 0b11000000]
    assert _exit_check(8, red_masks, blue_masks) == 0b1010


# ---------------------------------------------------------------------------
# symmetry cuts on twin vertices

def _transposition_pairs(host, u, v):
    """The edges moved by swapping u and v, as (1 << a, 1 << b) index pairs."""
    index = {e: i for i, e in enumerate(_edge_order(host))}
    tau = list(range(host.n))
    tau[u], tau[v] = v, u
    pairs = set()
    for (x, y), i in index.items():
        j = index.get((min(tau[x], tau[y]), max(tau[x], tau[y])))
        if j is None:
            return None  # not an automorphism: an edge maps to a non-edge
        if i < j:
            pairs.add((1 << i, 1 << j))
    return pairs


def test_twin_swaps_are_automorphisms(catalog):
    for host in [g for order in range(1, 7) for g in catalog.graphs(order)]:
        parent = list(range(host.n))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        twins = _host(host)[_twin_swaps]
        for a_mask, b_mask, pairs in twins.swaps:
            assert [a for a, _ in pairs] == sorted(a for a, _ in pairs)
            assert all(a < b for a, b in pairs)
            assert a_mask == sum(a for a, _ in pairs) and b_mask == sum(b for _, b in pairs)
            swapped = [
                (u, v)
                for u, v in combinations(range(host.n), 2)
                if _transposition_pairs(host, u, v) == set(pairs)
            ]
            assert len(swapped) == 1, (host, pairs)
            u, v = swapped[0]
            relabelled = relabel(host, [v if x == u else u if x == v else x for x in range(host.n)])
            assert relabelled.adj == host.adj
            parent[root(u)] = root(v)
        # the record's ORs over all swaps, which the search tests first
        assert twins.a_any == reduce(or_, (a for a, _, _ in twins.swaps), 0)
        assert twins.b_any == reduce(or_, (b for _, b, _ in twins.swaps), 0)
        for u, v in combinations(range(host.n), 2):
            if host.adj[u] & ~(1 << v) == host.adj[v] & ~(1 << u):  # twins
                # a swap moving no edge cuts nothing, so it may be left out
                assert root(u) == root(v) or not _transposition_pairs(host, u, v), (host, u, v)
            else:
                assert _transposition_pairs(host, u, v) is None, (host, u, v)


def test_symmetry_cut_only_closes_branches_with_a_smaller_image(catalog):
    # a cut is sound when every completion of the branch's partial coloring
    # has a lexicographically smaller image (red before blue, lowest edge
    # index first) under some swap: the least refuting coloring never does
    rng = random.Random(9)
    hosts = [f for order in range(3, 6) for f in catalog.graphs(order) if _host(f)[_twin_swaps].swaps]
    for host in hosts:
        swaps = _host(host)[_twin_swaps].swaps
        n_edges = host.edge_count()

        def image(blue):
            for _, _, pairs in swaps:
                out = blue
                for a, b in pairs:
                    if bool(blue & a) != bool(blue & b):
                        out ^= a | b
                yield out

        for _ in range(40):
            colors = [rng.choice("rb.") for _ in range(n_edges)]
            red = sum(1 << i for i, c in enumerate(colors) if c == "r")
            blue = sum(1 << i for i, c in enumerate(colors) if c == "b")
            if not _lex_larger_than_image(swaps, red, blue):
                continue
            free = [1 << i for i, c in enumerate(colors) if c == "."]
            for fill in product((0, 1), repeat=len(free)):
                x = blue | sum(bit for bit, on in zip(free, fill) if on)
                # the image is smaller when the lowest edge where they differ is blue in x
                assert any((x ^ y) & -(x ^ y) & x for y in image(x)), (host, colors, fill)


@st.composite
def twin_padded_hosts(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    rows = [0] * n
    for (u, v), on in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))):
        if on:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.integers(0, len(rows) - 1))
        w = len(rows)
        row = rows[v] | (draw(st.booleans()) << v)  # a true twin is adjacent to v
        for x in range(w):
            if (row >> x) & 1:
                rows[x] |= 1 << w
        rows.append(row)
    return Graph(len(rows), tuple(rows))


@settings(max_examples=150, deadline=None)
@given(twin_padded_hosts())
def test_twin_cuts_keep_the_plain_dfs_witness(host):
    panel = [path(3), complete(3), matching(2), path(4)]
    for g, h in product(panel, repeat=2):
        res = strongly_arrows(host, g, h)
        assert res.witness == _oracle_result(host, g, h, True), (host, g, h)


# ---------------------------------------------------------------------------
# re-verification of the search's answer

def _all_red(n_edges, red, blue, swaps=()):
    return ((1 << n_edges) - 1, 0), 1, 0


def _all_blue(n_edges, red, blue, swaps=()):
    return (0, (1 << n_edges) - 1), 1, 0


def _one_edge_dropped(n_edges, red, blue, swaps=()):
    found, leaves, prunes = _search(n_edges, red, blue, swaps)
    if found is None:
        return found, leaves, prunes
    red, blue = found
    return ((red & (red - 1), blue) if red else (red, blue & (blue - 1))), leaves, prunes


def _sides_overlap(n_edges, red, blue, swaps=()):
    found, leaves, prunes = _search(n_edges, red, blue, swaps)
    if found is None:
        return found, leaves, prunes
    red, blue = found
    return ((red | blue, blue) if blue else (red, red)), leaves, prunes


@pytest.mark.parametrize(
    "fake, order, message",
    [
        # total, but all red (all blue) on K6 holds a red (blue) triangle
        (_all_red, 6, "red copy"),
        (_all_blue, 6, "blue copy"),
        # K5's refuting coloring with one edge left uncolored
        (_one_edge_dropped, 5, "uncolored"),
        # K5's refuting coloring with the blue edges also red
        (_sides_overlap, 5, "twice"),
    ],
)
def test_a_wrong_search_answer_is_caught_on_every_path(monkeypatch, catalog, fake, order, message):
    k3 = complete(3)
    monkeypatch.setattr(arrowing, "_search", fake)
    with pytest.raises(AssertionError, match=message):
        strongly_arrows(complete(order), k3, k3)
    with pytest.raises(AssertionError, match=message):
        arrows_complete_non_induced(order, k3, k3)
    # the sweep path builds no coloring object, but checks just the same
    with pytest.raises(AssertionError, match=message):
        ir_exact(k3, k3, catalog, n_max=6, cache=None)


def test_a_host_wrongly_claimed_free_of_g_is_caught(monkeypatch, catalog, fresh_hosts):
    # K6 holds triangles: masks claiming none must not pass as the all-red refutation
    k3 = complete(3)
    monkeypatch.setattr(arrowing, "_copy_masks", lambda f, pattern, induced: ())
    with pytest.raises(AssertionError, match="red copy"):
        strongly_arrows(complete(6), k3, k3)
    with pytest.raises(AssertionError, match="red copy"):
        arrows_complete_non_induced(6, k3, k3)
    with pytest.raises(AssertionError, match="red copy"):
        ir_exact(k3, k3, catalog, n_max=6, cache=None)


def test_the_all_red_shortcut_is_judged_like_a_search():
    # K5 holds no induced P3, so it is refuted all red without a search; that
    # coloring passes the same check as a searched one. The judge reads the
    # bits in the edge order it builds from f, not in the record's: a record
    # whose edges are permuted still passes all red, which is all red in any
    # order, but its searched (K3, K3) refutation is judged in the judge's
    # order, where it holds a red triangle
    assert _refute(_host(complete(5)), path(3).adj, complete(3).adj, True) == (((1 << 10) - 1, 0), 1, 0)
    record = arrowing._Host(complete(5))
    record.edges = record.edges[::-1]
    assert _refute(record, path(3).adj, complete(3).adj, True) == (((1 << 10) - 1, 0), 1, 0)
    with pytest.raises(AssertionError, match="red copy"):
        _refute(record, complete(3).adj, complete(3).adj, True)


@pytest.mark.parametrize("dropped", [0, -1])
def test_a_dropped_copy_mask_is_caught(monkeypatch, catalog, fresh_hosts, dropped):
    # masks missing one copy let the search return a coloring in which that
    # copy is monochromatic; the check's copy lists come from the embedder
    real = arrowing._copy_masks

    def one_dropped(f, pattern, induced):
        masks = list(real(f, pattern, induced))
        if len(masks) > 1:  # a family left empty would take the all-red shortcut
            del masks[dropped]
        return tuple(masks)

    k3 = complete(3)
    monkeypatch.setattr(arrowing, "_copy_masks", one_dropped)
    with pytest.raises(AssertionError, match="(red|blue) copy"):
        strongly_arrows(complete(5), k3, k3)
    with pytest.raises(AssertionError, match="(red|blue) copy"):
        arrows_complete_non_induced(5, k3, k3)
    with pytest.raises(AssertionError, match="(red|blue) copy"):
        ir_exact(k3, k3, catalog, n_max=6, cache=None)


def test_a_warm_sweep_builds_nothing(catalog, fresh_hosts):
    # A second pass over the same pairs reads every host's subset tables,
    # side records, copy lists and twin swaps from its record. A record keys
    # what it keeps by builder, so the builders are made to raise in place.
    pairs = [(path(4), complete(3)), (path(4), path(3)), (matching(2), complete(3)), (complete(3), cycle(4))]
    first = [ir_exact(g, h, catalog, n_max=6) for g, h in pairs]
    assert any(isinstance(res, NotFoundBelow) for res in first)
    assert any(not isinstance(res, NotFoundBelow) for res in first)

    def built(*args):
        raise AssertionError("a builder ran on a warm host")

    with pytest.MonkeyPatch.context() as patch:
        for builder in (arrowing._subset_table, _copy_masks, _side, _copies, arrowing._twin_swaps):
            patch.setattr(builder, "__code__", built.__code__)
        assert [ir_exact(g, h, catalog, n_max=6) for g, h in pairs] == first
    arrowing._host.cache_clear()
    assert [ir_exact(g, h, catalog, n_max=6) for g, h in pairs] == first
