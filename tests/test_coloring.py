import json
import random
from dataclasses import fields
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowhead.coloring import (
    BLUE,
    RED,
    EdgeColoring,
    blue_clique_free,
    find_mono_induced,
    red_component_independence_ok,
    red_isolatefree_independence_ok,
    verify_witness,
)
from arrowhead.constructions import _certify_red_side
from arrowhead.errors import ColoringMismatchError, ConstructionError, PreconditionError
from arrowhead.graphs import (
    Graph,
    clique_number,
    complement,
    complete,
    cycle,
    disjoint_union,
    independence_number,
    is_connected,
    matching,
    path,
)

from .conftest import random_graph
from .oracles import PairColoring, brute_clique, brute_independence, brute_red_isolatefree_ok


def _split_random(host: Graph, rng: random.Random) -> EdgeColoring:
    red, blue = [], []
    for e in host.edges():
        (red if rng.random() < 0.5 else blue).append(e)
    return EdgeColoring.of(host.n, red, blue)


# ---------------------------------------------------------------------------
# construction and normalization

def test_of_normalizes_pair_order():
    c = EdgeColoring.of(3, [(1, 0)], [(2, 1)])
    assert c.red == frozenset({(0, 1)})
    assert c.blue == frozenset({(1, 2)})
    assert c.color_of(0, 1) == RED
    assert c.color_of(1, 0) == RED
    assert c.color_of(2, 1) == BLUE
    assert c.color_of(0, 2) is None


def test_colorings_store_neighbour_rows():
    # a stored coloring holds one int row per vertex and side, not pairs
    c = EdgeColoring.of(3, [(1, 0)], [[2, 1]])
    assert [f.name for f in fields(c)] == ["host_order", "red_rows", "blue_rows"]
    assert c.red_rows == (0b010, 0b001, 0b000)
    assert c.blue_rows == (0b000, 0b100, 0b010)
    for rows in (c.red_rows, c.blue_rows):
        assert type(rows) is tuple and all(type(row) is int for row in rows)


def test_equal_colorings_are_one_object():
    # a caller keeping the same answer many times holds it once
    a = EdgeColoring.of(4, [(1, 0), (2, 3)], [(1, 2)])
    b = EdgeColoring.of(4, [[3, 2], (0, 1)], [(2, 1)])
    assert a is b
    assert EdgeColoring.of(5, a.red, a.blue) is not a
    assert EdgeColoring.of(4, a.blue, a.red) is not a
    assert EdgeColoring.of(4, a.blue, a.red) == a.swapped()
    assert EdgeColoring.of(3, [(0, 1)], [(1, 2)]).swapped() is EdgeColoring.of(3, [(1, 2)], [(0, 1)])


def test_of_rejects_overlap_and_loops():
    with pytest.raises(ColoringMismatchError):
        EdgeColoring.of(3, [(0, 1)], [(1, 0)])
    with pytest.raises(ColoringMismatchError):
        EdgeColoring.of(3, [(1, 1)], [])


def test_from_rows_rejects_an_edge_on_both_sides():
    # red 0-1, 1-2 and blue 1-2, 0-3: the pair (1, 2) is on both sides
    with pytest.raises(ColoringMismatchError, match=r"edges colored twice: \[\(1, 2\)\]"):
        EdgeColoring.from_rows(4, (0b0010, 0b0101, 0b0010, 0), (0b1000, 0b0100, 0b0010, 0b0001))
    c = EdgeColoring.from_rows(3, [0b010, 0b001, 0], [0, 0b100, 0b010])
    assert c is EdgeColoring.of(3, [(0, 1)], [(1, 2)])


def test_monochrome_and_swapped():
    k3 = complete(3)
    c = EdgeColoring.monochrome(k3, RED)
    assert len(c.red) == 3 and not c.blue
    s = c.swapped()
    assert len(s.blue) == 3 and not s.red
    assert s.swapped() == c
    with pytest.raises(ValueError):
        EdgeColoring.monochrome(k3, "green")


def test_check_against_names_offending_edges():
    k3 = complete(3)
    with pytest.raises(ColoringMismatchError, match=r"uncolored.*\(0, 2\)"):
        EdgeColoring.of(3, [(0, 1)], [(1, 2)]).check_against(k3)
    with pytest.raises(ColoringMismatchError, match=r"not host edges.*\(0, 2\)"):
        EdgeColoring.of(3, [(0, 1), (0, 2)], [(1, 2)]).check_against(path(3))
    with pytest.raises(ColoringMismatchError, match="order"):
        EdgeColoring.of(4, [], []).check_against(k3)
    # pairs naming a vertex outside 0..n-1 are mismatches, not index errors,
    # and are refused as the coloring is built, on either side
    for bad in ((0, 5), (5, 0), (-1, 1), (1, -1)):
        pair = rf"\({min(bad)}, {max(bad)}\)"
        with pytest.raises(ColoringMismatchError, match=pair):
            EdgeColoring.of(3, [bad], [])
        with pytest.raises(ColoringMismatchError, match=pair):
            EdgeColoring.of(3, [(0, 1)], [(1, 2), bad])


@st.composite
def pair_lists(draw):
    """(n, red pairs, blue pairs), n <= 8: pairs either way round and some
    repeated, in any order, and now and then one bad pair on one side: a
    loop, a pair already on the other side or a vertex outside 0..n-1."""
    n = draw(st.integers(0, 8))
    sides = {RED: [], BLUE: []}
    for u, v in combinations(range(n), 2):
        color = draw(st.sampled_from((RED, BLUE, None)))
        if color:
            sides[color] += [draw(st.sampled_from(((u, v), (v, u))))] * draw(st.integers(1, 2))
    side, other = draw(st.sampled_from(((RED, BLUE), (BLUE, RED))))
    fault = draw(st.sampled_from((None, None, "loop", "twice", "outside")))
    if fault == "loop":
        v = draw(st.integers(-1, n))
        sides[side].append((v, v))
    elif fault == "twice" and sides[other]:
        sides[side].append(draw(st.sampled_from(sides[other]))[::-1])
    elif fault == "outside":
        sides[side].append(draw(st.permutations((draw(st.integers(0, n)), draw(st.sampled_from((-1, n)))))))
    return n, draw(st.permutations(sides[RED])), draw(st.permutations(sides[BLUE]))


@settings(max_examples=300, deadline=None)
@given(pair_lists(), st.sets(st.integers(0, 27)))
def test_rows_match_the_pair_reference(case, flips):
    """EdgeColoring on rows agrees with a coloring kept as pair sets: what
    of builds or refuses, the pair views, color_of, swapped, the JSON form
    and its round trip, and check_against's error texts on hosts that differ
    from the colored pairs in the flipped pairs."""
    n, red, blue = case
    ref = PairColoring.of(n, red, blue)
    if isinstance(ref, str):
        with pytest.raises(ColoringMismatchError) as err:
            EdgeColoring.of(n, red, blue)
        assert str(err.value) == ref
        return
    c = EdgeColoring.of(n, red, blue)
    assert (c.host_order, c.red, c.blue) == (n, ref.red, ref.blue)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert c.color_of(u, v) == ref.color_of(u, v)
    swapped = c.swapped()
    assert (swapped.red, swapped.blue) == (ref.blue, ref.red)
    data = c.to_json_dict()
    assert json.dumps(data) == json.dumps(ref.to_json_dict())
    assert EdgeColoring.from_json_dict(json.loads(json.dumps(data))) == c
    pairs = list(combinations(range(n), 2))
    edges = (ref.red | ref.blue) ^ {pairs[i % len(pairs)] for i in flips if pairs}
    for host in (Graph.from_edges(n, edges), Graph.from_edges(n + 1, edges)):
        want = ref.check_against(host)
        if want is None:
            c.check_against(host)
        else:
            with pytest.raises(ColoringMismatchError) as err:
                c.check_against(host)
            assert str(err.value) == want


def test_red_blue_graphs():
    c = EdgeColoring.of(4, [(0, 1), (2, 3)], [(1, 2)])
    assert c.red_graph().edges() == [(0, 1), (2, 3)]
    assert c.blue_graph().edges() == [(1, 2)]


# ---------------------------------------------------------------------------
# JSON format

def test_json_round_trip():
    c = EdgeColoring.of(5, [(0, 4), (1, 2)], [(3, 4)])
    data = c.to_json_dict()
    assert data == {"n": 5, "red": [[0, 4], [1, 2]], "blue": [[3, 4]]}
    assert EdgeColoring.from_json_dict(data) == c


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3, "red": []},
        {"n": 3, "red": [], "blue": [], "extra": 1},
        {"n": "3", "red": [], "blue": []},
        {"n": -1, "red": [], "blue": []},
        {"n": 3, "red": {}, "blue": []},
        {"n": 3, "red": [[0, 1, 2]], "blue": []},
        {"n": 3, "red": [[1, 0]], "blue": []},
        {"n": 3, "red": [[0, 3]], "blue": []},
        {"n": 3, "red": [[0, 1], [0, 1]], "blue": []},
        {"n": 3, "red": [[0, 1]], "blue": [[0, 1]]},
        {"n": 3, "red": [[False, 1]], "blue": []},
        {"n": True, "red": [], "blue": []},
    ],
)
def test_json_schema_violations(data):
    with pytest.raises(ColoringMismatchError):
        EdgeColoring.from_json_dict(data)


# ---------------------------------------------------------------------------
# monochromatic detection and certificates

def test_find_mono_induced_basics():
    k3 = complete(3)
    c = EdgeColoring.monochrome(k3, RED)
    hit = find_mono_induced(k3, c, complete(3), RED)
    assert hit is not None
    assert hit.color == RED
    assert hit.embedding.map == (0, 1, 2)
    assert find_mono_induced(k3, c, complete(3), BLUE) is None
    assert find_mono_induced(k3, c, path(3), RED) is None  # K3 has no induced path
    with pytest.raises(ValueError):
        find_mono_induced(k3, c, complete(3), "green")


def test_find_mono_induced_requires_total_coloring():
    k3 = complete(3)
    partial = EdgeColoring.of(3, [(0, 1)], [])
    with pytest.raises(ColoringMismatchError):
        find_mono_induced(k3, partial, complete(2), RED)


def test_verify_witness_classical_k5_example():
    # red 5-cycle, blue complement (also a 5-cycle): no monochromatic triangle
    k5 = complete(5)
    red = cycle(5).edges()
    blue = [e for e in k5.edges() if e not in set(red)]
    c = EdgeColoring.of(5, red, blue)
    assert verify_witness(k5, c, complete(3), complete(3)) is None


def test_verify_witness_reports_red_first():
    k3 = complete(3)
    c = EdgeColoring.of(3, [(0, 1)], [(0, 2), (1, 2)])
    hit = verify_witness(k3, c, complete(2), complete(2))
    assert hit is not None and hit.color == RED


# ---------------------------------------------------------------------------
# certification predicates

def test_red_component_semantics_use_the_red_graph():
    # red path 0-1-2 inside K3: in the host its ends are adjacent, but the
    # red component, taken as a graph by itself, has independence 2
    k3 = complete(3)
    c = EdgeColoring.of(3, [(0, 1), (1, 2)], [(0, 2)])
    assert not red_component_independence_ok(k3, c, alpha=2)
    assert red_component_independence_ok(k3, c, alpha=3)


def test_red_component_cliques_pass_at_alpha_2():
    host = disjoint_union([complete(3), complete(2)])
    c = EdgeColoring.monochrome(host, RED)
    assert red_component_independence_ok(host, c, alpha=2)


def test_red_component_all_blue_passes():
    k4 = complete(4)
    c = EdgeColoring.monochrome(k4, BLUE)
    assert red_component_independence_ok(k4, c, alpha=2)
    with pytest.raises(PreconditionError):
        red_component_independence_ok(k4, c, alpha=1)


def test_blue_clique_free_examples():
    k3 = complete(3)
    all_blue = EdgeColoring.monochrome(k3, BLUE)
    assert not blue_clique_free(k3, all_blue, omega=3)
    assert blue_clique_free(k3, all_blue, omega=4)
    assert not blue_clique_free(k3, all_blue, omega=2)
    assert blue_clique_free(k3, EdgeColoring.monochrome(k3, RED), omega=2)
    k5 = complete(5)
    red = cycle(5).edges()
    blue = [e for e in k5.edges() if e not in set(red)]
    assert blue_clique_free(k5, EdgeColoring.of(5, red, blue), omega=3)
    with pytest.raises(PreconditionError):
        blue_clique_free(k3, all_blue, omega=1)


def test_red_oracle_examples():
    k4 = complete(4)
    assert red_isolatefree_independence_ok(k4, EdgeColoring.monochrome(k4, RED), alpha=2)
    assert red_isolatefree_independence_ok(k4, EdgeColoring.monochrome(k4, BLUE), alpha=1)

    two_k2 = matching(2)
    all_red = EdgeColoring.monochrome(two_k2, RED)
    assert not red_isolatefree_independence_ok(two_k2, all_red, alpha=2)

    # same red edges inside K5: the four vertices now carry blue interior
    # edges, so no all-red set realizes the matching
    k5 = complete(5)
    red = [(0, 1), (2, 3)]
    blue = [e for e in k5.edges() if e not in set(red)]
    assert red_isolatefree_independence_ok(k5, EdgeColoring.of(5, red, blue), alpha=2)

    p3 = path(3)
    assert not red_isolatefree_independence_ok(p3, EdgeColoring.monochrome(p3, RED), alpha=2)


def test_red_side_exact_above_order_sixteen():
    """An all-red matching at alpha 3 holds an induced red 3K2, a violation
    that needs six vertices; the check catches it on an 18-vertex host, and
    so does the T3 certificate."""
    big = matching(9)
    c = EdgeColoring.monochrome(big, RED)
    assert not red_isolatefree_independence_ok(big, c, alpha=3)
    with pytest.raises(ConstructionError):
        _certify_red_side(big, c, 3)
    with pytest.raises(PreconditionError):
        red_isolatefree_independence_ok(matching(2), EdgeColoring.monochrome(matching(2), RED), alpha=0)


# ---------------------------------------------------------------------------
# properties

def test_color_swap_duality():
    rng = random.Random(23)
    pk = [complete(2), path(3), complete(3), matching(2)]
    for _ in range(60):
        host = random_graph(rng.randint(2, 7), rng.random(), rng)
        c = _split_random(host, rng)
        g, h = rng.choice(pk), rng.choice(pk)
        fwd = verify_witness(host, c, g, h)
        rev = verify_witness(host, c.swapped(), h, g)
        assert (fwd is None) == (rev is None)
        if fwd is not None and rev is not None:
            assert {fwd.color, rev.color} <= {RED, BLUE}
            # single-sided violations map exactly, colors exchanged
            red_only = find_mono_induced(host, c, g, RED)
            swapped_blue = find_mono_induced(host, c.swapped(), g, BLUE)
            assert (red_only is None) == (swapped_blue is None)
            if red_only is not None:
                assert red_only.embedding == swapped_blue.embedding


def test_red_isolatefree_matches_brute_oracle(catalog):
    """The witness search agrees with the all-subsets oracle on every catalog
    host of order <= 6, all red and under seeded random colorings, at
    alpha 1 to 4."""
    rng = random.Random(41)
    verdicts = set()
    for order in range(1, 7):
        for host in catalog.graphs(order):
            edges = host.edges()
            colorings = [EdgeColoring.monochrome(host, RED)]
            for p in (0.5, 0.8, 0.95):
                red = [e for e in edges if rng.random() < p]
                colorings.append(EdgeColoring.of(host.n, red, set(edges) - set(red)))
            for c in colorings:
                for alpha in (1, 2, 3, 4):
                    got = red_isolatefree_independence_ok(host, c, alpha)
                    assert got == brute_red_isolatefree_ok(host, c.blue, alpha), (host, c, alpha)
                    verdicts.add(got)
    assert verdicts == {True, False}


def _red_components(host: Graph, c: EdgeColoring) -> list[Graph]:
    """The components of c's red spanning subgraph, each as a Graph."""
    red = c.red
    left, comps = set(range(host.n)), []
    while left:
        comp, frontier = set(), {min(left)}
        while frontier:
            comp |= frontier
            frontier = {w for u, v in red for w in (u, v) if {u, v} & frontier} - comp
        left -= comp
        verts = sorted(comp)
        comps.append(Graph.from_edges(len(verts), [(verts.index(u), verts.index(v)) for u, v in red if u in comp]))
    return comps


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9), st.randoms(use_true_random=False), st.integers(2, 5), st.integers(2, 6))
def test_row_predicates_match_the_definitions(n, rng, alpha, omega):
    """The rows-level certification predicates agree with their definitions
    on random hosts of order <= 9 under random total colorings: no red
    component of independence >= alpha, and no blue clique of size omega."""
    host = random_graph(n, rng.random(), rng)
    share = rng.random()
    red = [e for e in host.edges() if rng.random() < share]
    c = EdgeColoring.of(n, red, set(host.edges()) - set(red))
    want_red = all(brute_independence(comp) <= alpha - 1 for comp in _red_components(host, c))
    assert red_component_independence_ok(host, c, alpha) == want_red
    assert blue_clique_free(host, c, omega) == (brute_clique(c.blue_graph()) < omega)


def test_predicates_imply_no_mono_copies(catalog):
    """Colorings passing both predicates defeat every matching pattern pair.

    Patterns: connected G of order <= 5 with independence alpha, any H of
    order <= 5 with clique number omega. Colorings are sampled, plus both
    monochromatic extremes.
    """
    rng = random.Random(31)
    small = [g for order in range(2, 6) for g in catalog.graphs(order)]
    by_alpha = {
        a: [g for g in small if is_connected(g) and g.edge_count() and independence_number(g) == a]
        for a in (2, 3)
    }
    by_omega = {
        w: [h for h in small if h.edge_count() and clique_number(h) == w]
        for w in (2, 3)
    }
    assert all(by_alpha.values()) and all(by_omega.values())

    checked = 0
    for order in range(2, 7):
        for host in catalog.graphs(order):
            colorings = [
                EdgeColoring.monochrome(host, RED),
                EdgeColoring.monochrome(host, BLUE),
            ] + [_split_random(host, rng) for _ in range(3)]
            for c in colorings:
                for alpha in (2, 3):
                    if not red_component_independence_ok(host, c, alpha):
                        continue
                    for omega in (2, 3):
                        if not blue_clique_free(host, c, omega):
                            continue
                        checked += 1
                        # no red g for any g and no blue h for any h covers
                        # verify_witness on every (g, h) pair at once
                        for g in by_alpha[alpha]:
                            if g.edge_count() <= len(c.red):
                                assert find_mono_induced(host, c, g, RED) is None, (host, c, alpha, g)
                        for h in by_omega[omega]:
                            if h.edge_count() <= len(c.blue):
                                assert find_mono_induced(host, c, h, BLUE) is None, (host, c, omega, h)
    assert checked > 100  # the sweep must not be vacuous
