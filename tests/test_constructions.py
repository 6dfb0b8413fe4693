import hashlib
import json
import random
from itertools import combinations

import pytest

from arrowhead import constructions
from arrowhead.coloring import (
    EdgeColoring,
    Violation,
    blue_clique_free,
    red_component_independence_ok,
    red_isolatefree_independence_ok,
)
from arrowhead.constructions import (
    KIND_DISJOINT_CLIQUE,
    KIND_NOTE,
    METHOD_CLIQUE_BLOCKS,
    METHOD_CONNECTED,
    METHOD_FALLBACK,
    METHOD_ISOLATEFREE,
    METHOD_TWO_CLIQUE,
    ConstructionTrace,
    TraceStep,
    bound_report,
    chvatal_harary_bound,
    chvatal_harary_coloring,
    lemma2_coloring,
    lower_bound_connected,
    lower_bound_isolatefree,
    theorem1_coloring,
    theorem3_coloring,
    validate_trace,
)
from arrowhead.errors import ConstructionError, PreconditionError
from arrowhead.graphs import (
    Embedding,
    Graph,
    complete,
    cycle,
    disjoint_union,
    emit_graph6,
    find_subgraph_embedding,
    is_connected,
    matching,
    parse_graph6,
    path,
    star,
)

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


# ---------------------------------------------------------------------------
# bound formulas

def test_connected_bound_values():
    assert lower_bound_connected(2, 3) == 6
    assert lower_bound_connected(2, 2) == 3
    assert lower_bound_connected(3, 4) == 16
    assert lower_bound_connected(3, 2) == 4
    with pytest.raises(PreconditionError):
        lower_bound_connected(1, 3)
    with pytest.raises(PreconditionError):
        lower_bound_connected(2, 1)


def test_isolatefree_bound_values():
    assert lower_bound_isolatefree(2, 2) == 4
    assert lower_bound_isolatefree(2, 3) == 6
    assert lower_bound_isolatefree(4, 5) == 20
    with pytest.raises(PreconditionError):
        lower_bound_isolatefree(1, 2)


def test_clique_block_bound_values(named):
    assert chvatal_harary_bound(named["P3"], named["K3"]) == 5
    assert chvatal_harary_bound(named["K2"], named["K2"]) == 2
    assert chvatal_harary_bound(named["P4"], named["C5"]) == 7
    with pytest.raises(PreconditionError):
        chvatal_harary_bound(matching(2), named["K3"])
    with pytest.raises(PreconditionError):
        chvatal_harary_bound(named["P3"], complete(1))


# ---------------------------------------------------------------------------
# clique-block coloring (non-induced semantics)

def test_clique_blocks_p3_k3():
    host, c, trace = chvatal_harary_coloring(path(3), complete(3))
    assert host == complete(4)
    assert c.red == frozenset({(0, 1), (2, 3)})
    assert len(c.blue) == 4
    assert trace.method == METHOD_CLIQUE_BLOCKS
    assert [s.role for s in trace.steps] == ["red-block-0", "red-block-1"]
    assert find_subgraph_embedding(c.red_graph(), path(3)) is None
    assert find_subgraph_embedding(c.blue_graph(), complete(3)) is None


def test_clique_blocks_p4_k3():
    host, c, trace = chvatal_harary_coloring(path(4), complete(3))
    assert host == complete(6)
    assert c.red == frozenset(
        {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    )
    assert find_subgraph_embedding(c.blue_graph(), complete(3)) is None


def test_clique_blocks_degenerate_single_vertex_blocks():
    host, c, trace = chvatal_harary_coloring(complete(2), complete(3))
    assert host.n == 2
    assert not c.red
    assert len(c.blue) == 1
    assert [s.vertices for s in trace.steps] == [(0,), (1,)]


def test_clique_blocks_rejects_disconnected():
    with pytest.raises(PreconditionError):
        chvatal_harary_coloring(matching(2), complete(3))


@pytest.mark.parametrize("color", ["red", "blue"])
def test_clique_blocks_refuse_a_copy_the_check_reports(monkeypatch, color):
    # the blocks are judged by coloring's embedder walk with ordinary
    # containment; a copy it reports on either side makes the recipe refuse
    asked = []

    def reported(host, c, pattern, side, induced=True):
        asked.append((side, induced))
        return Violation(side, Embedding(pattern.n, tuple(range(pattern.n)))) if side == color else None

    monkeypatch.setattr(constructions, "_find_mono", reported)
    with pytest.raises(ConstructionError, match=f"{color} copy"):
        chvatal_harary_coloring(path(4), complete(3))
    assert asked == ([("red", False)] if color == "red" else [("red", False), ("blue", False)])


# ---------------------------------------------------------------------------
# connected-pattern extraction recipe

def test_extraction_on_k5():
    c, trace = theorem1_coloring(complete(5), 2, 3)
    assert trace.method == METHOD_CONNECTED
    assert c.red == frozenset({(0, 1), (0, 2), (1, 2), (3, 4)})
    assert len(c.blue) == 6
    roles = [s.role for s in trace.steps]
    assert roles[0] == "K^0"
    assert "recurse-alpha-2-omega-2" in roles
    assert roles[-1] == "floor-all-red"
    assert red_component_independence_ok(complete(5), c, 2)
    assert blue_clique_free(complete(5), c, 3)


def test_extraction_clique_free_host_goes_blue():
    c, trace = theorem1_coloring(cycle(5), 2, 3)
    assert not c.red
    assert len(c.blue) == 5
    assert trace.steps[0].role == "clique-free-all-blue"


def test_extraction_base_case_all_red():
    c, trace = theorem1_coloring(complete(2), 2, 2)
    assert c.red == frozenset({(0, 1)})
    assert trace.steps[0].role == "floor-all-red"


def test_extraction_size_guard():
    with pytest.raises(PreconditionError):
        theorem1_coloring(complete(9), 2, 3)
    with pytest.raises(PreconditionError):
        theorem1_coloring(complete(3), 2, 2)


def test_extraction_sweep_certifies_at_maximal_order(catalog):
    cases = [(2, 2), (2, 3), (3, 2)]
    for alpha, omega in cases:
        order = lower_bound_connected(alpha, omega) - 1
        for host in catalog.graphs(order):
            c, trace = theorem1_coloring(host, alpha, omega)
            assert red_component_independence_ok(host, c, alpha), emit_graph6(host)
            assert blue_clique_free(host, c, omega), emit_graph6(host)
            validate_trace(host, trace)


def test_extraction_with_a_huge_alpha_stops_at_the_first_stall():
    # the clique sizes are taken one at a time, not listed alpha - 1 long
    c, trace = theorem1_coloring(complete(5), 10**12, 3)
    assert (c, trace) == theorem1_coloring(complete(5), 4, 3)
    roles = [s.role for s in trace.steps]
    assert roles == ["K^0", "K^1", "extraction-stalled-rest-blue"]


def test_extraction_three_two_uses_disjoint_pairs():
    # alpha=3, omega=2 on K_3: floor case reddens everything immediately
    c, trace = theorem1_coloring(complete(3), 3, 2)
    assert len(c.red) == 3 and not c.blue


# ---------------------------------------------------------------------------
# two-clique recipe (independence 2)

def test_two_clique_oversize_case():
    c, trace = lemma2_coloring(complete(4), 3)
    assert trace.method == METHOD_TWO_CLIQUE
    assert trace.steps[0].role == "oversize-clique"
    assert len(c.red) == 6 and not c.blue


def test_two_clique_clique_free_case():
    c, trace = lemma2_coloring(cycle(5), 3)
    assert not c.red
    assert len(c.blue) == 5
    assert trace.steps[0].role == "clique-free-all-blue"


def test_two_clique_shared_vertex_case():
    # two triangles glued at vertex 2: the straddling clique shares exactly
    # one vertex with the extracted one, the s=1 branch
    c, trace = lemma2_coloring(BOWTIE, 3)
    assert trace.method == METHOD_TWO_CLIQUE
    roles = [s.role for s in trace.steps]
    assert "K^1" in roles and "K^2" in roles and "K^3" in roles
    assert "s=1" in roles
    assert c.red == frozenset({(0, 2), (3, 4)})
    assert red_component_independence_ok(BOWTIE, c, 2)
    assert blue_clique_free(BOWTIE, c, 3)


def test_two_clique_k5():
    c, trace = lemma2_coloring(complete(5), 3)
    assert red_component_independence_ok(complete(5), c, 2)
    assert blue_clique_free(complete(5), c, 3)


def test_two_clique_size_guard():
    with pytest.raises(PreconditionError):
        lemma2_coloring(complete(6), 3)
    with pytest.raises(PreconditionError):
        lemma2_coloring(complete(2), 1)


def test_two_clique_sweep_order5(catalog):
    fallbacks = 0
    for host in catalog.graphs(5):
        c, trace = lemma2_coloring(host, 3)
        assert red_component_independence_ok(host, c, 2), emit_graph6(host)
        assert blue_clique_free(host, c, 3), emit_graph6(host)
        if trace.method == METHOD_FALLBACK:
            fallbacks += 1
    assert fallbacks == 2


def test_two_clique_budget_two_has_one_impossible_host(catalog):
    """At clique budget 2 the 3-vertex path admits no certified coloring at
    all (a red edge forces component independence 2 or a blue edge), and the
    exhaustive fallback proves it. The other order-3 hosts all certify."""
    outcomes = {}
    for host in catalog.graphs(3):
        key = emit_graph6(host)
        try:
            lemma2_coloring(host, 2)
            outcomes[key] = "ok"
        except ConstructionError:
            outcomes[key] = "none"
    assert outcomes == {"B?": "ok", "BG": "ok", "Bo": "none", "Bw": "ok"}


# ---------------------------------------------------------------------------
# isolate-free recipe

def test_isolatefree_k5_alpha3():
    c, trace = theorem3_coloring(complete(5), 3, 2)
    assert trace.method == METHOD_ISOLATEFREE
    assert len(c.red) == 10 and not c.blue
    roles = [s.role for s in trace.steps]
    assert roles[0] == "K^0"
    assert "recurse-alpha-2-omega-2" in roles
    assert "delegate-omega-2" in roles


def test_isolatefree_edgeless_host():
    host = Graph.from_edges(5, [])
    c, trace = theorem3_coloring(host, 3, 2)
    assert not c.red and not c.blue
    assert any(s.role == "clique-free-all-blue" for s in trace.steps)


def test_isolatefree_delegates_whole_host_at_alpha2():
    c, trace = theorem3_coloring(BOWTIE, 2, 3)
    assert trace.method == METHOD_ISOLATEFREE
    assert trace.steps[0].role == "delegate-omega-3"
    assert c.red == frozenset({(0, 2), (3, 4)})


def test_isolatefree_mixed_components_certify():
    host = disjoint_union([complete(3), complete(2)])
    c, trace = theorem3_coloring(host, 3, 2)
    assert len(c.red) == 4 and not c.blue
    assert red_isolatefree_independence_ok(host, c, 3)


def test_isolatefree_independence_short_host_all_red():
    """Dhc (independence 2) peels one edge and leaves a path the two-clique
    recipe refuses (Bo above); below the independence target all red
    certifies."""
    host = parse_graph6("Dhc")
    c, trace = theorem3_coloring(host, 3, 2)
    assert [s.role for s in trace.steps] == ["independence-short-all-red"]
    assert c.red == frozenset(host.edges()) and not c.blue
    assert red_isolatefree_independence_ok(host, c, 3)


def test_isolatefree_size_guard():
    with pytest.raises(PreconditionError):
        theorem3_coloring(matching(2), 2, 2)
    with pytest.raises(PreconditionError):
        theorem3_coloring(complete(3), 1, 2)


def test_isolatefree_sweep_two_three(catalog):
    for host in catalog.graphs(5):
        c, trace = theorem3_coloring(host, 2, 3)
        assert blue_clique_free(host, c, 3), emit_graph6(host)
        assert red_isolatefree_independence_ok(host, c, 2), emit_graph6(host)


def test_isolatefree_sweep_three_two_known_gaps(catalog):
    """At (alpha, omega) = (3, 2) the blue side forbids every blue edge, so
    the all-red coloring is the only candidate, and it fails the red side on
    11 of the 34 order-5 hosts (an exhaustive check over all colorings agrees,
    see criterion 5c). Those 11 refusals are hosts with no certified coloring,
    not gaps in the recipe. The four hosts of independence 2 certify even
    though peeling leaves a path the two-clique recipe refuses."""
    certified = []
    failed = []
    for host in catalog.graphs(5):
        key = emit_graph6(host)
        try:
            c, _ = theorem3_coloring(host, 3, 2)
        except ConstructionError:
            failed.append(key)
            continue
        assert blue_clique_free(host, c, 2)
        assert red_isolatefree_independence_ok(host, c, 3)
        certified.append(key)
    assert len(certified) == 23
    assert len(failed) == 11
    for g6 in ("DBC", "DgC", "D?{", "DBc", "Dh_", "D@{"):
        assert g6 in failed, g6
    for g6 in ("Dhc", "Dlc", "D]w", "Djs"):
        assert g6 in certified, g6


def test_isolatefree_formula_overclaims_at_budget_two(catalog):
    """The alpha*omega formula promises IR(S_3, K_2) >= 6 and
    IR(P_3, K_2) >= 4, but exhaustive search settles both lower: the
    formula's proof does not survive omega = 2."""
    from arrowhead.search import ir_exact

    res = ir_exact(star(3), complete(2), catalog, n_max=5)
    assert res.value == 4
    assert res.value < lower_bound_isolatefree(3, 2)

    res = ir_exact(path(3), complete(2), catalog, n_max=4)
    assert res.value == 3
    assert res.value < lower_bound_isolatefree(2, 2)


# ---------------------------------------------------------------------------
# traces

def test_trace_json_shape():
    _, _, trace = chvatal_harary_coloring(path(3), complete(3))
    data = trace.to_json_dict()
    assert set(data) == {"method", "steps"}
    assert data["method"] == "CH"
    for step in data["steps"]:
        assert set(step) == {"role", "vertices"}
        assert all(isinstance(v, int) for v in step["vertices"])


def test_validate_trace_rejects_tampering():
    host = complete(4)
    with pytest.raises(ConstructionError, match="outside the host"):
        validate_trace(
            host,
            ConstructionTrace("T1", (TraceStep("K^0", (0, 9), KIND_DISJOINT_CLIQUE),)),
        )
    with pytest.raises(ConstructionError, match="not a clique"):
        validate_trace(
            cycle(4),
            ConstructionTrace("T1", (TraceStep("K^0", (0, 1, 2), KIND_DISJOINT_CLIQUE),)),
        )
    with pytest.raises(ConstructionError, match="overlaps"):
        validate_trace(
            host,
            ConstructionTrace(
                "T1",
                (
                    TraceStep("K^0", (0, 1), KIND_DISJOINT_CLIQUE),
                    TraceStep("K^1", (1, 2), KIND_DISJOINT_CLIQUE),
                ),
            ),
        )
    # notes may mention any in-range vertices without being cliques
    validate_trace(
        cycle(4),
        ConstructionTrace("T1", (TraceStep("clique-free-all-blue", (0, 1, 2, 3), KIND_NOTE),)),
    )


RECIPE_OUTCOMES_SHA256 = "0d6f1b32f42f09b9ed4f727d20d7a81c9441f2a87f72a614d25d761fa818506a"


def test_recipe_outcomes_pinned(catalog):
    """T1, T3 and L2 on every catalog host of order <= 6 their size limit
    admits: colorings, trace vertex tuples and refusal texts, pinned as one
    digest so a rewrite of the recipes must reproduce them all exactly."""
    calls = []
    for alpha in range(2, 5):
        for omega in range(2, 5):
            calls.append(("T1", lower_bound_connected(alpha, omega) - 1,
                          lambda f, a=alpha, w=omega: theorem1_coloring(f, a, w)))
            calls.append(("T3", lower_bound_isolatefree(alpha, omega) - 1,
                          lambda f, a=alpha, w=omega: theorem3_coloring(f, a, w)))
    for omega in range(2, 6):
        calls.append(("L2", 2 * omega - 1, lambda f, w=omega: lemma2_coloring(f, w)))
    records = []
    certified = 0
    for i, (name, limit, recipe) in enumerate(calls):
        for order in range(1, min(limit, 6) + 1):
            for host in catalog.graphs(order):
                try:
                    c, trace = recipe(host)
                except ConstructionError as exc:
                    outcome = [type(exc).__name__, str(exc)]
                else:
                    outcome = [c.to_json_dict(), trace.to_json_dict()]
                    certified += 1
                records.append([i, name, emit_graph6(host), outcome])
    assert (len(records), certified) == (2954, 2851)
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == RECIPE_OUTCOMES_SHA256


LARGE_RECIPE_OUTCOMES_SHA256 = "35dc83ac925d27e7befa07b4cddcded207e61e579a8ed569b3397e5d509516de"


def _seeded_graph(rng, orders, probs):
    n = rng.randint(*orders)
    p = rng.uniform(*probs)
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _at_size_limit(rng, n, limit):
    """One (alpha, omega) of 2..6 x 2..9, drawn among those whose recipe
    size limit is the least one that admits a host of order n."""
    grid = [(a, w) for a in range(2, 7) for w in range(2, 10)]
    least = min(limit(a, w) for a, w in grid if limit(a, w) >= n)
    return rng.choice([(a, w) for a, w in grid if limit(a, w) == least])


def _clique_block_pair(rng):
    """Patterns (g, h) whose clique-block host has order 10 to 16."""
    while True:
        g = _seeded_graph(rng, (3, 6), (0.4, 0.9))
        h = _seeded_graph(rng, (3, 7), (0.5, 0.95))
        if g.edge_count() and h.edge_count() and is_connected(g):
            if 10 <= chvatal_harary_bound(g, h) - 1 <= 16:
                return g, h


def test_recipe_outcomes_pinned_above_order_six():
    """T1, T3, L2 and CH on 40 seeded random hosts of order 10 to 16, each
    recipe's alpha and omega at the least size limit that admits the host:
    colorings, traces and refusal texts pinned as one digest."""
    records = []
    for i in range(40):
        rng = random.Random(f"recipes-large:{i}")
        f = _seeded_graph(rng, (10, 16), (0.3, 0.9))
        a1, w1 = _at_size_limit(rng, f.n, lambda a, w: lower_bound_connected(a, w) - 1)
        a3, w3 = _at_size_limit(rng, f.n, lambda a, w: lower_bound_isolatefree(a, w) - 1)
        w2 = (f.n + 2) // 2
        g, h = _clique_block_pair(rng)
        f6 = emit_graph6(f)
        calls = [
            ("T1", (a1, w1, f6), lambda: theorem1_coloring(f, a1, w1)),
            ("T3", (a3, w3, f6), lambda: theorem3_coloring(f, a3, w3)),
            ("L2", (w2, f6), lambda: lemma2_coloring(f, w2)),
            ("CH", (emit_graph6(g), emit_graph6(h)), lambda: chvatal_harary_coloring(g, h)[1:]),
        ]
        for name, args, recipe in calls:
            try:
                c, trace = recipe()
            except ConstructionError as exc:
                outcome = [type(exc).__name__, str(exc)]
            else:
                outcome = [c.to_json_dict(), trace.to_json_dict()]
            records.append([i, name, args, outcome])
    refused = sum(isinstance(r[3][0], str) for r in records)
    assert (len(records), refused) == (160, 12)
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LARGE_RECIPE_OUTCOMES_SHA256


# ---------------------------------------------------------------------------
# bound reports

def test_bound_report_p4_k3(named):
    rep = bound_report(named["P4"], named["K3"])
    by_name = {b.name: b for b in rep.bounds}
    assert by_name["CH"].value == 7
    assert by_name["T1"].value == 6
    assert by_name["T3"].value == 6
    assert not by_name["R"].applicable  # classical value exceeds the budget
    assert rep.best == 7


def test_bound_report_matching_k3(named):
    rep = bound_report(named["2K2"], named["K3"])
    by_name = {b.name: b for b in rep.bounds}
    assert not by_name["T1"].applicable
    assert not by_name["CH"].applicable
    assert by_name["T3"].value == 6
    assert rep.best == 6


def test_bound_report_single_edge(named):
    rep = bound_report(named["K2"], named["K2"])
    assert rep.best == 2
    by_name = {b.name: b for b in rep.bounds}
    assert by_name["R"].value == 2
    assert by_name["order"].value == 2


def test_equal_bound_reports_are_one_object(named):
    # a caller keeping the same answer many times holds it once
    rep = bound_report(named["P4"], named["K3"])
    assert bound_report(path(4), complete(3)) is rep
    assert bound_report(named["P4"], named["K3"], ramsey_budget=5) is not rep
    assert bound_report(named["K3"], named["P4"]) is not rep


def test_live_bound_report_is_returned_without_a_search(named, monkeypatch):
    calls = []
    real = constructions.ramsey_number_exact

    def counted(g, h, n_max):
        calls.append((g, h, n_max))
        return real(g, h, n_max)

    monkeypatch.setattr(constructions, "ramsey_number_exact", counted)
    # no other test holds a report for (C4, K3), so the first call searches
    rep = bound_report(cycle(4), complete(3))
    assert len(calls) == 1
    assert bound_report(cycle(4), named["K3"]) is rep
    assert len(calls) == 1
    # the edgeless-pattern refusal still comes first
    with pytest.raises(PreconditionError):
        bound_report(Graph(2, (0, 0)), complete(3))
    assert len(calls) == 1


def test_bound_report_json_shape(named):
    rep = bound_report(named["P3"], named["K3"])
    data = rep.to_json_dict()
    assert set(data) == {"pair", "bounds", "best"}
    assert data["pair"] == ["Bg", "Bw"]
    assert data["best"] == rep.best
    for b in data["bounds"]:
        assert set(b) == {"name", "value", "applicable", "reason"}


def test_bound_report_applicability_reasons(named):
    rep = bound_report(disjoint_union([complete(1), complete(2)]), named["K3"])
    by_name = {b.name: b for b in rep.bounds}
    assert not by_name["T1"].applicable and "disconnected" in by_name["T1"].reason
    assert not by_name["T3"].applicable and "isolated" in by_name["T3"].reason
