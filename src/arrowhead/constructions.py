"""Lower-bound formulas and the coloring recipes that witness them.

Four recipes, identified by the method codes used in trace JSON:

  CH        clique blocks inside a complete host; classical (non-induced)
            semantics, so it bounds the ordinary Ramsey number.
  T1        clique extraction for connected patterns, descending on the
            blue-side clique budget.
  L2        the two-clique case split for independence 2, isolate-free.
  T3        clique peeling for isolate-free patterns, descending on the
            red-side independence budget; delegates to L2 at the bottom.

Every recipe returns an EdgeColoring plus a ConstructionTrace recording the
cliques and sets it committed to, and certifies its output before returning.
Recipes paint neighbour bitmask rows for EdgeColoring.from_rows: red inside
host vertex masks (and a few named pairs in L2), blue on the host edges left.
L2 backs off to a complete constrained search (method Fallback) when its
literal case split fails to certify; at independence 2 that search is
exhaustive over all colorings whose red components are cliques, so a
ConstructionError from it means no certifiable coloring exists at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrowing import NotFoundBelow, ramsey_number_exact
from .coloring import (
    BLUE,
    RED,
    EdgeColoring,
    _find_mono,
    _rows_of,
    _shared,
    blue_clique_free,
    red_component_independence_ok,
    red_isolatefree_independence_ok,
)
from .errors import ConstructionError, OrderLimitError, PreconditionError
from .graphs import (
    MAX_ORDER,
    Graph,
    _bits,
    chromatic_number,
    clique_number,
    cliques_of_size,
    complete,
    emit_graph6,
    has_isolated_vertex,
    independence_number,
    induced_subgraph,
    is_clique,
    is_connected,
    lex_least_clique,
)

METHOD_CLIQUE_BLOCKS = "CH"
METHOD_CONNECTED = "T1"
METHOD_TWO_CLIQUE = "L2"
METHOD_ISOLATEFREE = "T3"
METHOD_FALLBACK = "Fallback"

# step kinds: disjoint-clique steps must be pairwise disjoint across a trace,
# plain clique steps may overlap them, sets/recurse/note carry context only.
KIND_DISJOINT_CLIQUE = "disjoint-clique"
KIND_CLIQUE = "clique"
KIND_SET = "set"
KIND_RECURSE = "recurse"
KIND_NOTE = "note"


@dataclass(frozen=True)
class TraceStep:
    role: str
    vertices: tuple[int, ...]
    kind: str


@dataclass(frozen=True)
class ConstructionTrace:
    method: str
    steps: tuple[TraceStep, ...]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "steps": [{"role": s.role, "vertices": list(s.vertices)} for s in self.steps],
        }


def validate_trace(host: Graph, trace: ConstructionTrace) -> None:
    """Raise unless recorded cliques are cliques of host and extraction
    cliques are pairwise vertex-disjoint."""
    taken: list[set[int]] = []
    for step in trace.steps:
        for v in step.vertices:
            if not 0 <= v < host.n:
                raise ConstructionError(f"trace step {step.role!r} names vertex {v} outside the host")
        if step.kind in (KIND_CLIQUE, KIND_DISJOINT_CLIQUE):
            if not is_clique(host, step.vertices):
                raise ConstructionError(f"trace step {step.role!r} is not a clique of the host")
        if step.kind == KIND_DISJOINT_CLIQUE:
            verts = set(step.vertices)
            for prev in taken:
                if prev & verts:
                    raise ConstructionError(f"trace step {step.role!r} overlaps an earlier extraction clique")
            taken.append(verts)


# ---------------------------------------------------------------------------
# bound formulas

def lower_bound_connected(alpha: int, omega: int) -> int:
    if alpha < 2 or omega < 2:
        raise PreconditionError("needs independence >= 2 and clique budget >= 2")
    return (alpha - 1) * omega * (omega - 1) // 2 + omega


def lower_bound_isolatefree(alpha: int, omega: int) -> int:
    if alpha < 2 or omega < 2:
        raise PreconditionError("needs independence >= 2 and clique budget >= 2")
    return alpha * omega


def chvatal_harary_bound(g: Graph, h: Graph) -> int:
    if g.edge_count() == 0 or h.edge_count() == 0:
        raise PreconditionError("patterns must have at least one edge")
    if not is_connected(g):
        raise PreconditionError("first pattern must be connected")
    return (g.n - 1) * (chromatic_number(h) - 1) + 1


# ---------------------------------------------------------------------------
# colorings

def _with_rest_blue(f: Graph, red_rows) -> EdgeColoring:
    """These rows red and every other host edge blue."""
    return EdgeColoring.from_rows(f.n, red_rows, (a & ~r for a, r in zip(f.adj, red_rows)))


def _paint(f: Graph, verts, rows: list[int] | None = None) -> list[int]:
    """rows (new, empty rows when None) with every host edge among the
    vertices added, verts a vertex bitmask or a vertex tuple."""
    mask = verts if isinstance(verts, int) else sum(1 << v for v in verts)
    if rows is None:
        rows = [0] * f.n
    for v in _bits(mask):
        rows[v] |= f.adj[v] & mask
    return rows


def _require_order(f: Graph, most: int) -> None:
    if f.n > most:
        raise PreconditionError(
            f"host on {f.n} vertices is too large; this recipe handles at most {most}"
        )


def _certifies(f: Graph, c: EdgeColoring, alpha: int, omega: int) -> bool:
    return red_component_independence_ok(f, c, alpha) and blue_clique_free(f, c, omega)


def chvatal_harary_coloring(g: Graph, h: Graph) -> tuple[Graph, EdgeColoring, ConstructionTrace]:
    """Complete host split into red clique blocks, blue in between.

    Red components are too small to hold g; a blue copy of h would hand h a
    proper coloring with one color per block, one short of its chromatic
    number. Classical containment, so the check is non-induced.
    """
    n = chvatal_harary_bound(g, h) - 1
    # refuse before building: K_n's copy search grows with n, and no host
    # above graph6's cap can be written
    if n > MAX_ORDER:
        raise OrderLimitError(f"the clique-block host has order {n}, above the cap of {MAX_ORDER}")
    size = g.n - 1
    host = complete(n)
    steps = []
    red = [0] * n
    for i in range(n // size):
        verts = tuple(range(i * size, (i + 1) * size))
        steps.append(TraceStep(f"red-block-{i}", verts, KIND_DISJOINT_CLIQUE))
        _paint(host, verts, red)
    c = _with_rest_blue(host, red)
    violation = _find_mono(host, c, g, RED, induced=False) or _find_mono(host, c, h, BLUE, induced=False)
    if violation is not None:
        raise ConstructionError(f"clique-block coloring admits a {violation.color} copy of the {violation.color} pattern")
    trace = ConstructionTrace(METHOD_CLIQUE_BLOCKS, tuple(steps))
    validate_trace(host, trace)
    return host, c, trace


def theorem1_coloring(f: Graph, alpha: int, omega: int) -> tuple[EdgeColoring, ConstructionTrace]:
    """Clique extraction for connected red patterns, one level per clique
    budget.

    Each level pulls out one clique of size omega plus alpha-2 of size
    omega-1, colors everything among them red, and hands the rest to the
    next level with the clique budget lowered; at budget 2 the rest goes red
    and all other edges blue. Red components then contain at most alpha-1 of
    the extracted cliques each, and a blue clique would need omega-1
    vertices from a level that has none to give.
    """
    _require_order(f, lower_bound_connected(alpha, omega) - 1)
    steps: list[TraceStep] = []
    red = [0] * f.n
    avail = (1 << f.n) - 1
    for level in range(omega, 2, -1):
        rest = avail
        for idx in range(alpha - 1):
            clique = lex_least_clique(f, level if idx == 0 else level - 1, within=rest)
            if clique is None:
                break
            steps.append(TraceStep(f"K^{idx}", clique, KIND_DISJOINT_CLIQUE))
            rest &= ~sum(1 << v for v in clique)
        _paint(f, avail & ~rest, red)
        if clique is None:
            # no further clique to extract, so the leftovers cannot complete
            # a blue clique either; stop here and let them go blue
            role = "clique-free-all-blue" if idx == 0 else "extraction-stalled-rest-blue"
            steps.append(TraceStep(role, tuple(_bits(rest)), KIND_NOTE))
            break
        assert rest.bit_count() <= lower_bound_connected(alpha, level - 1) - 1
        steps.append(
            TraceStep(f"recurse-alpha-{alpha}-omega-{level - 1}", tuple(_bits(rest)), KIND_RECURSE)
        )
        avail = rest
    else:
        _paint(f, avail, red)
        steps.append(TraceStep("floor-all-red", tuple(_bits(avail)), KIND_NOTE))
    c = _with_rest_blue(f, red)
    trace = ConstructionTrace(METHOD_CONNECTED, tuple(steps))
    validate_trace(f, trace)
    if not _certifies(f, c, alpha, omega):
        raise ConstructionError("clique extraction produced an uncertified coloring")
    return c, trace


def lemma2_coloring(f: Graph, omega: int) -> tuple[EdgeColoring, ConstructionTrace]:
    """Certified coloring for red independence 2 on up to 2*omega-1 vertices.

    Case split: an oversize clique goes red whole; with no omega-clique at
    all everything goes blue; otherwise the host splits into a clique K^1 of
    size omega and a remainder, and the split hinges on how omega-cliques
    straddle the two. Whenever the literal split fails to certify, a complete
    search over clique-partition colorings takes over (method Fallback); if
    that search comes up empty no certifiable coloring exists, which does
    happen for some hosts when omega = 2.
    """
    if omega < 2:
        raise PreconditionError("clique budget must be at least 2")
    _require_order(f, 2 * omega - 1)
    t = clique_number(f)
    if t > omega:
        big = lex_least_clique(f, t)
        steps = [TraceStep("oversize-clique", big, KIND_DISJOINT_CLIQUE)]
        return _literal_or_fallback(f, omega, _paint(f, big), steps)
    if t < omega:
        steps = [TraceStep("clique-free-all-blue", tuple(range(f.n)), KIND_NOTE)]
        return _literal_or_fallback(f, omega, [0] * f.n, steps)

    k1 = lex_least_clique(f, omega)
    k1set = set(k1)
    rest = tuple(v for v in range(f.n) if v not in k1set)
    steps = [TraceStep("K^1", k1, KIND_DISJOINT_CLIQUE)]
    note = None
    if len(rest) < omega - 1:
        # too few leftover vertices to ever complete a blue clique
        note = "remainder-too-small"
    elif not is_clique(f, rest):
        # a blue clique would need all the leftover vertices pairwise
        # adjacent, and they are not
        note = "remainder-not-clique"
    else:
        steps.append(TraceStep("K^2", rest, KIND_DISJOINT_CLIQUE))
        if not any(all(f.has_edge(a, w) for w in rest) for a in k1):
            # every other omega-clique must take two vertices from K^1 and
            # so carries a red edge
            note = "no-single-vertex-completion"
    if note is not None:
        steps.append(TraceStep(note, rest, KIND_NOTE))
        return _literal_or_fallback(f, omega, _paint(f, k1), steps)

    mixed = [q for q in cliques_of_size(f, omega) if set(q) != k1set]
    s_best = max(len(set(q) & k1set) for q in mixed)
    k3 = next(q for q in mixed if len(set(q) & k1set) == s_best)
    a_side = tuple(sorted(set(k3) & k1set))
    c_side = tuple(sorted(set(k3) - k1set))
    b_side = tuple(sorted(k1set - set(a_side)))
    d_side = tuple(sorted(set(rest) - set(c_side)))
    s = len(a_side)
    steps.extend(
        [
            TraceStep("K^3", k3, KIND_CLIQUE),
            TraceStep("A", a_side, KIND_SET),
            TraceStep("B", b_side, KIND_SET),
            TraceStep("C", c_side, KIND_SET),
            TraceStep("D", d_side, KIND_SET),
            TraceStep(f"s={s}", (), KIND_NOTE),
        ]
    )

    if s == 1 and len(c_side) >= 2:
        # two cliques sharing the single vertex a; one red edge inside each
        # spoils every omega-clique, and the red side is a pair of disjoint
        # edges whose host neighborhoods intersect inside K^3
        a = a_side[0]
        return _literal_or_fallback(f, omega, _rows_of(f.n, [(a, b_side[0]), (c_side[0], c_side[1])]), steps)
    if s >= 2:
        a = next(
            (x for x in a_side if is_clique(f, b_side + d_side + (x,))),
            a_side[0],
        )
        cc = next(
            (x for x in c_side if is_clique(f, b_side + d_side + (x,))),
            c_side[0],
        )
        a1 = next(x for x in a_side if x != a)
        return _literal_or_fallback(f, omega, _rows_of(f.n, [(a, a1), (a, b_side[0]), (cc, d_side[0])]), steps)
    return _fallback_coloring(f, omega)


def _literal_or_fallback(f: Graph, omega: int, red_rows, steps) -> tuple[EdgeColoring, ConstructionTrace]:
    """The literal case's coloring (red_rows red, the rest blue) when it
    certifies, else the complete search."""
    c = _with_rest_blue(f, red_rows)
    if not _certifies(f, c, 2, omega):
        return _fallback_coloring(f, omega)
    trace = ConstructionTrace(METHOD_TWO_CLIQUE, tuple(steps))
    validate_trace(f, trace)
    return c, trace


def _clique_partitions(f: Graph):
    """All partitions of V(f) into cliques, larger parts tried first."""

    def rec(unused: list[int], acc: list[tuple[int, ...]]):
        if not unused:
            yield list(acc)
            return
        v = unused[0]
        others = unused[1:]
        for size in range(len(unused), 0, -1):
            for extra in combinations(others, size - 1):
                part = (v,) + extra
                if not is_clique(f, part):
                    continue
                acc.append(part)
                left = [u for u in others if u not in set(extra)]
                yield from rec(left, acc)
                acc.pop()

    yield from rec(list(range(f.n)), [])


def _fallback_coloring(f: Graph, omega: int) -> tuple[EdgeColoring, ConstructionTrace]:
    """Complete search at independence 2: a coloring passes the red-side
    predicate exactly when its red components are cliques, i.e. when it
    paints the inside of a clique partition red and the rest blue."""
    for parts in _clique_partitions(f):
        red = [0] * f.n
        for p in parts:
            _paint(f, p, red)
        c = _with_rest_blue(f, red)
        if blue_clique_free(f, c, omega):
            steps = tuple(
                TraceStep(f"part-{i}", p, KIND_DISJOINT_CLIQUE)
                for i, p in enumerate(parts)
                if len(p) >= 2
            )
            trace = ConstructionTrace(METHOD_FALLBACK, steps)
            validate_trace(f, trace)
            if not _certifies(f, c, 2, omega):
                raise ConstructionError("fallback produced an uncertified coloring")
            return c, trace
    raise ConstructionError(
        f"no coloring of this {f.n}-vertex host passes both predicates at clique budget {omega}"
    )


def theorem3_coloring(f: Graph, alpha: int, omega: int) -> tuple[EdgeColoring, ConstructionTrace]:
    """Clique peeling for isolate-free red patterns on up to alpha*omega-1
    vertices.

    Peels one red clique of size omega per level, descending on alpha until
    the two-clique recipe takes over, then paints every edge not colored
    along the way red. When the peeling ends in a ConstructionError on a host
    whose independence number is below alpha, the all-red coloring is
    returned instead (note independence-short-all-red): no red vertex set can
    reach independence alpha, and no edge is blue. Both sides are certified
    by predicate at every host order: the red side has no component-local
    certificate, so it is checked by red_isolatefree_independence_ok, which
    defeats every isolate-free pattern of independence alpha at once.

    At (alpha, omega) = (3, 2) this certifies 23 of the 34 order-5 hosts. At
    omega = 2 any blue edge is a blue clique, so all-red is the only
    candidate, and on the other 11 hosts it fails the red side: no certified
    coloring exists there.
    """
    _require_order(f, lower_bound_isolatefree(alpha, omega) - 1)
    steps: list[TraceStep] = []
    red = [0] * f.n
    blue = [0] * f.n
    avail = (1 << f.n) - 1
    try:
        for level in range(alpha, 2, -1):
            clique = lex_least_clique(f, omega, within=avail)
            if clique is None:
                _paint(f, avail, blue)
                steps.append(TraceStep("clique-free-all-blue", tuple(_bits(avail)), KIND_NOTE))
                break
            _paint(f, clique, red)
            steps.append(TraceStep("K^0", clique, KIND_DISJOINT_CLIQUE))
            avail &= ~sum(1 << v for v in clique)
            steps.append(
                TraceStep(f"recurse-alpha-{level - 1}-omega-{omega}", tuple(_bits(avail)), KIND_RECURSE)
            )
        else:
            verts = tuple(_bits(avail))
            steps.append(TraceStep(f"delegate-omega-{omega}", verts, KIND_RECURSE))
            sub_coloring, sub_trace = lemma2_coloring(induced_subgraph(f, verts), omega)
            for i, v in enumerate(verts):
                red[v] |= sum(1 << verts[j] for j in _bits(sub_coloring.red_rows[i]))
                blue[v] |= sum(1 << verts[j] for j in _bits(sub_coloring.blue_rows[i]))
            steps += [
                TraceStep(s.role, tuple(verts[v] for v in s.vertices), s.kind) for s in sub_trace.steps
            ]
    except ConstructionError:
        # the two-clique recipe at the bottom checks the stronger per-component
        # predicate, so its refusal does not mean no certified coloring exists
        if independence_number(f) >= alpha:
            raise
        steps = [TraceStep("independence-short-all-red", tuple(range(f.n)), KIND_NOTE)]
        red, blue = list(f.adj), [0] * f.n
    if any(a & ~(r | b) for a, r, b in zip(f.adj, red, blue)):
        steps.append(TraceStep("uncolored-to-red", (), KIND_NOTE))
        red = [r | (a & ~b) for a, r, b in zip(f.adj, red, blue)]
    c = EdgeColoring.from_rows(f.n, red, blue)
    trace = ConstructionTrace(METHOD_ISOLATEFREE, tuple(steps))
    validate_trace(f, trace)
    if not blue_clique_free(f, c, omega):
        raise ConstructionError("clique peeling left a blue clique standing")
    _certify_red_side(f, c, alpha)
    return c, trace


def _certify_red_side(f: Graph, c: EdgeColoring, alpha: int) -> None:
    if not red_isolatefree_independence_ok(f, c, alpha):
        raise ConstructionError(
            "red side induces an isolate-free subgraph at the independence target"
        )


# ---------------------------------------------------------------------------
# the bound report

@dataclass(frozen=True)
class Bound:
    name: str
    value: int | None
    applicable: bool
    reason: str


@dataclass(frozen=True)
class BoundReport:
    pair: tuple[str, str]
    bounds: tuple[Bound, ...]
    best: int

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "bounds": [
                {"name": b.name, "value": b.value, "applicable": b.applicable, "reason": b.reason}
                for b in self.bounds
            ],
            "best": self.best,
        }


def bound_report(g: Graph, h: Graph, ramsey_budget: int = 6) -> BoundReport:
    """Every lower bound on the induced value this library knows, with the
    reasons the inapplicable ones do not fire. Equal reports alive at once
    are one object, held in coloring._shared's one table of equal answers,
    so a caller keeping many holds each once, and a call whose report is
    alive returns it without searching again."""
    if g.edge_count() == 0 or h.edge_count() == 0:
        raise PreconditionError("patterns must have at least one edge")
    return _shared(_bound_report, g, h, ramsey_budget)


def _bound_report(g: Graph, h: Graph, ramsey_budget: int) -> BoundReport:
    alpha = independence_number(g)
    omega = clique_number(h)
    connected = is_connected(g)
    isolatefree = not has_isolated_vertex(g)
    bounds = [Bound("order", max(g.n, h.n), True, "an arrowing host contains both patterns induced")]
    r = ramsey_number_exact(g, h, ramsey_budget)
    if isinstance(r, NotFoundBelow):
        bounds.append(Bound("R", None, False, f"classical value not settled by order {ramsey_budget}"))
    else:
        bounds.append(Bound("R", r, True, "exact classical value; the induced variant dominates it"))
    if connected:
        bounds.append(Bound("CH", chvatal_harary_bound(g, h), True, "clique-block coloring"))
    else:
        bounds.append(Bound("CH", None, False, "first pattern is disconnected"))
    budgets = f"independence {alpha}, clique budget {omega}"
    if connected and alpha >= 2:
        bounds.append(Bound("T1", lower_bound_connected(alpha, omega), True, f"connected pattern, {budgets}"))
    else:
        reason = "first pattern is disconnected" if not connected else "independence below 2"
        bounds.append(Bound("T1", None, False, reason))
    if isolatefree and alpha >= 2:
        bounds.append(Bound("T3", lower_bound_isolatefree(alpha, omega), True, f"isolate-free pattern, {budgets}"))
    else:
        reason = "first pattern has an isolated vertex" if not isolatefree else "independence below 2"
        bounds.append(Bound("T3", None, False, reason))
    best = max(b.value for b in bounds if b.applicable)
    return BoundReport((emit_graph6(g), emit_graph6(h)), tuple(bounds), best)
