"""Tour of the witness-coloring recipes and their audit traces.

Each recipe paints a host so that the red side has small independence inside
every component and the blue side stays clique-free. The trace records which
cliques were peeled in what role, and validate_trace re-checks that record
against the host. Certification is separate: the predicates in
arrowhead.coloring accept or reject the finished coloring on their own.
"""
from arrowhead.coloring import (
    blue_clique_free,
    red_component_independence_ok,
    red_isolatefree_independence_ok,
)
from arrowhead.constructions import (
    bound_report,
    lemma2_coloring,
    theorem1_coloring,
    theorem3_coloring,
    validate_trace,
)
from arrowhead.errors import ConstructionError
from arrowhead.graphs import Graph, complete, cycle, parse_graph6


def show(trace) -> None:
    print(f"  method {trace.method}")
    for step in trace.steps:
        print(f"    {step.role:30} {step.vertices}")


def main() -> None:
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])

    print("connected-host recipe on K5, alpha=2 omega=3")
    host = complete(5)
    c, trace = theorem1_coloring(host, 2, 3)
    show(trace)
    validate_trace(host, trace)
    ok = red_component_independence_ok(host, c, 2) and blue_clique_free(host, c, 3)
    print(f"  red {sorted(c.red)}")
    print(f"  certified: {ok}")
    print()

    print("two-clique-cover recipe on the bowtie, omega=3")
    c, trace = lemma2_coloring(bowtie, 3)
    show(trace)
    validate_trace(bowtie, trace)
    ok = red_component_independence_ok(bowtie, c, 2) and blue_clique_free(bowtie, c, 3)
    print(f"  red {sorted(c.red)}")
    print(f"  certified: {ok}")
    print()

    print("two-clique-cover recipe on C5, omega=3 (already clique-free)")
    c, trace = lemma2_coloring(cycle(5), 3)
    show(trace)
    print(f"  red {sorted(c.red)} (all edges stay blue)")
    print()

    print("isolate-free recipe on the bowtie, alpha=2 omega=3")
    c, trace = theorem3_coloring(bowtie, 2, 3)
    show(trace)
    ok = blue_clique_free(bowtie, c, 3) and red_isolatefree_independence_ok(bowtie, c, 2)
    print(f"  red {sorted(c.red)}")
    print(f"  certified: {ok}")
    print()

    # Not every host admits a certified coloring at every (alpha, omega).
    # The recipe refuses rather than hand back something uncertified.
    stubborn = parse_graph6("DBC")
    print("isolate-free recipe on DBC, alpha=3 omega=2")
    try:
        theorem3_coloring(stubborn, 3, 2)
    except ConstructionError as exc:
        print(f"  refused: {exc}")
    print()

    print("lower bounds for (K3, K3):")
    rep = bound_report(complete(3), complete(3))
    for b in rep.bounds:
        value = b.value if b.applicable else f"n/a ({b.reason})"
        print(f"  {b.name:>5}: {value}")
    print(f"  best: {rep.best}")


if __name__ == "__main__":
    main()
