"""Walk through the arrowing decision on the triangle pair.

K6 forces a monochromatic triangle in every red/blue edge coloring, K5 does
not. This script decides both, inspects the refuting coloring for K5, and
re-checks that witness independently.
"""
from arrowhead.arrowing import strongly_arrows
from arrowhead.coloring import verify_witness
from arrowhead.graphs import complete, emit_graph6, path


def describe(result) -> str:
    # a proof reaches no complete coloring: every branch of the search closes
    # on a monochromatic copy, so the branch count is its size
    if result.arrows:
        return f"arrows (all {result.prunes} branches closed on a monochromatic copy)"
    return "does not arrow"


def main() -> None:
    k3 = complete(3)

    for n in (5, 6):
        host = complete(n)
        result = strongly_arrows(host, k3, k3)
        print(f"K{n} => (K3, K3)?  {describe(result)}")

        if result.arrows:
            continue

        witness = result.witness
        print(f"  refuting coloring: red {sorted(witness.red)}")
        print(f"                     blue {sorted(witness.blue)}")
        red_graph = witness.red_graph()
        blue_graph = witness.blue_graph()
        print(f"  red graph  {emit_graph6(red_graph)}  ({red_graph.edge_count()} edges)")
        print(f"  blue graph {emit_graph6(blue_graph)}  ({blue_graph.edge_count()} edges)")

        # independent re-check: no monochromatic induced triangle either way
        violation = verify_witness(host, witness, k3, k3)
        assert violation is None
        print("  witness re-verified: no monochromatic triangle on either side")

    # asymmetric patterns work the same way
    result = strongly_arrows(complete(5), path(3), k3)
    print(f"K5 => (P3, K3)?  {describe(result)}")


if __name__ == "__main__":
    main()
