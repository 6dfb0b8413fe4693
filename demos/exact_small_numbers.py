"""Compute a few induced Ramsey numbers exactly and compare against bounds.

Sweeps the bundled graph6 catalogs order by order: the first order with an
arrowing host is the answer, and every host of a smaller order is refuted:
one that holds both patterns by a checked refuting coloring, every other
one by a single color, all red when it holds no g, else all blue. No
result cache is read or written.
"""
import time

from arrowhead.arrowing import ramsey_number_exact
from arrowhead.constructions import bound_report
from arrowhead.graphs import complete, matching, path
from arrowhead.search import bundled_catalog, ir_exact


PAIRS = [
    ("2K2, K2", matching(2), complete(2)),
    ("2K2, K3", matching(2), complete(3)),
    ("P3, K3", path(3), complete(3)),
    ("K3, K3", complete(3), complete(3)),
]


def main() -> None:
    catalog = bundled_catalog()

    print(f"{'pair':10} {'IR':>3} {'R':>3} {'best bound':>10}  witness  time")
    for label, g, h in PAIRS:
        t0 = time.perf_counter()
        res = ir_exact(g, h, catalog, n_max=7)
        elapsed = time.perf_counter() - t0

        classical = ramsey_number_exact(g, h, res.value)
        rep = bound_report(g, h)
        print(
            f"{label:10} {res.value:>3} {classical:>3} {rep.best:>10}  "
            f"{res.witness_arrowing_graph:7}  {elapsed:.2f}s"
        )

        # the minimum is certified from below: every smaller order was swept
        # and each host there was refuted, by a checked coloring when it
        # holds both patterns and by one color otherwise
        assert res.checked_orders == tuple(range(1, res.value + 1))

    print()
    print("bound breakdown for P3, K3:")
    for bound in bound_report(path(3), complete(3)).bounds:
        status = str(bound.value) if bound.value is not None else f"n/a ({bound.reason})"
        print(f"  {bound.name:>5}: {status}")


if __name__ == "__main__":
    main()
