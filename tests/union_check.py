"""Every copy-union refutation of the catalog hosts at one set of orders, checked.

For every host of the bundled catalog at the given orders and every ordered
pair of the 13 patterns tests/tree_digest.py draws (induced containment),
arrowing._union_refutation either declines or offers a coloring. Each
offered coloring must pass coloring._fault, and arrowing._refute must
refute that host too. Tier-1 checks orders 1 to 6 against brute copies;
CI checks order 7 from a fresh process:

    PYTHONPATH=src python3 -m tests.union_check 7

prints the number of helper calls and of colorings offered as JSON.
"""
from __future__ import annotations

import json
import sys
from itertools import product

from arrowhead.arrowing import _host, _refute, _union_refutation
from arrowhead.coloring import _fault
from arrowhead.search import bundled_catalog

from .tree_digest import digest_patterns


def check_union_refutations(orders) -> tuple[int, int]:
    """(helper calls, colorings offered); an offer that _fault rejects, or
    on a host _refute finds arrowing, raises AssertionError."""
    catalog = bundled_catalog()
    pairs = list(product(digest_patterns(), repeat=2))
    calls = offered = 0
    for order in orders:
        for f in catalog.graphs(order):
            host = _host(f)
            for g, h in pairs:
                calls += 1
                found = _union_refutation(host, g.adj, h.adj, True)
                if found is None:
                    continue
                offered += 1
                fault = _fault(host, g.adj, h.adj, True, *found)
                assert fault is None, (f, g, h, fault)
                assert _refute(host, g.adj, h.adj, True)[0] is not None, (f, g, h)
    return calls, offered


if __name__ == "__main__":
    calls, offered = check_union_refutations([int(order) for order in sys.argv[1:]])
    print(json.dumps({"calls": calls, "offered": offered}))
