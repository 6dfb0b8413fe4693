"""A digest of the search tree of every catalog decision at one set of orders.

For every host of the bundled catalog at the given orders, every ordered pair
of the 13 catalog graphs of order 3 and 4 with an edge, and both containment
kinds, arrowing._refute gives (found, leaves, prunes). The digest is the
sha256 of those triples as JSON lines, host-major, so it moves when any
witness, any leaf count or any closed-branch count moves. Tier-1 pins the
digest over orders 1 to 6; CI pins order 7 from a fresh process:

    PYTHONPATH=src python3 -m tests.tree_digest 7

prints the number of calls and the digest's first 16 hex digits as JSON.
"""
from __future__ import annotations

import hashlib
import json
import sys
from itertools import product

from arrowhead.arrowing import _host, _pattern, _refute
from arrowhead.search import bundled_catalog


def digest_patterns() -> list:
    """The 13 catalog graphs of order 3 and 4 with an edge, each the shared
    instance arrowing._pattern gives."""
    catalog = bundled_catalog()
    patterns = [_pattern(g.adj) for k in (3, 4) for g in catalog.graphs(k) if g.edge_count()]
    assert len(patterns) == 13
    return patterns


def refute_digest(orders) -> tuple[int, str]:
    """(number of _refute calls, first 16 hex digits of their digest)."""
    catalog = bundled_catalog()
    pairs = list(product(digest_patterns(), repeat=2))
    digest = hashlib.sha256()
    calls = 0
    for order in orders:
        for f in catalog.graphs(order):
            host = _host(f)
            for (g, h), induced in product(pairs, (True, False)):
                digest.update(json.dumps(_refute(host, g, h, induced)).encode() + b"\n")
                calls += 1
    return calls, digest.hexdigest()[:16]


if __name__ == "__main__":
    calls, value = refute_digest([int(order) for order in sys.argv[1:]])
    print(json.dumps({"calls": calls, "digest": value}))
