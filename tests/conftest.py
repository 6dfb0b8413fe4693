import random

import pytest

from arrowhead.graphs import Graph, complete, cycle, matching, path, star
from arrowhead.search import bundled_catalog


@pytest.fixture(scope="session")
def catalog():
    return bundled_catalog()


@pytest.fixture(scope="session")
def sweep_patterns(catalog):
    """The 14 patterns of a catalog sweep: the catalog graphs of order 2 to 4 with an edge."""
    return [g for order in (2, 3, 4) for g in catalog.graphs(order) if g.edge_count()]


@pytest.fixture(scope="session")
def named():
    """Small graphs used across many tests, keyed by the usual shorthand."""
    return {
        "K2": complete(2),
        "K3": complete(3),
        "K4": complete(4),
        "K5": complete(5),
        "K6": complete(6),
        "P3": path(3),
        "P4": path(4),
        "C4": cycle(4),
        "C5": cycle(5),
        "S3": star(3),
        "2K2": matching(2),
    }


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)
