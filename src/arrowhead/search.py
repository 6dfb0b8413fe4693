"""Exact minimum-order sweeps over graph6 catalogs, with a persistent cache.

A catalog is a directory of files n1.g6, n2.g6, ... holding one graph6 line
per isomorphism class of each order. ir_exact walks orders from 1 upward and
inside an order walks graphs by ascending edge count, so sparse hosts fail
fast and the answer never depends on file line order. Verdicts are memoized
in an append-only cache file, one JSON object per line, keyed by the literal
g6 triple; keys are not canonicalized, so an isomorphic-but-relabeled query
is simply a miss.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from .arrowing import NotFoundBelow, strongly_arrows
from .coloring import EdgeColoring, verify_witness
from .errors import ArrowheadError, CatalogError, PreconditionError
from .graphs import Graph, emit_graph6, parse_graph6

DEFAULT_ORDER_CAP = 7


class Catalog:
    """Directory of per-order graph6 files named n<order>.g6."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def path_for(self, order: int) -> Path:
        return self.directory / f"n{order}.g6"

    def has_order(self, order: int) -> bool:
        return self.path_for(order).is_file()

    def require_orders(self, n_max: int) -> None:
        missing = [k for k in range(1, n_max + 1) if not self.has_order(k)]
        if missing:
            raise CatalogError(
                f"catalog at {self.directory} has gaps: no file for orders {missing}"
            )

    def graphs(self, order: int) -> list[Graph]:
        path = self.path_for(order)
        if not path.is_file():
            raise CatalogError(f"catalog gap: {path} does not exist")
        out = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except ArrowheadError as exc:
                raise CatalogError(f"{path.name} line {lineno}: {exc}") from exc
            if g.n != order:
                raise CatalogError(
                    f"{path.name} line {lineno}: graph of order {g.n} in the order-{order} file"
                )
            out.append(g)
        return out


def bundled_catalog() -> Catalog:
    from importlib.resources import files

    return Catalog(Path(str(files("arrowhead").joinpath("data/catalog"))))


def _flock(handle) -> None:
    try:
        import fcntl
    except ImportError:  # non-unix; single-process use is still safe
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)


class ResultCache:
    """Write-through memo of arrowing verdicts, kept as an append-only log.

    Each put appends one line, a JSON object {key: verdict}, under an flock
    on the cache file, so parallel sweeps sharing one cache lose no entries.
    Loading folds the lines in order, so the last line for a key wins; an
    older single-object cache is a one-line log. A corrupt or unreadable
    file is dropped whole with a warning rather than half trusted.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict[str, dict] = {}
        self._load()

    @staticmethod
    def key(f: Graph, g: Graph, h: Graph) -> str:
        return f"{emit_graph6(f)}|{emit_graph6(g)}|{emit_graph6(h)}"

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            lines = [line for line in self.path.read_text().splitlines() if line.strip()]
            # one parse for the whole log: per-line json.loads is markedly slower
            for raw in json.loads("[" + ",".join(lines) + "]"):
                if not isinstance(raw, dict):
                    raise ValueError("cache line must be a JSON object")
                for key, entry in raw.items():
                    if not isinstance(entry, dict) or not isinstance(entry.get("arrows"), bool):
                        raise ValueError(f"malformed cache entry for {key!r}")
                self._data.update(raw)
        except (ValueError, OSError) as exc:
            warnings.warn(f"ignoring unreadable result cache {self.path}: {exc}")
            self._data = {}

    def get(self, key: str) -> dict | None:
        return self._data.get(key)

    def put(self, key: str, verdict: dict) -> None:
        self._data[key] = verdict
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as log:
            _flock(log)
            log.write(json.dumps({key: verdict}, sort_keys=True) + "\n")


def _decide(f: Graph, g: Graph, h: Graph, cache: ResultCache | None) -> bool:
    """Arrowing verdict for one host, through the cache when one is given.

    Cached NotArrows entries are only believed if their stored witness still
    verifies; anything suspect is recomputed and overwritten.
    """
    key = ResultCache.key(f, g, h) if cache else ""
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            if hit["arrows"]:
                return True
            try:
                witness = EdgeColoring.from_json_dict(hit["witness"])
                if verify_witness(f, witness, g, h) is None:
                    return False
            except ArrowheadError:
                pass
    res = strongly_arrows(f, g, h)
    if cache is not None:
        cache.put(
            key,
            {
                "arrows": res.arrows,
                "witness": res.witness.to_json_dict() if res.witness else None,
            },
        )
    return res.arrows


def _scan_order(g, h, catalog, order, cache):
    """(first arrowing graph or None, count confirmed non-arrowing)."""
    graphs = sorted(catalog.graphs(order), key=lambda gr: (gr.edge_count(), emit_graph6(gr)))
    nonarrows = 0
    for f in graphs:
        if _decide(f, g, h, cache):
            return f, nonarrows
        nonarrows += 1
    return None, nonarrows


@dataclass(frozen=True)
class IRResult:
    pair: tuple[str, str]
    value: int
    witness_arrowing_graph: str
    nonarrow_witnesses_verified: int
    checked_orders: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "g": self.pair[0],
            "h": self.pair[1],
            "ir": self.value,
            "witness": self.witness_arrowing_graph,
            "checked_orders": list(self.checked_orders),
        }


def ir_exact(
    g: Graph,
    h: Graph,
    catalog: Catalog,
    n_max: int = DEFAULT_ORDER_CAP,
    cache: ResultCache | None = None,
    allow_large: bool = False,
) -> IRResult | NotFoundBelow:
    """Least order whose catalog holds a graph arrowing (g, h), with receipts."""
    if g.edge_count() == 0 or h.edge_count() == 0:
        raise PreconditionError("patterns must have at least one edge")
    if n_max > DEFAULT_ORDER_CAP and not allow_large:
        raise PreconditionError(
            f"orders beyond {DEFAULT_ORDER_CAP} are refused without allow_large "
            "(search cost roughly doubles per edge)"
        )
    catalog.require_orders(n_max)
    checked: list[int] = []
    prev_nonarrows = 0
    for order in range(1, n_max + 1):
        found, nonarrows = _scan_order(g, h, catalog, order, cache)
        checked.append(order)
        if found is not None:
            return IRResult(
                (emit_graph6(g), emit_graph6(h)),
                order,
                emit_graph6(found),
                prev_nonarrows,
                tuple(checked),
            )
        prev_nonarrows = nonarrows
    return NotFoundBelow(n_max)


@dataclass(frozen=True)
class ValueCheck:
    confirmed: bool
    claimed: int
    reason: str
    counterexample: str | None


def ir_verify_value(
    g: Graph,
    h: Graph,
    claimed: int,
    catalog: Catalog,
    cache: ResultCache | None = None,
    allow_large: bool = False,
) -> ValueCheck:
    """Check both halves of a claimed minimum: nothing smaller arrows, and
    something of exactly the claimed order does."""
    if g.edge_count() == 0 or h.edge_count() == 0:
        raise PreconditionError("patterns must have at least one edge")
    if claimed < 1:
        raise PreconditionError("claimed value must be positive")
    if claimed > DEFAULT_ORDER_CAP and not allow_large:
        raise PreconditionError(
            f"orders beyond {DEFAULT_ORDER_CAP} are refused without allow_large"
        )
    catalog.require_orders(claimed)
    for order in range(1, claimed):
        found, _ = _scan_order(g, h, catalog, order, cache)
        if found is not None:
            return ValueCheck(
                False,
                claimed,
                f"an order-{order} host already arrows the pair",
                emit_graph6(found),
            )
    found, _ = _scan_order(g, h, catalog, claimed, cache)
    if found is None:
        return ValueCheck(False, claimed, f"no order-{claimed} host arrows the pair", None)
    return ValueCheck(
        True, claimed, f"minimal: first arrowing host at order {claimed} is {emit_graph6(found)}", None
    )
