"""Exact minimum-order sweeps over graph6 catalogs, with a persistent cache.

A catalog is a directory of files n1.g6, n2.g6, ... holding one graph6 line
per isomorphism class of each order. A Catalog parses each file once and
keeps its scan order, and bundled_catalog() hands out one shared instance,
so repeated sweeps pay neither again. ir_exact walks orders from 1 upward and
inside an order walks graphs by ascending (edge count, graph6), so sparse
hosts fail fast and the answer never depends on file line order. Each
non-arrowing verdict rests on a refuting coloring that is re-verified on
its edge bitsets, against per-host lists of the copies of g and h that the
embedder builds: arrowing checks every one its search finds, and a cached
one is read back into edge bitsets and put through the same check
(arrowing._fault) on every hit before it is believed. A sweep makes no
ArrowingResult, no EdgeColoring and no neighbour rows; a cache stores the
refuting coloring as sorted [u, v] lists written from the bitsets. The
copy masks and copy lists behind each verdict are kept in one record per
host (arrowing._host), so the pattern pairs of a sweep build each once. Verdicts
are memoized in an append-only cache file, one JSON object per line, keyed
by the literal g6 triple; keys are not canonicalized, so an
isomorphic-but-relabeled query is simply a miss. A sweep emits the pattern
pair's g6 strings once, and a Catalog keeps each host's g6 string beside
its scan order, so building a key emits nothing. A host with no copy of g
is refuted all red without a search, and its check is that its list of g
copies is empty (arrowing._refute). A process that has loaded a cache log
parses only the lines appended to it since, so repeated sweeps on one
growing cache do not re-read it whole. A Catalog counts an order it has
parsed as present without looking at its file again.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .arrowing import NotFoundBelow, _fault, _host, _refute, _witness_json, _witness_sets
from .errors import ArrowheadError, CatalogError, PreconditionError
from .graphs import Graph, emit_graph6, parse_graph6

DEFAULT_ORDER_CAP = 7


class Catalog:
    """Directory of per-order graph6 files named n<order>.g6.

    Each file is read, parsed and checked once per instance, when first
    asked for; a file changed or removed on disk after that is not read
    again, and its order still counts as present.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._graphs: dict[int, tuple[Graph, ...]] = {}
        self._scans: dict[int, tuple[tuple[Graph, str], ...]] = {}

    def path_for(self, order: int) -> Path:
        return self.directory / f"n{order}.g6"

    def has_order(self, order: int) -> bool:
        return order in self._graphs or self.path_for(order).is_file()

    def require_orders(self, n_max: int) -> None:
        missing = [k for k in range(1, n_max + 1) if not self.has_order(k)]
        if missing:
            raise CatalogError(
                f"catalog at {self.directory} has gaps: no file for orders {missing}"
            )

    def graphs(self, order: int) -> list[Graph]:
        """The order's graphs in file order, as a fresh list."""
        if order not in self._graphs:
            self._graphs[order] = self._parse(order)
        return list(self._graphs[order])

    def scan_order(self, order: int) -> tuple[Graph, ...]:
        """The order's graphs by ascending (edge count, graph6 line)."""
        return tuple(f for f, _ in self.scan(order))

    def scan(self, order: int) -> tuple[tuple[Graph, str], ...]:
        """scan_order's graphs, each beside its graph6 line."""
        if order not in self._scans:
            entries = [(f, emit_graph6(f)) for f in self.graphs(order)]
            entries.sort(key=lambda e: (e[0].edge_count(), e[1]))
            self._scans[order] = tuple(entries)
        return self._scans[order]

    def _parse(self, order: int) -> tuple[Graph, ...]:
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
        return tuple(out)


@lru_cache(maxsize=1)
def bundled_catalog() -> Catalog:
    """The catalog shipped with the package, one instance per process."""
    from importlib.resources import files

    return Catalog(Path(str(files("arrowhead").joinpath("data/catalog"))))


def _flock(handle) -> None:
    try:
        import fcntl
    except ImportError:  # non-unix; single-process use is still safe
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)


# The bytes of the last newline-terminated cache log loaded in this process
# and the entries folded from them. Folding stops at line ends, so any file
# whose bytes start with these folds to these entries updated by its
# remaining lines, whichever path it was read from.
_last_log: tuple[bytes, dict[str, str]] = (b"", {})


class ResultCache:
    """Write-through memo of arrowing verdicts, kept as an append-only log.

    Each put appends one line, a JSON object {key: verdict}, under an flock
    on the cache file, so parallel sweeps sharing one cache lose no entries.
    Loading folds the lines in order, so the last line for a key wins; an
    older single-object cache is a one-line log, whose missing final newline
    a put writes first. A corrupt or unreadable file is dropped whole with a
    warning rather than half trusted.

    A process remembers the last newline-terminated log it loaded. When a
    file's bytes start with that log's bytes, only the lines after them are
    parsed and checked; otherwise the whole file is. Either way the entries
    are a function of the file's current bytes alone, so a rewritten,
    truncated or re-created file loads exactly as a first read would. Each
    instance folds into its own dict, so a put reaches later loads only
    through the file. Verdicts are held as JSON text and parsed by get, so
    the remembered log costs about its size on disk, not several times that
    in parsed witnesses. A put encodes its verdict once, sorted by key, and
    that text is both the entry and the body of its log line.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict[str, str] = {}
        self._load()

    @staticmethod
    def key(f: Graph, g: Graph, h: Graph) -> str:
        return _key(emit_graph6(f), (emit_graph6(g), emit_graph6(h)))

    def _load(self) -> None:
        global _last_log
        if not self.path.exists():
            return
        try:
            data = self.path.read_bytes()
            known, folded = _last_log
            if not data.startswith(known):
                known, folded = b"", {}
            folded = dict(folded)
            lines = [line for line in data[len(known):].decode().splitlines() if line.strip()]
            # one parse for all new lines: per-line json.loads is markedly slower
            for raw in json.loads("[" + ",".join(lines) + "]"):
                if not isinstance(raw, dict):
                    raise ValueError("cache line must be a JSON object")
                for key, entry in raw.items():
                    if not isinstance(entry, dict) or not isinstance(entry.get("arrows"), bool):
                        raise ValueError(f"malformed cache entry for {key!r}")
                    folded[key] = json.dumps(entry)
            if data.endswith(b"\n"):
                _last_log = (data, folded)
            self._data = dict(folded)
        except (ValueError, OSError) as exc:
            warnings.warn(f"ignoring unreadable result cache {self.path}: {exc}")
            self._data = {}

    def get(self, key: str) -> dict | None:
        text = self._data.get(key)
        return None if text is None else json.loads(text)

    def put(self, key: str, verdict: dict) -> None:
        text = self._data[key] = json.dumps(verdict, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # the bytes of json.dumps({key: verdict}, sort_keys=True), verdict encoded once
        line = "{" + json.dumps(key) + ": " + text + "}\n"
        with open(self.path, "a+b") as log:
            _flock(log)
            log.seek(max(log.seek(0, 2) - 1, 0))
            if log.read(1) not in (b"", b"\n"):
                line = "\n" + line
            log.write(line.encode())


def _key(f6: str, pair: tuple[str, str]) -> str:
    return f"{f6}|{pair[0]}|{pair[1]}"


def _decide(
    f: Graph,
    g: Graph,
    h: Graph,
    cache: ResultCache | None,
    pair: tuple[str, str],
    f6: str | None = None,
) -> bool:
    """Arrowing verdict for one host, through the cache when one is given.

    pair holds the g6 strings of g and h, which form the cache key's tail;
    f6, f's g6 string, is its head, emitted here when not given.

    A verdict the cache does not settle comes from one _refute call, which
    checks the refuting coloring on its edge bitsets; a cache stores it as
    JSON written from them. A cached NotArrows entry is believed only when
    its stored witness parses into edge bitsets (_witness_sets) and they
    pass _refute's check (_fault), on every hit; anything suspect is
    recomputed and overwritten.
    """
    host = _host(f)
    if cache is not None:
        key = _key(emit_graph6(f) if f6 is None else f6, pair)
        hit = cache.get(key)
        if hit is not None:
            if hit["arrows"]:
                return True
            sides = _witness_sets(host, hit.get("witness"))
            if sides is not None and _fault(host, g, h, True, *sides) is None:
                return False
    found = _refute(host, g, h, True)[0]
    if cache is not None:
        witness = None if found is None else _witness_json(host, *found)
        cache.put(key, {"arrows": found is None, "witness": witness})
    return found is None


def _scan_order(g, h, catalog, order, cache, pair):
    """(g6 of the first arrowing graph or None, count confirmed non-arrowing)."""
    nonarrows = 0
    for f, f6 in catalog.scan(order):
        if _decide(f, g, h, cache, pair, f6):
            return f6, nonarrows
        nonarrows += 1
    return None, nonarrows


@dataclass(frozen=True, slots=True)
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
    pair = (emit_graph6(g), emit_graph6(h))
    checked: list[int] = []
    prev_nonarrows = 0
    for order in range(1, n_max + 1):
        found, nonarrows = _scan_order(g, h, catalog, order, cache, pair)
        checked.append(order)
        if found is not None:
            return IRResult(
                pair,
                order,
                found,
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
    something of exactly the claimed order does. One ir_exact sweep to the
    claimed order answers both."""
    if claimed < 1:
        raise PreconditionError("claimed value must be positive")
    res = ir_exact(g, h, catalog, claimed, cache, allow_large)
    if isinstance(res, NotFoundBelow):
        return ValueCheck(False, claimed, f"no order-{claimed} host arrows the pair", None)
    if res.value < claimed:
        reason = f"an order-{res.value} host already arrows the pair"
        return ValueCheck(False, claimed, reason, res.witness_arrowing_graph)
    reason = f"minimal: first arrowing host at order {claimed} is {res.witness_arrowing_graph}"
    return ValueCheck(True, claimed, reason, None)
