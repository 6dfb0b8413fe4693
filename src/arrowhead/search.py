"""Exact minimum-order sweeps over graph6 catalogs, with a persistent cache.

A catalog is a directory of files n1.g6, n2.g6, ... holding one graph6 line
per isomorphism class of each order. A Catalog parses each file once and
keeps each order's scan order, ascending by (edge count, graph6 line), with
each host's graph6 line beside it; bundled_catalog() hands out one shared
instance. ir_exact walks orders from 1 upward and each order in scan order,
so sparse hosts fail fast and the answer never depends on file line order.

Every non-arrowing verdict rests on a refuting coloring checked on its edge
bitsets against the host's copy lists (arrowing._refute and _fault). A
sweep without a cache decides only the hosts that hold both g and h
(Catalog.holders); every other host is refuted by one color, all red with
no g or all blue with no h, checked by the embedder search that set its
holder bit. A sweep with a cache decides every host up to the first that
arrows. The cache holds refutations only, so it can make a sweep faster,
never different.

The cache is an append-only log of {key: verdict} lines keyed by the
literal g6 triple f|g|h; keys are not canonicalized, so an isomorphic but
relabeled query is a miss. A sweep writes {"arrows": false, "witness":
{"blue": B, "red": R}}, bit i of the ints R and B being the host's i-th
edge in arrowing._host(f).edges order, for each host it refutes, and
checks it again on every hit. It writes nothing for the arrowing host;
any other line, an older log's {"arrows": true} among them, is decided
afresh. _decide alone judges a line: one the loader cannot read is a
miss, and one it can is believed only after _decide's check.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .arrowing import NotFoundBelow, _fault, _host, _refute
from .errors import ArrowheadError, CatalogError, PreconditionError
from .graphs import Graph, _bits, emit_graph6, find_induced_embedding, parse_graph6

DEFAULT_ORDER_CAP = 7


class Catalog:
    """Directory of per-order graph6 files named n<order>.g6.

    Each file is read, parsed and checked once per instance, when first
    asked for; a file changed or removed on disk after that is not read
    again, and its order still counts as present. The holder masks of an
    order are kept beside its scan order, one per pattern asked about.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._graphs: dict[int, tuple[Graph, ...]] = {}
        self._scans: dict[int, tuple[tuple[Graph, str], ...]] = {}
        self._holders: dict[tuple[int, Graph], int] = {}

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

    def scan(self, order: int) -> tuple[tuple[Graph, str], ...]:
        """The order's graphs by ascending (edge count, graph6 line), each
        beside its graph6 line."""
        if order not in self._scans:
            entries = [(f, emit_graph6(f)) for f in self.graphs(order)]
            entries.sort(key=lambda e: (e[0].edge_count(), e[1]))
            self._scans[order] = tuple(entries)
        return self._scans[order]

    def holders(self, order: int, pattern: Graph) -> int:
        """Bitmask over scan(order) positions: bit i is set when the i-th
        host holds an induced copy of pattern, by one embedder search per
        host. Built on the first ask and kept; it builds no host record, so
        it evicts none."""
        key = (order, pattern)
        mask = self._holders.get(key)
        if mask is None:
            mask = self._holders[key] = sum(
                1 << i
                for i, (f, _) in enumerate(self.scan(order))
                if find_induced_embedding(f, pattern) is not None
            )
        return mask

    def _parse(self, order: int) -> tuple[Graph, ...]:
        path = self.path_for(order)
        if not path.is_file():
            raise CatalogError(f"catalog gap: {path} does not exist")
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise CatalogError(f"cannot read {path}: {exc}") from exc
        out = []
        for lineno, line in enumerate(lines, 1):
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
    """Write-through memo of verdicts, kept as an append-only log. It
    judges none: _decide puts and believes only checked refutations.

    Each put appends one line, a JSON object {key: verdict}, under an flock
    on the cache file, so parallel sweeps sharing one cache lose no entries;
    a file whose last byte is not a newline gets one first. Loading folds
    the lines in order, so the last line for a key wins. A line that is not
    valid UTF-8 or not one JSON object, a torn one among them, holds no
    entry and costs only itself; a file that cannot be read loads empty
    with a warning. A put that cannot write the file warns once, and later
    puts of that instance keep their entries in memory only, so an
    unwritable cache never stops a sweep or changes its answer.

    A process remembers the last newline-terminated log it loaded. When a
    file's bytes start with that log's bytes, only the lines after them are
    parsed; otherwise the whole file is. Either way the entries are a
    function of the file's current bytes alone, so a rewritten, truncated
    or re-created file loads exactly as a first read would. Each instance
    folds into its own dict, so a put reaches later loads only through the
    file.

    An entry is the JSON text of a one-key object {key: verdict}, parsed by
    get, so the remembered log costs about its size on disk, not several
    times that in parsed witnesses. A put's entry is its log line, and a
    loaded one-key line is kept as written (_fold).
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict[str, str] = {}
        self._writable = True
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
        except OSError as exc:
            warnings.warn(f"ignoring unreadable result cache {self.path}: {exc}")
            return
        known, folded = _last_log
        if not data.startswith(known):
            known, folded = b"", {}
        folded = _fold(data[len(known):], folded)
        if data.endswith(b"\n"):
            _last_log = (data, folded)
        self._data = dict(folded)

    def get(self, key: str) -> dict | None:
        text = self._data.get(key)
        return None if text is None else json.loads(text)[key]

    def put(self, key: str, verdict: dict) -> None:
        text = self._data[key] = json.dumps({key: verdict}, sort_keys=True)
        if not self._writable:
            return
        line = text + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as log:
                _flock(log)
                log.seek(max(log.seek(0, 2) - 1, 0))
                if log.read(1) not in (b"", b"\n"):
                    line = "\n" + line
                log.write(line.encode())
        except OSError as exc:
            warnings.warn(f"not writing result cache {self.path}: {exc}")
            self._writable = False


def _fold(data: bytes, folded: dict[str, str]) -> dict[str, str]:
    """A copy of folded updated by the cache lines in data, in order. A line
    that is not valid UTF-8 or not one JSON object holds no entry; any other
    gives one per key whose value is an object."""
    folded = dict(folded)
    for line in data.split(b"\n"):
        try:
            text = line.decode()
            raw = json.loads(text)
        except (ValueError, RecursionError):
            continue
        if type(raw) is not dict:
            continue
        for key, entry in raw.items():
            if type(entry) is dict:
                folded[key] = text if len(raw) == 1 else json.dumps({key: entry})
    return folded


def _key(f6: str, pair: tuple[str, str]) -> str:
    return f"{f6}|{pair[0]}|{pair[1]}"


def _decide(f: Graph, g: Graph, h: Graph, cache: ResultCache | None, key: str | None) -> bool:
    """Arrowing verdict for one host, through the cache under key when one
    is given.

    The cache can make the verdict faster, never different. A hit is
    believed only when its witness is {"red": R, "blue": B}, both ints (not
    bools), and they pass _refute's check (_fault); it then answers False.
    Anything else, a stored "arrows": true among it, goes to one _refute
    call, and only a refuting coloring it finds is put, as those two ints.
    """
    host = _host(f)
    if cache is not None:
        hit = cache.get(key)
        stored = None if hit is None else hit.get("witness")
        if (
            type(stored) is dict
            and stored.keys() == {"red", "blue"}
            and type(stored["red"]) is int
            and type(stored["blue"]) is int
            and _fault(host, g, h, True, stored["red"], stored["blue"]) is None
        ):
            return False
    found = _refute(host, g, h, True)[0]
    if cache is not None and found is not None:
        cache.put(key, {"arrows": False, "witness": {"red": found[0], "blue": found[1]}})
    return found is None


def _scan_order(g, h, catalog, order, cache, pair):
    """g6 of the order's first arrowing graph, or None when none arrows.

    With a cache every host of the order up to that graph goes through
    _decide, so the cache gets a refutation for each host before it, and
    none for it. Without one only the hosts that hold both g and h
    (catalog.holders) are decided. Every other host is refuted by one
    color: all red when it holds no g, else all blue, as it holds no h.
    That coloring's check is the embedder search the holder bit was read
    from, which found no copy: the check _refute makes for a host with no
    g, whose embedder copy list is empty.
    """
    scan = catalog.scan(order)
    if cache is None:
        positions = _bits(catalog.holders(order, g) & catalog.holders(order, h))
    else:
        positions = range(len(scan))
    for i in positions:
        f, f6 = scan[i]
        if _decide(f, g, h, cache, None if cache is None else _key(f6, pair)):
            return f6
    return None


@dataclass(frozen=True, slots=True)
class IRResult:
    """The least arrowing order of the catalog for the pattern pair (g, h).

    g and h are the caller's graphs; their g6 pair and the orders checked
    (1 to value) are derived on access, so a result holds no strings or
    tuples of its own.
    """

    g: Graph
    h: Graph
    value: int
    witness_arrowing_graph: str
    nonarrow_witnesses_verified: int

    @property
    def pair(self) -> tuple[str, str]:
        return emit_graph6(self.g), emit_graph6(self.h)

    @property
    def checked_orders(self) -> tuple[int, ...]:
        return tuple(range(1, self.value + 1))

    def to_json_dict(self) -> dict:
        g6, h6 = self.pair
        return {
            "g": g6,
            "h": h6,
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
    # the g6 pair is the tail of every cache key; a sweep without a cache needs none
    pair = None if cache is None else (emit_graph6(g), emit_graph6(h))
    nonarrows = 0  # the hosts of the order below, each refuted by a checked coloring
    for order in range(1, n_max + 1):
        found = _scan_order(g, h, catalog, order, cache, pair)
        if found is not None:
            return IRResult(g, h, order, found, nonarrows)
        nonarrows = len(catalog.scan(order))
    return NotFoundBelow(n_max)

