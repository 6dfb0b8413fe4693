"""Exact minimum-order sweeps over graph6 catalogs, with a persistent cache.

A catalog is a directory of files n1.g6, n2.g6, ... holding one graph6 line
per isomorphism class of each order. A Catalog parses each file once and
keeps each order's scan order, ascending by (edge count, graph6 line), with
each host's graph6 line beside it; bundled_catalog() hands out one shared
instance. ir_exact walks orders from 1 upward and each order in scan order,
so sparse hosts fail fast and the answer never depends on file line order.

Host records and holder masks key their pattern entries by the patterns'
rows (Graph.adj), which hash and compare in C, so equal patterns from any
caller find the same entries. Without a cache an order's loop runs over
the hosts that hold both g and h (Catalog.holders), with no key and no
lookup; the first that arrows ends the sweep. Every other host is refuted
by one color, all red when it holds no g, else all blue, checked by the
embedder search that set its holder bit and found no copy. A host holding
both is offered first to two colorings read off its copies, which
generalise that rule (arrowing._union_refutation): blue on the union of
g's copies refutes when no copy of h lies inside it, else red on the
union of h's copies when no copy of g lies inside that. One that refutes
is judged by coloring._fault, and only a host both leave undecided goes
to arrowing._refute. With a cache the loop runs over every host, each going
to _decide with its cache hit or None, so the log gets the least
refuting coloring for each host the sweep passes and none for the one
that arrows. Every decided verdict rests on a refuting coloring checked
on its edge bitsets against the host's copy lists by coloring._fault, the
one judge of the search's refutations, fresh (arrowing._refute), cached
or read off the copies. The cache holds refutations only, so it can make
a sweep faster, never different.

The cache is an append-only log of {key: verdict} lines keyed by the
literal g6 triple f|g|h; keys are not canonicalized, so an isomorphic but
relabeled query is a miss. A sweep writes {"arrows": false, "witness":
{"blue": B, "red": R}}, bit i of the ints R and B being the i-th edge of
coloring._edge_order(f), read from f alone: f.edges(), by v then u < v,
stably sorted by descending degree sum, for each host it refutes, and
nothing for the arrowing host. It appends each order's new refutations in
one locked write when the order ends, so a run killed mid-order loses only
that order's new lines, never an answer. The loader keeps such a line's
two ints and drops any other entry, an older log's {"arrows": true} among
them, so its host is decided afresh; _decide believes the two ints only
after the check a fresh refutation passes.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .arrowing import NotFoundBelow, _host, _not_found_below, _refute, _union_refutation
from .coloring import _fault, _shared
from .errors import ArrowheadError, CatalogError, PreconditionError
from .graphs import Graph, _bits, emit_graph6, find_induced_embedding, parse_graph6

DEFAULT_ORDER_CAP = 7


class Catalog:
    """Directory of per-order graph6 files named n<order>.g6.

    Each file is read, parsed and checked once per instance, when first
    asked for; a file changed or removed on disk after that is not read
    again, and its order still counts as present. The holder masks of an
    order are kept beside its scan order, one per pattern asked about, keyed
    by its rows; warm passes that rebuilt them on every call ran 2.16x
    slower.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._graphs: dict[int, tuple[Graph, ...]] = {}
        self._scans: dict[int, tuple[tuple[Graph, str], ...]] = {}
        self._holders: dict[tuple[int, tuple[int, ...]], int] = {}

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
        key = (order, pattern.adj)
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
# and the refutations folded from them. Folding stops at line ends, so any
# file whose bytes start with these folds to these entries updated by its
# remaining lines, whichever path it was read from. Re-parsing the whole log
# on every load made warm in-process CLI passes 2.7x slower.
_last_log: tuple[bytes, dict[str, tuple[int, int]]] = (b"", {})


class ResultCache:
    """Write-through memo of refutations, each the (red, blue) edge bitsets
    of a coloring, kept as an append-only log. It checks none: a sweep puts
    only checked refutations, and _decide believes a hit only after
    checking it.

    A put takes a mapping {key: (red, blue)} and appends one line per
    entry, a JSON object {key: verdict}, in the mapping's order, in one
    write under an flock on the cache file, so parallel sweeps sharing one
    cache lose no entries; a file whose last byte is not a newline gets one
    first. A sweep puts each order's new refutations at once, so a run
    killed mid-order loses only that order's new lines, never an answer.
    Loading folds the lines in order (_fold), so the last line for a key
    wins. A line that is not valid UTF-8 or not one JSON object, a torn one
    among them, holds no entry and costs only itself; a missing file loads
    empty, and one that cannot be read loads empty with a warning. A put
    that cannot write the file warns once, and later puts of that instance
    keep their entries in memory only, so an unwritable cache never stops a
    sweep or changes its answer.

    A process remembers the last newline-terminated log it loaded. When a
    file's bytes start with that log's bytes, only the lines after them are
    parsed; otherwise the whole file is. Either way the entries are a
    function of the file's current bytes alone, so a rewritten, truncated
    or re-created file loads exactly as a first read would. Each instance
    folds into its own dict, so a put reaches later loads only through the
    file.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict[str, tuple[int, int]] = {}
        self._writable = True
        self._load()

    def _load(self) -> None:
        global _last_log
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
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

    def get(self, key: str) -> tuple[int, int] | None:
        return self._data.get(key)

    def put(self, entries: dict[str, tuple[int, int]]) -> None:
        self._data.update(entries)
        if not self._writable:
            return
        text = "".join(
            json.dumps({key: {"arrows": False, "witness": {"red": red, "blue": blue}}}, sort_keys=True)
            + "\n"
            for key, (red, blue) in entries.items()
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as log:
                _flock(log)
                log.seek(max(log.seek(0, 2) - 1, 0))
                if log.read(1) not in (b"", b"\n"):
                    text = "\n" + text
                log.write(text.encode())
        except OSError as exc:
            warnings.warn(f"not writing result cache {self.path}: {exc}")
            self._writable = False


def _fold(data: bytes, folded: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    """A copy of folded updated by the cache lines in data, in order. A line
    that is not valid UTF-8 or not one JSON object holds no entry. In any
    other, each key whose value is an object gets that object's witness as
    (red, blue) when it is {"red": R, "blue": B}, both ints (not bools), and
    loses its entry otherwise."""
    folded = dict(folded)
    for line in data.split(b"\n"):
        try:
            raw = json.loads(line.decode())
        except (ValueError, RecursionError):
            continue
        if type(raw) is not dict:
            continue
        for key, entry in raw.items():
            if type(entry) is not dict:
                continue
            stored = entry.get("witness")
            if (
                type(stored) is dict
                and stored.keys() == {"red", "blue"}
                and type(stored["red"]) is int
                and type(stored["blue"]) is int
            ):
                folded[key] = stored["red"], stored["blue"]
            else:
                folded.pop(key, None)
    return folded


def _decide(f: Graph, g: tuple[int, ...], h: tuple[int, ...], hit: tuple[int, int] | None):
    """A checked refutation of host f as (red, blue) edge bitsets, or None
    when f arrows (g, h).

    hit, a cached refutation or None, can make the answer faster, never
    different: it is returned itself when it passes _refute's check
    (_fault). Otherwise one _refute call decides f.
    """
    host = _host(f)
    if hit is not None and _fault(host, g, h, True, *hit) is None:
        return hit
    return _refute(host, g, h, True)[0]


@dataclass(frozen=True)
class IRResult:
    """The least arrowing order of the catalog for the pattern pair (g, h).

    g and h are graphs equal to the caller's; their g6 pair and the orders
    checked (1 to value) are derived on access, so a result holds no
    strings or tuples of its own. Equal results alive at once are one
    object, held in coloring._shared's one table of equal answers (which
    keeps them by weak reference, so the class has no slots), and the
    first caller's g and h are the ones it holds.
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
    if n_max < 1:
        raise PreconditionError(f"n_max must be at least 1, got {n_max}")
    if n_max > DEFAULT_ORDER_CAP and not allow_large:
        raise PreconditionError(
            f"orders beyond {DEFAULT_ORDER_CAP} are refused without allow_large "
            "(search cost roughly doubles per edge)"
        )
    catalog.require_orders(n_max)
    tail = None if cache is None else f"|{emit_graph6(g)}|{emit_graph6(h)}"  # a key is f6|g6|h6
    nonarrows = 0  # the hosts of the order below, each refuted by a checked coloring
    for order in range(1, n_max + 1):
        scan = catalog.scan(order)
        if cache is None:
            for i in _bits(catalog.holders(order, g) & catalog.holders(order, h)):
                f, f6 = scan[i]
                host = _host(f)
                if _union_refutation(host, g.adj, h.adj, True) is None and _refute(host, g.adj, h.adj, True)[0] is None:
                    return _shared(IRResult, g, h, order, f6, nonarrows)
        else:  # every host, so the log gets a refutation for each one passed
            fresh = {}  # the order's checked refutations the cache lacked
            try:
                for f, f6 in scan:
                    key = f6 + tail
                    hit = cache.get(key)
                    found = _decide(f, g.adj, h.adj, hit)
                    if found is None:
                        return _shared(IRResult, g, h, order, f6, nonarrows)
                    if found is not hit:  # a believed hit comes back as itself
                        fresh[key] = found
            finally:
                if fresh:  # a put of nothing would still open and lock the log
                    cache.put(fresh)
        nonarrows = len(scan)
    return _not_found_below(n_max)
