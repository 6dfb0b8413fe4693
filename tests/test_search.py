import json
import random
import tempfile
import warnings
from dataclasses import fields
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowhead import arrowing, coloring, graphs, search
from arrowhead.arrowing import NotFoundBelow, _host, _refute, strongly_arrows
from arrowhead.coloring import EdgeColoring, _edge_order, verify_witness
from arrowhead.errors import ArrowheadError, CatalogError, PreconditionError
from arrowhead.graphs import (
    Graph,
    complete,
    cycle,
    emit_graph6,
    find_induced_embedding,
    matching,
    parse_graph6,
    path,
)
from arrowhead.search import (
    DEFAULT_ORDER_CAP,
    Catalog,
    IRResult,
    ResultCache,
    _decide,
    bundled_catalog,
    ir_exact,
)

from .oracles import brute_canonical_form, brute_induced_copies

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

CATALOG_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def read_cache_log(path) -> dict:
    """Fold a cache log's lines into one dict, the last line for a key winning."""
    folded = {}
    for line in path.read_text().splitlines():
        if line.strip():
            folded.update(json.loads(line))
    return folded


# ---------------------------------------------------------------------------
# catalogs

def test_bundled_catalog_counts(catalog):
    for order, count in CATALOG_COUNTS.items():
        graphs = catalog.graphs(order)
        assert len(graphs) == count
        assert all(g.n == order for g in graphs)
        # one representative per class: exact duplicates would be a bug
        assert len({emit_graph6(g) for g in graphs}) == count


def test_bundled_catalogs_are_pairwise_non_isomorphic(catalog):
    # With the counts above, distinct canonical forms make each catalog hold
    # every class once, so no relabelled duplicate hides a missing class.
    # The form must not move under a relabelling, or distinct forms prove
    # nothing: a shuffled copy of each graph keeps its form.
    rng = random.Random(13)
    for order in CATALOG_COUNTS:
        forms = set()
        for g in catalog.graphs(order):
            perm = list(range(order))
            rng.shuffle(perm)
            form = brute_canonical_form(g)
            assert brute_canonical_form(graphs.relabel(g, perm)) == form
            forms.add(form)
        assert len(forms) == CATALOG_COUNTS[order]


def test_catalog_gap_reporting(tmp_path):
    (tmp_path / "n1.g6").write_text("@\n")
    (tmp_path / "n2.g6").write_text("A?\nA_\n")
    cat = Catalog(tmp_path)
    assert cat.has_order(2)
    assert not cat.has_order(3)
    cat.require_orders(2)
    with pytest.raises(CatalogError, match=r"\[3, 4\]"):
        cat.require_orders(4)
    with pytest.raises(CatalogError, match="n5.g6"):
        cat.graphs(5)
    # a parsed order stays present when its file goes; others are looked up
    assert len(cat.graphs(2)) == 2
    (tmp_path / "n2.g6").unlink()
    assert cat.has_order(2)
    cat.require_orders(2)
    assert len(cat.graphs(2)) == 2
    (tmp_path / "n1.g6").unlink()
    with pytest.raises(CatalogError, match=r"\[1\]"):
        cat.require_orders(2)


def test_catalog_rejects_wrong_order_line(tmp_path):
    (tmp_path / "n2.g6").write_text("A_\nBw\n")
    with pytest.raises(CatalogError, match="n2.g6 line 2"):
        Catalog(tmp_path).graphs(2)


def test_catalog_reports_parse_failures_with_context(tmp_path):
    (tmp_path / "n3.g6").write_text("Bw\nB\x1c\n")
    with pytest.raises(CatalogError, match="n3.g6 line 2"):
        Catalog(tmp_path).graphs(3)


def test_catalog_skips_blank_lines(tmp_path):
    (tmp_path / "n2.g6").write_text("A_\n\nA?\n")
    assert len(Catalog(tmp_path).graphs(2)) == 2


def test_catalog_files_parse_once_into_fresh_lists(tmp_path):
    assert bundled_catalog() is bundled_catalog()
    (tmp_path / "n2.g6").write_text("A_\nA?\n")
    cat = Catalog(tmp_path)
    first = cat.graphs(2)
    (tmp_path / "n2.g6").write_text("A_\n")  # not read again
    first.clear()
    assert len(cat.graphs(2)) == 2
    assert cat.graphs(2) is not cat.graphs(2)
    assert [f.edge_count() for f, _ in cat.scan(2)] == [0, 1]


# ---------------------------------------------------------------------------
# result cache

def refutation_line(key, witness) -> str:
    """The log line a put writes for key, with any JSON value as its witness."""
    return json.dumps({key: {"arrows": False, "witness": witness}}, sort_keys=True)


def test_cache_round_trip(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    key = "A_|A_|A_"
    assert cache.get(key) is None
    cache.put({key: (1, 0)})
    assert cache.get(key) == (1, 0)

    reloaded = ResultCache(cache_file)
    assert reloaded.get(key) == (1, 0)
    raw = json.loads(cache_file.read_text())
    assert raw == {"A_|A_|A_": {"arrows": False, "witness": {"red": 1, "blue": 0}}}


def test_cache_key_format(tmp_path, catalog):
    # a key is the literal g6 triple f|g|h, here of K3, P3 and 2K2
    cache_file = tmp_path / "cache.json"
    ir_exact(path(3), matching(2), catalog, n_max=4, cache=ResultCache(cache_file))
    keys = list(read_cache_log(cache_file))
    scan = [f6 for order in range(1, 5) for _, f6 in catalog.scan(order)]
    assert keys == [f6 + "|Bg|C`" for f6 in scan[: len(keys)]]
    assert "Bw|Bg|C`" in keys


def test_a_corrupt_line_is_a_miss_without_a_warning(tmp_path):
    # A line that is no JSON object holds no entry, and a key whose value is
    # no object holds none; neither warns or costs the other lines. A key
    # whose value is an object without a two-int witness loses its entry.
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(
        "{not json\n"
        + refutation_line("A_|A_|A_", {"red": 1, "blue": 0}) + "\n"
        + refutation_line("k", {"red": 0, "blue": 1}) + "\n"
        + '{"j": "yes", "A_|A_|A_": 5}\n'
        + '{"k": {"arrows": "yes"}}'
    )
    cache, warned = _load_cache(cache_file)
    assert not warned
    assert cache._data == {"A_|A_|A_": (1, 0)}
    assert cache.get("k") is None and cache.get("j") is None


def test_unwritable_cache_warns_once_and_keeps_its_entries(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(tmp_path)  # a directory: unreadable and unwritable
        for i, g6 in enumerate(("@", "A_", "Bw", "C~")):
            cache.put({f"{g6}|A_|A_": (i, 0)})
    writes = [w for w in caught if "not writing result cache" in str(w.message)]
    assert len(writes) == 1
    assert cache.get("C~|A_|A_") == (3, 0)


def test_parallel_writers_keep_every_key(tmp_path):
    # two instances on one file take turns, one entry or several per put;
    # each put appends its lines after the other's, so every key survives
    cache_file = tmp_path / "cache.json"
    first, second = ResultCache(cache_file), ResultCache(cache_file)
    puts = [
        (first, {"A_|A_|A_": (1, 0)}),
        (second, {"Bw|A_|A_": (0, 7)}),
        (first, {f"{g6}|Bw|A_": (i, 1) for i, g6 in enumerate(("@", "A_", "Bw"))}),
        (second, {f"{g6}|Bw|Bw": (2, i) for i, g6 in enumerate(("C~", "Bo"))}),
        (first, {"Ch|Bw|Bw": (3, 3), "A_|A_|A_": (0, 1)}),
    ]
    expected = {}
    for writer, entries in puts:
        writer.put(entries)
        expected.update(entries)
    merged = ResultCache(cache_file)
    assert merged._data == expected
    assert merged.get("A_|A_|A_") == (0, 1)
    assert len(cache_file.read_text().splitlines()) == sum(len(entries) for _, entries in puts)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]


def test_single_object_cache_still_loads(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(
        '{"A_|A_|A_": {"arrows": false, "witness": {"blue": 0, "red": 1}}, '
        '"Bw|A_|A_": {"arrows": false, "witness": {"blue": 5, "red": 2}}}\n'
    )
    cache = ResultCache(cache_file)
    assert cache.get("A_|A_|A_") == (1, 0)
    assert cache.get("Bw|A_|A_") == (2, 5)


def test_put_after_a_single_object_without_final_newline(tmp_path):
    # an older cache may end without a newline; the put must not glue its
    # object onto the last line, or the next load reads neither
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(refutation_line("A_|A_|A_", {"red": 1, "blue": 0}))
    ResultCache(cache_file).put({"Bw|A_|A_": (0, 7)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = ResultCache(cache_file)
    assert reopened.get("A_|A_|A_") == (1, 0)
    assert reopened.get("Bw|A_|A_") == (0, 7)


def test_a_torn_last_line_costs_only_itself(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(refutation_line("A_|A_|A_", {"red": 1, "blue": 0}) + '\n{"k": {"arr')
    cache, warned = _load_cache(cache_file)
    assert not warned
    assert cache._data == {"A_|A_|A_": (1, 0)}


def test_a_put_after_a_torn_last_line_starts_a_new_line(tmp_path):
    # a writer that died mid-append left a torn line: every load skips it,
    # and the put after it keeps it and starts its own line, so the file
    # grows one whole line per put and loses none
    cache_file = tmp_path / "cache.json"
    first, torn = refutation_line("A_|A_|A_", {"red": 1, "blue": 0}), '{"k": {"arr'
    cache_file.write_text(first + "\n" + torn)
    loaded = []
    for g6 in ("Bw", "C~"):
        cache, warned = _load_cache(cache_file)
        assert not warned
        loaded.append(sorted(cache._data))
        cache.put({f"{g6}|A_|A_": (0, 7)})
    assert loaded == [["A_|A_|A_"], ["A_|A_|A_", "Bw|A_|A_"]]
    lines = cache_file.read_text().split("\n")
    assert lines[:2] == [first, torn] and lines[-1] == "" and len(lines) == 5
    assert [next(iter(json.loads(line))) for line in lines[2:-1]] == ["Bw|A_|A_", "C~|A_|A_"]


def test_a_put_keeps_the_last_line_of_a_text_file(tmp_path):
    # a file that is not a cache log holds no entry and loses no line to a
    # put, even one whose last line has no newline
    cache_file = tmp_path / "notes.txt"
    cache_file.write_text("first line\nlast line")
    cache, warned = _load_cache(cache_file)
    assert not warned and cache._data == {}
    cache.put({"A_|A_|A_": (1, 0)})
    lines = cache_file.read_text().splitlines()
    assert lines[:2] == ["first line", "last line"]
    assert json.loads(lines[2]) == {"A_|A_|A_": {"arrows": False, "witness": {"red": 1, "blue": 0}}}


def test_each_put_appends_one_line(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    keys = [f"{g6}|A_|A_" for g6 in ("@", "A_", "Bw", "C~")]
    for i, key in enumerate(keys):
        cache.put({key: (i, i % 2)})
    cache.put({keys[0]: (0, 1)})
    lines = cache_file.read_text().splitlines()
    assert len(lines) == len(keys) + 1
    assert json.loads(lines[0]) == {keys[0]: {"arrows": False, "witness": {"red": 0, "blue": 0}}}
    # the last line for a key wins on reload
    assert ResultCache(cache_file).get(keys[0]) == (0, 1)


def test_every_log_line_form_loads_the_verdicts_it_holds(tmp_path, monkeypatch):
    # Each key whose value is an object takes that object's witness when it
    # is two ints named red and blue, and loses its entry otherwise; a line
    # that is not one JSON object holds none. Every line form must give the
    # refutations a per-line parse folds to, the last line for a key winning.
    monkeypatch.setattr(search, "_last_log", (b"", {}))
    refuted = {"arrows": False, "witness": {"blue": 6, "red": 1}}
    proved = {"arrows": True, "witness": None}
    pairs = {"arrows": False, "witness": {"blue": [[1, 2]], "n": 3, "red": [[0, 1]]}}
    put_form = {"a|A_|A_": refuted, "h\\|A_|A_": refuted, "k|A_|A_": refuted, "p|A_|A_": refuted}
    lines = [json.dumps({key: verdict}, sort_keys=True) for key, verdict in put_form.items()] + [
        json.dumps({"b|A_|A_": refuted}, separators=(",", ":")),
        json.dumps({"c|A_|A_": refuted}).replace(": ", " :  "),
        json.dumps({"d|A_|A_": refuted}) + "  ",
        # a legacy multi-key object
        json.dumps({"e|A_|A_": refuted, "f|A_|A_": refuted}),
        # a key named twice: the last verdict counts
        '{"g|A_|A_": {"arrows": false}, "g|A_|A_": ' + json.dumps(refuted) + "}",
        # a key whose value is no object, beside one whose value is
        json.dumps({"l|A_|A_": refuted, "m|A_|A_": 7, "a|A_|A_": 7}),
        # two values on one line: no one object, so no entry
        json.dumps({"i|A_|A_": refuted}) + ", {}",
        json.dumps({"j|A_|A_": refuted}) + ", " + json.dumps({"k|A_|A_": proved}),
        # an escaped key that names b|A_|A_ again, with another witness
        '{"\\u0062|A_|A_": {"witness": {"red": 3, "blue": 0}}}',
        # no refutation: a positive line, the old pair form, a third key, a bool side
        json.dumps({"p|A_|A_": proved}),
        json.dumps({"e|A_|A_": {"witness": {"blue": 6, "n": 3, "red": 1}}}),
        json.dumps({"q|A_|A_": refuted, "d|A_|A_": pairs}),
        json.dumps({"c|A_|A_": {"witness": {"red": True, "blue": 6}}}),
    ]
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("\n".join(lines) + "\n")
    expected = {}
    for line in lines:
        try:
            raw = json.loads(line)
        except ValueError:
            continue
        for key, entry in raw.items():
            if isinstance(entry, dict):
                w = entry.get("witness")
                if isinstance(w, dict) and sorted(w) == ["blue", "red"] and all(
                    isinstance(v, int) and not isinstance(v, bool) for v in w.values()
                ):
                    expected[key] = (w["red"], w["blue"])
                else:
                    expected.pop(key, None)
    assert sorted(expected) == [
        "a|A_|A_", "b|A_|A_", "f|A_|A_", "g|A_|A_", "h\\|A_|A_", "k|A_|A_", "l|A_|A_", "q|A_|A_"
    ]
    assert expected["b|A_|A_"] == (3, 0) and expected["k|A_|A_"] == (1, 6)
    cache = ResultCache(cache_file)
    assert cache._data == expected
    assert {key: cache.get(key) for key in expected} == expected


def test_a_log_whose_lines_are_not_each_json_is_dropped(tmp_path, monkeypatch):
    # Joined into one array of arrays, these two lines parse as two one-key
    # objects, the second a verdict for A_|A_|A_; alone, neither parses, so
    # neither holds an entry, and the file loads empty without a warning.
    monkeypatch.setattr(search, "_last_log", (b"", {}))
    cache_file = tmp_path / "cache.json"
    cache_file.write_text('{"k": {"arrows": true, "w": "\n"}}],[{"A_|A_|A_": {"arrows": true}}\n')
    cache, warned = _load_cache(cache_file)
    assert not warned
    assert cache._data == {}


def test_loading_put_lines_encodes_no_verdict(tmp_path, monkeypatch):
    refutations = {"a|A_|A_": (1, 6), "b|A_|A_": (0, 0)}
    cache_file = tmp_path / "cache.json"
    writer = ResultCache(cache_file)
    for key, refutation in refutations.items():
        writer.put({key: refutation})
    monkeypatch.setattr(search, "_last_log", (b"", {}))
    encoded = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: encoded.append(obj) or dumps(obj, **kw))
    cache = ResultCache(cache_file)
    assert encoded == []
    assert {key: cache.get(key) for key in refutations} == refutations


def test_a_put_appends_its_entries_in_order_in_one_locked_write(tmp_path, monkeypatch):
    # after a torn last line: one newline, then one line per entry in the
    # mapping's order, all under one flock
    cache_file = tmp_path / "cache.json"
    torn = '{"k": {"arr'
    cache_file.write_text(torn)
    locks = []
    real_flock = search._flock
    monkeypatch.setattr(search, "_flock", lambda handle: locks.append(handle) or real_flock(handle))
    entries = {"C~|A_|A_": (0, 7), "A_|A_|A_": (1, 0), "Bw|A_|A_": (2, 5)}
    ResultCache(cache_file).put(entries)
    assert len(locks) == 1
    lines = cache_file.read_text().split("\n")
    assert lines[0] == torn and lines[-1] == ""
    assert lines[1:-1] == [
        refutation_line(key, {"red": red, "blue": blue}) for key, (red, blue) in entries.items()
    ]


def test_a_cache_file_gone_before_its_read_loads_empty_silently(tmp_path, monkeypatch):
    # the file is removed between the constructor's call and its one read:
    # a missing file, so no entry and no warning
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(refutation_line("A_|A_|A_", {"red": 1, "blue": 0}) + "\n")

    def vanished(self):
        raise FileNotFoundError(2, "No such file or directory", str(self))

    monkeypatch.setattr(Path, "read_bytes", vanished)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(cache_file)
    assert [str(w.message) for w in caught] == []
    assert cache._data == {}


def _load_cache(path):
    """A fresh ResultCache on path, and whether loading it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResultCache(path)
    warned = any("ignoring unreadable result cache" in str(w.message) for w in caught)
    return cache, warned


@pytest.mark.parametrize("seed", range(16))
def test_incremental_log_load_matches_a_full_parse(tmp_path, monkeypatch, seed):
    # Random edits of one cache file; after each, a load that may reuse the
    # remembered log must equal a load with the remembered log cleared.
    rng = random.Random(seed)
    cache_file = tmp_path / "cache.json"
    monkeypatch.setattr(search, "_last_log", (b"", {}))

    def entry():
        return f"{rng.randrange(10)}|A_|A_", (rng.randrange(4), rng.randrange(4))

    def line():
        # a positive line drops its key's entry
        key, (red, blue) = entry()
        witness = None if rng.random() < 0.3 else {"red": red, "blue": blue}
        return refutation_line(key, witness) + "\n"

    def data():
        return cache_file.read_bytes() if cache_file.exists() else b""

    def put():
        current.put(dict([entry()]))

    def put_then_restore():
        before = data()
        current.put(dict([entry()]))
        cache_file.write_bytes(before)

    def append():
        with open(cache_file, "a") as log:
            log.write(line())

    def rewrite_same_length():
        raw = bytearray(data())
        digits = [i for i, byte in enumerate(raw) if chr(byte).isdigit()]
        if digits and rng.random() < 0.7:
            raw[rng.choice(digits)] = ord(rng.choice("0123456789"))
        elif raw:
            raw[rng.randrange(len(raw))] = ord(rng.choice('x{}":,\n '))
        cache_file.write_bytes(bytes(raw))

    def rewrite_shorter():
        lines = data().splitlines(keepends=True)
        kept = b"".join(lines[: rng.randrange(len(lines) + 1)])
        if kept and rng.random() < 0.3:
            kept = kept[: rng.randrange(len(kept))]
        cache_file.write_bytes(kept)

    def tear():
        nonlocal torn
        whole = line()
        # sometimes only the newline is missing, so the torn line parses
        cut = len(whole) - 1 if rng.random() < 0.3 else rng.randrange(1, len(whole) - 1)
        with open(cache_file, "a") as log:
            log.write(whole[:cut])
        torn = whole[cut:]

    def repair():
        nonlocal torn
        with open(cache_file, "a") as log:
            log.write(torn)
        torn = ""

    def delete():
        cache_file.unlink(missing_ok=True)

    def recreate():
        cache_file.write_text("".join(line() for _ in range(rng.randrange(1, 4))))

    def single_object():
        folded = {
            key: {"arrows": False, "witness": {"red": red, "blue": blue}}
            for key, (red, blue) in (entry() for _ in range(rng.randrange(1, 4)))
        }
        cache_file.write_text(json.dumps(folded, sort_keys=True))

    actions = [put, put, put_then_restore, append, append, rewrite_same_length,
               rewrite_shorter, tear, delete, recreate, single_object]
    current, torn, reused = ResultCache(cache_file), "", 0
    for _ in range(60):
        act = repair if torn and rng.random() < 0.7 else rng.choice(actions)
        act()
        remembered = search._last_log
        reused += bool(remembered[0]) and data().startswith(remembered[0])
        current, warned = _load_cache(cache_file)
        kept = search._last_log
        monkeypatch.setattr(search, "_last_log", (b"", {}))
        full, full_warned = _load_cache(cache_file)
        monkeypatch.setattr(search, "_last_log", kept)
        assert (current._data, warned) == (full._data, full_warned), act.__name__
        if warned:
            assert current._data == {}
    assert reused > 0


def test_cached_verdicts_replay(tmp_path, catalog):
    cache_file = tmp_path / "cache.json"
    first = ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    again = ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    assert first == again
    assert cache_file.exists()


def test_a_second_cached_sweep_emits_no_host_graph6(tmp_path, monkeypatch, catalog):
    # the scan order keeps every host's g6 string, so cache keys reuse it
    fresh = Catalog(catalog.directory)
    g, h = path(4), complete(3)
    cache = ResultCache(tmp_path / "cache.json")
    first = ir_exact(g, h, fresh, n_max=5, cache=cache)
    emitted = []

    def counting_emit(graph):
        emitted.append(graph)
        return emit_graph6(graph)

    monkeypatch.setattr(search, "emit_graph6", counting_emit)
    assert ir_exact(g, h, fresh, n_max=5, cache=cache) == first
    assert emitted == [g, h]


def test_tampered_notarrows_witness_is_recomputed(tmp_path, catalog):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    ir_exact(matching(2), complete(2), catalog, n_max=4, cache=cache)

    raw = read_cache_log(cache_file)
    # break every stored witness; verdicts must still come out identical
    # because suspect entries are recomputed, not trusted
    for entry in raw.values():
        if not entry["arrows"]:
            entry["witness"] = {"n": 1, "red": [], "blue": []}
    cache_file.write_text(json.dumps(raw))

    res = ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    assert isinstance(res, IRResult)
    assert res.value == 4


def _host_of(key, g, h):
    """The host of a cache key for the pattern pair (g, h); graph6 lines may
    hold "|", so the key is cut at its known tail."""
    return parse_graph6(key[: -len(f"|{emit_graph6(g)}|{emit_graph6(h)}")])


def _refuted(witness):
    return {"arrows": False, "witness": witness}


def _red_copy_of_g(host, w):
    if w["blue"] and find_induced_embedding(host, path(4)) is not None:
        return _refuted({"red": w["red"] | w["blue"], "blue": 0})


def _blue_copy_of_h(host, w):
    if w["red"] and find_induced_embedding(host, complete(3)) is not None:
        return _refuted({"red": 0, "blue": w["red"] | w["blue"]})


def _bit_past_the_edges(host, w):
    if w["red"] and w["blue"]:
        # every edge is colored, so red | blue is all ones and one more is past them
        return _refuted({**w, "red": w["red"] | ((w["red"] | w["blue"]) + 1)})


def _edge_on_both_sides(host, w):
    if w["red"]:
        return _refuted({**w, "blue": w["blue"] | (w["red"] & -w["red"])})


def _edge_on_neither_side(host, w):
    if w["red"] and w["blue"]:
        return _refuted({**w, "red": w["red"] & (w["red"] - 1)})


def _negative_int(host, w):
    # ~blue is red on every host edge, and on every bit past them too
    if w["red"] and w["blue"]:
        return _refuted({**w, "red": ~w["blue"]})


def _boolean_side(host, w):
    # JSON true for a side of 1: the same int to Python, but not an int
    for side in ("red", "blue"):
        if w[side] == 1:
            return _refuted({**w, side: True})


def _old_pair_witness(host, w):
    if w["red"] and w["blue"]:
        return _refuted(strongly_arrows(host, path(4), complete(3)).witness.to_json_dict())


def _witness_left_out(host, w):
    return {"arrows": False}


@pytest.mark.parametrize(
    "tamper",
    [_red_copy_of_g, _blue_copy_of_h, _bit_past_the_edges, _edge_on_both_sides,
     _edge_on_neither_side, _negative_int, _boolean_side, _old_pair_witness, _witness_left_out],
    ids=lambda tamper: tamper.__name__.strip("_"),
)
def test_a_suspect_cached_witness_is_recomputed(tmp_path, catalog, tamper):
    # One stored P4/K3 verdict is replaced by a tampered one; the next sweep
    # must recompute it and log the cache-less answer as one new line.
    g, h = path(4), complete(3)
    cache_file = tmp_path / "cache.json"
    first = ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file))
    for key, entry in read_cache_log(cache_file).items():
        host = _host_of(key, g, h)
        if not entry["arrows"]:
            tampered = tamper(host, entry["witness"])
            if tampered is not None:
                break
    else:
        pytest.fail("no stored witness to tamper with")
    with open(cache_file, "a") as log:
        log.write(json.dumps({key: tampered}, sort_keys=True) + "\n")
    before = cache_file.read_text().splitlines()

    assert ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file)) == first
    lines = cache_file.read_text().splitlines()
    red, blue = _refute(_host(host), g.adj, h.adj, True)[0]
    assert lines[:-1] == before
    assert lines[-1] == json.dumps(
        {key: {"arrows": False, "witness": {"red": red, "blue": blue}}}, sort_keys=True
    )


def _stored_witness_mutations(draw, host, n_edges, data):
    """data with up to two malformed or misleading edits drawn."""
    for _ in range(draw(st.integers(0, 2))):
        side = draw(st.sampled_from(["red", "blue"]))
        other = "blue" if side == "red" else "red"
        value = data.get(side)
        if type(value) is not int or type(data.get(other)) is not int:
            break
        edit = draw(st.sampled_from([
            "drop", "move", "both", "set", "negate", "invert", "type", "key", "side",
        ]))
        bit = 1 << draw(st.integers(0, n_edges))  # n_edges: the first bit past the edges
        if edit == "drop":
            value &= ~bit
        elif edit == "move":
            data[other] |= value & bit
            value &= ~bit
        elif edit == "both":
            data[other] |= value & bit
        elif edit == "set":
            value |= bit
        elif edit == "negate":
            value = -value
        elif edit == "invert":
            value = ~data[other]
        elif edit == "type":
            value = draw(st.sampled_from([bool(value), float(value), str(value), [value]]))
        elif edit == "key":
            data.pop(draw(st.sampled_from(["red", "blue"])), None)
            if draw(st.booleans()):
                data["n"] = host.n
        elif edit == "side":
            value = draw(st.sampled_from([None, {}, "", []]))
        data[side] = value
    return data


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.floats(allow_nan=False), st.text(max_size=2)
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_hit_check_accepts_what_the_embedder_check_accepts(catalog, sweep_patterns, data):
    # A planted log line is accepted when _decide answers without calling
    # _refute, so the loader's shape test and _fault are judged together.
    # The reference is verify_witness on the coloring decoded through
    # _edge_order(host), for stored witnesses that are real, recoloured,
    # edited, in the old pair form or arbitrary JSON.
    host = data.draw(st.sampled_from([f for order in range(1, 7) for f in catalog.graphs(order)]))
    g = data.draw(st.sampled_from(sweep_patterns))
    h = data.draw(st.sampled_from(sweep_patterns))
    start = data.draw(st.sampled_from(["witness", "recoloured", "pairs", "json"]))
    edges = _edge_order(host)
    found = _refute(_host(host), g.adj, h.adj, True)[0]
    if start == "json":
        stored = data.draw(st.recursive(
            JSON_SCALARS,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.sampled_from(["n", "red", "blue", "x"]), inner, max_size=4),
            max_leaves=12,
        ))
    else:
        if start == "witness" and found is not None:
            red, blue = found
        else:
            red = data.draw(st.integers(0, (1 << len(edges)) - 1))
            blue = red ^ ((1 << len(edges)) - 1)
        stored = {"red": red, "blue": blue}
        if start == "pairs":
            stored = {
                "n": host.n,
                "red": [list(e) for i, e in enumerate(edges) if red >> i & 1],
                "blue": [list(e) for i, e in enumerate(edges) if blue >> i & 1],
            }
        stored = _stored_witness_mutations(data.draw, host, len(edges), stored)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        search, "_refute", wraps=search._refute
    ) as refute:
        cache_file = Path(tmp) / "cache.json"
        cache_file.write_text(refutation_line("planted", stored) + "\n")
        decided = _decide(host, g.adj, h.adj, ResultCache(cache_file).get("planted"))
    assert (decided is None) == (found is None)
    accepted = not refute.called
    expected = False
    if (
        type(stored) is dict
        and stored.keys() == {"red", "blue"}
        and all(type(v) is int and 0 <= v < 1 << len(edges) for v in stored.values())
    ):
        red, blue = ([e for i, e in enumerate(edges) if stored[side] >> i & 1] for side in ("red", "blue"))
        try:
            expected = verify_witness(host, EdgeColoring.of(host.n, red, blue), g, h) is None
        except ArrowheadError:
            pass
    assert accepted == expected
    if accepted:
        assert found is not None


def test_a_second_cached_sweep_replays_on_bitsets(tmp_path, monkeypatch, catalog, fresh_hosts):
    # Every hit of a second sweep is checked with bit tests against copy
    # lists, rebuilt here from cleared host records by the embedder's generator:
    # no witness object, no verify_witness, no single-embedding search, and
    # no byte appended to the log.
    g, h = path(4), complete(3)
    cache_file = tmp_path / "cache.json"
    first = ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file))
    stored = read_cache_log(cache_file)
    assert sum(not e["arrows"] and bool(e["witness"]["blue"]) for e in stored.values()) >= 50
    data = cache_file.read_bytes()
    arrowing._host.cache_clear()  # records kept from the first sweep
    calls = []
    copy_lists = []
    real_copies = coloring._copies

    def listed(host, pattern, induced):
        copy_lists.append(pattern)
        return real_copies(host, pattern, induced)

    def refuse(name):
        def counted(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on a cache hit")
        return counted

    monkeypatch.setattr(coloring, "verify_witness", refuse("verify_witness"))
    monkeypatch.setattr(EdgeColoring, "from_json_dict", staticmethod(refuse("from_json_dict")))
    monkeypatch.setattr(graphs, "find_induced_embedding", refuse("find_induced_embedding"))
    monkeypatch.setattr(coloring, "find_induced_embedding", refuse("find_induced_embedding"))
    monkeypatch.setattr(arrowing, "_search", refuse("_search"))
    monkeypatch.setattr(coloring, "_copies", listed)
    assert ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file)) == first
    assert calls == []
    assert cache_file.read_bytes() == data
    assert arrowing._host.cache_info().currsize > 0
    assert g.adj in copy_lists and h.adj in copy_lists
    assert not hasattr(search, "verify_witness") and not hasattr(search, "EdgeColoring")


def test_a_cached_replay_decodes_no_json(tmp_path, monkeypatch, catalog):
    # The log is parsed once, when it loads; a hit is the stored pair of
    # bitsets itself, so a replay that hits on every host decodes nothing.
    g, h = path(4), path(3)
    cache_file = tmp_path / "cache.json"
    first = ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file))
    assert first == NotFoundBelow(6)
    monkeypatch.setattr(search, "_last_log", (b"", {}))
    cache = ResultCache(cache_file)
    assert len(cache._data) == sum(len(catalog.scan(order)) for order in range(1, 7))
    data = cache_file.read_bytes()
    decoded = []
    loads = json.loads
    monkeypatch.setattr(search.json, "loads", lambda *a, **kw: decoded.append(a) or loads(*a, **kw))
    assert ir_exact(g, h, catalog, n_max=6, cache=cache) == first
    assert decoded == []
    assert cache_file.read_bytes() == data


def test_stored_witnesses_are_the_cacheless_colorings(tmp_path, catalog):
    g, h = path(4), complete(3)
    cache_file = tmp_path / "cache.json"
    ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file))
    for key, entry in read_cache_log(cache_file).items():
        host = _host_of(key, g, h)
        truth = strongly_arrows(host, g, h)
        witness = entry["witness"]
        if witness is not None:
            assert witness.keys() == {"red", "blue"}
            edges = _edge_order(host)
            red, blue = ([e for i, e in enumerate(edges) if witness[side] >> i & 1] for side in ("red", "blue"))
            witness = EdgeColoring.of(host.n, red, blue)
        assert entry.keys() == {"arrows", "witness"}
        assert (entry["arrows"], witness) == (truth.arrows, truth.witness)


def test_old_pair_witnesses_are_recomputed_once(tmp_path, catalog):
    # A log written when witnesses were stored as sorted [u, v] pair lists:
    # every such witness fails the hit check, so the first replay recomputes
    # it and appends its bitset form, and the second replay appends nothing.
    g, h = path(4), complete(3)
    cache_file = tmp_path / "cache.json"
    first = ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file))
    lines = []
    for line in cache_file.read_text().splitlines():
        (key, entry), = json.loads(line).items()
        if not entry["arrows"]:
            entry["witness"] = strongly_arrows(_host_of(key, g, h), g, h).witness.to_json_dict()
        lines.append(json.dumps({key: entry}, sort_keys=True))
    cache_file.write_text("".join(line + "\n" for line in lines))
    negatives = sum('"arrows": false' in line for line in lines)
    assert negatives >= 40

    counts = []
    for _ in range(2):
        assert ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file)) == first
        counts.append(len(cache_file.read_text().splitlines()))
    assert counts == [len(lines) + negatives] * 2


@pytest.mark.parametrize("key", ["Dx_|C~|Bw", "@|A_|A_", "k\\ey \"q\" \u00e9"])
def test_put_line_is_the_sorted_json_of_one_entry(tmp_path, key):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    refutations = [(1, 6), (0, 0)]
    for refutation in refutations:
        cache.put({key: refutation})
    expected = "".join(
        json.dumps({key: {"witness": {"red": r, "blue": b}, "arrows": False}}, sort_keys=True) + "\n"
        for r, b in refutations
    )
    assert cache_file.read_bytes() == expected.encode()
    assert cache.get(key) == refutations[-1]


def test_persisted_witnesses_all_verify(tmp_path, catalog):
    cache_file = tmp_path / "cache.json"
    ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    g, h = matching(2), complete(2)
    raw = read_cache_log(cache_file)
    checked = 0
    for key, entry in raw.items():
        # the sweep ends at C`, which arrows, and the log holds refutations only
        assert entry["arrows"] is False
        host = parse_graph6(key.split("|")[0])
        edges = _edge_order(host)
        red, blue = ([e for i, e in enumerate(edges) if entry["witness"][side] >> i & 1] for side in ("red", "blue"))
        witness = EdgeColoring.of(host.n, red, blue)
        assert verify_witness(host, witness, g, h) is None
        checked += 1
    assert checked >= 10


def test_a_cached_log_decodes_from_its_hosts_alone(tmp_path, catalog):
    # The order of a stored refutation as the README states it, restated
    # here from f alone: bit i of R and B is the i-th of f's edges (u, v),
    # u < v, by ascending v and then u, stably sorted by descending degree
    # sum. IR(P4, P3) = 7, so a cached sweep to order 6 logs a refutation
    # for every host of orders 1 to 6. Decoded that way, each line colors
    # each edge of its host once, with no red induced P4 and no blue
    # induced P3 among the brute-force copies.
    g, h = path(4), path(3)
    cache_file = tmp_path / "cache.json"
    ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file))
    lines = cache_file.read_text().splitlines()
    assert len(lines) == sum(len(catalog.graphs(order)) for order in range(1, 7))
    for line in lines:
        (key, entry), = json.loads(line).items()
        f = _host_of(key, g, h)
        order = sorted(
            [(u, v) for v in range(f.n) for u in range(v) if f.has_edge(u, v)],
            key=lambda e: -(f.degree(e[0]) + f.degree(e[1])),
        )
        red, blue = (entry["witness"][side] for side in ("red", "blue"))
        assert not red & blue and red | blue == (1 << len(order)) - 1, key
        sides = [{e for i, e in enumerate(order) if bits >> i & 1} for bits in (red, blue)]
        for pattern, side in ((g, sides[0]), (h, sides[1])):
            for verts in brute_induced_copies(f, pattern):
                inside = {(u, v) for u, v in combinations(verts, 2) if f.has_edge(u, v)}
                assert not inside <= side, (key, verts)


# Pattern pairs whose cached order-6 logs are tampered with below: the first
# sweep finds nothing to order 6, the other two end at an arrowing host of
# order 6.
TAMPER_PAIRS = [(path(4), path(3)), (matching(2), complete(3)), (path(3), complete(3))]


@pytest.fixture(scope="module")
def order6_logs(catalog, tmp_path_factory):
    """Per pair of TAMPER_PAIRS: g, h, the cache-less order-6 answer, a
    cached order-6 sweep's log as (key, verdict) lines, and the cache keys
    of every host to order 6."""
    logs = []
    for n, (g, h) in enumerate(TAMPER_PAIRS):
        cache_file = tmp_path_factory.mktemp("logs") / f"{n}.json"
        bare = ir_exact(g, h, catalog, n_max=6)
        assert ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file)) == bare
        lines = [next(iter(json.loads(line).items())) for line in cache_file.read_text().splitlines()]
        tail = f"|{emit_graph6(g)}|{emit_graph6(h)}"
        keys = [f6 + tail for order in range(1, 7) for _, f6 in catalog.scan(order)]
        logs.append((g, h, bare, lines, keys))
    assert [isinstance(bare, IRResult) and bare.value for _, _, bare, _, _ in logs] == [False, 6, 6]
    return logs


def _edited_log(draw, lines, keys):
    """lines, as (key, verdict) pairs, with one to four drawn edits."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["append", "flip", "int", "swap", "delete"]))
        if edit == "append":
            lines.append((draw(st.sampled_from(keys)), {"arrows": True, "witness": None}))
            continue
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        key, verdict = lines[i]
        witness = verdict["witness"]
        if edit == "flip":
            lines[i] = (key, {**verdict, "arrows": True})
        elif edit == "delete":
            del lines[i : draw(st.integers(i + 1, len(lines)))]
        elif witness is None:
            continue
        elif edit == "int":
            side = draw(st.sampled_from(["red", "blue"]))
            value = draw(st.integers(max_value=-1) | st.integers(min_value=1 << 64) | st.just(True))
            lines[i] = (key, {**verdict, "witness": {**witness, side: value}})
        else:
            lines[i] = (key, {**verdict, "witness": {"red": witness["blue"], "blue": witness["red"]}})
    return lines


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_cache_edit_changes_an_answer(catalog, order6_logs, data):
    # A cached order-6 log with positive lines planted, lines flipped to
    # positive, witness ints replaced or swapped, and lines deleted: the
    # sweep on it gives the cache-less answer, and logs refutations only.
    g, h, bare, lines, keys = data.draw(st.sampled_from(order6_logs))
    edited = _edited_log(data.draw, lines, keys)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(search, "_last_log", (b"", {})):
        cache_file = Path(tmp) / "cache.json"
        cache_file.write_text("".join(json.dumps({k: v}, sort_keys=True) + "\n" for k, v in edited))
        assert ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file)) == bare
        added = cache_file.read_text().splitlines()[len(edited):]
    assert all(next(iter(json.loads(line).values()))["arrows"] is False for line in added)


def _unreadable_line(draw, text):
    """A line that holds no entry, drawn from the damage a log can take;
    text is a whole log line that it may be made from."""
    kind = draw(st.sampled_from(["torn", "text", "utf8", "array", "scalar", "value", "deep"]))
    if kind == "torn":
        return text[: draw(st.integers(1, len(text) - 1))].encode()
    if kind == "utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at].encode() + b"\xff" + text[at:].encode()
    if kind == "array":
        return f"[{text}]".encode()
    if kind == "value":
        (key, _), = json.loads(text).items()
        return json.dumps({key: draw(st.sampled_from([7, None, True, "x", [1, 2]]))}).encode()
    if kind == "deep":
        return b"[" * 100_000
    if kind == "scalar":
        return draw(st.sampled_from(["7", "-0.5e3", "null", "true", '"text"'])).encode()
    return draw(st.sampled_from(["not json", "{", "}{", "", "  "])).encode()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_unreadable_line_costs_only_itself(catalog, order6_logs, data):
    # A cached order-6 log with unreadable lines inserted, some whole lines
    # replaced by unreadable ones, and a torn last line with no newline:
    # it loads as its intact lines alone, without a warning, and a replay
    # gives the cache-less answer, deciding again only the hosts whose own
    # line was damaged, and the arrowing host, which has no line.
    g, h, bare, lines, _ = data.draw(st.sampled_from(order6_logs))
    texts = [json.dumps({key: verdict}, sort_keys=True) for key, verdict in lines]
    rows = [(text.encode(), key) for text, (key, _) in zip(texts, lines)]
    damaged = set()
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(rows)))
            rows.insert(at, (_unreadable_line(data.draw, data.draw(st.sampled_from(texts))), None))
            continue
        at = data.draw(st.sampled_from([i for i, (_, key) in enumerate(rows) if key is not None]))
        text, key = rows[at]
        rows[at] = (_unreadable_line(data.draw, text.decode()), None)
        damaged.add(key)
    last = data.draw(st.sampled_from(texts))
    torn = last[: data.draw(st.integers(1, len(last) - 1))].encode()
    tail = f"|{emit_graph6(g)}|{emit_graph6(h)}"
    arrowing = {bare.witness_arrowing_graph + tail} if isinstance(bare, IRResult) else set()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(search, "_last_log", (b"", {})):
        garbled, intact = Path(tmp) / "garbled.json", Path(tmp) / "intact.json"
        garbled.write_bytes(b"".join(line + b"\n" for line, _ in rows) + torn)
        intact.write_bytes(b"".join(line + b"\n" for line, key in rows if key is not None))
        cache, warned = _load_cache(garbled)
        assert not warned
        assert cache._data == ResultCache(intact)._data
        with mock.patch.object(search, "_refute", wraps=search._refute) as refute:
            assert ir_exact(g, h, catalog, n_max=6, cache=ResultCache(garbled)) == bare
    refuted = [emit_graph6(call.args[0].f) + tail for call in refute.call_args_list]
    assert sorted(refuted) == sorted(damaged | arrowing)


def test_a_planted_positive_line_does_not_change_the_answer(tmp_path, catalog):
    # A line calling the edgeless order-4 host C? arrowing once made a
    # cached IR(P4, P3) read 4 with witness C?. The line carries no
    # refuting coloring to check, so C? is decided again and its
    # refutation logged once.
    g, h = path(4), path(3)
    cache_file = tmp_path / "c.json"
    first = ir_exact(g, h, catalog, n_max=7, cache=ResultCache(cache_file))
    assert (first.value, first.witness_arrowing_graph) == (7, "Fh_gG")
    with open(cache_file, "a") as log:
        log.write('{"C?|Ch|Bg": {"arrows": true, "witness": null}}\n')
    before = cache_file.read_text().splitlines()
    for _ in range(2):
        assert ir_exact(g, h, catalog, n_max=7, cache=ResultCache(cache_file)) == first
    lines = cache_file.read_text().splitlines()
    assert lines[:-1] == before
    assert json.loads(lines[-1]) == {"C?|Ch|Bg": {"arrows": False, "witness": {"red": 0, "blue": 0}}}


def test_a_positive_sweep_logs_its_refutations_only(tmp_path, catalog):
    # One line per host refuted and none for the arrowing host, so a replay
    # decides that host alone, with one _refute call, and appends nothing.
    g, h = matching(2), complete(3)
    cache_file = tmp_path / "cache.json"
    first = ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file))
    assert (first.value, first.witness_arrowing_graph) == (6, "EJaG")
    scan = [f6 for order in range(1, 7) for _, f6 in catalog.scan(order)]
    tail = f"|{emit_graph6(g)}|{emit_graph6(h)}"
    log = [next(iter(json.loads(line).items())) for line in cache_file.read_text().splitlines()]
    assert [key for key, _ in log] == [f6 + tail for f6 in scan[: scan.index("EJaG")]]
    assert all(verdict["arrows"] is False for _, verdict in log)
    data = cache_file.read_bytes()
    with mock.patch.object(search, "_refute", wraps=search._refute) as refute:
        assert ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file)) == first
    assert [call.args[0].f for call in refute.call_args_list] == [parse_graph6("EJaG")]
    assert cache_file.read_bytes() == data


# ---------------------------------------------------------------------------
# minimum-order search

def test_ir_single_edge(catalog):
    res = ir_exact(complete(2), complete(2), catalog, n_max=3)
    assert isinstance(res, IRResult)
    assert res.value == 2
    assert res.witness_arrowing_graph == "A_"
    assert res.checked_orders == (1, 2)
    assert res.nonarrow_witnesses_verified == 1  # the lone order-1 graph


def test_ir_matching_pair(catalog):
    res = ir_exact(matching(2), complete(2), catalog, n_max=4)
    assert res.value == 4
    assert res.witness_arrowing_graph == "C`"
    assert parse_graph6("C`") == matching(2)


def test_ir_result_json_shape(catalog):
    res = ir_exact(complete(2), complete(2), catalog, n_max=3)
    data = res.to_json_dict()
    assert data == {
        "g": "A_",
        "h": "A_",
        "ir": 2,
        "witness": "A_",
        "checked_orders": [1, 2],
    }


def test_ir_result_holds_the_callers_graphs(catalog):
    # a result keeps no strings or tuples of its own: the g6 pair and the
    # checked orders are derived on access
    assert [f.name for f in fields(IRResult)] == [
        "g", "h", "value", "witness_arrowing_graph", "nonarrow_witnesses_verified",
    ]
    g, h = matching(2), complete(2)
    res = ir_exact(g, h, catalog, n_max=4)
    assert res.g == g and res.h == h
    assert res.pair == ("C`", "A_")
    assert res.checked_orders == (1, 2, 3, 4)


def test_a_repeated_sweep_finds_its_records_by_identity(catalog, fresh_hosts, monkeypatch):
    # Host records key by the catalog's own host instances, and side records
    # and holder masks by the patterns' rows, which compare in C, so a second
    # call with freshly parsed patterns finds every entry: no side is built
    # and no Graph.__eq__ runs. strongly_arrows on a host the sweep decided,
    # with freshly parsed patterns, finds that host's side records the same
    # way. A catalog of its own, so no earlier test's pattern keys its holder
    # masks
    catalog = Catalog(catalog.directory)
    built, compared = [], []
    real_side, real_eq = arrowing._copy_side, Graph.__eq__

    def side(*args):
        built.append(args)
        return real_side(*args)

    def eq(a, b):
        compared.append((a, b))
        return real_eq(a, b)

    monkeypatch.setattr(arrowing, "_copy_side", side)
    monkeypatch.setattr(Graph, "__eq__", eq)
    first = ir_exact(parse_graph6("Ck"), parse_graph6("Bw"), catalog, n_max=6)
    assert first == NotFoundBelow(6) and built
    built.clear()
    compared.clear()
    # the same NotFoundBelow value, too
    assert ir_exact(parse_graph6("Ck"), parse_graph6("Bw"), catalog, n_max=6) is first
    assert built == [] and compared == []
    both = catalog.holders(6, parse_graph6("Ck")) & catalog.holders(6, parse_graph6("Bw"))
    f = catalog.scan(6)[both.bit_length() - 1][0]
    assert not strongly_arrows(f, parse_graph6("Ck"), parse_graph6("Bw")).arrows
    assert built == [] and compared == []


def test_ir_not_found_below(catalog):
    res = ir_exact(complete(3), complete(3), catalog, n_max=5)
    assert isinstance(res, NotFoundBelow)
    assert res.n_max == 5


def test_ir_refuses_large_orders_without_override(catalog):
    with pytest.raises(PreconditionError, match="allow_large"):
        ir_exact(complete(2), complete(2), catalog, n_max=DEFAULT_ORDER_CAP + 1)
    # with the override the refusal moves to the catalog gap
    with pytest.raises(CatalogError, match="gaps"):
        ir_exact(complete(2), complete(2), catalog, n_max=DEFAULT_ORDER_CAP + 1, allow_large=True)


def test_ir_rejects_edgeless_patterns(catalog):
    with pytest.raises(PreconditionError):
        ir_exact(complete(1), complete(2), catalog)


@pytest.mark.parametrize("n_max", [0, -3])
def test_ir_refuses_an_order_cap_below_1(catalog, n_max):
    with pytest.raises(PreconditionError, match="at least 1"):
        ir_exact(path(4), complete(3), catalog, n_max=n_max)


def test_ir_gap_error_comes_before_scanning(tmp_path):
    (tmp_path / "n1.g6").write_text("@\n")
    with pytest.raises(CatalogError):
        ir_exact(complete(2), complete(2), Catalog(tmp_path), n_max=2)


def test_answer_independent_of_line_order(tmp_path, catalog):
    rng = random.Random(5)
    for order in range(1, 5):
        lines = [emit_graph6(g) for g in catalog.graphs(order)]
        rng.shuffle(lines)
        (tmp_path / f"n{order}.g6").write_text("\n".join(lines) + "\n")
    shuffled = Catalog(tmp_path)
    a = ir_exact(matching(2), complete(2), shuffled, n_max=4)
    b = ir_exact(matching(2), complete(2), catalog, n_max=4)
    assert a == b


def test_cacheless_verdict_matches_strongly_arrows(catalog):
    # the sweep path asks only for the verdict and makes no result object
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), matching(2)]
    for host in [f for order in range(1, 7) for f in catalog.graphs(order)]:
        for g, h in product(panel, repeat=2):
            assert (_decide(host, g.adj, h.adj, None) is None) == strongly_arrows(host, g, h).arrows, (host, g, h)


def test_ir_sweep_matches_the_benchmark_reference(catalog):
    # all 196 recorded pattern pairs, with no cache, to order 6
    items = json.loads(REFERENCE.read_text())["ir"]
    assert len(items) == 196
    for item in items:
        res = ir_exact(parse_graph6(item["g6"]), parse_graph6(item["h6"]), catalog, n_max=6)
        if item["ir"] is None:
            assert res == NotFoundBelow(6), item
        else:
            assert (res.value, res.witness_arrowing_graph) == (item["ir"], item["witness"]), item


def test_holder_bits_match_the_oracle(catalog, sweep_patterns):
    for order in range(1, 7):
        scan = catalog.scan(order)
        for pattern in sweep_patterns:
            mask = catalog.holders(order, pattern)
            assert mask >> len(scan) == 0
            for i, (host, _) in enumerate(scan):
                assert bool(mask >> i & 1) == bool(brute_induced_copies(host, pattern)), (host, pattern)


def test_hosts_outside_the_holders_are_refuted_by_one_color(catalog):
    # all red on a host with no g, else all blue, as it has no h
    panel = [complete(2), path(3), complete(3), path(4), cycle(4), matching(2)]
    for order in range(1, 7):
        scan = catalog.scan(order)
        for g, h in product(panel, repeat=2):
            has_g = catalog.holders(order, g)
            skipped = ~(has_g & catalog.holders(order, h))
            for i, (host, _) in enumerate(scan):
                if skipped >> i & 1:
                    color = "blue" if has_g >> i & 1 else "red"
                    witness = EdgeColoring.monochrome(host, color)
                    assert verify_witness(host, witness, g, h) is None, (host, g, h)


def test_cacheless_and_cached_sweeps_agree(catalog, tmp_path):
    items = json.loads(REFERENCE.read_text())["ir"][::13]
    assert any(item["ir"] is None or item["ir"] > 5 for item in items)
    assert any(item["ir"] is not None and item["ir"] <= 5 for item in items)
    for n, item in enumerate(items):
        g, h = parse_graph6(item["g6"]), parse_graph6(item["h6"])
        bare = ir_exact(g, h, catalog, n_max=5)
        cached = ir_exact(g, h, catalog, n_max=5, cache=ResultCache(tmp_path / f"{n}.json"))
        assert bare == cached, item
        if isinstance(bare, IRResult):
            assert bare.nonarrow_witnesses_verified == cached.nonarrow_witnesses_verified
            assert bare.to_json_dict() == cached.to_json_dict()


def test_cacheless_sweep_decides_only_hosts_holding_both(catalog, monkeypatch):
    # each holder host goes to the copy-union colorings first, and only the
    # hosts they leave undecided reach the search
    for order in range(1, 7):
        catalog.scan(order)  # a first scan emits each host's g6 once
    offered, refuted = [], []
    real_union, real_refute = search._union_refutation, search._refute

    def counted_union(host, g, h, induced):
        found = real_union(host, g, h, induced)
        offered.append((host.f, found))
        return found

    def counted_refute(host, g, h, induced):
        refuted.append(host.f)
        return real_refute(host, g, h, induced)

    emitted = []

    def counted_emit(graph):
        emitted.append(graph)
        return emit_graph6(graph)

    monkeypatch.setattr(search, "_union_refutation", counted_union)
    monkeypatch.setattr(search, "_refute", counted_refute)
    monkeypatch.setattr(search, "emit_graph6", counted_emit)
    monkeypatch.setattr(graphs, "emit_graph6", counted_emit)
    g, h = path(4), complete(3)
    assert ir_exact(g, h, catalog, n_max=6) == NotFoundBelow(6)
    assert refuted and emitted == []
    holders = [f for f, _ in offered]
    assert all(brute_induced_copies(f, g) and brute_induced_copies(f, h) for f in holders)
    both = [catalog.holders(order, g) & catalog.holders(order, h) for order in range(1, 7)]
    assert len(holders) == sum(bin(mask).count("1") for mask in both) < sum(CATALOG_COUNTS[k] for k in range(1, 7))
    assert refuted == [f for f, found in offered if found is None]
    settled = sum(found is not None for _, found in offered)
    assert settled and settled + len(refuted) == len(holders)


def test_cacheless_sweeps_match_cached_sweeps_that_search_every_host(catalog, tmp_path):
    # all 196 recorded pattern pairs to order 6: a fresh cache sends every
    # host to the search, and the sweep without one settles most holder
    # hosts by a copy-union coloring, with the same answers
    items = json.loads(REFERENCE.read_text())["ir"]
    assert len(items) == 196
    cache = ResultCache(tmp_path / "ir.json")
    for item in items:
        g, h = parse_graph6(item["g6"]), parse_graph6(item["h6"])
        bare = ir_exact(g, h, catalog, n_max=6)
        cached = ir_exact(g, h, catalog, n_max=6, cache=cache)
        if isinstance(bare, NotFoundBelow):
            assert bare == cached == NotFoundBelow(6), item
        else:
            expected = (cached.value, cached.witness_arrowing_graph, cached.nonarrow_witnesses_verified)
            assert (bare.value, bare.witness_arrowing_graph, bare.nonarrow_witnesses_verified) == expected, item


def test_copy_unions_settle_most_holder_decisions(catalog, monkeypatch):
    # over the 196 recorded pairs to order 6 the sweep makes 5,361 holder
    # decisions: blue on g's union refutes 2,199 hosts and red on h's union
    # 2,199 (the pair list is closed under swapping g and h), 3,164 between
    # them, so the search decides 2,197, of which 98 arrow
    items = json.loads(REFERENCE.read_text())["ir"]
    offered, searched = [], []
    real_union, real_refute = search._union_refutation, search._refute

    def counted_union(host, g, h, induced):
        found = real_union(host, g, h, induced)
        offered.append((host, g, h, found))
        return found

    def counted_refute(host, g, h, induced):
        result = real_refute(host, g, h, induced)
        searched.append(result[0] is None)
        return result

    monkeypatch.setattr(search, "_union_refutation", counted_union)
    monkeypatch.setattr(search, "_refute", counted_refute)
    for item in items:
        ir_exact(parse_graph6(item["g6"]), parse_graph6(item["h6"]), catalog, n_max=6)
    by_g = by_h = 0
    for host, g, h, found in offered:
        full = (1 << len(host.edges)) - 1
        g_union = arrowing._copy_side(host, g, True).union
        h_union = arrowing._copy_side(host, h, True).union
        blue_on_g = coloring._fault(host, g, h, True, full ^ g_union, g_union) is None
        red_on_h = coloring._fault(host, g, h, True, h_union, full ^ h_union) is None
        by_g += blue_on_g
        by_h += red_on_h
        assert (found is not None) == (blue_on_g or red_on_h), (host.f, g, h)
    assert len(offered) == 5361
    assert (by_g, by_h) == (2199, 2199)
    assert sum(found is not None for *_, found in offered) == 3164
    assert len(searched) == 2197 and sum(searched) == 98


def test_cached_sweep_writes_one_line_per_host(catalog, tmp_path):
    cache_file = tmp_path / "ir.json"
    assert ir_exact(path(4), complete(3), catalog, n_max=5, cache=ResultCache(cache_file)) == NotFoundBelow(5)
    lines = cache_file.read_text().splitlines()
    assert len(lines) == sum(CATALOG_COUNTS[k] for k in range(1, 6))
    tail = f"|{emit_graph6(path(4))}|{emit_graph6(complete(3))}"
    hosts = [f6 for order in range(1, 6) for _, f6 in catalog.scan(order)]
    assert [next(iter(json.loads(line))) for line in lines] == [f6 + tail for f6 in hosts]



def test_a_cached_sweep_locks_the_log_once_per_order(catalog, tmp_path, monkeypatch):
    # each order's new refutations go out in one locked append: five orders,
    # five locks for the 52 lines, and none for a replay that only hits
    locks = []
    real_flock = search._flock
    monkeypatch.setattr(search, "_flock", lambda handle: locks.append(handle) or real_flock(handle))
    cache_file = tmp_path / "ir.json"
    g, h = path(4), complete(3)
    assert ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file)) == NotFoundBelow(5)
    assert len(cache_file.read_text().splitlines()) == 52
    assert len(locks) == 5
    data = cache_file.read_bytes()
    locks.clear()
    assert ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file)) == NotFoundBelow(5)
    assert locks == []
    assert cache_file.read_bytes() == data


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 18, 19, 30, 52])
def test_a_sweep_stopped_by_an_exception_keeps_what_it_found(catalog, tmp_path, monkeypatch, k):
    # _refute raises at its k-th search: the log holds, as whole lines, the
    # k - 1 refutations found before it, those of the unfinished order too,
    # and a rerun ends with the answer and the log of a sweep never stopped
    g, h = path(4), complete(3)
    whole = tmp_path / "whole.json"
    answer = ir_exact(g, h, catalog, n_max=5, cache=ResultCache(whole))
    expected = whole.read_text().splitlines(keepends=True)
    assert len(expected) == 52
    real_refute = search._refute
    searches = []

    def failing_refute(host, g, h, induced):
        searches.append(host.f)
        if len(searches) == k:
            raise RuntimeError("stopped")
        return real_refute(host, g, h, induced)

    cache_file = tmp_path / "stopped.json"
    monkeypatch.setattr(search, "_refute", failing_refute)
    with pytest.raises(RuntimeError, match="stopped"):
        ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file))
    monkeypatch.setattr(search, "_refute", real_refute)
    kept = cache_file.read_text().splitlines(keepends=True) if cache_file.exists() else []
    assert kept == expected[: k - 1]
    assert ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file)) == answer
    assert cache_file.read_bytes() == whole.read_bytes()
