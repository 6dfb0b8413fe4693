import json
import random
import warnings
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowhead import arrowing, coloring, graphs, search
from arrowhead.arrowing import NotFoundBelow, _fault, _host, _witness_sets, strongly_arrows
from arrowhead.coloring import EdgeColoring, verify_witness
from arrowhead.errors import ArrowheadError, CatalogError, PreconditionError
from arrowhead.graphs import (
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
    ir_verify_value,
)

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
    assert [g.edge_count() for g in cat.scan_order(2)] == [0, 1]


# ---------------------------------------------------------------------------
# result cache

def test_cache_round_trip(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    key = ResultCache.key(complete(2), complete(2), complete(2))
    assert cache.get(key) is None
    cache.put(key, {"arrows": True, "witness": None})
    assert cache.get(key) == {"arrows": True, "witness": None}

    reloaded = ResultCache(cache_file)
    assert reloaded.get(key) == {"arrows": True, "witness": None}
    raw = json.loads(cache_file.read_text())
    assert raw == {"A_|A_|A_": {"arrows": True, "witness": None}}


def test_cache_key_format():
    key = ResultCache.key(complete(3), path(3), matching(2))
    assert key == "Bw|Bg|C`"


def test_corrupt_cache_is_dropped_with_warning(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json")
    with pytest.warns(UserWarning, match="ignoring unreadable result cache"):
        cache = ResultCache(cache_file)
    assert cache.get("A_|A_|A_") is None

    cache_file.write_text('{"k": {"arrows": "yes"}}')
    with pytest.warns(UserWarning):
        cache = ResultCache(cache_file)
    assert cache.get("k") is None


def test_parallel_writers_keep_every_key(tmp_path):
    cache_file = tmp_path / "cache.json"
    first, second = ResultCache(cache_file), ResultCache(cache_file)
    first.put("A_|A_|A_", {"arrows": True, "witness": None})
    second.put("Bw|A_|A_", {"arrows": True, "witness": None})
    merged = ResultCache(cache_file)
    assert merged.get("A_|A_|A_") == {"arrows": True, "witness": None}
    assert merged.get("Bw|A_|A_") == {"arrows": True, "witness": None}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]


def test_single_object_cache_still_loads(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(
        '{"A_|A_|A_": {"arrows": true, "witness": null}, '
        '"Bw|A_|A_": {"arrows": true, "witness": null}}\n'
    )
    cache = ResultCache(cache_file)
    assert cache.get("A_|A_|A_") == {"arrows": True, "witness": None}
    assert cache.get("Bw|A_|A_") == {"arrows": True, "witness": None}


def test_put_after_a_single_object_without_final_newline(tmp_path):
    # an older cache may end without a newline; the put must not glue its
    # object onto the last line, or the next load drops the whole cache
    cache_file = tmp_path / "cache.json"
    cache_file.write_text('{"A_|A_|A_": {"arrows": true, "witness": null}}')
    ResultCache(cache_file).put("Bw|A_|A_", {"arrows": True, "witness": None})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = ResultCache(cache_file)
    assert reopened.get("A_|A_|A_") == {"arrows": True, "witness": None}
    assert reopened.get("Bw|A_|A_") == {"arrows": True, "witness": None}


def test_torn_last_line_drops_the_cache(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text('{"A_|A_|A_": {"arrows": true, "witness": null}}\n{"k": {"arr')
    with pytest.warns(UserWarning, match="ignoring unreadable result cache"):
        cache = ResultCache(cache_file)
    assert cache.get("A_|A_|A_") is None


def test_each_put_appends_one_line(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    keys = [f"{g6}|A_|A_" for g6 in ("@", "A_", "Bw", "C~")]
    for i, key in enumerate(keys):
        cache.put(key, {"arrows": i % 2 == 0, "witness": None})
    cache.put(keys[0], {"arrows": False, "witness": None})
    lines = cache_file.read_text().splitlines()
    assert len(lines) == len(keys) + 1
    assert json.loads(lines[0]) == {keys[0]: {"arrows": True, "witness": None}}
    # the last line for a key wins on reload
    assert ResultCache(cache_file).get(keys[0]) == {"arrows": False, "witness": None}


def _open_cache(path):
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
        return f"{rng.randrange(10)}|A_|A_", {"arrows": rng.random() < 0.5, "witness": None}

    def line():
        key, verdict = entry()
        return json.dumps({key: verdict}, sort_keys=True) + "\n"

    def data():
        return cache_file.read_bytes() if cache_file.exists() else b""

    def put():
        current.put(*entry())

    def put_then_restore():
        before = data()
        current.put(*entry())
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
        folded = dict(entry() for _ in range(rng.randrange(1, 4)))
        cache_file.write_text(json.dumps(folded, sort_keys=True))

    actions = [put, put, put_then_restore, append, append, rewrite_same_length,
               rewrite_shorter, tear, delete, recreate, single_object]
    current, torn, reused = ResultCache(cache_file), "", 0
    for _ in range(60):
        act = repair if torn and rng.random() < 0.7 else rng.choice(actions)
        act()
        remembered = search._last_log
        reused += bool(remembered[0]) and data().startswith(remembered[0])
        current, warned = _open_cache(cache_file)
        kept = search._last_log
        monkeypatch.setattr(search, "_last_log", (b"", {}))
        full, full_warned = _open_cache(cache_file)
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
    if find_induced_embedding(host, path(4)) is not None:
        return _refuted({"n": w["n"], "red": sorted(w["red"] + w["blue"]), "blue": []})


def _blue_copy_of_h(host, w):
    if find_induced_embedding(host, complete(3)) is not None:
        return _refuted({"n": w["n"], "red": [], "blue": sorted(w["red"] + w["blue"])})


def _pair_on_a_non_edge(host, w):
    gaps = [[u, v] for u in range(host.n) for v in range(u + 1, host.n) if not host.has_edge(u, v)]
    if gaps:
        return _refuted({**w, "red": w["red"] + gaps[:1]})


def _pair_repeated_in_one_side(host, w):
    if w["red"]:
        return _refuted({**w, "red": w["red"] + w["red"][:1]})


def _edge_on_both_sides(host, w):
    if w["red"]:
        return _refuted({**w, "blue": w["blue"] + w["red"][:1]})


def _order_off_by_one(host, w):
    return _refuted({**w, "n": w["n"] + 1})


def _boolean_vertex(host, w):
    # [0, v] or [1, v] with a JSON boolean for the 0 or 1: the same edge to
    # Python, but not an integer pair
    for side in ("red", "blue"):
        for i, (u, v) in enumerate(w[side]):
            if u < 2:
                pairs = list(w[side])
                pairs[i] = [bool(u), v]
                return _refuted({**w, side: pairs})


def _reversed_pair(host, w):
    if w["red"]:
        return _refuted({**w, "red": [w["red"][0][::-1]] + w["red"][1:]})


def _witness_left_out(host, w):
    return {"arrows": False}


@pytest.mark.parametrize(
    "tamper",
    [_red_copy_of_g, _blue_copy_of_h, _pair_on_a_non_edge, _pair_repeated_in_one_side,
     _edge_on_both_sides, _order_off_by_one, _boolean_vertex, _reversed_pair, _witness_left_out],
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
        if not entry["arrows"] and entry["witness"]["red"] and entry["witness"]["blue"]:
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
    truth = strongly_arrows(host, g, h)
    assert lines[:-1] == before
    assert lines[-1] == json.dumps(
        {key: {"arrows": False, "witness": truth.witness.to_json_dict()}}, sort_keys=True
    )


def _stored_witness_mutations(draw, host, data):
    """data with up to two malformed or misleading edits drawn."""
    n = host.n
    vertex = st.one_of(st.integers(-1, n + 1), st.booleans(), st.sampled_from([0.0, 1.0, "0", None]))
    for _ in range(draw(st.integers(0, 2))):
        side = draw(st.sampled_from(["red", "blue"]))
        other = "blue" if side == "red" else "red"
        pairs = data.get(side)
        if not isinstance(pairs, list):
            break
        edit = draw(st.sampled_from([
            "drop", "move", "both", "repeat", "reverse", "vertex", "pair", "n",
            "key", "side", "shape",
        ]))
        i = draw(st.integers(0, max(len(pairs) - 1, 0)))
        pairs = list(pairs)
        if edit == "drop" and pairs:
            del pairs[i]
        elif edit == "move" and pairs and isinstance(data.get(other), list):
            data[other] = data[other] + [pairs.pop(i)]
        elif edit == "both" and pairs and isinstance(data.get(other), list):
            data[other] = data[other] + [pairs[i]]
        elif edit == "repeat" and pairs:
            pairs.append(pairs[i])
        elif edit == "reverse" and pairs and isinstance(pairs[i], list):
            pairs[i] = pairs[i][::-1]
        elif edit == "vertex" and pairs and isinstance(pairs[i], list) and pairs[i]:
            pairs[i] = [draw(vertex)] + pairs[i][1:]
        elif edit == "pair":
            pairs.append([draw(vertex), draw(vertex)])
        elif edit == "n":
            data["n"] = draw(st.one_of(st.integers(n - 1, n + 1), st.booleans(), st.just(str(n))))
        elif edit == "key":
            data.pop(draw(st.sampled_from(["n", "red", "blue"])), None)
            if draw(st.booleans()):
                data["extra"] = 0
        elif edit == "side":
            pairs = draw(st.sampled_from([None, {}, "", 0]))
        elif edit == "shape" and pairs:
            pairs[i] = draw(st.sampled_from([[], [0], [0, 1, 2], (0, 1), "01", {"0": 1}, [[0], 1]]))
        data[side] = pairs
    return data


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.floats(allow_nan=False), st.text(max_size=2)
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_hit_check_accepts_what_the_embedder_check_accepts(catalog, sweep_patterns, data):
    # The cached-hit check (parse to edge bitsets, then _fault) against the
    # reference pair EdgeColoring.from_json_dict + verify_witness, on stored
    # witnesses that are real, recoloured, edited or arbitrary JSON.
    host = data.draw(st.sampled_from([f for order in range(1, 7) for f in catalog.graphs(order)]))
    g = data.draw(st.sampled_from(sweep_patterns))
    h = data.draw(st.sampled_from(sweep_patterns))
    start = data.draw(st.sampled_from(["witness", "recoloured", "json"]))
    truth = strongly_arrows(host, g, h)
    if start == "json":
        stored = data.draw(st.recursive(
            JSON_SCALARS,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.sampled_from(["n", "red", "blue", "x"]), inner, max_size=4),
            max_leaves=12,
        ))
    else:
        if start == "witness" and truth.witness is not None:
            stored = truth.witness.to_json_dict()
        else:
            red = data.draw(st.lists(st.booleans(), min_size=host.edge_count(), max_size=host.edge_count()))
            edges = [list(e) for e in sorted(host.edges())]
            stored = {
                "n": host.n,
                "red": [e for e, r in zip(edges, red) if r],
                "blue": [e for e, r in zip(edges, red) if not r],
            }
        stored = _stored_witness_mutations(data.draw, host, stored)

    record = _host(host)
    sides = _witness_sets(record, stored)
    accepted = sides is not None and _fault(record, g, h, True, *sides) is None
    try:
        expected = verify_witness(host, EdgeColoring.from_json_dict(stored), g, h) is None
    except ArrowheadError:
        expected = False
    assert accepted == expected
    if accepted:
        assert truth.witness is not None


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
    real_copies = arrowing._copies

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
    monkeypatch.setattr(arrowing, "_copies", listed)
    assert ir_exact(g, h, catalog, n_max=6, cache=ResultCache(cache_file)) == first
    assert calls == []
    assert cache_file.read_bytes() == data
    assert arrowing._host.cache_info().currsize > 0
    assert g in copy_lists and h in copy_lists
    assert not hasattr(search, "verify_witness") and not hasattr(search, "EdgeColoring")


def test_stored_witnesses_are_the_cacheless_colorings(tmp_path, catalog):
    g, h = path(4), complete(3)
    cache_file = tmp_path / "cache.json"
    ir_exact(g, h, catalog, n_max=5, cache=ResultCache(cache_file))
    for key, entry in read_cache_log(cache_file).items():
        truth = strongly_arrows(_host_of(key, g, h), g, h)
        assert entry == {"arrows": truth.arrows, "witness": truth.witness and truth.witness.to_json_dict()}


@pytest.mark.parametrize("key", ["Dx_|C~|Bw", "@|A_|A_", "k\\ey \"q\" \u00e9"])
def test_put_line_is_the_sorted_json_of_one_entry(tmp_path, key):
    cache_file = tmp_path / "cache.json"
    cache = ResultCache(cache_file)
    verdicts = [
        {"witness": {"red": [[0, 1]], "n": 3, "blue": [[0, 2], [1, 2]]}, "arrows": False},
        {"arrows": True, "witness": None},
    ]
    for verdict in verdicts:
        cache.put(key, verdict)
    expected = "".join(json.dumps({key: v}, sort_keys=True) + "\n" for v in verdicts)
    assert cache_file.read_bytes() == expected.encode()
    assert cache.get(key) == verdicts[-1]


def test_persisted_witnesses_all_verify(tmp_path, catalog):
    cache_file = tmp_path / "cache.json"
    ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    g, h = matching(2), complete(2)
    raw = read_cache_log(cache_file)
    checked = 0
    for key, entry in raw.items():
        host_g6 = key.split("|")[0]
        if entry["arrows"]:
            assert entry["witness"] is None
            continue
        host = parse_graph6(host_g6)
        witness = EdgeColoring.from_json_dict(entry["witness"])
        assert verify_witness(host, witness, g, h) is None
        checked += 1
    assert checked >= 10


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
            pair = (emit_graph6(g), emit_graph6(h))
            assert _decide(host, g, h, None, pair) == strongly_arrows(host, g, h).arrows, (host, g, h)


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


# ---------------------------------------------------------------------------
# claimed-value verification

def test_verify_value_confirms(catalog):
    check = ir_verify_value(matching(2), complete(2), 4, catalog)
    assert check.confirmed
    assert check.claimed == 4
    assert check.counterexample is None


def test_verify_value_refutes_too_high(catalog):
    check = ir_verify_value(matching(2), complete(2), 5, catalog)
    assert not check.confirmed
    assert "order-4" in check.reason
    assert check.counterexample == "C`"


def test_verify_value_refutes_too_low(catalog):
    check = ir_verify_value(matching(2), complete(2), 3, catalog)
    assert not check.confirmed
    assert check.counterexample is None
    assert "no order-3 host" in check.reason


def test_verify_value_preconditions(catalog):
    with pytest.raises(PreconditionError):
        ir_verify_value(matching(2), complete(2), 0, catalog)
    with pytest.raises(PreconditionError):
        ir_verify_value(matching(2), complete(2), DEFAULT_ORDER_CAP + 1, catalog)
