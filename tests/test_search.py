import json
import random

import pytest

from arrowhead.arrowing import NotFoundBelow
from arrowhead.coloring import EdgeColoring, verify_witness
from arrowhead.errors import CatalogError, PreconditionError
from arrowhead.graphs import complete, emit_graph6, matching, parse_graph6, path
from arrowhead.search import (
    DEFAULT_ORDER_CAP,
    Catalog,
    IRResult,
    ResultCache,
    ir_exact,
    ir_verify_value,
)

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


def test_cached_verdicts_replay(tmp_path, catalog):
    cache_file = tmp_path / "cache.json"
    first = ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    again = ir_exact(matching(2), complete(2), catalog, n_max=4, cache=ResultCache(cache_file))
    assert first == again
    assert cache_file.exists()


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
