"""The benchmark's contract: every traced name resolves, and every committed result follows BENCHMARK.json."""
import importlib
import json
import runpy
from pathlib import Path

from arrowhead.search import ResultCache

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    traced = runpy.run_path(str(TRACER))["TRACED"]
    for layer, names in traced.items():
        # imported by name: the package itself does not import every layer (cli)
        home = importlib.import_module(f"arrowhead.{layer}")
        for name in names:
            cls_name, _, fn = name.rpartition(".")
            if cls_name:
                # the tracer reports the ResultCache constructor as ResultCache.load
                attr = "__init__" if fn == "load" else fn
                assert attr in vars(getattr(home, cls_name)), f"{layer}.{name}"
            else:
                assert callable(getattr(home, fn, None)), f"{layer}.{name}"


def test_cache_path_is_the_file_put_writes(tmp_path):
    # the tracer sizes the cache by os.path.getsize(cache.path) after each put
    cache = ResultCache(tmp_path / "cache.json")
    cache.put({"A_|A_|A_": (1, 0)})
    assert list(tmp_path.iterdir()) == [cache.path]
    assert cache.path.stat().st_size > 0


def test_committed_bench_results_follow_the_contract():
    # each root BENCH_<workload>_<tag>.json is one correct run of a declared
    # workload, with exactly the contract's end-to-end metrics and units
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in contract["workloads"]}
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert path.stem[len("BENCH_"):].rpartition("_")[0] in workloads, path.name
        result = json.loads(path.read_text())
        assert result["correct"] is True, path.name
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units, path.name
