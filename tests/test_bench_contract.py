"""The benchmark traces public functions by name; each name must still resolve."""
import importlib
import runpy
from pathlib import Path

from arrowhead.search import ResultCache

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
