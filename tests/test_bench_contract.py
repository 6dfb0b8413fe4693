"""The benchmark traces public functions by name; each name must still resolve."""
import runpy
from pathlib import Path

import arrowhead

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    traced = runpy.run_path(str(TRACER))["TRACED"]
    for layer, names in traced.items():
        home = getattr(arrowhead, layer)
        for name in names:
            cls_name, _, fn = name.rpartition(".")
            if cls_name:
                # the tracer reports the ResultCache constructor as ResultCache.load
                attr = "__init__" if fn == "load" else fn
                assert attr in vars(getattr(home, cls_name)), f"{layer}.{name}"
            else:
                assert callable(getattr(home, fn, None)), f"{layer}.{name}"
