"""Each script under demos/ runs to its end as `python demos/<name>.py` would."""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "deciding_arrowing.py",
        "exact_small_numbers.py",
        "witness_recipes.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
