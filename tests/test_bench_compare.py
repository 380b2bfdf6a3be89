"""tools/bench_compare.py's summaries, which need no benchmark run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_compare",
                                               ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def test_one_seed_is_its_own_median_with_null_quartiles():
    assert bench_compare.summary([0.5]) == {"median": 0.5, "q1": None, "q3": None}


def test_several_seeds_give_inclusive_quartiles():
    assert bench_compare.summary([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0,
                                                                "q3": 4.0}
