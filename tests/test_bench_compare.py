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


def test_each_run_keeps_its_per_kind_median_latency():
    result = {"metrics": {m: {"value": 1.0} for m in bench_compare.METRICS},
              "attempted": 20, "failed": 0}
    record = {"wall_s": 2.0, "passes": 10, "setup_runs_s": [0.1], "env": {},
              "latency_s": {"density-check": {"n": 10, "p50": 0.08, "max": 0.1},
                            "sfrak-sum": {"n": 10, "p50": 0.11, "max": 0.2}}}
    run = bench_compare.read_run(result, record, seed=3)["run"]
    assert run["seed"] == 3
    assert run["latency_p50_s"] == {"density-check": 0.08, "sfrak-sum": 0.11}


def test_latency_p50_is_the_median_over_seeds_per_kind():
    runs = [{"latency_p50_s": {"sfrak-sum": s, "density-check": d}}
            for s, d in [(0.12, 0.09), (0.10, 0.07), (0.11, 0.08)]]
    assert bench_compare.latency_medians(runs) == {"sfrak-sum": 0.11, "density-check": 0.08}
