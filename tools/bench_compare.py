"""Parent-against-change benchmark pairs, summarised into one JSON file.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH.json \
        [--workloads scan towers prescribe] [--seeds 1 2 ... 10]

PARENT_DIR and CHANGE_DIR are two checkouts (git clones, so each run record
names its commit). For every workload and seed, one pair runs
perfbench/run.py once in each checkout at the benchmark's own run length,
the two in alternating order from pair to pair, so that a drift of the
machine's speed falls on both sides alike. The run records that perfbench
writes to .perfbench_out/ are read back, and the output holds the command
that made it, every run with its set-up times (setup_s is their median; the
first set-up runs in process, the rest in fresh interpreters), plus, per
side, the median and quartiles of setup_s, wall_ref and peak_rss_mb (one
seed's value is its median, and its quartiles are null) and the median
number of passes (a run that fits more passes in its window can read higher
peak_rss_mb), per command kind the median over seeds of each run's median
latency (latency_p50_s, in seconds), per workload and metric the number of
pairs in which the change read lower, and each side's count of Python lines
under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_ref", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return read_run(result, record, seed)


def read_run(result: dict, record: dict, seed: int) -> dict:
    """One run's figures from perfbench's stdout result and its run record."""
    run = {k: result["metrics"][k]["value"] for k in METRICS}
    run.update(seed=seed, wall_s=record["wall_s"], passes=record["passes"],
               setup_runs_s=record["setup_runs_s"], attempted=result["attempted"],
               failed=result["failed"],
               latency_p50_s={kind: s["p50"] for kind, s in record["latency_s"].items()})
    return {"run": run, "env": record["env"]}


def latency_medians(runs: list[dict]) -> dict:
    """Per command kind, the median over runs of each run's median latency."""
    return {kind: statistics.median(r["latency_p50_s"][kind] for r in runs)
            for kind in runs[0]["latency_p50_s"]}


def summary(values: list[float]) -> dict:
    """Median and quartiles; one value is its own median, with null quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def modexp_backend(checkout: Path) -> str:
    probe = "from splitlab.primes import _gmp; print(_gmp() is not None)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=checkout, capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")))
    return "libgmp via ctypes" if proc.stdout.strip() == "True" else "cpython pow"


def src_py_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=["scan", "towers", "prescribe"])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    command = (f"python3 tools/bench_compare.py PARENT CHANGE --out {args.out.name}"
               f" --workloads {' '.join(args.workloads)} --seeds {' '.join(map(str, args.seeds))}")
    doc = {"command": command, "seeds": args.seeds, "workloads": {}}
    envs = {}
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                out = run_once(sides[side], workload, seed)
                runs[side].append(out["run"])
                envs[side] = out["env"]
                print(f"{workload} seed {seed} {side}: {out['run']}", file=sys.stderr)
        doc["workloads"][workload] = {
            side: {**{m: summary([r[m] for r in runs[side]]) for m in METRICS},
                   "median_passes": statistics.median(r["passes"] for r in runs[side]),
                   "latency_p50_s": latency_medians(runs[side]),
                   "failed": sum(r["failed"] for r in runs[side]), "runs": runs[side]}
            for side in sides
        }
        doc["workloads"][workload]["change_lower_in"] = {
            m: sum(c[m] < p[m] for p, c in zip(runs["parent"], runs["change"])) for m in METRICS}
    for side, checkout in sides.items():
        env = envs[side]
        doc[side] = {"commit": env["commit"], "modexp_backend": modexp_backend(checkout),
                     "libgmp": env["libgmp"], "python": env["python"], "numpy": env["numpy"],
                     "nproc": env["nproc"], "machine": env["machine"],
                     "src_py_lines": src_py_lines(checkout)}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
