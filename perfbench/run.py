"""splitlab benchmark runner.

    python3 perfbench/run.py --workload {prescribe,scan,towers,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. One workload runs in this process in a closed
loop (one caller, no threads) and the last line of stdout is a JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced pass gives
the per-layer ones. `--workload all` runs every workload in a fresh process,
so each one's peak memory is its own, and prints all of their metrics.

A record of each run (environment, metrics, per-operation latencies and, for
traced runs, the spans) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import IS_PRIME_BUCKETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("prescribe", "scan", "towers")
# Seeds whose scan results are pinned in reference.json; the held-out seed is
# kept out of development so a later performance claim can be re-checked on it.
DEFAULT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 1009
SETUP_REPEATS = 5

_SPAN_METRICS = (
    ("primes.iter_primes", ("self_s",)),
    ("primes.find_prime_in_ap", ("calls", "self_s")),
    ("primes.crt_solve", ("self_s",)),
    ("quadratic.splitting_type", ("calls", "self_s")),
    ("multiquadratic.local_data", ("calls", "self_s")),
    ("multiquadratic.totally_split", ("calls", "self_s")),
    ("series.partial_sum", ("self_s",)),
    ("series.series_term", ("calls", "self_s")),
    ("density.density_checkpoints", ("self_s",)),
    ("northcott.select_prime_window", ("self_s",)),
    ("constructions.construct_prescribed_quadratic", ("self_s",)),
    ("constructions.build_divergence_tower", ("self_s",)),
    ("constructions.build_split_prime_tower", ("self_s",)),
    ("constructions.certify_adjoin_i_convergence", ("self_s",)),
    ("traceio.validate_schema", ("calls", "self_s")),
    ("traceio.verify_trace_doc", ("self_s",)),
    ("traceio.dumps_canonical", ("self_s",)),
    ("cli.run", ("self_s",)),
)
_COUNTERS = (
    "primes.iter_primes.calls",
    "primes.iter_primes.primes",
    "primes.is_prime.accepted",
    "primes.find_prime_in_ap.candidates",
    "primes.kronecker.calls",
    "traceio.bytes",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEEDS[0],
        help=f"input seed; scan results for {DEFAULT_SEEDS[0]}-{DEFAULT_SEEDS[-1]} are "
             f"pinned in reference.json, and {HELD_OUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    # The ceiling keeps git from taking a commit from a repository above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    """What the timings depend on: interpreter, numpy and the modexp backend."""
    import ctypes.util

    import numpy

    try:
        import gmpy2  # noqa: F401

        have_gmpy2 = True
    except ImportError:
        have_gmpy2 = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2_importable": have_gmpy2,
        "modexp_backend": "gmpy2" if have_gmpy2 else "cpython pow",
        "libgmp": ctypes.util.find_library("gmp"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: Path):
    """Import splitlab, build the seeded inputs, warm up; returns (workload, s)."""
    start = time.perf_counter()
    import workloads  # imports numpy, which splitlab needs too: part of set-up

    sl = workloads.import_splitlab(SRC)
    workload = workloads.WORKLOADS[name](sl, seed, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - start


def child_setup_s(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so imports are cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(workload, seconds: float, start: float, logs: list) -> None:
    """Repeat passes while at least half of another fits in the window."""
    while True:
        logs.append(workload.run_pass())
        if time.perf_counter() - start + logs[-1].wall_s / 2 > seconds:
            return


def median_phases(logs: list) -> dict[str, float]:
    sums = [log.phase_sums() for log in logs]
    return {k: statistics.median(s[k] for s in sums) for k in sums[0]}


def percentile_summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values)}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = values[n - 11]
    out["max"] = values[-1]
    return out


def layer_metrics(tracer, traced_walls: list[float], base_wall: float) -> dict:
    """Per-pass per-layer figures from the tracer's aggregates."""
    n = len(traced_walls)
    m = {}
    for name, fields in _SPAN_METRICS:
        for fld in fields:
            source = tracer.calls if fld == "calls" else tracer.self_s
            m[f"{name}.{fld}"] = (source.get(name, 0) / n, "count" if fld == "calls" else "s")
    for key in _COUNTERS:
        m[key] = (tracer.counters.get(key, 0) / n, "B" if key == "traceio.bytes" else "count")
    for edge in IS_PRIME_BUCKETS:
        name = f"primes.is_prime.b{edge}"
        m[f"primes.is_prime.calls.b{edge}"] = (tracer.calls.get(name, 0) / n, "count")
        m[f"primes.is_prime.self_s.b{edge}"] = (tracer.self_s.get(name, 0.0) / n, "s")
    candidates = tracer.counters.get("primes.find_prime_in_ap.candidates", 0)
    hits = tracer.calls.get("primes.find_prime_in_ap", 0)
    m["primes.find_prime_in_ap.hit_ratio"] = (hits / candidates if candidates else 0.0, "ratio")
    crt_calls = tracer.calls.get("primes.crt_solve", 0)
    m["primes.crt_solve.modulus_bits"] = (
        tracer.counters.get("primes.crt_solve.modulus_bits", 0) / crt_calls if crt_calls else 0.0,
        "bit")
    m["trace.overhead_s"] = (statistics.median(traced_walls) - base_wall, "s")
    m["trace.unattributed_s"] = ((sum(traced_walls) - tracer.root_s) / n, "s")
    return m


def module_shares(tracer, traced_walls: list[float]) -> dict:
    """Self time per splitlab module as a share of traced pass wall time."""
    wall = sum(traced_walls)
    shares: dict[str, float] = {}
    for name, s in tracer.self_s.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + s / wall
    shares["is_prime"] = sum(s for k, s in tracer.self_s.items()
                             if k.startswith("primes.is_prime")) / wall
    shares["unattributed"] = (wall - tracer.root_s) / wall
    return dict(sorted(shares.items()))


def print_report(record: dict, metrics: dict) -> None:
    """Every metric by name with its unit, then latencies and failures."""
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"  {k:52s} {v:14.6g} {u}")
    if "wall_s" in record:
        print(f"  {'wall_s':52s} {record['wall_s']:14.6g} s  (raw; reference slice "
              f"{statistics.median(record['pass_slice_s']) * 1e3:.4g} ms)")
    for k, v in record["phases"].items():
        print(f"  {k:52s} {v:14.6g} {'1/s' if k == 'primes_per_s' else 's'}")
    print(f"  {'error_rate':52s} {record['error_rate']:14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for kind, summary in record["latency_s"].items():
        print(f"  latency {kind:20s} " + "  ".join(
            f"{k}={v:.6g}" for k, v in summary.items()))
    if "module_shares" in record:
        print("  self-time shares of traced wall: " + json.dumps(
            {k: round(v, 4) for k, v in record["module_shares"].items()}))
    for line in record["failures"][:10]:
        print(f"  FAILED {line}", file=sys.stderr)


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "splitlab" / "__init__.py").is_file():
        print(f"error: no splitlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        workload, setup_s = set_up(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, setup_s)


def measure(args: argparse.Namespace, workload, setup_s: float) -> int:
    start = time.perf_counter()
    logs, traced_logs, tracer = [], [], None
    if args.trace:
        logs.append(workload.run_pass())
        tracer = Tracer()
        tracer.install()
        try:
            timed_passes(workload, args.seconds, start, traced_logs)
        finally:
            tracer.uninstall()
    else:
        import workloads  # already imported by set_up

        probe = SpeedProbe()
        workloads.clock = probe.clock
        probe.start()
        try:
            timed_passes(workload, args.seconds, start, logs)
        finally:
            probe.stop()
            workloads.clock = time.perf_counter
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    all_logs = logs + traced_logs
    workload.check(all_logs)
    ops = [op for log in all_logs for op in log.ops]
    failures = [f"{op.kind}: {op.error}" for op in ops if op.error is not None]
    walls = [log.wall_s for log in logs]

    phases = median_phases(logs)
    scan_s = phases["scan_s"]
    phases["primes_per_s"] = workload.primes_per_pass / scan_s if scan_s else 0.0
    latency = {}
    for kind in sorted({op.kind for op in ops}):
        latency[kind] = percentile_summary([op.seconds for op in ops if op.kind == kind])

    if args.trace:
        base_wall = logs[0].wall_s
        traced_walls = [log.wall_s for log in traced_logs]
        metrics = layer_metrics(tracer, traced_walls, base_wall)
        record["module_shares"] = module_shares(tracer, traced_walls)
        record["traced_phases"] = median_phases(traced_logs)
        record["spans"] = tracer.spans
    else:
        setups = [setup_s] + [child_setup_s(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        slices = [probe.mean_slice_s(log.start_s, log.start_s + log.wall_s) for log in logs]
        record["setup_runs_s"] = setups
        record["wall_s"] = statistics.median(walls)
        record["pass_slice_s"] = slices
        record["probe_samples"] = len(probe.samples)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_ref": (statistics.median(w / s for w, s in zip(walls, slices)), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted, failed = len(ops), len(failures)
    record.update({
        "passes": len(logs) + len(traced_logs),
        "pass_walls_s": walls + [log.wall_s for log in traced_logs],
        "phases": phases,
        "error_rate": failed / attempted,
        "latency_s": latency,
        "failures": failures[:50],
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result

    print_report(record, metrics)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process
# ---------------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
