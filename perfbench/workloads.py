"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds all of its inputs from the seed when it is constructed
(that is part of the measured set-up), then `run_pass` runs the same batch
of operations in a closed loop: one caller, one process, and each operation
starts only after the previous one returned. Outputs are recorded during the
pass and checked afterwards against `oracle`, outside the timed region.

Pass sizes are chosen so that a pass costs about the same on every seed:
per-operation cost is heavy-tailed (the smallest prime of a progression can
sit anywhere), so each pass holds enough operations, stratified over the
seeded parameter ranges, for the sum to settle.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# The clock every op and pass is timed with. run.py swaps in
# speed.SpeedProbe.clock, which leaves out the probe's own samples.
clock = time.perf_counter

PHASE_OF = {
    "construct-quadratic": "construct_s",
    "thm12-tower": "construct_s",
    "prop71-tower": "construct_s",
    "verify": "verify_s",
    "sfrak-sum": "scan_s",
    "density-check": "scan_s",
    "adjoin-i-bound": "scan_s",
    "northcott-select": "scan_s",
}


@dataclass
class Op:
    kind: str
    seconds: float
    output: object = None
    error: str | None = None


@dataclass
class PassLog:
    ops: list[Op] = field(default_factory=list)
    start_s: float = 0.0
    wall_s: float = 0.0

    def phase_sums(self) -> dict[str, float]:
        """Summed op seconds per phase: construct_s, verify_s, scan_s."""
        sums = dict.fromkeys(("construct_s", "verify_s", "scan_s"), 0.0)
        for op in self.ops:
            sums[PHASE_OF[op.kind]] += op.seconds
        return sums


def import_splitlab(src: Path):
    """Import splitlab from the checkout's own sources, never an installed copy."""
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("splitlab")
    if Path(pkg.__file__).resolve().parent != (src / "splitlab").resolve():
        raise ImportError(f"splitlab imported from {pkg.__file__}, not from {src}")
    for sub in ("cli", "constructions", "traceio"):
        importlib.import_module(f"splitlab.{sub}")
    return pkg


def run_cli(sl, argv: list[str]) -> tuple[int, str, str]:
    """splitlab.cli.run in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sl.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _timed(log: PassLog, kind: str, fn) -> Op:
    start = clock()
    try:
        output = fn()
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    op = Op(kind, clock() - start, output, error)
    log.ops.append(op)
    return op


def _cli_op(sl, log: PassLog, argv: list[str]) -> Op:
    op = _timed(log, argv[0], lambda: run_cli(sl, argv))
    if op.error is None:
        code, out, err = op.output
        op.output = out
        if code != 0:
            op.error = f"exit code {code}: {err.strip()}"
    return op


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _check_repeatable(logs: list[PassLog]) -> None:
    """Every pass runs the same inputs, so every output must repeat exactly."""
    first = logs[0].ops
    for log in logs[1:]:
        for op, ref in zip(log.ops, first):
            if op.error is None and ref.error is None and op.output != ref.output:
                op.error = f"{op.kind}: output differs from the first pass"


class Workload:
    name = ""
    primes_per_pass = 0  # primes visited by scan commands in one pass

    def __init__(self, sl, seed: int, workdir: Path) -> None:
        self.sl = sl
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}-{seed}")

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassLog:
        log = PassLog(start_s=clock())
        self._pass(log)
        log.wall_s = clock() - log.start_s
        return log

    def _pass(self, log: PassLog) -> None:
        raise NotImplementedError

    def check(self, logs: list[PassLog]) -> None:
        """Mark every op whose output is wrong; errors stay on the op."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# prescribe
# ---------------------------------------------------------------------------


class Prescribe(Workload):
    """Prescribed-splitting quadratic fields, emitted and re-verified.

    Each prescription covers every odd prime below a seeded N, so the CRT
    modulus has about 1.44 N bits. Half follow the divergence-tower rule
    (3 mod 4 split, 1 mod 4 inert), half flip a seeded coin per prime.
    """

    name = "prescribe"
    N_RANGE = (300, 600)
    PER_RULE = 50

    def __init__(self, sl, seed, workdir):
        super().__init__(sl, seed, workdir)
        odd = [int(p) for p in oracle.primes_upto(self.N_RANGE[1]) if p > 2]
        choices = []
        for rule in ("tower", "coin"):
            for n in _stratified(self.rng, *self.N_RANGE, self.PER_RULE):
                below = [p for p in odd if p < n]
                if rule == "tower":
                    split = [p for p in below if p % 4 == 3]
                else:
                    split = [p for p in below if self.rng.random() < 0.5]
                inert = [p for p in below if p not in split]
                choices.append((split, inert))
        self.rng.shuffle(choices)
        make_spec = sl.constructions.SplittingSpec
        self.items = [(make_spec(split=frozenset(s), inert=frozenset(i)), s, i)
                      for s, i in choices]

    def _prescribe(self, log: PassLog, spec) -> None:
        sl = self.sl

        def construct():
            m = sl.constructions.construct_prescribed_quadratic(spec)
            return sl.traceio.dumps_canonical(sl.traceio.quadratic_doc(spec, m))

        op = _timed(log, "construct-quadratic", construct)
        if op.error is None:
            _timed(log, "verify", lambda: sl.traceio.verify_trace_doc(json.loads(op.output)))

    def warm_up(self) -> None:
        spec = self.sl.constructions.SplittingSpec(split=frozenset({3}), inert=frozenset({5}))
        self._prescribe(PassLog(), spec)

    def _pass(self, log: PassLog) -> None:
        for spec, _, _ in self.items:
            self._prescribe(log, spec)

    def check(self, logs: list[PassLog]) -> None:
        for log in logs:
            ops = iter(log.ops)
            for _, split, inert in self.items:
                op = next(ops)
                if op.error is not None:
                    continue
                doc = json.loads(op.output)
                problems = oracle.prescription_problems(doc["m"], split, inert)
                if problems:
                    op.error = "; ".join(problems[:3])
                verify = next(ops)
                if verify.error is None and verify.output != []:
                    verify.error = f"verify reported {verify.output[:3]}"
        _check_repeatable(logs)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


class Scan(Workload):
    """sfrak-sum and density-check to 10^7 on one seeded multiquadratic field.

    Five generators (a degree-32 field): -1 on a coin flip, primes below
    50, and one 30-40-bit prime. The count is fixed because per-prime cost
    depends on it: both scans to 10^6 took 1.2 s with 2 generators, 1.45 s
    with 3 and 1.6 s with 4 or 5.
    """

    name = "scan"
    CEILING = 10**7
    PER_DECADE = 4
    GENERATORS = 5

    def __init__(self, sl, seed, workdir):
        super().__init__(sl, seed, workdir)
        minus_one = self.rng.random() < 0.5
        small = [int(p) for p in oracle.primes_upto(50)]
        gens = sorted(self.rng.sample(small, self.GENERATORS - 1 - minus_one))
        q = self.rng.randrange(2**30, 2**40) | 1
        while not oracle.is_small_prime(q):
            q += 2
        self.generators = ([-1] if minus_one else []) + gens + [q]
        basis = "--basis=" + ",".join(map(str, self.generators))
        self.argvs = [
            ["sfrak-sum", basis, "--prime-ceiling", str(self.CEILING)],
            ["density-check", basis, "--prime-ceiling", str(self.CEILING),
             "--per-decade", str(self.PER_DECADE)],
        ]

    @property
    def primes_per_pass(self) -> int:
        return 2 * len(oracle.primes_upto(self.CEILING))

    def warm_up(self) -> None:
        for argv in self.argvs:
            run_cli(self.sl, argv[:2] + ["--prime-ceiling", "10000"])

    def _pass(self, log: PassLog) -> None:
        for argv in self.argvs:
            _cli_op(self.sl, log, argv)

    def check(self, logs: list[PassLog]) -> None:
        primes, e, f = oracle.local_degrees(self.generators, self.CEILING)
        want_sum = oracle.series_sum(primes, e, f)
        marks = oracle.density_marks(self.CEILING, self.PER_DECADE)
        want_counts = oracle.split_counts(primes, e, f, marks)
        degree = 2 ** len(self.generators)
        reference = _reference().get("scan", {}).get(str(self.seed))
        for log in logs:
            sfrak, dens = log.ops
            if sfrak.error is None:
                doc = json.loads(sfrak.output)
                if doc["field_degree"] != degree:
                    sfrak.error = f"degree {doc['field_degree']} != {degree}"
                elif not oracle.rel_close(doc["partial_sum"], want_sum, 1e-9):
                    sfrak.error = f"partial sum {doc['partial_sum']!r} != oracle {want_sum!r}"
                elif reference and not oracle.rel_close(
                        doc["partial_sum"], reference["partial_sum"], 1e-9):
                    sfrak.error = f"partial sum {doc['partial_sum']!r} != reference"
            if dens.error is None:
                doc = json.loads(dens.output)
                got = [(c["x"], c["count"]) for c in doc["checkpoints"]]
                expected = [c["expected"] for c in doc["checkpoints"]]
                want_expected = [m / degree / math.log(m) for m in marks]
                if got != list(zip(marks, want_counts)):
                    dens.error = "checkpoint counts differ from the oracle"
                elif not all(oracle.rel_close(a, b, 1e-12) for a, b in zip(expected, want_expected)):
                    dens.error = "checkpoint expectations differ from x / (degree log x)"
                elif reference and [c for _, c in got] != reference["counts"]:
                    dens.error = "checkpoint counts differ from the reference"
        _check_repeatable(logs)

    def reference_values(self, log: PassLog) -> dict:
        sfrak, dens = (json.loads(op.output) for op in log.ops)
        return {
            "generators": self.generators,
            "partial_sum": sfrak["partial_sum"],
            "counts": [c["count"] for c in dens["checkpoints"]],
        }


def _reference() -> dict:
    path = Path(__file__).with_name("reference.json")
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


class Towers(Workload):
    """The certified-tower CLI pipeline, as many short splitlab.cli.run calls.

    Per round: prop71-tower --stages 2, TARGETS_PER_ROUND thm12-tower
    --stages 2 builds at seeded sum targets, verify on every trace,
    adjoin-i-bound on the round's first thm12 trace and northcott-select at
    a seeded r. Sum targets are stratified over [0.5, 0.9], where the
    stage-2 modulus stays at or below ~1k bits.
    """

    name = "towers"
    ROUNDS = 8
    TARGETS_PER_ROUND = 10
    EPSILON = 0.25
    ADJOIN_CEILING = 10**6
    NORTHCOTT_CEILING = 10**6  # select_prime_window's default tail ceiling

    def __init__(self, sl, seed, workdir):
        super().__init__(sl, seed, workdir)
        targets = _stratified(self.rng, 0.5, 0.9, self.ROUNDS * self.TARGETS_PER_ROUND)
        rs = _stratified(self.rng, 0.5, 2.0, self.ROUNDS)
        self.rounds = []
        for i in range(self.ROUNDS):
            ts = targets[i * self.TARGETS_PER_ROUND : (i + 1) * self.TARGETS_PER_ROUND]
            prop71 = str(workdir / f"prop71-{i}.json")
            thm12 = [str(workdir / f"thm12-{i}-{j}.json") for j in range(len(ts))]
            argvs = [["prop71-tower", "--stages", "2", "--out", prop71], ["verify", prop71]]
            for t, path in zip(ts, thm12):
                argvs.append(["thm12-tower", "--stages", "2", "--sum-target", repr(t),
                              "--out", path])
                argvs.append(["verify", path])
            argvs.append(["adjoin-i-bound", "--in", thm12[0],
                          "--prime-ceiling", str(self.ADJOIN_CEILING)])
            argvs.append(["northcott-select", "--r", repr(rs[i]),
                          "--epsilon", repr(self.EPSILON)])
            self.rounds.append(argvs)

    @property
    def primes_per_pass(self) -> int:
        per_round = (len(oracle.primes_upto(self.ADJOIN_CEILING))
                     + len(oracle.primes_upto(self.NORTHCOTT_CEILING)))
        return self.ROUNDS * per_round

    def warm_up(self) -> None:
        path = str(self.workdir / "warm-up.json")
        for argv in (["thm12-tower", "--stages", "1", "--out", path], ["verify", path],
                     ["adjoin-i-bound", "--in", path, "--prime-ceiling", "1000"],
                     ["northcott-select", "--r", "1", "--epsilon", "0.5"]):
            run_cli(self.sl, argv)
        os.remove(path)

    def _pass(self, log: PassLog) -> None:
        for argvs in self.rounds:
            for argv in argvs:
                op = _cli_op(self.sl, log, argv)
                if op.error is None and argv[0].endswith("-tower"):
                    op.output = Path(argv[-1]).read_bytes()

    def check(self, logs: list[PassLog]) -> None:
        argvs = [argv for rnd in self.rounds for argv in rnd]
        if len(logs) == 1:
            self._second_emission(logs[0], argvs)
        primes = oracle.primes_upto(self.NORTHCOTT_CEILING + 10**4)
        for log in logs:
            traces = {}
            for argv, op in zip(argvs, log.ops):
                if op.error is not None:
                    continue
                if argv[0].endswith("-tower"):
                    traces[argv[-1]] = json.loads(op.output)
                    continue
                tower = {"verify": 1, "adjoin-i-bound": 2}.get(argv[0])
                if tower is not None and argv[tower] not in traces:
                    # it read a trace left by an earlier pass
                    op.error = "its tower failed in this pass"
                    continue
                doc = json.loads(op.output)
                if argv[0] == "verify" and doc["verified"] is not True:
                    op.error = f"verify reported {doc['issues'][:3]}"
                elif argv[0] == "adjoin-i-bound":
                    top = traces[argv[2]]["stages"][-1]["cumulative_field"]
                    ramified = {p for b in top for p, _ in b["factors"] if p > 0}
                    want = oracle.adjoin_i_sum(ramified, self.ADJOIN_CEILING)
                    if not oracle.rel_close(doc["partial_sum"], want, 1e-9):
                        op.error = f"adjoin-i sum {doc['partial_sum']!r} != oracle {want!r}"
                elif argv[0] == "northcott-select":
                    problems = oracle.northcott_problems(
                        doc["primes"], doc["lower"], doc["upper"], doc["r"], doc["epsilon"],
                        primes)
                    if problems:
                        op.error = "; ".join(problems)
        _check_repeatable(logs)

    def _second_emission(self, log: PassLog, argvs: list[list[str]]) -> None:
        """With a single timed pass, re-emit every tower to compare bytes."""
        again = self.workdir / "second-emission.json"
        for argv, op in zip(argvs, log.ops):
            if op.error is None and argv[0].endswith("-tower"):
                code, _, err = run_cli(self.sl, argv[:-1] + [str(again)])
                if code != 0:
                    op.error = f"second emission failed: {err.strip()}"
                elif again.read_bytes() != op.output:
                    op.error = "second emission is not byte-identical"


WORKLOADS = {w.name: w for w in (Prescribe, Scan, Towers)}
