"""End-to-end acceptance checks, one test per criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them
live).  Every expected value is pinned by an oracle computed inside the test,
never by the code under test.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from splitlab.cli import run as cli_run
from splitlab.constructions import (
    SIGNATURE_COMPLEX,
    SIGNATURE_REAL,
    TWO_INERT,
    TWO_RAMIFIED,
    TWO_SPLIT,
    TWO_UNCONSTRAINED,
    SplittingSpec,
    build_divergence_tower,
    build_split_prime_tower,
    certify_adjoin_i_convergence,
    construct_prescribed_quadratic,
    search_inert_companion,
)
from splitlab.density import count_totally_split
from splitlab.errors import ResourceBudgetError
from splitlab.multiquadratic import MultiquadField, compositum, local_data
from splitlab.northcott import northcott_bounds, select_prime_window
from splitlab.primes import PrimeRange, iter_primes, kronecker
from splitlab.quadratic import SplittingType, SquarefreeInt, splitting_type, two_adic_class
from splitlab.series import series_term, tower_sum
from splitlab.traceio import dumps_canonical, trace_to_doc, verify_trace_doc


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.1f}s exceeds the {budget_seconds}s budget"
        )
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d}: FAIL ({elapsed:.1f}s) {description} "
              f"[{type(exc).__name__}: {exc}]")
        raise
    print(f"ACCEPTANCE {number:02d}: PASS ({elapsed:.1f}s) {description}")


def squarefree_values(bound):
    out = []
    for m in range(2, bound + 1):
        if all(m % (d * d) for d in range(2, math.isqrt(m) + 1)):
            out.extend([m, -m])
    return out


def test_acceptance_01_splitting_against_root_count():
    with criterion(1, "quadratic splitting matches the x^2 - m root count", 5.0):
        values = squarefree_values(200)
        fields = {m: SquarefreeInt.from_int(m) for m in values}
        mismatches = 0
        for p in iter_primes(3, 499):
            squares = {x * x % p for x in range(1, p)}
            for m in values:
                r = m % p
                if r == 0:
                    want = SplittingType.RAMIFIED
                elif r in squares:
                    want = SplittingType.SPLIT
                else:
                    want = SplittingType.INERT
                if splitting_type(fields[m], p) is not want:
                    mismatches += 1
        assert mismatches == 0


def test_acceptance_02_multiquadratic_local_data_oracle():
    with criterion(2, "multiquadratic (e,f,g) matches the class-scan oracle", 10.0):
        import itertools

        atoms = [1, -1, 2, -2, 3, -3, 5, -5, 7, -7]
        primes = list(iter_primes(2, 299))
        checked = 0
        for size in range(4):
            for gens in itertools.combinations(atoms, size):
                field = MultiquadField.from_generators(gens)
                classes = [c.value for c in field.square_classes()]
                for p in primes:
                    data = local_data(field, p)
                    assert data.e * data.f * data.g == field.degree
                    if p == 2:
                        images = {1} | {two_adic_class(c) for c in classes}
                        ef = len(images)
                        want = (ef // (2 if 5 in images else 1),
                                2 if 5 in images else 1,
                                field.degree // ef)
                    else:
                        e = 2 if any(c % p == 0 for c in classes) else 1
                        f = 2 if any(c % p and kronecker(c, p) == -1 for c in classes) else 1
                        want = (e, f, field.degree // (e * f))
                    assert (data.e, data.f, data.g) == want, (gens, p)
                    checked += 1
        assert checked > 10_000
        pinned = local_data(MultiquadField.from_generators([-1, 2]), 2)
        assert (pinned.e, pinned.f, pinned.g) == (4, 1, 1)


def test_acceptance_03_prescribed_quadratic_random_specs():
    with criterion(3, "200 random prescriptions all verify", 10.0):
        rng = random.Random(1729)
        odd_primes = list(iter_primes(3, 99))
        twos = (TWO_UNCONSTRAINED, TWO_SPLIT, TWO_INERT, TWO_RAMIFIED)
        signatures = (SIGNATURE_REAL, SIGNATURE_COMPLEX)
        for trial in range(200):
            two = twos[trial % 4]
            signature = signatures[(trial // 4) % 2]
            while True:
                sizes = [rng.randint(0, 4) for _ in range(3)]
                if sum(sizes) or two != TWO_UNCONSTRAINED:
                    break
            chosen = rng.sample(odd_primes, sum(sizes))
            spec = SplittingSpec(
                split=frozenset(chosen[: sizes[0]]),
                inert=frozenset(chosen[sizes[0] : sizes[0] + sizes[1]]),
                ramified=frozenset(chosen[sizes[0] + sizes[1] :]),
                two_behavior=two,
                signature=signature,
            )
            m = construct_prescribed_quadratic(spec)
            for p in spec.split:
                assert splitting_type(m, p) is SplittingType.SPLIT
            for p in spec.inert:
                assert splitting_type(m, p) is SplittingType.INERT
            for p in spec.ramified:
                assert splitting_type(m, p) is SplittingType.RAMIFIED
            if two != TWO_UNCONSTRAINED:
                assert splitting_type(m, 2).value == two
            assert (m.value > 0) == (signature == SIGNATURE_REAL)


# Block target for criterion 4: the largest target in steps of 0.1 whose
# third stage fits the default 8192-bit CRT modulus budget.
DIVERGENCE_BLOCK_TARGET = 0.4


def test_acceptance_04_divergence_tower_three_stages():
    # Thresholds grow doubly exponentially in the block target.  At 0.4 they
    # are 8, 84 and 2880, and stage 3 prescribes every prime below 2880 (a
    # ~4.1k-bit modulus); at 0.5 stage 3 would need ~22.7k bits, and at the
    # default 1.0 (n_3 = 11,057,864) ~16M bits.  That target-1.0 boundary is
    # pinned by TestDivergenceTower::test_third_stage_exhausts_budget.
    delta = DIVERGENCE_BLOCK_TARGET
    with criterion(4, "three-stage divergence tower certified end to end", 60.0):
        total, last = 0.0, None
        for p in iter_primes(2, 100):
            if p % 4 == 3:
                total += math.log(p) / (p + 1)
                last = p
                if total >= delta:
                    break
        trace = build_divergence_tower(3, delta)
        assert len(trace.stages) == 3
        assert trace.stages[0].n == last + 1 == 8
        assert [s.n for s in trace.stages] == [8, 84, 2880]
        fields = trace.stage_fields()
        for stage in trace.stages:
            terms = [series_term(fields[stage.index - 1], p) for p in stage.block_primes]
            assert stage.block_sum == math.fsum(terms) >= delta
            assert math.fsum(terms[:-1]) < delta
        report = tower_sum(
            trace.stage_fields(),
            PrimeRange(2, trace.stages[-1].n - 1),
            trace.block_certificates(),
            residue_filter=(3, 4),
        )
        assert report.partial_sum >= 3 * delta
        doc = json.loads(dumps_canonical(trace_to_doc(trace)))
        assert verify_trace_doc(doc) == []
        bound = certify_adjoin_i_convergence(trace, 10**6)
        assert bound.total_upper_bound < 0.6


def test_acceptance_05_split_prime_tower():
    with criterion(5, "split-prime tower at the largest feasible depth >= 2", 120.0):
        try:
            trace = build_split_prime_tower(3)
        except ResourceBudgetError:
            trace = build_split_prime_tower(2)
        assert len(trace.stages) >= 2
        assert verify_trace_doc(json.loads(dumps_canonical(trace_to_doc(trace)))) == []
        n_prev = 1
        logs = []
        for stage in trace.stages:
            assert stage.block_sum >= 1.0
            added = stage.field_added
            assert added.value % 4 == 1
            for q in iter_primes(2, stage.n):
                assert splitting_type(added, q) is SplittingType.SPLIT
            assert stage.n > n_prev
            logs.append(stage.widmer.log_quantity)
            assert stage.widmer.log_quantity == pytest.approx(
                math.log(added.value) / 4, rel=1e-15
            )
            n_prev = stage.n
        assert all(a < b for a, b in zip(logs, logs[1:]))


def test_acceptance_06_northcott_windows():
    with criterion(6, "prime windows hit their bound intervals", 10.0):
        for r, eps in ((1.0, 0.5), (2.0, 0.25), (5.0, 0.1)):
            window, bounds = select_prime_window(r, eps)
            lower = 0.5 * math.fsum(math.log(p) / (p + 1) for p in window)
            upper = math.fsum(math.log(p) / (p - 1) for p in window)
            assert lower > r - eps - 1e-12
            assert upper <= 2 * r + 1e-12
            assert abs(lower - bounds.lower) <= 1e-12
            assert abs(upper - bounds.upper) <= 1e-12
        b = northcott_bounds([2])
        assert abs(b.lower - math.log(2) / 6) <= 1e-12
        assert abs(b.upper - math.log(2)) <= 1e-12


def test_acceptance_07_chebotarev_ratios():
    with criterion(7, "totally split counts track the expected density", 30.0):
        for gens, degree in (([-1], 2), ([2, 5], 4), ([-1, 2, 5], 8)):
            field = MultiquadField.from_generators(gens)
            assert field.degree == degree
            report = count_totally_split(field, 10**6)
            assert 0.9 <= report.ratio <= 1.1, (gens, report.ratio)
        gauss = MultiquadField.from_generators([-1])
        assert count_totally_split(gauss, 10**6, residue_filter=3).count == 0


def test_acceptance_08_compositum_min_bound():
    with criterion(8, "compositum series bounded by per-prime minima", 30.0):
        rng = random.Random(8)
        small_primes = list(iter_primes(2, 49))
        primes = list(iter_primes(2, 10**4))

        def random_field():
            gens = []
            for _ in range(rng.randint(1, 3)):
                parts = rng.sample(small_primes, rng.randint(1, 2))
                gens.append(rng.choice([1, -1]) * math.prod(parts))
            return MultiquadField.from_generators(g for g in gens if g != 1)

        for _ in range(50):
            left, right = random_field(), random_field()
            both = compositum(left, right)
            lhs = math.fsum(series_term(both, p) for p in primes)
            rhs = math.fsum(
                min(series_term(left, p), series_term(right, p)) for p in primes
            )
            assert lhs <= rhs + 1e-10


def test_acceptance_09_reciprocity_companions():
    with criterion(9, "companion primes behave as requested in both directions", 10.0):
        for p in iter_primes(3, 99):
            fp = SquarefreeInt.from_prime_factors(1, [p])
            for m in (1, 2, 3):
                for want in (SplittingType.INERT, SplittingType.SPLIT):
                    q = search_inert_companion(p, m, want)
                    assert q % (1 << m) == 1 and q != p
                    fq = SquarefreeInt.from_prime_factors(1, [q])
                    assert splitting_type(fq, p) is want
                    if q % 4 == 1:
                        assert splitting_type(fp, q) is want


def test_acceptance_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "every subcommand is byte-identical across reruns", 300.0):
        trace_path = tmp_path / "tower.json"
        assert cli_run(["thm12-tower", "--stages", "1", "--out", str(trace_path)]) == 0
        capsys.readouterr()
        invocations = [
            ["construct-quadratic", "--split", "5", "--inert", "3"],
            ["construct-quadratic", "--ramified", "7", "--two", "ramified",
             "--signature", "complex"],
            ["thm12-tower", "--stages", "1"],
            ["prop71-tower", "--stages", "2"],
            ["sfrak-sum", "--basis=-1,2", "--prime-ceiling", "10000", "--terms"],
            ["sfrak-sum", "--basis", "3", "--prime-ceiling", "1000", "--odd-only"],
            ["adjoin-i-bound", "--in", str(trace_path), "--prime-ceiling", "100000"],
            ["northcott-bounds", "--primes", "2,3,5"],
            ["northcott-select", "--r", "2", "--epsilon", "0.25"],
            ["density-check", "--basis=-1", "--prime-ceiling", "5000"],
            ["density-check", "--basis", "2,5", "--prime-ceiling", "5000",
             "--format", "csv"],
            ["inert-companion", "--p", "11", "--mod-power", "2", "--want", "split"],
            ["verify", str(trace_path)],
        ]
        for args in invocations:
            runs = []
            for _ in range(2):
                code = cli_run(args)
                captured = capsys.readouterr()
                runs.append((code, captured.out.encode(), captured.err.encode()))
            assert runs[0] == runs[1], args
            assert runs[0][0] == 0, args
