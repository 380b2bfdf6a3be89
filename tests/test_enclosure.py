"""Crossings decided on the real sum.

np.log's error against a decimal oracle, targets that straddle a prefix's
enclosure, the verifier's use of the scan's own decision, and stored block
sums inside the recomputed enclosure.
"""

import copy
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from splitlab import series
from splitlab.constructions import (
    DIVERGENCE_BLOCK,
    SPLIT_PRIME_BLOCK,
    build_divergence_tower,
    build_split_prime_tower,
)
from splitlab.multiquadratic import MultiquadField, local_data
from splitlab.northcott import select_prime_window
from splitlab.primes import is_prime, iter_primes, prime_segments
from splitlab.series import (
    ENCLOSURE_REL,
    enclosure,
    first_reaching,
    range_terms,
    segment_terms,
    series_term,
    term_ratios,
)
from splitlab.traceio import trace_to_doc, verify_trace_doc

U = 2.0**-53
Q = MultiquadField.rationals()

# The per-term bound that ENCLOSURE_REL's c = 16 leaves room above.
TERM_REL = 6 * U


def real_sum(ratios):
    """The sum of log(p)/d at 50 digits."""
    with localcontext(prec=50):
        return sum((Decimal(p).ln() / d for p, d in ratios), Decimal(0))


def rel_error(value, real):
    return abs(Decimal(value) - real) / real


@pytest.fixture(scope="module")
def np_log_differs():
    """The primes below 10^7 where np.log and math.log round apart."""
    p = np.concatenate(list(prime_segments(2, 10**7)))
    ours = np.log(p.astype(np.float64))
    libm = np.fromiter(map(math.log, p.tolist()), dtype=np.float64, count=len(p))
    return p[ours != libm].tolist()


@pytest.fixture(scope="module")
def sampled_primes(np_log_differs):
    """Seeded primes below 10^8, the primes below 1000 and the np.log disagreements."""
    rng = random.Random(21)
    sample = set(iter_primes(2, 1000)) | set(np_log_differs)
    for _ in range(400):
        n = rng.randrange(3, 10**8) | 1
        while not is_prime(n):
            n += 2
        sample.add(n)
    return sorted(sample)


class TestLogErrorBound:
    def test_np_log_and_math_log_disagree_where_recorded(self, np_log_differs):
        assert len(np_log_differs) == 44 and np_log_differs[0] == 285_343

    def test_np_log_is_within_one_ulp(self, sampled_primes):
        logs = np.log(np.array(sampled_primes, dtype=np.float64)).tolist()
        for p, log in zip(sampled_primes, logs):
            with localcontext(prec=50):
                assert abs(Decimal(log) - Decimal(p).ln()) <= Decimal(math.ulp(log)), p

    @pytest.mark.parametrize("e, f", [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)])
    def test_terms_within_c_u(self, sampled_primes, e, f):
        p = np.array(sampled_primes, dtype=np.int64)
        ones = np.ones_like(p)
        terms = segment_terms(p, e * ones, f * ones).tolist()
        ratios = term_ratios(p, e * ones, f * ones)
        assert TERM_REL < ENCLOSURE_REL
        for t, (q, d) in zip(terms, ratios):
            assert rel_error(t, real_sum([(q, d)])) <= TERM_REL, (q, e, f)

    def test_window_terms_within_c_u(self, sampled_primes):
        x = np.array(sampled_primes, dtype=np.float64)
        for p, t in zip(sampled_primes, (np.log(x) / (x - 1.0)).tolist()):
            if p > 2:
                assert rel_error(t, real_sum([(p, p - 1)])) <= TERM_REL, p

    @pytest.mark.parametrize("gens", [[], [-1], [3, 7], [-1, 2], [-1, 2, 3, 5, 7]])
    def test_series_term_equals_segment_terms(self, sampled_primes, gens):
        # The segment runs numpy's loops over hundreds of primes at once,
        # series_term over one; the two must still agree bit for bit.
        field = MultiquadField.from_generators(gens) if gens else Q
        data = [local_data(field, p) for p in sampled_primes]
        terms = segment_terms(*(np.array(v, dtype=np.int64) for v in (
            sampled_primes, [d.e for d in data], [d.f for d in data])))
        assert [series_term(field, p) for p in sampled_primes] == terms.tolist()


def _float_rule(terms, target):
    """The first k whose prefix fsum reaches target: the crossing on float sums."""
    return next(k for k in range(1, len(terms) + 1) if math.fsum(terms[:k]) >= target)


def _straddling_prefix(terms, ratios, low):
    """The first k, with fsum at least low, whose prefix fsum S lies above its
    real sum: at target S the float rule says reached, the real sum says not."""
    for k in range(1, len(terms) + 1):
        total = math.fsum(terms[:k])
        if total >= low and Decimal(total) > real_sum(ratios[:k]):
            return k, total
    raise AssertionError("no straddling prefix")


@pytest.fixture
def resums(monkeypatch):
    """The decisions real_sum_reaches returns, in call order."""
    calls, real = [], series.real_sum_reaches
    monkeypatch.setattr(series, "real_sum_reaches",
                        lambda ratios, target: calls.append(real(ratios, target)) or calls[-1])
    return calls


def _block_rows(field, lo, hi, residue_filter):
    p, e, f, terms = next(range_terms(field, lo, hi, residue_filter=residue_filter))
    return p.tolist(), terms.tolist(), list(term_ratios(p, e, f))


class TestStraddlingTargets:
    def test_first_reaching_resums_a_straddling_prefix(self, resums):
        _, terms, ratios = _block_rows(Q, 1, 1000, (3, 4))
        k, target = _straddling_prefix(terms, ratios, 0.5)
        low, high = enclosure(target)
        assert low < target <= high
        assert _float_rule(terms, target) == k
        got = first_reaching([(np.array(terms), lambda: iter(ratios))], target)
        assert got == (k + 1, math.fsum(terms[:k + 1]), True)
        assert resums and not resums[-1]

    @pytest.mark.parametrize("build, shape", [
        (build_divergence_tower, DIVERGENCE_BLOCK),
        (build_split_prime_tower, SPLIT_PRIME_BLOCK),
    ])
    def test_tower_block_is_decided_by_the_resum(self, resums, build, shape):
        # Stage 1 starts from n_0 = 1.
        block, terms, ratios = _block_rows(Q, 1 + shape.after, 1000, shape.residue_filter)
        k, target = _straddling_prefix(terms, ratios, 0.8)
        got = shape.block(Q, 1, target, sieve_ceiling=10**6, stage=1)
        assert got == (block[:k + 1], math.fsum(terms[:k + 1]), block[k] + shape.past_last,
                       True)
        assert False in resums
        # The builder stops where the scan does, and the verifier, which runs
        # the same scan up to the stored threshold, agrees with it.
        trace = build(1, target)
        assert list(trace.stages[0].block_primes) == block[:k + 1]
        assert verify_trace_doc(trace_to_doc(trace)) == []

    def test_window_end_is_decided_by_the_resum(self, resums):
        # At epsilon 0.25 the window starts at 11 (test_northcott's pins).
        primes = list(iter_primes(11, 2000))
        x = np.array(primes, dtype=np.float64)
        terms = (np.log(x) / (x - 1.0)).tolist()
        ratios = [(p, p - 1) for p in primes]
        k, two_r = _straddling_prefix(terms, ratios, 1.5)
        assert _float_rule(terms, two_r) == k  # it would end the window before p_k
        window, bounds = select_prime_window(two_r / 2, 0.25)
        assert window == primes[:k] and False in resums
        assert bounds.upper <= two_r


class TestVerifierUsesTheScansDecision:
    def test_block_reached_on_a_real_sum_above_its_fsum(self, monkeypatch):
        # Stand in for a real block sum a hair above its fsum, so that the
        # decimal re-sum decides "reached" at a target one ulp above the
        # fsum.  The honest trace then stores a block sum below its target,
        # and neither the stage check nor the K·T check may reject it.
        monkeypatch.setattr(series, "real_sum_reaches", lambda ratios, target: True)
        block, terms, _ = _block_rows(Q, 1, 1000, (3, 4))
        total = math.fsum(terms[:5])
        target = math.nextafter(total, math.inf)
        doc = trace_to_doc(build_divergence_tower(1, target))
        assert doc["stages"][0]["block_primes"] == block[:5]
        assert doc["stages"][0]["block_sum"] == total < target
        assert verify_trace_doc(doc) == []

    def test_short_block_is_still_reported(self):
        doc = trace_to_doc(build_divergence_tower(1, 0.6))
        stage = doc["stages"][0]
        short = copy.deepcopy(doc)
        short["stages"][0].update(n=stage["block_primes"][-2] + 1,
                                  block_primes=stage["block_primes"][:-1])
        total = math.fsum(series_term(Q, p) for p in stage["block_primes"][:-1])
        issues = verify_trace_doc(short)
        assert f"stage 1: block sum {total} below target 0.6" in issues
        assert f"total block sum {total} below 0.6" in issues


@pytest.mark.parametrize("which", ["thm12", "prop71"])
def test_stored_block_sums_lie_in_the_recomputed_enclosure(thm12_two_stage, which):
    trace = thm12_two_stage if which == "thm12" else build_split_prime_tower(2)
    fields = trace.stage_fields()
    for stage in trace.stages:
        below = fields[stage.index - 1]
        recomputed = math.fsum(series_term(below, p) for p in stage.block_primes)
        low, high = enclosure(recomputed)
        assert low <= stage.block_sum <= high
        # Earlier versions summed math.log terms; those sums lie inside too.
        libm = math.fsum(math.log(p) / (local_data(below, p).e * (float(p) ** local_data(
            below, p).f + 1.0)) for p in stage.block_primes)
        assert low <= libm <= high
