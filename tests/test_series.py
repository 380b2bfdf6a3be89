import functools
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from splitlab.errors import VerificationError
from splitlab.multiquadratic import MultiquadField, compositum, local_data
from splitlab.primes import PrimeRange, iter_primes
from splitlab import series
from splitlab.series import (
    StabilizationCertificate,
    first_reaching,
    partial_sum,
    segment_terms,
    series_term,
    tail_bound_fully_inert,
    term_ratios,
    tower_sum,
)

Q = MultiquadField.rationals()
GAUSS = MultiquadField.from_generators([-1])


def _segments(p, e, f, sizes):
    """The terms log(p)/(e (p^f + 1)) of the int lists p, e, f with their exact
    ratios, cut into consecutive segments of the given sizes."""
    p, e, f = (np.array(v, dtype=np.int64) for v in (p, e, f))
    cuts = np.cumsum([0, *sizes]).tolist()
    return [(segment_terms(p[i:j], e[i:j], f[i:j]),
             functools.partial(term_ratios, p[i:j], e[i:j], f[i:j]))
            for i, j in zip(cuts, cuts[1:])]


def _q_segments(primes, sizes=None):
    """Over Q, where every prime splits: the terms log(p)/(p + 1)."""
    ones = [1] * len(primes)
    return _segments(primes, ones, ones, [len(primes)] if sizes is None else sizes)


def _decimal_prefixes(p, e, f):
    """The real prefix sums of log(p)/(e (p^f + 1)) at 50 digits, from the empty one."""
    sums = [Decimal(0)]
    with localcontext(prec=50):
        for q, ramification, degree in zip(p, e, f):
            sums.append(sums[-1] + Decimal(q).ln() / (ramification * (q**degree + 1)))
    return sums


class TestFirstReaching:
    PRIMES = list(iter_primes(2, 200))

    def test_minimal_prefix(self):
        terms = [series_term(Q, p) for p in (2, 3, 5, 7)]  # 0.231, 0.275, 0.268, 0.243
        for target, k in ((0.8, 4), (0.5, 2), (0.1, 1)):
            got = first_reaching(_q_segments([2, 3, 5, 7]), target)
            assert got == (k, math.fsum(terms[:k]), True)

    def test_target_at_a_prefix_fsum_is_decided_on_the_real_sum(self):
        # A prefix's fsum lies inside its own enclosure, so each of these
        # targets is decided by the decimal re-sum, never by the fsum.
        terms = _q_segments(self.PRIMES)[0][0].tolist()
        real = _decimal_prefixes(self.PRIMES, [1] * len(terms), [1] * len(terms))
        for k in range(1, len(terms)):
            target = math.fsum(terms[:k])
            want = k if real[k] >= Decimal(target) else k + 1
            assert first_reaching(_q_segments(self.PRIMES), target) == (
                want, math.fsum(terms[:want]), True)

    def test_unreachable_target(self):
        terms = [series_term(Q, p) for p in (2, 3)]
        assert first_reaching(_q_segments([2, 3]), 0.6) == (2, math.fsum(terms), False)
        assert first_reaching([], 1.0) == (0, 0.0, False)
        assert first_reaching(_q_segments([], [0, 0]), 1.0) == (0, 0.0, False)

    def test_single_term(self):
        term = series_term(Q, 2)
        low, high = series.enclosure(term)
        assert first_reaching(_q_segments([2]), low) == (1, term, True)
        assert first_reaching(_q_segments([2]), math.nextafter(high, math.inf)) == (
            1, term, False)

    def test_matches_a_linear_scan_of_decimal_prefixes(self):
        # However the terms are cut, the crossing is the first prefix whose
        # real sum reaches the target.  Half the targets sit on a prefix's
        # fsum, where only the decimal re-sum decides.
        rng = random.Random(25)
        primes = list(iter_primes(2, 5000))
        for _ in range(40):
            n = rng.randint(1, 60)
            start = rng.randrange(len(primes) - n)
            p = primes[start : start + n]
            e, f = [rng.choice((1, 2)) for _ in p], [rng.choice((1, 2)) for _ in p]
            terms = segment_terms(*(np.array(v, dtype=np.int64) for v in (p, e, f))).tolist()
            if rng.random() < 0.5:
                target = math.fsum(terms[: rng.randint(1, n)])
            else:
                target = math.fsum(terms) * rng.uniform(0.01, 1.2)
            real = _decimal_prefixes(p, e, f)
            k = next((j for j in range(1, n + 1) if real[j] >= Decimal(target)), None)
            want = (n, math.fsum(terms), False) if k is None else (
                k, math.fsum(terms[:k]), True)
            cuts = rng.sample(range(1, n), min(n - 1, rng.randint(1, 6)))
            sizes = [j - i for i, j in zip([0, *sorted(cuts)], [*sorted(cuts), n])]
            for cut in ([n], sizes, [1] * n):
                assert first_reaching(_segments(p, e, f, cut), target) == want, (p, cut)

    def test_pulls_no_segment_after_the_crossing_one(self):
        pulled = []

        def stream():
            for i, segment in enumerate(_q_segments(self.PRIMES, [10] * 4 + [6])):
                pulled.append(i)
                yield segment

        terms = [series_term(Q, p) for p in self.PRIMES]
        target = math.fsum(terms[:15]) + 0.01  # reached at the 16th term, in segment 1
        assert first_reaching(stream(), target) == (16, math.fsum(terms[:16]), True)
        assert pulled == [0, 1]


class TestSeriesTerm:
    def test_examples(self):
        assert series_term(Q, 3) == pytest.approx(math.log(3) / 4, abs=1e-15)
        assert series_term(GAUSS, 3) == pytest.approx(math.log(3) / 10, abs=1e-15)
        five = MultiquadField.from_generators([5])
        assert series_term(five, 5) == pytest.approx(math.log(5) / 12, abs=1e-15)

    def test_terms_positive(self):
        field = MultiquadField.from_generators([-2, 15])
        for p in (2, 3, 5, 7, 11, 13):
            assert series_term(field, p) > 0

    def test_adjoining_never_increases_terms(self):
        rng = random.Random(7)
        atoms = [-1, 2, -3, 5, 7, -11, 13]
        for _ in range(50):
            gens = rng.sample(atoms, rng.randint(0, 3))
            small = MultiquadField.from_generators(gens)
            large = small.adjoin(rng.choice(atoms))
            p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23])
            assert series_term(large, p) <= series_term(small, p) + 1e-18


class TestPartialSum:
    def test_two_terms(self):
        report = partial_sum(Q, PrimeRange(2, 3))
        assert report.partial_sum == pytest.approx(math.log(2) / 3 + math.log(3) / 4, abs=1e-15)

    def test_single_inert_term(self):
        report = partial_sum(GAUSS, PrimeRange(3, 3))
        assert report.partial_sum == pytest.approx(math.log(3) / 10, abs=1e-15)

    def test_empty_range(self):
        assert partial_sum(GAUSS, PrimeRange(24, 28)).partial_sum == 0.0

    def test_odd_only_flag(self):
        with_two = partial_sum(Q, PrimeRange(2, 100))
        odd_only = partial_sum(Q, PrimeRange(2, 100), include_two=False)
        assert with_two.partial_sum - odd_only.partial_sum == pytest.approx(
            math.log(2) / 3, abs=1e-15
        )

    def test_monotone_in_range(self):
        a = partial_sum(GAUSS, PrimeRange(2, 1000)).partial_sum
        b = partial_sum(GAUSS, PrimeRange(2, 5000)).partial_sum
        assert b > a

    def test_equals_fsum_of_series_terms(self):
        # the ranges cross sieve segment boundaries (every 2**18 integers)
        for gens, lo, hi in (
            ([], 2, 300_000),
            ([-1, 2, 15], 3, 600_000),
            ([-6, 7, 262_147], 250_000, 530_000),
        ):
            field = MultiquadField.from_generators(gens)
            want = math.fsum(series_term(field, p) for p in iter_primes(lo, hi))
            assert partial_sum(field, PrimeRange(lo, hi)).partial_sum == want

    def test_terms_bit_identical_where_float_squares_round(self):
        # Past 94,906,265 the float64 square p * p is inexact, and for many
        # primes it rounds differently from float(p) ** 2 (the first is
        # 94,906,297); f = 2 terms there must still equal series_term.
        field = MultiquadField.from_generators([-1, 2, 3, 5, 7])
        report = partial_sum(field, PrimeRange(94_906_000, 95_000_000), with_terms=True)
        terms = report.per_prime_terms
        assert [(p, e, f, series_term(field, p)) for p, e, f, _ in terms] == list(terms)
        assert (94_906_297, 1, 2) in [t[:3] for t in terms]
        assert sum(f == 2 for _, _, f, _ in terms) > 0.9 * len(terms)
        assert any(f == 2 and float(p) * float(p) != float(p) ** 2 for p, _, f, _ in terms)

    def test_per_prime_terms(self):
        report = partial_sum(GAUSS, PrimeRange(2, 13), with_terms=True)
        assert [t[:3] for t in report.per_prime_terms] == [
            (2, 2, 1),
            (3, 1, 2),
            (5, 1, 1),
            (7, 1, 2),
            (11, 1, 2),
            (13, 1, 1),
        ]
        assert report.partial_sum == pytest.approx(
            math.fsum(t[3] for t in report.per_prime_terms), abs=1e-14
        )


class TestTailBound:
    def test_closed_forms(self):
        assert tail_bound_fully_inert(10**6) == pytest.approx(
            (math.log(10**6) + 1) / 10**6, abs=1e-18
        )
        assert tail_bound_fully_inert(2) == pytest.approx((math.log(2) + 1) / 2, abs=1e-15)

    def test_monotone(self):
        assert tail_bound_fully_inert(10**7) < tail_bound_fully_inert(10**6)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            tail_bound_fully_inert(1)

    def test_actually_bounds_the_tail(self):
        # compare against the true inert-series remainder summed to 10^6
        for start in (10, 100, 1000):
            tail = math.fsum(
                math.log(p) / (p * p + 1)
                for p in iter_primes(start + 1, 10**6)
            )
            assert tail < tail_bound_fully_inert(start)


def scalar_tower_sum(stages, rng, certificates, residue_filter=None):
    """tower_sum by its definition, one prime and one stage at a time."""
    stage_of = {c.prime: c.stage for c in certificates}
    primes = [
        p for p in iter_primes(rng.lo, rng.hi)
        if residue_filter is None or p % residue_filter[1] == residue_filter[0]
    ]
    missing = [p for p in primes if p not in stage_of]
    if missing:
        raise ValueError(
            "unstabilized primes in range (no certificate): "
            + ", ".join(map(str, missing[:20])) + ("..." if len(missing) > 20 else "")
        )
    for p in primes:
        data = local_data(stages[stage_of[p]], p)
        for later in range(stage_of[p] + 1, len(stages)):
            other = local_data(stages[later], p)
            if (other.e, other.f) != (data.e, data.f):
                raise VerificationError(
                    f"stabilization certificate for p={p} at stage {stage_of[p]} is "
                    f"contradicted at stage {later}"
                )
    return math.fsum(series_term(stages[stage_of[p]], p) for p in primes)


def stable_stage(stages, p):
    """The first stage from which p's (e, f) no longer changes."""
    data = [(d.e, d.f) for d in (local_data(field, p) for field in stages)]
    return max((k for k in range(1, len(stages)) if data[k] != data[k - 1]), default=0)


# 4099 and 65537 lie above scan._TABLE_BELOW, so they take the Euler criterion.
TOWER_ATOMS = [-1, 2, -2, 3, 5, -5, 7, 11, 13, -15, 17, 4099, 65537]


class TestTowerSum:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("residue_filter", [None, (3, 4), (1, 8)])
    def test_matches_its_scalar_definition(self, seed, residue_filter):
        # Ranges straddle the end of the first sieve segment (2**10 integers).
        rnd = random.Random(seed)
        stages = [Q]
        for _ in range(rnd.randint(1, 3)):
            stages.append(stages[-1].adjoin(rnd.choice(TOWER_ATOMS)))
        rng = PrimeRange(rnd.randint(2, 600), rnd.randint(1100, 3000))
        stable = {p: stable_stage(stages, p) for p in iter_primes(rng.lo, rng.hi)}
        certs = [
            StabilizationCertificate(p, rnd.randint(s, len(stages) - 1))
            for p, s in stable.items()
        ]
        kind = seed % 4  # honest, then contradicted, uncertified, or both
        changing = [i for i, c in enumerate(certs) if stable[c.prime] > 0]
        for _ in range(rnd.randint(1, 5) if kind else 0):
            if kind in (1, 3):
                i = rnd.choice(changing)
                certs[i] = StabilizationCertificate(
                    certs[i].prime, rnd.randrange(stable[certs[i].prime])
                )
            if kind in (2, 3):
                del certs[rnd.randrange(len(certs))]
                changing = [i for i, c in enumerate(certs) if stable[c.prime] > 0]
        try:
            want = scalar_tower_sum(stages, rng, certs, residue_filter)
        except (ValueError, VerificationError) as exc:
            with pytest.raises(type(exc)) as got:
                tower_sum(stages, rng, certs, residue_filter=residue_filter)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            report = tower_sum(stages, rng, certs, residue_filter=residue_filter)
            assert report.partial_sum == want
            assert report.field_degree == stages[-1].degree

    def test_degenerate_tower_equals_partial_sum(self):
        rng = PrimeRange(2, 200)
        certs = [StabilizationCertificate(p, 0) for p in iter_primes(2, 200)]
        report = tower_sum([GAUSS], rng, certs)
        assert report.partial_sum == partial_sum(GAUSS, rng).partial_sum

    def test_certificates_at_the_right_stage(self):
        stages = [Q, MultiquadField.from_generators([17])]
        # 17 = 1 mod 8: the prime 2 splits at stage 1, so its term stabilizes at stage 0
        certs = [StabilizationCertificate(2, 0)]
        report = tower_sum(stages, PrimeRange(2, 2), certs)
        assert report.partial_sum == pytest.approx(math.log(2) / 3, abs=1e-15)

    def test_missing_certificate_raises(self):
        with pytest.raises(ValueError, match="unstabilized"):
            tower_sum([Q], PrimeRange(2, 10), [StabilizationCertificate(2, 0)])
        with pytest.raises(ValueError, match=r"\(no certificate\): 2, 3, 5, 7$"):
            tower_sum([], PrimeRange(2, 10), [])  # no stage field certifies anything

    def test_no_stages_and_no_primes_is_q(self):
        report = tower_sum([], PrimeRange(24, 28), [])
        assert (report.field_degree, report.partial_sum) == (1, 0.0)

    def test_out_of_range_stage_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tower_sum([Q], PrimeRange(2, 2), [StabilizationCertificate(2, 1)])

    def test_contradicted_certificate_raises(self):
        # 3 is inert in Q(i): its local data changes from Q, so stage-0
        # stabilization is a lie and must be caught
        stages = [Q, GAUSS]
        with pytest.raises(VerificationError, match="contradicted"):
            tower_sum(stages, PrimeRange(3, 3), [StabilizationCertificate(3, 0)])

    def test_residue_filter(self):
        certs = [StabilizationCertificate(p, 0) for p in iter_primes(2, 100) if p % 4 == 3]
        report = tower_sum([GAUSS], PrimeRange(2, 100), certs, residue_filter=(3, 4))
        expected = math.fsum(
            math.log(p) / (p * p + 1) for p in iter_primes(2, 100) if p % 4 == 3
        )
        assert report.partial_sum == pytest.approx(expected, abs=1e-14)


class TestCompositumBound:
    def test_min_term_inequality(self):
        rng = random.Random(1234)
        atoms = [-1, 2, -2, 3, -3, 5, -5, 7, 11, -13, 15, 6]
        for _ in range(25):
            left = MultiquadField.from_generators(rng.sample(atoms, rng.randint(1, 3)))
            right = MultiquadField.from_generators(rng.sample(atoms, rng.randint(1, 3)))
            both = compositum(left, right)
            primes = list(iter_primes(2, 2000))
            lhs = math.fsum(series_term(both, p) for p in primes)
            rhs = math.fsum(min(series_term(left, p), series_term(right, p)) for p in primes)
            assert lhs <= rhs + 1e-10
