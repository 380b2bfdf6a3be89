import ctypes
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import splitlab.primes as primes_mod
from splitlab.constructions import SIGNATURE_COMPLEX, SplittingSpec, construct_prescribed_quadratic
from splitlab.errors import ResourceBudgetError
from splitlab.primes import (
    MR_PROVEN_BOUND,
    PROBABLE,
    PROVED,
    FactoredInt,
    PrimeRange,
    crt_solve,
    find_prime_in_ap,
    is_prime,
    iter_primes,
    kronecker,
    prime_segments,
    primality,
    sieve_primes,
    smallest_nonresidue,
    squarefree_kernel,
)
from splitlab.traceio import quadratic_doc, verify_with_primality


# Primes of 64, 271, 830 and 4800 bits, on both sides of GMP_MIN_BITS. Each
# 2**(b-1) + k is the first prime of its form, checked with sympy.isprime.
SIZED_PRIMES = (2**63 + 29, 2**270 + 127, 2**829 + 197, 2**4799 + 755)
MODEXP_SAMPLES = (
    list(range(2, 600))
    + [3215031751, 2**61 - 1, 10**18 + 9, 10**24 + 7, 10**24 + 9]
    + [10**25 + 13, 10**25 + 11, (10**13 + 37) * (10**13 + 61)]
    + [6 * 10**40 + k for k in range(40)]
    + [(2**399 + 51) * (2**399 + 485)]  # product of two 400-bit primes
    + list(SIZED_PRIMES)
)


def powmod(a, e, n):
    """a**e mod n by one power in a _residues(n) block, as Miller-Rabin takes it."""
    with primes_mod._residues(n) as ring:
        return ring.to_int(ring.pow(ring.value(a), e))


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def legendre_by_squares(a, p):
    if a % p == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a % p in squares else -1


class TestPrimeRange:
    def test_first_primes(self):
        assert sieve_primes(PrimeRange(2, 10)) == [2, 3, 5, 7]

    def test_mid_range(self):
        assert sieve_primes(PrimeRange(90, 100)) == trial_division_primes(90, 100) == [97]

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="invalid prime range"):
            PrimeRange(3, 2)

    def test_lo_below_two_rejected(self):
        with pytest.raises(ValueError, match="invalid prime range"):
            PrimeRange(1, 5)

    def test_empty_range_is_fine(self):
        assert sieve_primes(PrimeRange(24, 28)) == []

    def test_ceiling_enforced(self):
        with pytest.raises(ResourceBudgetError, match="ceiling 1000"):
            sieve_primes(PrimeRange(2, 2000), ceiling=1000)

    def test_agrees_with_trial_division(self):
        assert sieve_primes(PrimeRange(2, 1000)) == trial_division_primes(2, 1000)

    def test_segment_boundaries(self):
        whole = sieve_primes(PrimeRange(2, 10_000))
        split = sieve_primes(PrimeRange(2, 4999)) + sieve_primes(PrimeRange(5000, 10_000))
        assert whole == split

    def test_segments_grow_geometrically(self):
        # spans of 2^10, 2^12, 2^14, 2^16 integers, then 2^18 each
        lo, hi = 1000, 1000 + (1 << 10) + (1 << 12) + (1 << 14) + (1 << 16) + 3 * (1 << 18)
        segments = [s.tolist() for s in prime_segments(lo, hi)]
        edges = [lo]
        for size in [1 << 10, 1 << 12, 1 << 14, 1 << 16] + [1 << 18] * 3:
            edges.append(edges[-1] + size)
        assert len(segments) == len(edges) - 1
        for seg, start, stop in zip(segments, edges, edges[1:]):
            assert seg == sieve_primes(PrimeRange(start, stop - 1))


def _concatenated(lo, hi):
    return [p for segment in prime_segments(lo, hi) for p in segment.tolist()]


def _segment_edges(lo, count):
    """Where the second and each later segment of a prime_segments(lo, ...) call
    starts, for count segments after the first."""
    edges, size = [], 1 << 10
    for _ in range(count):
        edges.append((edges[-1] if edges else lo) + size)
        size = min(4 * size, 1 << 18)
    return edges


class TestPrimeSegments:
    """The odd-only sieve against sympy's primerange, an independent oracle."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10**8 - 10**5), st.integers(0, 10**5))
    def test_agrees_with_sympy(self, lo, width):
        assert _concatenated(lo, lo + width) == list(sympy.primerange(lo, lo + width + 1))

    @pytest.mark.parametrize(
        "lo,hi",
        [(2, 2), (2, 100), (3, 3), (3, 100), (4, 4), (4, 100),
         (97, 97), (9973, 9973), (91, 91), (9409, 9409)],
    )
    def test_small_and_single_ranges(self, lo, hi):
        assert _concatenated(lo, hi) == list(sympy.primerange(lo, hi + 1))

    @pytest.mark.parametrize("p", [3, 5, 7, 97])
    @pytest.mark.parametrize("lo", [2, 3, 4])
    def test_hi_at_a_base_prime_square(self, lo, p):
        for hi in (p * p - 1, p * p):
            assert _concatenated(lo, hi) == list(sympy.primerange(lo, hi + 1))
        assert _concatenated(p * p - 1, p * p) == []

    def test_across_every_segment_edge(self):
        # a call's segments end at each edge or exactly at hi; one oracle serves all
        calls = [(lo, hi) for lo in (2, 3, 1000, 1001)
                 for edge in _segment_edges(lo, 5) for hi in (edge - 1, edge, edge + 1000)]
        oracle = list(sympy.primerange(2, max(hi for _, hi in calls) + 1))
        for lo, hi in calls:
            assert _concatenated(lo, hi) == [p for p in oracle if lo <= p <= hi]

    def test_base_primes_come_from_one_cached_table(self):
        # every hi in [2^18, 2^20) takes its base primes from the 2^10 table
        list(prime_segments(2, 10**6))
        for lo, hi in [(2, 1 << 18), (1000, 500_000), (400_000, 10**6)]:
            before = primes_mod._sieving_primes.cache_info()
            list(prime_segments(lo, hi))
            after = primes_mod._sieving_primes.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        table = primes_mod._sieving_primes(1 << 10)
        assert not table.flags.writeable
        assert table.tolist() == list(sympy.primerange(2, 1 << 10))


class TestIsPrime:
    @pytest.mark.parametrize("n", [7.9, 2.5, 7.0])
    def test_non_integer_rejected(self, n):
        # int() would truncate 7.9 to the prime 7
        with pytest.raises(TypeError):
            is_prime(n)
        with pytest.raises(TypeError):
            primality(n, [])

    def test_numpy_integers_accepted(self):
        assert is_prime(np.int64(7)) and not is_prime(np.uint32(9))
        assert primality(np.int64(7), []) == PROVED

    def test_small_range_against_sieve(self):
        # past 67**2 = 4489, where trial division alone stops deciding
        marks = set(trial_division_primes(2, 6000))
        for n in range(6000):
            assert is_prime(n) == (n in marks)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
            (3825123056546413051, False),  # strong pseudoprime to 2..23
            (2**61 - 1, True),
            (10**18 + 9, True),
            (10**24 + 7, True),
            (10**24 + 9, False),
            (2521, True),
        ],
    )
    def test_known_values(self, n, expected):
        assert is_prime(n) is expected

    def test_beyond_proven_bound_uses_lucas(self):
        # 10^25 + 13 is prime; its neighbours are not
        assert is_prime(10**25 + 13)
        assert not is_prime(10**25 + 11)
        assert not is_prime((10**13 + 37) * (10**13 + 61))

    def test_pure_python_backend_agrees(self, monkeypatch):
        # Both modexp paths on the same inputs: libgmp above GMP_MIN_BITS,
        # CPython pow below it, and pow everywhere with the GMP handle off.
        import splitlab.primes as primes_mod

        if primes_mod._gmp() is None:
            pytest.skip("libgmp is not installed, so pow is the only modexp path")
        for n in MODEXP_SAMPLES:
            for a in (2, 3, 37):
                assert powmod(a, n - 1, n) == pow(a, n - 1, n), (a, n)
        with_gmp = [is_prime(n) for n in MODEXP_SAMPLES]

        lib, powm_calls = primes_mod._gmp(), []

        class CountingGmp:
            def __getattr__(self, name):
                if name == "__gmpz_powm":
                    powm_calls.append(name)
                return getattr(lib, name)

        monkeypatch.setattr(primes_mod, "_gmp", CountingGmp)
        for n in SIZED_PRIMES:
            assert powmod(2, n - 1, n) == 1
        assert len(powm_calls) == sum(
            n.bit_length() >= primes_mod.GMP_MIN_BITS for n in SIZED_PRIMES
        ) == 3

        monkeypatch.setattr(primes_mod, "_gmp", lambda: None)
        assert [is_prime(n) for n in MODEXP_SAMPLES] == with_gmp
        assert with_gmp[-len(SIZED_PRIMES) :] == [True] * len(SIZED_PRIMES)
        assert [n.bit_length() for n in SIZED_PRIMES] == [64, 271, 830, 4800]

    def test_gmp_powmod_at_every_size(self, monkeypatch):
        import splitlab.primes as primes_mod

        if primes_mod._gmp() is None:
            pytest.skip("libgmp is not installed, so pow is the only modexp path")
        monkeypatch.setattr(primes_mod, "GMP_MIN_BITS", 1)
        rng = random.Random(4)
        for bits in (1, 2, 8, 63, 64, 65, 95, 96, 97, 128, 521, 1024):
            for _ in range(20):
                n = rng.getrandbits(bits) | 1
                a, e = rng.randrange(3 * n), rng.getrandbits(bits + 5)
                assert powmod(a, e, n) == pow(a, e, n), (a, e, n)
            assert powmod(a, 0, n) == pow(a, 0, n)

    def test_both_backends_agree_on_the_tree(self, monkeypatch):
        # The remainder tree and the proofs over it, in libgmp and in pow.
        # Leaf exponents q**(v-1) run from 1 to 2**64 and 5**29 > 2**64, so
        # nodes take both mpz_powm_ui and mpz_powm; x = 0 and x >= n reduce.
        if primes_mod._gmp() is None:
            pytest.skip("libgmp is not installed, so pow is the only modexp path")
        powers = [(2, 2**65), (3, 3**2), (5, 5**30), (2**61 - 1, 2**61 - 1), (7, 7)]

        def tree(x, powers, n):
            with primes_mod._residues(n) as ring:
                leaves = primes_mod._cofactor_powers(ring.value(x), powers, ring)
                return [ring.to_int(y) for y in leaves]

        rng = random.Random(19)
        cases = []
        for bits in (96, 97, 4800):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            for x in (0, 1, rng.randrange(n), n + 5, 3 * n + 2):
                for k in (1, 2, len(powers)):
                    cases.append((x, powers[:k], n))
        # the first primes 1 mod 4 * 3 * 5 * ... * 47 at 96 and 97 bits, and the
        # numbers after them in the progression, most of them composite
        base = [2, *iter_primes(3, 47)]
        modulus = 4 * math.prod(base[1:])
        numbers = [find_prime_in_ap(1, modulus, 2**95) + k * modulus for k in range(12)]
        numbers += [find_prime_in_ap(1, modulus, 2**96) + k * modulus for k in range(12)]
        assert {n.bit_length() for n in numbers} == {96, 97} and min(numbers) > MR_PROVEN_BOUND

        with_gmp = [tree(*case) for case in cases], [primality(n, base) for n in numbers]
        monkeypatch.setattr(primes_mod, "_gmp", lambda: None)
        assert ([tree(*case) for case in cases], [primality(n, base) for n in numbers]) == with_gmp
        for (x, powers, n), leaves in zip(cases, with_gmp[0]):
            f = math.prod(qv for _, qv in powers)
            assert leaves == [pow(x, f // q, n) for q, _ in powers]
        assert with_gmp[1] == [PROVED if is_prime(n) else None for n in numbers]
        assert PROVED in with_gmp[1] and None in with_gmp[1]


def _n_minus_1_primes(n):
    return [p for p, _ in FactoredInt.from_int(n - 1).factors]


# Every prime up to 80, and 4 times their product, a 104-bit modulus: the
# primes 1 mod it lie above MR_PROVEN_BOUND, where the n - 1 proof runs.
SMALL_PRIMES = list(iter_primes(2, 80))
MODULUS = 4 * math.prod(SMALL_PRIMES)


class TestPrimality:
    @pytest.mark.parametrize(
        "n", [3215031751, 41041, 24727, 35, 1037761, 3215031749, 41039])
    def test_proof_step_agrees_with_is_prime(self, n):
        # With n - 1 fully factored, F = n - 1 and F**3 > n: the proof alone
        # decides, so the strong pseudoprime 3215031751 and the Carmichael
        # number 41041 = 7 * 11 * 13 * 41 are refused and the primes proved.
        # 35 passes every check but a**(n-1) = 1, and 1037761 = 19 * 193 * 283
        # every check but gcd(a**((n-1)/q) - 1, n) = 1.
        verdict = primes_mod._prove_by_n_minus_1(n, _n_minus_1_primes(n))
        assert verdict == (PROVED if is_prime(n) else None)

    def test_cube_root_step_refuses_a_composite_pocklington_passes(self):
        # 24727 = 79 * 313 with 78 and 312 both multiples of F = 3 * 13 = 39:
        # Pocklington holds, 39**2 < 24727 < 39**3, and c1**2 - 4*c2 = 16.
        powers = [(13, 13), (3, 3)]
        assert primes_mod._pocklington_holds(24727, powers) is True
        assert 39**2 < 24727 < 39**3
        assert primes_mod._prove_by_n_minus_1(24727, [3, 13]) is None

    def test_structure_decides_the_test(self, monkeypatch):
        # 106 and 259 bits, each p - 1 a multiple of MODULUS
        p1 = find_prime_in_ap(1, MODULUS, MODULUS)
        p2 = find_prime_in_ap(1, MODULUS, MODULUS**2 * math.isqrt(MODULUS))
        p3 = find_prime_in_ap(1, MODULUS, p1)
        cases = [
            (p1, SMALL_PRIMES, PROVED),
            (p2, SMALL_PRIMES, PROVED),
            (p2, [2], PROBABLE),  # the base falls short of F**3 > n
            (2**89 - 1, SMALL_PRIMES, PROBABLE),  # a Mersenne prime: n - 1 lacks F
            (p1 * p3, SMALL_PRIMES, None),
            (p1 * p1, SMALL_PRIMES, None),
            (10**24 + 7, [2], PROVED),  # below MR_PROVEN_BOUND, MR is a proof
            (10**24 + 9, [2], None),
        ]
        assert min(p1, p2, 2**89 - 1) > MR_PROVEN_BOUND
        assert [primality(n, base) for n, base, _ in cases] == [v for _, _, v in cases]
        # Both sides of the optional libgmp branch give the same verdicts.
        monkeypatch.setattr(primes_mod, "_gmp", lambda: None)
        assert [primality(n, base) for n, base, _ in cases] == [v for _, _, v in cases]

    def test_a_proof_converts_n_once_and_clears_every_mpz(self, monkeypatch):
        # Every libgmp call a proof makes, through a counting wrapper: n enters
        # once, as a read-only view, and each mpz initialised is cleared, also
        # when a call inside the tree raises.
        lib = primes_mod._gmp()
        if lib is None:
            pytest.skip("libgmp is not installed, so pow is the only modexp path")
        calls, fail_at = [], []

        class CountingGmp:
            def __getattr__(self, name):
                fn = getattr(lib, name)

                def counted(*args):
                    calls.append((name, args))
                    if name == "__gmpz_powm_ui" and len(calls) in fail_at:
                        raise RuntimeError("libgmp call failed")
                    return fn(*args)
                return counted

        def made(name):
            return sorted(ctypes.addressof(args[0]) for fn, args in calls if fn == name)

        def views_of(n):
            size = (n.bit_length() + 63) // 64
            return [args for fn, args in calls if fn == "__gmpz_roinit_n"
                    and args[2] == size and int.from_bytes(args[1], "little") == n]

        monkeypatch.setattr(primes_mod, "_gmp", CountingGmp)
        p = find_prime_in_ap(1, MODULUS, MODULUS**2)
        calls.clear()
        assert primality(p, SMALL_PRIMES) == PROVED
        assert len(views_of(p)) == 1
        assert len(made("__gmpz_init")) > len(SMALL_PRIMES) and made("__gmpz_init") == made(
            "__gmpz_clear")
        assert not {"__gmpz_import", "__gmpz_export"} & {fn for fn, _ in calls}

        powm_ui_at = [i + 1 for i, (fn, _) in enumerate(calls) if fn == "__gmpz_powm_ui"]
        calls.clear()
        fail_at.append(powm_ui_at[len(powm_ui_at) // 2])  # a node halfway through the tree
        with pytest.raises(RuntimeError, match="libgmp call failed"):
            primality(p, SMALL_PRIMES)
        assert made("__gmpz_init") and made("__gmpz_init") == made("__gmpz_clear")

        # is_prime runs its twelve Miller-Rabin rounds on one view of n too
        fail_at.clear()
        calls.clear()
        assert p.bit_length() >= primes_mod.GMP_MIN_BITS and is_prime(p)
        assert len(views_of(p)) == 1
        assert made("__gmpz_init") and made("__gmpz_init") == made("__gmpz_clear")

    def test_gmp_falls_back_to_pow_when_a_symbol_is_missing(self, monkeypatch):
        if primes_mod._gmp() is None:
            pytest.skip("libgmp is not installed, so pow is the only modexp path")

        class WithoutLimbsRead(ctypes.CDLL):
            def __getattr__(self, name):
                if name == "__gmpz_limbs_read":
                    raise AttributeError(name)
                return super().__getattr__(name)

        monkeypatch.setattr(ctypes, "CDLL", WithoutLimbsRead)
        uncached = primes_mod._gmp.__wrapped__
        assert uncached() is None
        monkeypatch.setattr(primes_mod, "_gmp", uncached)
        p = find_prime_in_ap(1, MODULUS, MODULUS**2)
        assert isinstance(primes_mod._residues(p), primes_mod._IntResidues)
        assert primality(p, SMALL_PRIMES) == PROVED

    def test_complex_signature_generator_is_probable(self):
        # signed = -1 puts t = -1, not 1, mod every split prime, so the split
        # primes do not divide t - 1 and only is_prime can speak for t.
        spec = SplittingSpec(split=SMALL_PRIMES[1:], signature=SIGNATURE_COMPLEX)
        m = construct_prescribed_quadratic(spec)
        t = -m.value
        odd = MODULUS // 8  # the odd split primes
        assert t > MR_PROVEN_BOUND and t % odd == odd - 1
        assert primality(t, [2, *spec.split]) == PROBABLE
        assert verify_with_primality(quadratic_doc(spec, m)) == ([], [PROBABLE])

    def test_factor_base_must_hold_primes(self):
        with pytest.raises(ValueError, match="not a prime"):
            primality(2**89 - 1, [1, 2])


class TestKronecker:
    @pytest.mark.parametrize("a,n,expected", [(5, 11, 1), (3, 7, -1), (7, 7, 0)])
    def test_examples(self, a, n, expected):
        assert kronecker(a, n) == expected

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            kronecker(5, 0)

    def test_legendre_against_square_enumeration(self):
        for p in trial_division_primes(3, 500):
            for a in range(-499, 500):
                assert kronecker(a, p) == legendre_by_squares(a, p), (a, p)

    def test_quadratic_reciprocity(self):
        odd_primes = trial_division_primes(3, 300)
        for p in odd_primes:
            for q in odd_primes:
                if p == q:
                    continue
                sign = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
                assert kronecker(p, q) * kronecker(q, p) == sign

    @given(
        a=st.integers(min_value=-200, max_value=200),
        b=st.integers(min_value=-200, max_value=200),
        n=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=300)
    def test_multiplicative_in_first_argument(self, a, b, n):
        n = 2 * n + 1  # odd modulus
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)

    @given(
        a=st.integers(min_value=-200, max_value=200),
        m=st.integers(min_value=-100, max_value=100).filter(lambda x: x != 0),
        n=st.integers(min_value=-100, max_value=100).filter(lambda x: x != 0),
    )
    @settings(max_examples=300)
    def test_multiplicative_in_second_argument(self, a, m, n):
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    def test_smallest_nonresidue(self):
        assert smallest_nonresidue(3) == 2
        assert smallest_nonresidue(5) == 2
        assert smallest_nonresidue(17) == 3
        for p in trial_division_primes(3, 200):
            a = smallest_nonresidue(p)
            assert legendre_by_squares(a, p) == -1
            for b in range(1, a):
                assert legendre_by_squares(b, p) != -1


class TestCrt:
    def test_example_pair(self):
        # oracle: scan 0..14 for x = 1 mod 3, 2 mod 5
        expected = next(x for x in range(15) if x % 3 == 1 and x % 5 == 2)
        assert crt_solve([(1, 3), (2, 5)]) == (expected, 15) == (7, 15)

    def test_single_congruence(self):
        assert crt_solve([(0, 7)]) == (0, 7)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="4 and 6"):
            crt_solve([(1, 4), (3, 6)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crt_solve([])

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError):
            crt_solve([(0, 1)])

    @given(
        st.lists(
            st.sampled_from([3, 5, 7, 11, 13, 16]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_solution_reduces_to_inputs(self, moduli, rng):
        congruences = [(rng.randrange(m), m) for m in moduli]
        x, big = crt_solve(congruences)
        assert big == math.prod(moduli)
        assert 0 <= x < big
        for r, m in congruences:
            assert x % m == r


def _plain_walk(residue, modulus, floor):
    """The smallest prime = residue (mod modulus) above floor, by is_prime on
    every candidate: the search with no pre-sieve."""
    n = floor + 1 + (residue - floor - 1) % modulus
    while not is_prime(n):
        n += modulus
    return n


@pytest.fixture(params=["gmp", "pow"])
def modexp(request, monkeypatch):
    """Each test twice: with libgmp when it loads, and with CPython pow."""
    if request.param == "pow":
        monkeypatch.setattr(primes_mod, "_gmp", lambda: None)
    return request.param


class TestFindPrimeInAp:
    def test_sieved_search_agrees_with_a_plain_walk(self, modexp):
        # Every progression of modulus up to 36: each lies below the sieve
        # bound, and every odd one holds even candidates.  From floor 0 the
        # answer may be a sieving prime itself; above 10**6 and 2**90 every
        # candidate exceeds the bound and the sieve strikes.
        for modulus in range(1, 37):
            for residue in range(modulus):
                if math.gcd(residue, modulus) != 1:
                    continue
                for floor in (0, 10**6, 2**90):
                    want = _plain_walk(residue, modulus, floor)
                    assert find_prime_in_ap(residue, modulus, floor) == want, (
                        residue, modulus, floor)

    def test_factor_base_search_agrees_with_a_plain_walk(self, modexp):
        # Moduli above the sieve bound; with their primes as the factor base,
        # winners above MR_PROVEN_BOUND are proved, and the search still
        # returns the smallest prime.
        for modulus, base in [(MODULUS, SMALL_PRIMES), (2 * 3**40, [2, 3]),
                              (2**11 * 4099, [2, 4099])]:
            for floor in (0, 10**30, MODULUS**2):
                want = _plain_walk(1, modulus, floor)
                assert find_prime_in_ap(1, modulus, floor, factor_base=base) == want
                assert find_prime_in_ap(1, modulus, floor) == want

    def test_budget_counts_struck_candidates(self, monkeypatch):
        # The odd numbers after 1000003 up to the next prime, 1000033, are 15
        # candidates.  The sieve strikes all 14 composites among them, whose
        # least factors run from 3 to 293, so only the prime is tested.
        tested = []
        survivor_is_prime = primes_mod._survivor_is_prime
        monkeypatch.setattr(primes_mod, "_survivor_is_prime",
                            lambda n, base: tested.append(n) or survivor_is_prime(n, base))
        assert find_prime_in_ap(1, 2, 1000003, budget=15) == 1000033
        assert tested == [1000033]
        with pytest.raises(ResourceBudgetError) as excinfo:
            find_prime_in_ap(1, 2, 1000003, budget=14)
        assert str(excinfo.value) == (
            "scan budget 14 exhausted searching the progression 1 mod 2 above 1000003")

    def test_proof_refuses_a_base_2_strong_pseudoprime(self, modexp, monkeypatch):
        # 2047 = 23 * 89 passes the base-2 round and is 1 mod 2046 = 2*3*11*31.
        # With no sieving prime as large as 23, it reaches the proof, and
        # with MR_PROVEN_BOUND at 0 only the proof decides.
        monkeypatch.setattr(primes_mod, "MR_PROVEN_BOUND", 0)
        monkeypatch.setattr(primes_mod, "_presieve_bound", lambda bits: 19)
        base = [2, 3, 11, 31]
        with primes_mod._residues(2047) as ring:
            assert primes_mod._mr_round(ring, 2047, 2)
        assert primality(2047, base) is None and primality(4093, base) == PROVED
        assert find_prime_in_ap(1, 2046, 1, factor_base=base) == 4093

    def test_examples(self):
        assert find_prime_in_ap(1, 4, 10) == 13
        # winners that are sieving primes themselves: the bound is 2**10 here
        assert find_prime_in_ap(2, 3, 1) == 2
        assert find_prime_in_ap(1021, 2048, 0) == 1021
        assert find_prime_in_ap(0, 1, 1018) == 1019

    def test_gcd_violation_rejected(self):
        with pytest.raises(ValueError, match="not coprime"):
            find_prime_in_ap(3, 6, 0)

    def test_budget_exhaustion(self):
        # 114..118 are all composite
        with pytest.raises(ResourceBudgetError) as excinfo:
            find_prime_in_ap(0, 1, 113, budget=5)
        assert str(excinfo.value) == (
            "scan budget 5 exhausted searching the progression 0 mod 1 above 113")

    def test_strictness_of_min_value(self):
        assert find_prime_in_ap(5, 6, 5) == 11
        assert find_prime_in_ap(5, 6, 4) == 5

    def test_scan_finds_smallest(self):
        for residue, modulus, floor in [(1, 4, 0), (3, 4, 10), (1, 8, 100), (7, 10, 3)]:
            got = find_prime_in_ap(residue, modulus, floor)
            for n in range(floor + 1, got):
                assert not (n % modulus == residue % modulus and is_prime(n))


class TestFactoredInt:
    def test_examples(self):
        assert squarefree_kernel(FactoredInt.from_int(12)).value == 3
        assert squarefree_kernel(FactoredInt.from_int(-50)).value == -2
        assert squarefree_kernel(FactoredInt.from_int(7)).value == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            FactoredInt.from_int(0)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            FactoredInt.from_int(10.5)

    def test_units(self):
        assert FactoredInt.from_int(1).value == 1
        assert FactoredInt.from_int(-1).value == -1

    def test_large_prime_cofactor_accepted(self):
        p = 10**9 + 7
        f = FactoredInt.from_int(12 * p, trial_ceiling=10**4)
        assert f.value == 12 * p
        assert (p, 1) in f.factors

    def test_prime_cofactors_found_without_full_trial_division(self):
        m61, m31 = 2**61 - 1, 2**31 - 1
        assert FactoredInt.from_int(m61).factors == ((m61, 1),)
        f = FactoredInt.from_int(-3 * m61)
        assert (f.sign, f.factors) == (-1, ((3, 1), (m61, 1)))
        assert FactoredInt.from_int(12 * m31).factors == ((2, 2), (3, 1), (m31, 1))

    def test_hard_cofactor_rejected(self):
        n = (10**9 + 7) * (10**9 + 9)
        with pytest.raises(ValueError, match="refusing to guess"):
            FactoredInt.from_int(n, trial_ceiling=10**4)

    @given(st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0))
    @settings(max_examples=300)
    def test_kernel_leaves_square_quotient(self, n):
        f = FactoredInt.from_int(n)
        assert f.value == n
        k = squarefree_kernel(f).value
        q, r = divmod(n, k)
        assert r == 0
        assert math.isqrt(q) ** 2 == q
