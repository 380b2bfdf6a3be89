import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlab.multiquadratic import (
    MultiquadField,
    compositum,
    is_totally_real,
    linearly_disjoint,
    local_data,
    totally_split,
)
from splitlab.quadratic import SplittingType, local_data_quadratic, splitting_type, two_adic_class
from splitlab.primes import kronecker


def primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def oracle_local_data_odd(field, p):
    """Exhaustive scan of the nontrivial square classes (odd p)."""
    classes = [c.value for c in field.square_classes()]
    e = 2 if any(c % p == 0 for c in classes) else 1
    f = 2 if any(c % p and kronecker(c, p) == -1 for c in classes) else 1
    return e, f, field.degree // (e * f)


def oracle_local_data_two(field):
    """Distinct 2-adic square classes across the whole group."""
    images = {two_adic_class(1)}
    for c in field.square_classes():
        images.add(two_adic_class(c.value))
    ef = len(images)
    f = 2 if 5 in images else 1
    return ef // f, f, field.degree // ef


GENERATORS = [-1, 2, -2, 3, -3, 5, -5, 7, -7]


def small_fields(max_rank=3, atoms=GENERATORS):
    for size in range(max_rank + 1):
        for combo in itertools.combinations(atoms, size):
            yield MultiquadField.from_generators(combo)


class TestCanonicalBasis:
    def test_rationals(self):
        q = MultiquadField.rationals()
        assert q.basis == () and q.degree == 1

    def test_adjoin_first_generator(self):
        f = MultiquadField.rationals().adjoin(2)
        assert [b.value for b in f.basis] == [2]

    def test_adjoin_dependent_class_is_noop(self):
        f = MultiquadField.from_generators([2, 3])
        assert f.adjoin(6) == f

    def test_adjoin_sign_class(self):
        f = MultiquadField.from_generators([2]).adjoin(-1)
        assert [b.value for b in f.basis] == [-1, 2]
        assert f.degree == 4

    def test_canonical_independent_of_order(self):
        for gens in itertools.permutations([-2, 15, 6]):
            assert MultiquadField.from_generators(gens) == MultiquadField.from_generators([-2, 15, 6])

    def test_trivial_generator_dropped(self):
        assert MultiquadField.from_generators([1, 2]).degree == 2

    def test_degree_counts_independent_classes(self):
        assert MultiquadField.from_generators([2, 3, 6]).degree == 4
        assert MultiquadField.from_generators([2, 3, 5]).degree == 8


class TestMembership:
    @pytest.mark.parametrize(
        "gens,m,expected",
        [([2, 3], 6, True), ([2, 3], 5, False), ([-1, 2], -2, True)],
    )
    def test_examples(self, gens, m, expected):
        assert MultiquadField.from_generators(gens).contains_sqrt(m) is expected

    def test_every_square_class_is_contained(self):
        field = MultiquadField.from_generators([-1, 2, 7])
        for c in field.square_classes():
            assert field.contains_sqrt(c)

    def test_disjointness_examples(self):
        assert linearly_disjoint(
            MultiquadField.from_generators([2]), MultiquadField.from_generators([3])
        )
        assert not linearly_disjoint(
            MultiquadField.from_generators([2, 3]), MultiquadField.from_generators([6])
        )
        assert linearly_disjoint(
            MultiquadField.rationals(), MultiquadField.from_generators([5])
        )

    def test_disjoint_iff_compositum_degree_multiplies(self):
        fields = [
            MultiquadField.from_generators(g)
            for g in ([2], [3], [6], [2, 3], [-1], [-6], [5, 7])
        ]
        for left, right in itertools.combinations(fields, 2):
            both = compositum(left, right)
            assert linearly_disjoint(left, right) == (
                both.degree == left.degree * right.degree
            )


class TestTotallyReal:
    def test_examples(self):
        assert is_totally_real(MultiquadField.from_generators([2, 5]))
        assert not is_totally_real(MultiquadField.from_generators([-1]))
        assert not is_totally_real(MultiquadField.from_generators([-2, -3]))

    def test_matches_class_scan(self):
        for field in small_fields(max_rank=2):
            by_scan = all(c.value > 0 for c in field.square_classes())
            assert is_totally_real(field) == by_scan


class TestTwoAdicClasses:
    def test_the_eight_representatives_are_fixed(self):
        for rep in (1, 5, -1, -5, 2, 10, -2, -10):
            assert two_adic_class(rep) == rep

    def test_squares_collapse(self):
        # odd squares are trivial 2-adically; 9m lands in the class of m
        for m in (1, 5, -1, -5, 2, 10, -2, -10):
            assert two_adic_class(9 * m) == two_adic_class(m)

    @pytest.mark.parametrize(
        "m,expected",
        [(7, -1), (3, -5), (13, 5), (17, 1), (6, -10), (-6, 10), (14, -2), (-14, 2)],
    )
    def test_small_values(self, m, expected):
        assert two_adic_class(m) == expected


class TestLocalData:
    @pytest.mark.parametrize(
        "gens,p,expected",
        [
            ([2, 5], 41, (1, 1, 4)),
            ([2, 5], 5, (2, 2, 1)),
            ([-1], 2, (2, 1, 1)),
            ([-1, 2], 2, (4, 1, 1)),
        ],
    )
    def test_examples(self, gens, p, expected):
        data = local_data(MultiquadField.from_generators(gens), p)
        assert (data.e, data.f, data.g) == expected

    def test_rank_one_agrees_with_quadratic(self):
        # every squarefree m != 1 with |m| < 200: each odd residue mod 8, even
        # and negative m, all eight 2-adic classes, so both APIs are held to
        # one rule at p = 2
        squarefree = [m for m in range(-199, 200) if m not in (0, 1)
                      and all(m % (d * d) for d in range(2, 15))]
        assert len({two_adic_class(m) for m in squarefree}) == 8
        for m in squarefree:
            field = MultiquadField.from_generators([m])
            for p in primes_below(100):
                assert local_data(field, p) == local_data_quadratic(field.basis[0], p)

    def test_oracle_agreement_odd_primes(self):
        for field in small_fields(max_rank=3, atoms=[-1, 2, -3, 5, -7]):
            for p in primes_below(60)[1:]:
                data = local_data(field, p)
                assert (data.e, data.f, data.g) == oracle_local_data_odd(field, p)

    def test_oracle_agreement_at_two(self):
        for field in small_fields(max_rank=3):
            data = local_data(field, 2)
            assert (data.e, data.f, data.g) == oracle_local_data_two(field)

    def test_product_equals_degree(self):
        for field in small_fields(max_rank=3):
            for p in primes_below(40):
                assert local_data(field, p).degree == field.degree

    @given(
        gens=st.lists(st.sampled_from(GENERATORS), min_size=0, max_size=4),
        extra=st.sampled_from(GENERATORS),
        p=st.sampled_from(primes_below(300)),
    )
    @settings(max_examples=400)
    def test_tower_monotone(self, gens, extra, p):
        small = MultiquadField.from_generators(gens)
        large = small.adjoin(extra)
        a, b = local_data(small, p), local_data(large, p)
        assert b.e >= a.e and b.f >= a.f


class TestTotallySplit:
    def test_examples(self):
        assert totally_split(MultiquadField.from_generators([2, 5]), 41)
        assert totally_split(MultiquadField.from_generators([-1]), 13)
        assert not totally_split(MultiquadField.from_generators([2]), 3)

    def test_equals_full_local_data(self):
        for field in small_fields(max_rank=3, atoms=[-1, 2, 3, -5, 7]):
            for p in primes_below(60):
                expected = local_data(field, p) .g == field.degree
                assert totally_split(field, p) == expected

    def test_compositum_rule(self):
        # split in both factors iff split in the compositum
        pairs = [([2], [5]), ([-1], [2]), ([3, 5], [7]), ([-2], [-3])]
        for left_gens, right_gens in pairs:
            left = MultiquadField.from_generators(left_gens)
            right = MultiquadField.from_generators(right_gens)
            both = compositum(left, right)
            for p in primes_below(200):
                assert totally_split(both, p) == (
                    totally_split(left, p) and totally_split(right, p)
                )

    def test_split_iff_every_generator_splits(self):
        field = MultiquadField.from_generators([-1, 2, 5])
        for p in primes_below(300):
            by_generators = all(
                splitting_type(b, p) is SplittingType.SPLIT for b in field.basis
            )
            assert totally_split(field, p) == by_generators


class TestAgainstPolynomialFactorization:
    def test_unramified_local_data_matches_dedekind(self):
        # Independent route: factor the minimal polynomial of a primitive
        # element mod p.  Away from the polynomial discriminant the factor
        # degrees are the inertia degrees and the factor count is g.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for gens in ([2, 5], [-1, 2], [-2, -3], [3, 7], [-1, 3], [2, 3, 5], [-1, 2, 5]):
            theta = sum(sympy.sqrt(m) for m in gens)
            poly = sympy.Poly(sympy.minimal_polynomial(theta, x), x)
            disc = int(poly.discriminant())
            field = MultiquadField.from_generators(gens)
            assert poly.degree() == field.degree
            for p in primes_below(60)[1:]:
                if disc % p == 0:
                    continue
                fp = sympy.Poly(poly.as_expr(), x, modulus=p)
                degrees = sorted(
                    sympy.Poly(f, x).degree()
                    for f, mult in fp.factor_list()[1]
                    for _ in range(mult)
                )
                data = local_data(field, p)
                assert data.e == 1
                assert degrees == [data.f] * data.g, (gens, p)
