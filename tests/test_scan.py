"""The vectorised scan kernel against the scalar local_data oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlab import scan as scan_module
from splitlab.multiquadratic import MultiquadField, local_data, totally_split
from splitlab.primes import _SEGMENT, INT64_EXACT_BELOW, PrimeRange, iter_primes, kronecker
from splitlab.quadratic import SquarefreeInt
from splitlab.scan import _TABLE_BELOW, scan
from splitlab.series import partial_sum, series_term

# Generators as (sign, prime divisors), so that no test pays for factoring.
GENERATORS = [
    SquarefreeInt.from_prime_factors(sign, primes)
    for sign, primes in [
        (-1, ()),
        (1, (2,)),
        (1, (3,)),
        (1, (5,)),
        (1, (7,)),
        (1, (13,)),
        (1, (4093,)),  # the largest prime with a lookup table
        (1, (4099,)),  # the smallest prime on the Euler criterion
        (1, (262_147,)),  # ramified just past the first segment boundary
        (1, (460_322_471_827,)),  # 39 bits
        (1, (2**89 - 1,)),  # a Mersenne prime beyond 64 bits
        (-1, (2**61 - 1,)),
        (1, (3, 5)),
        (-1, (2, 3)),
        (-1, (5, 7)),
    ]
]
assert 4093 < _TABLE_BELOW < 4099


@st.composite
def fields(draw):
    return MultiquadField.from_generators(
        draw(st.lists(st.sampled_from(GENERATORS), max_size=5))
    )


@st.composite
def ranges(draw):
    kind = draw(st.sampled_from(["from_two", "odd_start", "boundary"]))
    if kind == "from_two":
        return 2, draw(st.integers(2, 4000))
    if kind == "odd_start":
        lo = draw(st.integers(3, 40_000))
        return lo, lo + draw(st.integers(0, 4000))
    return (
        draw(st.integers(_SEGMENT - 3000, _SEGMENT)),
        draw(st.integers(_SEGMENT, _SEGMENT + 3000)),
    )


def _kernel_rows(field, lo, hi, **kwargs):
    rows = []
    for p, e, f in scan(field, lo, hi, **kwargs):
        assert len(p) == len(e) == len(f)
        rows.extend(zip(p.tolist(), e.tolist(), f.tolist()))
    return rows


def _scalar_rows(field, lo, hi, **kwargs):
    rows = []
    for p in iter_primes(lo, hi, ceiling=kwargs.get("sieve_ceiling", 10**8)):
        data = local_data(field, p)
        rows.append((p, data.e, data.f))
    return rows


@settings(max_examples=200, deadline=None)
@given(fields(), ranges())
def test_kernel_equals_scalar_local_data(field, bounds):
    lo, hi = bounds
    rows = _kernel_rows(field, lo, hi)
    assert rows == _scalar_rows(field, lo, hi)
    for p, e, f in rows:
        assert (e == 1 and f == 1) == totally_split(field, p)


@settings(max_examples=60, deadline=None)
@given(fields(), ranges())
def test_partial_sum_terms_match_scalar_loop(field, bounds):
    lo, hi = bounds
    report = partial_sum(field, PrimeRange(lo, hi), include_two=False, with_terms=True)
    want = []
    for p in iter_primes(max(lo, 3), hi):
        data = local_data(field, p)
        want.append((p, data.e, data.f, series_term(field, p)))
    assert list(report.per_prime_terms) == want
    assert report.partial_sum == math.fsum(t[3] for t in want)


@pytest.mark.parametrize("middle", [INT64_EXACT_BELOW, 2**32])
def test_primes_past_int64_squaring_take_the_scalar_path(middle):
    # Euler's criterion in int64 overflows past the bound, and near 2**32
    # almost every product does; the kernel hands those primes to local_data.
    field = MultiquadField.from_generators([GENERATORS[i] for i in (0, 2, 7, 9)])
    lo, hi = middle - 2000, middle + 2000
    rows = _kernel_rows(field, lo, hi, sieve_ceiling=hi)
    assert any(p < middle for p, _, _ in rows) and any(p >= middle for p, _, _ in rows)
    assert rows == _scalar_rows(field, lo, hi, sieve_ceiling=hi)


def test_empty_range_yields_nothing():
    assert _kernel_rows(MultiquadField.from_generators([5]), 24, 28) == []


BIG = 460_322_471_827  # 39 bits


def _generator(sign, primes):
    return SquarefreeInt.from_prime_factors(sign, primes)


@pytest.mark.parametrize(
    "generators",
    [
        # two big atoms beside tabled generators
        [(-1, ()), (1, (3,)), (1, (2**61 - 1,)), (1, (BIG,))],
        # a generator mixing a big atom with tabled atoms: -5 * BIG
        [(1, (7,)), (-1, (5, BIG)), (1, (13,))],
        # two big atoms in one generator, one of them also alone
        [(1, (11,)), (1, (2**61 - 1, BIG)), (-1, (BIG,))],
        # only big-atom generators, so every prime reaches the Euler criterion
        [(1, (2**61 - 1,)), (-1, (BIG,)), (1, (2**89 - 1,))],
    ],
)
@pytest.mark.parametrize("bounds", [(2, 20_000), (_SEGMENT - 3000, _SEGMENT + 3000)])
def test_big_atoms_against_scalar_local_data(generators, bounds):
    field = MultiquadField.from_generators([_generator(*g) for g in generators])
    assert _kernel_rows(field, *bounds) == _scalar_rows(field, *bounds)


def test_euler_criterion_skips_inert_primes(monkeypatch):
    # Once a tabled generator makes p inert, f = 2 whatever the big atom says,
    # so the Euler criterion sees only the primes all four small ones split:
    # about 1/16 of them.
    asked = []
    euler = scan_module._euler_is_nonresidue

    def counting(limbs, p):
        asked.append(len(p))
        return euler(limbs, p)

    monkeypatch.setattr(scan_module, "_euler_is_nonresidue", counting)
    field = MultiquadField.from_generators([_generator(1, (q,)) for q in (5, 7, 11, 19, BIG)])
    scanned = sum(len(p) for p, _, _ in scan(field, 2, 10**6))
    assert 0 < sum(asked) <= scanned / 8


def test_jacobi_tables_are_shared_read_only():
    # Tables are cached across scans, so no caller may write into one.
    table = scan_module._jacobi_table(7)
    assert scan_module._jacobi_table(7) is table
    with pytest.raises(ValueError):
        table[1] = 0


def test_jacobi_tables_equal_kronecker():
    # Every atom with a table: -1 and each prime below _TABLE_BELOW.
    atoms = [-1, *iter_primes(2, _TABLE_BELOW - 1)]
    assert len(atoms) == 565
    for a in atoms:
        table = scan_module._jacobi_table.__wrapped__(a)
        assert len(table) == 4 * abs(a) and not table[::2].any()
        assert table[1::2].tolist() == [kronecker(a, r) for r in range(1, len(table), 2)], a
