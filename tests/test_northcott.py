import math
import random
import re
from decimal import Decimal, localcontext

import pytest

from splitlab import northcott
from splitlab.northcott import northcott_bounds, select_prime_window
from splitlab.primes import iter_primes


class TestBounds:
    def test_single_prime_two(self):
        b = northcott_bounds([2])
        assert b.lower == pytest.approx(math.log(2) / 6, abs=1e-15)
        assert b.upper == pytest.approx(math.log(2), abs=1e-15)

    def test_two_primes(self):
        b = northcott_bounds([2, 3])
        assert b.lower == pytest.approx(math.log(2) / 6 + math.log(3) / 8, abs=1e-15)
        assert b.upper == pytest.approx(math.log(2) + math.log(3) / 2, abs=1e-15)

    def test_monotone_under_extension(self):
        small = northcott_bounds([2, 5])
        large = northcott_bounds([2, 5, 11])
        assert large.lower > small.lower and large.upper > small.upper

    def test_lower_strictly_below_upper(self):
        for primes in ([2], [3, 7], [101], list(iter_primes(2, 100))):
            b = northcott_bounds(primes)
            assert 0 < b.lower < b.upper

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            northcott_bounds([])

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            northcott_bounds([4])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match=r"^prime 2\.5 is not an integer$"):
            northcott_bounds([2.5, 3])
        with pytest.raises(ValueError, match="not an integer"):
            northcott_bounds([3.0])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            northcott_bounds([3, 3])

    def test_input_order_irrelevant(self):
        assert northcott_bounds([5, 2, 11]) == northcott_bounds([11, 5, 2])


def resummed_bounds(window):
    lower = 0.5 * math.fsum(math.log(p) / (p + 1) for p in window)
    upper = math.fsum(math.log(p) / (p - 1) for p in window)
    return lower, upper


class TestWindowSelection:
    def test_basic_window(self):
        window, bounds = select_prime_window(1.0, 0.5)
        assert window == sorted(window)
        primes = list(iter_primes(window[0], window[-1]))
        assert window == primes  # consecutive primes
        lower, upper = resummed_bounds(window)
        assert lower > 1.0 - 0.5 - 1e-12
        assert upper <= 2.0 + 1e-12
        assert bounds.lower == pytest.approx(lower, abs=1e-12)
        assert bounds.upper == pytest.approx(upper, abs=1e-12)

    def test_known_small_case(self):
        # independent accumulation starting at 5 gives {5, ..., 37}
        window, _ = select_prime_window(1.0, 0.5)
        assert window == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

    def test_infeasible_when_target_tiny(self):
        with pytest.raises(ValueError):
            select_prime_window(1e-9, 1e-9)

    def test_contract_either_window_or_error(self):
        try:
            window, bounds = select_prime_window(0.3, 0.3)
        except ValueError:
            return  # infeasible path satisfies the contract
        lower, upper = resummed_bounds(window)
        assert lower > 0.3 - 0.3 - 1e-12 and upper <= 0.6 + 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            select_prime_window(0.0, 0.5)
        with pytest.raises(ValueError):
            select_prime_window(1.0, -1.0)

    def test_refining_the_tail_never_hurts(self):
        # a longer partial sum shrinks the tail estimate, so the window start
        # can only move down (or stay); the guarantees are preserved either way
        w_coarse, _ = select_prime_window(1.0, 0.05, tail_ceiling=10**4)
        w_fine, _ = select_prime_window(1.0, 0.05, tail_ceiling=10**6)
        assert w_fine[0] <= w_coarse[0]

    def test_tail_estimate_is_monotone_in_ceiling(self):
        def estimate(start_prime, ceiling):
            acc = math.fsum(
                2 * math.log(p) / (p * p - 1.0)
                for p in iter_primes(start_prime, ceiling)
            )
            return acc + 2 * (math.log(ceiling) + 1.0) / ceiling

        for start in (5, 29, 101):
            assert estimate(start, 10**6) <= estimate(start, 10**4)


# (r, epsilon) -> (first prime, last prime, length) of the window at the
# default tail ceiling, as the scalar implementation selected them.
PINNED_WINDOWS = {
    (0.5, 0.05): (89, 241, 30),
    (0.5, 0.25): (11, 23, 5),
    (0.5, 1.0): (3, 5, 2),
    (1.0, 0.05): (89, 683, 101),
    (1.0, 0.25): (11, 79, 18),
    (1.0, 1.0): (3, 17, 6),
    (2.0, 0.05): (89, 5323, 682),
    (2.0, 0.25): (11, 653, 115),
    (2.0, 1.0): (3, 173, 39),
    (3.0, 0.05): (89, 39659, 4146),
    (3.0, 0.25): (11, 5051, 672),
    (3.0, 1.0): (3, 1399, 221),
}


@pytest.mark.parametrize("r, epsilon", sorted(PINNED_WINDOWS))
def test_pinned_windows(r, epsilon):
    window, bounds = select_prime_window(r, epsilon)
    assert (window[0], window[-1], len(window)) == PINNED_WINDOWS[r, epsilon]
    assert window == list(iter_primes(window[0], window[-1]))
    assert bounds == northcott_bounds(window)


@pytest.mark.parametrize(
    "r, epsilon, ceiling, message",
    [
        (1.0, 0.3, 7, "epsilon=0.3 is below the resolvable tail at ceiling 7"),
        (1.0, 5.0, 1, "epsilon=5.0 is below the resolvable tail at ceiling 1"),
        (1.0, 5.0, 5, "window exceeded the prime ceiling 5; raise it or shrink r"),
        (2.0, 0.01, 10**4, "window exceeded the prime ceiling 10000; raise it or shrink r"),
        (0.05, 0.1, 10**4, "infeasible: log(p)/(p-1) at the window start p=37 already "
                           "exceeds 2r=0.1; enlarge r or epsilon"),
    ],
)
def test_pinned_infeasible_outcomes(r, epsilon, ceiling, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        select_prime_window(r, epsilon, tail_ceiling=ceiling)


def test_selector_does_not_reprove_its_window(monkeypatch):
    # The window comes from the sieve; only caller-supplied sets are proved.
    calls = []
    real = northcott.is_prime
    monkeypatch.setattr(northcott, "is_prime", lambda n: calls.append(n) or real(n))
    window, bounds = select_prime_window(1.0, 0.25)
    assert calls == []
    monkeypatch.undo()
    assert bounds == northcott_bounds(window)


def test_window_end_against_a_decimal_reference():
    # A seeded sweep at epsilon 0.25, where every window starts at 11, with
    # r = 5.0 from demo 07.  Against the 50-digit real sums of log(p)/(p - 1)
    # from 11 on, the window's sum is within 2r and one more prime takes it
    # past; a window that would pass the ceiling is refused only when every
    # term below it still sums to less than 2r.
    rng = random.Random(25)
    rs = [rng.uniform(0.3, 6.0) for _ in range(10)] + [5.0]
    primes = list(iter_primes(11, 10**6))
    real = [Decimal(0)]
    with localcontext(prec=50):
        for p in primes:
            if real[-1] > 2 * max(rs):
                break
            real.append(real[-1] + Decimal(p).ln() / (p - 1))
    # Crossings on the k-th term for k = 2^j and 2^j + 1: the last term of a
    # power-of-two slice of the window's terms, and the first of the next.
    rs += [float((real[k - 1] + real[k]) / 4) for j in range(6, 15) for k in (2**j, 2**j + 1)]
    for r in rs:
        two_r = Decimal(2.0 * r)
        try:
            window, _ = select_prime_window(r, 0.25)
        except ValueError as exc:
            assert str(exc) == "window exceeded the prime ceiling 1000000; raise it or shrink r"
            assert len(real) == len(primes) + 1 and real[-1] <= two_r, r
            continue
        n = len(window)
        assert window == primes[:n] and real[n] <= two_r < real[n + 1], r
