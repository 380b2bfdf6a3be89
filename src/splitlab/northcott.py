"""Two-sided bounds tied to the maximal field where a prime set splits totally.

For a finite prime set S the height floor of that field sits between
(1/2) sum log(p)/(p+1) and sum log(p)/(p-1); the window selector picks a run
of consecutive primes whose two bounds land in a requested interval.  The
bounds themselves are evaluated; the quantity they sandwich never is (it is a
liminf over an infinite-degree field).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .primes import DEFAULT_SIEVE_CEILING, is_prime, prime_segments
from .series import Ratios, first_reaching

_TAIL_PARTIAL_CEILING = 10**6

# Window terms per segment fed to first_reaching.
_WINDOW_SLICE = 1024


@dataclass(frozen=True)
class NorthcottBounds:
    """lower = (1/2) sum log(p)/(p+1); upper = sum log(p)/(p-1), over prime_set."""

    prime_set: tuple[int, ...]
    lower: float
    upper: float


def northcott_bounds(primes: Sequence[int]) -> NorthcottBounds:
    """Evaluate both bounds for a nonempty set of distinct primes."""
    if not primes:
        raise ValueError("the prime set must be nonempty")
    ordered = sorted(primes)
    for i, p in enumerate(ordered):
        if type(p) is not int:
            raise ValueError(f"prime {p!r} is not an integer")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if i and p == ordered[i - 1]:
            raise ValueError(f"duplicate prime {p}")
    return _sum_bounds(ordered)


def _sum_bounds(ordered: list[int]) -> NorthcottBounds:
    """Both bounds for increasing distinct primes, summed by math.fsum."""
    lo = math.fsum(math.log(p) / (p + 1) for p in ordered)
    hi = math.fsum(math.log(p) / (p - 1) for p in ordered)
    return NorthcottBounds(tuple(ordered), 0.5 * lo, hi)


def _upper_ratios(primes: np.ndarray) -> Ratios:
    """The upper-bound terms log(p)/(p - 1) exactly, as (p, p - 1)."""
    return ((p, p - 1) for p in primes.tolist())


def select_prime_window(
    r: float,
    epsilon: float,
    *,
    tail_ceiling: int = _TAIL_PARTIAL_CEILING,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> tuple[list[int], NorthcottBounds]:
    """Consecutive primes whose bounds satisfy lower > r - epsilon, upper <= 2r.

    Mirrors the constructive selection: find the first index l past which the
    upper/lower difference tail is below epsilon, the first index j whose
    lower term drops below epsilon, start the window at c = max(j, l), and
    extend it greedily while the upper sum stays within 2r.  The returned
    bounds are re-verified by an independent summation before returning.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    primes = np.concatenate(
        [np.empty(0, dtype=np.int64), *prime_segments(2, tail_ceiling, ceiling=sieve_ceiling)]
    )
    # np.log need not round as math.log does; the window's end is decided on
    # the real sum below, and _sum_bounds re-verifies with math.log.
    x = primes.astype(np.float64)
    logs = np.log(x)

    # The upper/lower difference term is 2 log(p)/(p^2 - 1); it is summed
    # exactly up to the ceiling, and the remainder is covered by twice the
    # integral of log(x)/x^2, a safe over-estimate that can only push the
    # window start higher.  The suffix sums accumulate from the largest prime
    # down, one float addition at a time (np.cumsum is sequential).
    suffix = np.cumsum((2.0 * logs / (x * x - 1.0))[::-1])[::-1]
    integral_tail = 2.0 * (math.log(tail_ceiling) + 1.0) / tail_ceiling
    resolved = np.flatnonzero(suffix + integral_tail <= epsilon)
    if not resolved.size:
        raise ValueError(
            f"epsilon={epsilon} is below the resolvable tail at ceiling {tail_ceiling}"
        )
    small = np.flatnonzero(logs / (x + 1.0) < epsilon)
    if not small.size:
        raise ValueError(f"no prime below {tail_ceiling} has term under epsilon={epsilon}")
    # The start is a float decision: any start past the resolved tail is
    # valid, and _sum_bounds re-verifies the bounds of the window returned.
    c = int(max(small[0], resolved[0]))

    # The window is the longest run from c whose upper sum stays within 2r,
    # i.e. one prime short of the first prefix whose real sum exceeds 2r (the
    # real sum is transcendental, so it never equals 2r).  first_reaching
    # decides that prefix, reading the terms a slice at a time.
    upper = logs[c:] / (x[c:] - 1.0)
    k, _, reached = first_reaching(
        ((upper[i : i + _WINDOW_SLICE],
          functools.partial(_upper_ratios, primes[c + i : c + i + _WINDOW_SLICE]))
         for i in range(0, len(upper), _WINDOW_SLICE)),
        2.0 * r,
    )
    if not reached:
        raise ValueError(
            f"window exceeded the prime ceiling {tail_ceiling}; raise it or shrink r"
        )
    window = primes[c : c + k - 1].tolist()
    if not window:
        raise ValueError(
            f"infeasible: log(p)/(p-1) at the window start p={primes[c]} already "
            f"exceeds 2r={2 * r}; enlarge r or epsilon"
        )
    bounds = _sum_bounds(window)  # the window is sieved: increasing distinct primes
    if not (bounds.lower > r - epsilon and bounds.upper <= 2.0 * r):
        raise ValueError(
            f"infeasible: selected window has lower={bounds.lower}, upper={bounds.upper}, "
            f"outside (r-eps, 2r]; enlarge r or epsilon"
        )
    return window, bounds
