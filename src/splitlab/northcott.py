"""Two-sided bounds tied to the maximal field where a prime set splits totally.

For a finite prime set S the height floor of that field sits between
(1/2) sum log(p)/(p+1) and sum log(p)/(p-1); the window selector picks a run
of consecutive primes whose two bounds land in a requested interval.  The
bounds themselves are evaluated; the quantity they sandwich never is (it is a
liminf over an infinite-degree field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .primes import DEFAULT_SIEVE_CEILING, is_prime, iter_primes
from .series import first_reaching

_TAIL_PARTIAL_CEILING = 10**6


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
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if i and p == ordered[i - 1]:
            raise ValueError(f"duplicate prime {p}")
    lo = math.fsum(math.log(p) / (p + 1) for p in ordered)
    hi = math.fsum(math.log(p) / (p - 1) for p in ordered)
    return NorthcottBounds(tuple(ordered), 0.5 * lo, hi)


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
    primes = list(iter_primes(2, tail_ceiling, ceiling=sieve_ceiling))

    # The upper/lower difference term is 2 log(p)/(p^2 - 1); it is summed
    # exactly up to the ceiling, and the remainder is covered by twice the
    # integral of log(x)/x^2, a safe over-estimate that can only push the
    # window start higher.
    suffix = [0.0] * (len(primes) + 1)
    for i in range(len(primes) - 1, -1, -1):
        p = primes[i]
        suffix[i] = suffix[i + 1] + 2.0 * math.log(p) / (p * p - 1.0)
    integral_tail = 2.0 * (math.log(tail_ceiling) + 1.0) / tail_ceiling
    l = next(
        (i for i in range(len(primes)) if suffix[i] + integral_tail <= epsilon), None
    )
    if l is None:
        raise ValueError(
            f"epsilon={epsilon} is below the resolvable tail at ceiling {tail_ceiling}"
        )
    j = next(
        (i for i, p in enumerate(primes) if math.log(p) / (p + 1) < epsilon), None
    )
    if j is None:
        raise ValueError(f"no prime below {tail_ceiling} has term under epsilon={epsilon}")
    c = max(j, l)

    # The window is the longest run from c whose upper sum stays within 2r,
    # i.e. one prime short of the first prefix whose sum exceeds 2r; upper
    # terms are computed in doubling chunks until that prefix appears.
    over = math.nextafter(2.0 * r, math.inf)
    terms: list[float] = []
    while (k := first_reaching(terms, over)) is None:
        if c + len(terms) >= len(primes):
            raise ValueError(
                f"window exceeded the prime ceiling {tail_ceiling}; raise it or shrink r"
            )
        chunk = primes[c + len(terms) : c + 2 * len(terms) + 64]
        terms += [math.log(p) / (p - 1) for p in chunk]
    window = primes[c : c + k - 1]
    if not window:
        raise ValueError(
            f"infeasible: log(p)/(p-1) at the window start p={primes[c]} already "
            f"exceeds 2r={2 * r}; enlarge r or epsilon"
        )
    bounds = northcott_bounds(window)
    if not (bounds.lower > r - epsilon and bounds.upper <= 2.0 * r):
        raise ValueError(
            f"infeasible: selected window has lower={bounds.lower}, upper={bounds.upper}, "
            f"outside (r-eps, 2r]; enlarge r or epsilon"
        )
    return window, bounds
