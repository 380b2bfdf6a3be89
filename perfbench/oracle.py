"""Independent reference computations for checking splitlab's outputs.

Nothing here imports splitlab: every value the benchmark compares against is
derived from first principles (a numpy sieve, the Euler criterion, 2-adic
square classes enumerated by brute force, math.fsum), so a defect in the code
under test cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Strong-pseudoprime bases that make Miller-Rabin exact below ~3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# First density-check checkpoint, as splitlab.density starts its grid (_MIN_X).
FIRST_MARK = 100


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, increasing, as int64."""
    if n < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def is_small_prime(n: int) -> bool:
    """Exact primality for n below ~3.3e24 (deterministic Miller-Rabin)."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Prescribed quadratic fields
# ---------------------------------------------------------------------------


def prescription_problems(m: int, split: list[int], inert: list[int]) -> list[str]:
    """Euler criterion at every prescribed odd prime, plus the real sign."""
    problems = []
    if m <= 0:
        problems.append(f"m={m} is not positive (wanted a real field)")
    for p in split:
        if pow(m % p, (p - 1) // 2, p) != 1:
            problems.append(f"m is not a nonzero square mod split prime {p}")
    for q in inert:
        if pow(m % q, (q - 1) // 2, q) != q - 1:
            problems.append(f"m is not a non-residue mod inert prime {q}")
    return problems


# ---------------------------------------------------------------------------
# Multiquadratic local data by brute force over the square-class group
# ---------------------------------------------------------------------------


def _span(generators: list[int]) -> list[int]:
    """Squarefree representatives of every class in the generated group."""
    span = [1]
    for g in generators:
        span += [_squarefree_product(s, g) for s in span]
    return span


def _squarefree_product(a: int, b: int) -> int:
    g = math.gcd(a, b)
    return (a // g) * (b // g)


def _two_adic_class(m: int) -> tuple[int, int]:
    """Class of m in Q_2^*/(Q_2^*)^2: (valuation mod 2, odd part mod 8)."""
    v = (m & -m).bit_length() - 1
    return v % 2, (m >> v) % 8


def _legendre(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Euler criterion a^((p-1)/2) mod p for odd primes p < 3e9, as +-1 or 0."""
    result = np.ones_like(p)
    base = a % p
    exp = (p - 1) // 2
    while exp.any():
        odd = (exp & 1).astype(bool)
        result = np.where(odd, result * base % p, result)
        base = base * base % p
        exp >>= 1
    return np.where(result == p - 1, -1, result)


def local_degrees(generators: list[int], x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes <= x, e, f) for the compositum of Q(sqrt(g)) over the generators.

    The generators must be independent square classes. Odd unramified p has
    f = 2 iff some generator is a non-residue; ramified p and p = 2 are
    settled by enumerating the whole class group.
    """
    primes = primes_upto(x)
    e = np.ones_like(primes)
    f = np.ones_like(primes)
    odd = primes > 2
    nonresidue = np.zeros(len(primes), dtype=bool)
    for g in generators:
        nonresidue[odd] |= _legendre(np.full(odd.sum(), g, dtype=np.int64), primes[odd]) == -1
    f[nonresidue] = 2
    span = _span(generators)
    for idx in np.flatnonzero(np.isin(primes, [abs(a) for g in generators for a in _prime_factors(g)])):
        p = int(primes[idx])
        if p == 2:
            continue
        units = [s for s in span if s % p]
        e[idx] = 2
        f[idx] = 2 if any(pow(s % p, (p - 1) // 2, p) == p - 1 for s in units) else 1
    if len(primes) and primes[0] == 2:
        image = {_two_adic_class(s) for s in span}
        f[0] = 2 if (0, 5) in image else 1
        e[0] = len(image) // f[0]
    return primes, e, f


def _prime_factors(g: int) -> list[int]:
    n, out, d = abs(g), [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def series_sum(primes: np.ndarray, e: np.ndarray, f: np.ndarray) -> float:
    """Correctly rounded sum of log(p) / (e (p^f + 1))."""
    pf = primes.astype(np.float64) ** f
    return math.fsum(np.log(primes.astype(np.float64)) / (e * (pf + 1.0)))


def density_marks(x: int, per_decade: int) -> list[int]:
    """Geometrically spaced checkpoints FIRST_MARK, ..., x (the density-check grid)."""
    marks, mark, factor = [], float(FIRST_MARK), 10.0 ** (1.0 / per_decade)
    while round(mark) < x:
        marks.append(round(mark))
        mark *= factor
    return marks + [x]


def split_counts(primes: np.ndarray, e: np.ndarray, f: np.ndarray, marks: list[int]) -> list[int]:
    """Number of totally split primes (e = f = 1) at or below each mark."""
    split = primes[(e == 1) & (f == 1)]
    return [int(np.searchsorted(split, m, side="right")) for m in marks]


# ---------------------------------------------------------------------------
# Tower side computations
# ---------------------------------------------------------------------------


def adjoin_i_sum(ramified: set[int], ceiling: int) -> float:
    """The adjoin-i bound's partial sum: e = 2 exactly at ramified p = 1 mod 4."""
    primes = primes_upto(ceiling)
    e = np.where((primes % 4 == 1) & np.isin(primes, sorted(ramified)), 2, 1)
    pf = primes.astype(np.float64)
    return math.fsum(np.log(pf) / (e * (pf * pf + 1.0)))


def northcott_problems(
    window: list[int], lower: float, upper: float, r: float, eps: float, primes: np.ndarray
) -> list[str]:
    """A window of consecutive primes, bounds recomputed, inside (r-eps, 2r], maximal."""
    if not window:
        return ["empty window"]
    start = int(np.searchsorted(primes, window[0]))
    expect = primes[start : start + len(window)].tolist()
    if window != expect:
        return ["window is not a run of consecutive primes"]
    problems = []
    want_lo = 0.5 * math.fsum(math.log(p) / (p + 1) for p in window)
    want_hi = math.fsum(math.log(p) / (p - 1) for p in window)
    if not rel_close(lower, want_lo, 1e-9) or not rel_close(upper, want_hi, 1e-9):
        problems.append(f"bounds ({lower}, {upper}) != recomputed ({want_lo}, {want_hi})")
    if not (lower > r - eps and upper <= 2 * r):
        problems.append(f"bounds ({lower}, {upper}) outside (r - eps, 2r]")
    nxt = int(primes[start + len(window)])
    if want_hi + math.log(nxt) / (nxt - 1) <= 2 * r:
        problems.append(f"window could be extended by {nxt}")
    return problems
