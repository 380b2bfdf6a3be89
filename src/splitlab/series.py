"""The local splitting series: per-prime terms log(p)/(e_p (p^f_p + 1)).

Sums are always over explicit finite prime ranges, paired with rigorous tail
bounds where a statement about the full series is needed.  Divergence is
certified by partial sums exceeding a threshold, convergence by a partial sum
plus tail bound staying under a cap; a literal infinite sum is never claimed.
Natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import VerificationError
from .multiquadratic import MultiquadField, local_data
from .primes import DEFAULT_SIEVE_CEILING, PrimeRange, iter_primes
from .scan import scan


def first_reaching(terms: Sequence[float], target: float) -> Optional[int]:
    """Length of the shortest prefix of non-negative terms whose math.fsum
    reaches target, or None if no prefix does.

    fsum rounds each prefix's exact sum once, so prefix sums never decrease
    and the crossing can be found by bisection.
    """
    if math.fsum(terms) < target:
        return None
    lo, hi = 0, len(terms)
    while lo < hi:
        mid = (lo + hi) // 2
        if math.fsum(terms[:mid]) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class SeriesReport:
    """Partial sum of the splitting series over a prime range.

    tail_upper_bound, when present, rigorously bounds the series beyond
    prime_hi; per_prime_terms carries the (p, e, f, term) breakdown on request.
    """

    field_degree: int
    prime_lo: int
    prime_hi: int
    partial_sum: float
    tail_upper_bound: Optional[float] = None
    per_prime_terms: Optional[tuple[tuple[int, int, int, float], ...]] = None

    @property
    def total_upper_bound(self) -> Optional[float]:
        if self.tail_upper_bound is None:
            return None
        return self.partial_sum + self.tail_upper_bound


@dataclass(frozen=True)
class StabilizationCertificate:
    """Asserts that every tower stage after `stage` splits `prime` totally,
    so the prime's series term is already final at that stage."""

    prime: int
    stage: int


def series_term(field: MultiquadField, p: int) -> float:
    """log(p) / (e (p^f + 1)) for the local data (e, f) of p in the field."""
    data = local_data(field, p)
    return math.log(p) / (data.e * (float(p) ** data.f + 1.0))


# Up to here p * p < 2**53, so the float64 square is exact and equals
# float(p) ** 2.  Above it the two round differently for many primes
# (first at p = 94,906,297), and those terms keep Python's power.
_EXACT_SQUARE_UPTO = math.isqrt(1 << 53)


def segment_terms(p: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """series_term's log(p) / (e (p^f + 1)) for int64 arrays, f in {1, 2}, bit for bit.

    The logs come from math.log (np.log need not round the same way) and the
    squares from numpy where they are exact; the rest is one float64 division.
    """
    x = p.astype(np.float64)
    power = np.where(f == 2, x * x, x)
    for i in np.flatnonzero((f == 2) & (p > _EXACT_SQUARE_UPTO)).tolist():
        power[i] = float(p[i]) ** 2
    logs = np.fromiter(map(math.log, p.tolist()), dtype=np.float64, count=len(p))
    return logs / (e * (power + 1.0))


def partial_sum(
    field: MultiquadField,
    rng: PrimeRange,
    *,
    include_two: bool = True,
    with_terms: bool = False,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> SeriesReport:
    """Sum of series terms over the primes in rng, correctly rounded.

    include_two=False restricts to odd primes (the prime 2 is otherwise
    included using its exact local data).  Each term is computed exactly as
    series_term computes it, and math.fsum rounds their exact sum once, so
    the result does not depend on order or on how the range is segmented.
    """
    kept: list[tuple[int, int, int, float]] = []

    def segments() -> Iterator[list[float]]:
        lo = rng.lo if include_two else max(rng.lo, 3)
        for p, e, f in scan(field, lo, rng.hi, sieve_ceiling=sieve_ceiling):
            seg = segment_terms(p, e, f).tolist()
            if with_terms:
                kept.extend(zip(p.tolist(), e.tolist(), f.tolist(), seg))
            yield seg

    total = math.fsum(chain.from_iterable(segments()))
    return SeriesReport(
        field_degree=field.degree,
        prime_lo=rng.lo,
        prime_hi=rng.hi,
        partial_sum=total,
        per_prime_terms=tuple(kept) if with_terms else None,
    )


def tail_bound_fully_inert(range_start: int) -> float:
    """Upper bound for sum_{p > X} log(p)/(p^2 + 1).

    The summand is below log(n)/n^2, which is decreasing from n = 2 on, so the
    tail is at most the integral of log(x)/x^2 from X, i.e. (log X + 1)/X.
    """
    if range_start < 2:
        raise ValueError(f"range_start must be >= 2, got {range_start}")
    return (math.log(range_start) + 1.0) / range_start


def tower_sum(
    stages: Sequence[MultiquadField],
    rng: PrimeRange,
    certificates: Sequence[StabilizationCertificate],
    *,
    residue_filter: Optional[tuple[int, int]] = None,
    include_two: bool = True,
    with_terms: bool = False,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> SeriesReport:
    """Partial sum for an infinite tower, each term taken at its certified stage.

    stages[k] is the k-th compositum (stages[0] may be Q itself).  Every prime
    the range selects must carry a certificate whose stage indexes into
    `stages`; offenders are reported instead of guessed at.  residue_filter
    (r, mod) restricts the range to p = r (mod mod).
    """
    cert_by_prime: dict[int, int] = {}
    for cert in certificates:
        if not 0 <= cert.stage < len(stages):
            raise ValueError(
                f"certificate for prime {cert.prime} points at stage "
                f"{cert.stage}, outside the {len(stages)} provided"
            )
        cert_by_prime[cert.prime] = cert.stage
    uncertified: list[int] = []
    selected: list[tuple[int, int]] = []
    for p in iter_primes(rng.lo, rng.hi, ceiling=sieve_ceiling):
        if p == 2 and not include_two:
            continue
        if residue_filter is not None and p % residue_filter[1] != residue_filter[0]:
            continue
        stage = cert_by_prime.get(p)
        if stage is None:
            uncertified.append(p)
        else:
            selected.append((p, stage))
    if uncertified:
        raise ValueError(
            "unstabilized primes in range (no certificate): "
            + ", ".join(map(str, uncertified[:20]))
            + ("..." if len(uncertified) > 20 else "")
        )
    terms = []
    for p, stage in selected:
        data = local_data(stages[stage], p)
        # the certificate claims later provided stages leave (e, f) unchanged
        for later in range(stage + 1, len(stages)):
            other = local_data(stages[later], p)
            if (other.e, other.f) != (data.e, data.f):
                raise VerificationError(
                    f"stabilization certificate for p={p} at stage {stage} is "
                    f"contradicted at stage {later}"
                )
        terms.append((p, data.e, data.f, math.log(p) / (data.e * (float(p) ** data.f + 1.0))))
    return SeriesReport(
        field_degree=stages[-1].degree,
        prime_lo=rng.lo,
        prime_hi=rng.hi,
        partial_sum=math.fsum(t[3] for t in terms),
        per_prime_terms=tuple(terms) if with_terms else None,
    )
