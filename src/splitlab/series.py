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
from .primes import DEFAULT_SIEVE_CEILING, PrimeRange
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


def range_terms(
    field: MultiquadField, lo: int, hi: int, *,
    residue_filter: Optional[tuple[int, int]] = None, sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The (p, e, f, term) arrays of scan.scan and segment_terms, one per sieve
    segment of [lo, hi]; residue_filter (r, q) keeps only the primes p = r (mod q).
    Segments depend on lo and hi alone, so scans of one range line up across fields.
    """
    for p, e, f in scan(field, lo, hi, sieve_ceiling=sieve_ceiling):
        if residue_filter is not None:
            keep = p % residue_filter[1] == residue_filter[0]
            p, e, f = p[keep], e[keep], f[keep]
        yield p, e, f, segment_terms(p, e, f)


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
    lo = rng.lo if include_two else max(rng.lo, 3)
    segments = range_terms(field, lo, rng.hi, sieve_ceiling=sieve_ceiling)
    kept = None
    if with_terms:  # the breakdown holds every prime anyway
        segments = list(segments)
        kept = tuple(row for seg in segments for row in zip(*(a.tolist() for a in seg)))
    total = math.fsum(chain.from_iterable(terms.tolist() for *_, terms in segments))
    return SeriesReport(
        field_degree=field.degree,
        prime_lo=rng.lo,
        prime_hi=rng.hi,
        partial_sum=total,
        per_prime_terms=kept,
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
    contradiction: Optional[str] = None
    terms: list[float] = []
    # with no stage fields, Q still lists the range's primes, so they are reported uncertified
    fields = stages or [MultiquadField.rationals()]
    rows = [range_terms(field, rng.lo, rng.hi, residue_filter=residue_filter,
                        sieve_ceiling=sieve_ceiling) for field in fields]
    for segment in zip(*rows):  # one row per stage, over the same primes
        p = segment[0][0]
        stage = np.array([cert_by_prime.get(q, -1) for q in p.tolist()], dtype=np.int64)
        uncertified += p[stage < 0].tolist()
        kept = np.flatnonzero(stage >= 0)
        p, stage = p[kept], stage[kept]
        e, f, term = (np.stack([row[k] for row in segment])[:, kept] for k in (1, 2, 3))
        at = np.arange(len(kept))
        terms += term[stage, at].tolist()
        # the certificate claims later provided stages leave (e, f) unchanged
        later = np.arange(len(stages))[:, None] > stage
        moved = later & ((e != e[stage, at]) | (f != f[stage, at]))
        if contradiction is None and moved.any():
            i = np.flatnonzero(moved.any(axis=0))[0]
            contradiction = (f"stabilization certificate for p={p[i]} at stage {stage[i]} "
                             f"is contradicted at stage {np.argmax(moved[:, i])}")
    if uncertified:
        more = "..." if len(uncertified) > 20 else ""
        raise ValueError("unstabilized primes in range (no certificate): "
                         + ", ".join(map(str, uncertified[:20])) + more)
    if contradiction is not None:
        raise VerificationError(contradiction)
    return SeriesReport(
        field_degree=stages[-1].degree,
        prime_lo=rng.lo,
        prime_hi=rng.hi,
        partial_sum=math.fsum(terms),
    )
