"""Empirical density checks for totally split primes.

These are statistical experiments, not proofs: counts are exact, but the
comparison against x / (degree * log x) inherits the usual error of that
approximation at desk scale (about +8% at x = 10^6), so acceptance windows
are deliberately loose.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .multiquadratic import MultiquadField
from .primes import DEFAULT_SIEVE_CEILING
from .scan import scan

_MIN_X = 100


@dataclass(frozen=True)
class DensityReport:
    """Count of totally split primes up to x against the expected density.

    The density is 1/degree without a residue filter.  With a filter on
    p mod 4 it halves, except that a field containing i leaves no totally
    split primes at all in the class 3 mod 4 and all of them in 1 mod 4.
    """

    field_basis: tuple[int, ...]
    x: int
    count: int
    expected: float
    ratio: float
    residue_filter: Optional[int] = None


def _expected_density(field: MultiquadField, residue_filter: Optional[int]) -> float:
    base = 1.0 / field.degree
    if residue_filter is None:
        return base
    if field.contains_sqrt(-1):
        return base if residue_filter == 1 else 0.0
    return base / 2.0


def _check_args(x: int, residue_filter: Optional[int]) -> None:
    if x < _MIN_X:
        raise ValueError(f"x must be >= {_MIN_X}, got {x}")
    if residue_filter not in (None, 1, 3):
        raise ValueError(f"residue filter must be 1 or 3 (mod 4), got {residue_filter}")


def _split_primes(
    field: MultiquadField, x: int, residue_filter: Optional[int], sieve_ceiling: int
) -> Iterator[np.ndarray]:
    """The totally split primes <= x in the residue class, one array per segment."""
    for p, e, f in scan(field, 2, x, sieve_ceiling=sieve_ceiling):
        split = (e == 1) & (f == 1)
        if residue_filter is not None:
            split &= p % 4 == residue_filter
        yield p[split]


def _reports(
    field: MultiquadField, marks: list[int], residue_filter: Optional[int], sieve_ceiling: int
) -> list[DensityReport]:
    """One report per increasing mark, from a single scan up to the last."""
    counts = np.zeros(len(marks), dtype=np.int64)
    for split in _split_primes(field, marks[-1], residue_filter, sieve_ceiling):
        counts += np.searchsorted(split, marks, side="right")
    density = _expected_density(field, residue_filter)
    basis = tuple(b.value for b in field.basis)
    reports = []
    for mark, count in zip(marks, counts.tolist()):
        expected = density * mark / math.log(mark)
        ratio = count / expected if expected > 0 else math.inf if count else 1.0
        reports.append(DensityReport(basis, mark, count, expected, ratio, residue_filter))
    return reports


def count_totally_split(
    field: MultiquadField,
    x: int,
    residue_filter: Optional[int] = None,
    *,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> DensityReport:
    """Exact count of totally split primes <= x, with the Chebotarev expectation."""
    _check_args(x, residue_filter)
    return _reports(field, [x], residue_filter, sieve_ceiling)[0]


def reciprocal_sum_totally_split(
    field: MultiquadField,
    x: int,
    residue_filter: Optional[int] = None,
    *,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> float:
    """Sum of 1/p over totally split primes p <= x (diverges as x grows)."""
    _check_args(x, residue_filter)
    return math.fsum(
        1.0 / p
        for split in _split_primes(field, x, residue_filter, sieve_ceiling)
        for p in split.tolist()
    )


def density_checkpoints(
    field: MultiquadField,
    x: int,
    residue_filter: Optional[int] = None,
    *,
    per_decade: int = 4,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> list[DensityReport]:
    """Reports at geometrically spaced ceilings up to x, one scan total."""
    _check_args(x, residue_filter)
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    marks: list[int] = []
    mark = float(_MIN_X)
    factor = 10.0 ** (1.0 / per_decade)
    while (at := round(mark)) < x:
        if at not in marks[-1:]:  # at a high per_decade, close marks round alike
            marks.append(at)
        mark *= factor
    marks.append(x)
    return _reports(field, marks, residue_filter, sieve_ceiling)


def reports_to_csv(reports: list[DensityReport]) -> str:
    """Plot-ready CSV with columns (x, count, expected, ratio)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "count", "expected", "ratio"])
    for r in reports:
        writer.writerow([r.x, r.count, repr(r.expected), repr(r.ratio)])
    return out.getvalue()
