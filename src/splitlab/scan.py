"""Local data (e, f) of every prime in a range, one sieve segment at a time.

The kernel evaluates the residue symbol of each basis atom (-1, or a prime
dividing a generator) on a whole segment of primes with numpy:

- an atom of absolute value below _TABLE_BELOW by a table of the Jacobi
  symbol (a | p), which depends only on p mod 4|a| (quadratic reciprocity);
- a larger atom by the Euler criterion a^((p-1)/2) mod p in int64, on
  primes.powmod_array, which first reduces the atom mod p over 31-bit limbs,
  so it may have any size.

For an odd prime dividing no generator, a generator's symbol is the product
of its atoms' symbols: f = 2 iff some basis symbol is -1, and e = 1.  So the
generators are taken in order of how many large atoms they hold, and each is
evaluated only on the primes that no earlier generator has made inert: with
four tabled generators, about 1/16 of the primes reach the Euler criterion.
The prime 2, the primes dividing a generator and primes too large for int64
squaring go through the scalar local_data, which stays the reference.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from .multiquadratic import MultiquadField, local_data
from .primes import DEFAULT_SIEVE_CEILING, INT64_EXACT_BELOW, powmod_array, prime_segments

# Atoms below this get a lookup table of 4|a| entries.  Larger ones pay the
# Euler criterion, a few dozen int64 passes over every prime it is asked about
# against one table lookup, which is why generators made only of tabled atoms
# go first.
_TABLE_BELOW = 1 << 12


@functools.lru_cache(maxsize=64)  # at most 1 MB; tower builds re-scan the same atoms
def _jacobi_table(a: int) -> np.ndarray:
    """(a | r) for r in [0, 4|a|) and an atom a: -1, 2 or an odd prime q.  Zero
    at even r, which no odd prime hits.  For q, reciprocity gives (r | q),
    negated when q = r = 3 (mod 4)."""
    r = np.arange(4 * abs(a))
    if a in (-1, 2):  # (-1 | r) and (2 | r) depend on r mod 8 only
        symbol = np.where(np.isin(r % 8, (1, 5) if a == -1 else (1, 7)), 1, -1)
    else:
        legendre = np.full(a, -1)
        legendre[r[:a] ** 2 % a] = 1
        legendre[0] = 0
        symbol = legendre[r % a] * np.where((a % 4 == 3) & (r % 4 == 3), -1, 1)
    table = np.where(r % 2, symbol, 0).astype(np.int8)
    table.flags.writeable = False
    return table


def _euler_is_nonresidue(a: int, p: np.ndarray) -> np.ndarray:
    """a^((p-1)/2) == -1 (mod p) for the atom a; every p odd and below
    INT64_EXACT_BELOW, from which primes take the scalar path."""
    return powmod_array(a, (p - 1) >> 1, p) == p - 1


def scan(
    field: MultiquadField,
    lo: int,
    hi: int,
    *,
    sieve_ceiling: int = DEFAULT_SIEVE_CEILING,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (p, e, f) int64 arrays for the primes in [lo, hi], one per segment.

    Equal, prime by prime, to (p, local_data(field, p).e, local_data(field, p).f).
    """
    atoms = sorted(set().union(*(b.atoms for b in field.basis)))
    tables = {a: _jacobi_table(a) for a in atoms if abs(a) < _TABLE_BELOW}
    rows = sorted((b.atoms for b in field.basis),
                  key=lambda row: sum(a not in tables for a in row))
    special = np.array(sorted({2} | {a for a in atoms if 2 < a <= hi}), dtype=np.int64)
    for p in prime_segments(lo, hi, ceiling=sieve_ceiling):
        scalar = np.isin(p, special) | (p >= INT64_EXACT_BELOW)
        inert = scalar.copy()  # scalar slots are filled in below, not here
        for row in rows:  # a generator's symbol is -1 iff an odd number of atoms' are
            live = np.flatnonzero(~inert)
            q = p[live]
            inert[live] = np.logical_xor.reduce([
                tables[a][q % len(tables[a])] < 0 if a in tables
                else _euler_is_nonresidue(a, q)
                for a in row
            ])
        e = np.ones_like(p)
        f = inert + 1
        for i in np.flatnonzero(scalar).tolist():
            data = local_data(field, int(p[i]))
            e[i], f[i] = data.e, data.f
        yield p, e, f
