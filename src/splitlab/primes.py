"""Exact elementary number theory: sieves, primality, residue symbols, CRT.

All functions are pure and deterministic.  Ties are always broken toward the
smallest valid value (smallest representative, smallest prime) so callers get
bit-for-bit reproducible results.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ResourceBudgetError

DEFAULT_SIEVE_CEILING = 10**8
DEFAULT_AP_BUDGET = 10**7
DEFAULT_TRIAL_CEILING = 10**7

_FIRST_SEGMENT = 1 << 10
_SEGMENT = 1 << 18


@dataclass(frozen=True)
class PrimeRange:
    """Closed interval [lo, hi]; iteration-by-sieve yields each prime in it once."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 2:
            raise ValueError(f"invalid prime range: lo={self.lo} must be >= 2")
        if self.hi < self.lo:
            raise ValueError(f"invalid prime range: hi={self.hi} < lo={self.lo}")


def prime_segments(
    lo: int, hi: int, *, ceiling: int = DEFAULT_SIEVE_CEILING
) -> Iterator[np.ndarray]:
    """Primes in [lo, hi] as increasing int64 arrays, one per sieve segment.

    Segments grow geometrically from _FIRST_SEGMENT to _SEGMENT integers and
    only one is held at a time, so memory does not grow with the range and
    the generator is cheap to abandon early.  A segment [start, stop] holds
    flags for its odd numbers only, first = start | 1 onward, and 2 is put
    in front when the segment starts at 2.  The odd base primes up to
    isqrt(stop) come from the cached _sieving_primes table, and each one's
    first odd multiple >= max(p*p, start) is found in one numpy step.
    """
    if hi > ceiling:
        raise ResourceBudgetError(
            f"sieve ceiling {ceiling} exceeded: requested primes up to {hi}"
        )
    lo = max(lo, 2)
    if hi < lo:
        return
    odd = np.empty(0, dtype=np.int64)  # below 9 no odd prime's square is in range
    if hi >= 9:
        odd = _sieving_primes(1 << math.isqrt(hi).bit_length())[1:]
    start, size = lo, _FIRST_SEGMENT
    while start <= hi:
        stop = min(start + size - 1, hi)
        first = start | 1
        flags = np.ones((stop - first) // 2 + 1, dtype=bool)
        base = odd[: np.searchsorted(odd, math.isqrt(stop), side="right")]
        # k*p is odd exactly when k is, as p is odd
        multiple = np.maximum(base * base, (-(-first // base) | 1) * base)
        for p, o in zip(base.tolist(), ((multiple - first) // 2).tolist()):
            flags[o::p] = False
        segment = np.flatnonzero(flags) * 2 + first
        if start == 2:
            segment = np.concatenate(([2], segment))
        if segment.size:
            yield segment
        start, size = stop + 1, min(4 * size, _SEGMENT)


def iter_primes(lo: int, hi: int, *, ceiling: int = DEFAULT_SIEVE_CEILING) -> Iterator[int]:
    """Yield primes in [lo, hi] in increasing order via a segmented sieve."""
    for segment in prime_segments(lo, hi, ceiling=ceiling):
        yield from segment.tolist()


def sieve_primes(rng: PrimeRange, *, ceiling: int = DEFAULT_SIEVE_CEILING) -> list[int]:
    """Exactly the primes in [rng.lo, rng.hi], increasing."""
    return list(iter_primes(rng.lo, rng.hi, ceiling=ceiling))


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Strong-pseudoprime testing against the 12 bases above is a proven primality
# test below this bound (~3.3e24); beyond it a strong Lucas-Selfridge test is
# added.  The combined test stays fully reproducible: no random bases.
MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: allocated limbs, signed limb count, limb pointer."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]


@functools.cache
def _gmp() -> ctypes.CDLL | None:
    """The system libgmp with the mpz calls _MpzResidues makes typed, or None
    when it is missing, lacks one of them, or its limbs are not the 64-bit
    little-endian words that int.to_bytes writes.

    Loaded on first use: finding the library can start a subprocess.
    """
    import ctypes.util
    import sys

    name = ctypes.util.find_library("gmp")
    if name is None or sys.byteorder != "little" or ctypes.sizeof(ctypes.c_ulong) != 8:
        return None
    mpz = ctypes.POINTER(_Mpz)
    try:
        lib = ctypes.CDLL(name)
        if ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value != 64:
            return None
        for fn, argtypes, restype in (
            (lib.__gmpz_init, [mpz], None),
            (lib.__gmpz_clear, [mpz], None),
            (lib.__gmpz_roinit_n, [mpz, ctypes.c_char_p, ctypes.c_long], ctypes.c_void_p),
            (lib.__gmpz_powm, [mpz, mpz, mpz, mpz], None),
            (lib.__gmpz_powm_ui, [mpz, mpz, ctypes.c_ulong, mpz], None),
            (lib.__gmpz_size, [mpz], ctypes.c_size_t),
            (lib.__gmpz_limbs_read, [mpz], ctypes.c_void_p),
        ):
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError, ValueError):
        return None
    return lib


# Residues mod n of at least this many bits live in libgmp; below it CPython's
# pow is as fast as the ctypes round trip. Measured with GMP 6.2.1 on a 2-vCPU
# x86-64 VM: both take ~22 us at 80 bits, and GMP is ~7x faster at 512-1024.
GMP_MIN_BITS = 96


class _IntResidues:
    """Residues mod n as ints, raised by CPython's pow."""

    def __init__(self, n: int) -> None:
        self._n = n

    def __enter__(self) -> "_IntResidues":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def value(self, x: int) -> int:
        return x % self._n

    def pow(self, x: int, e: int) -> int:
        return pow(x, e, self._n)

    def to_int(self, x: int) -> int:
        return x


class _MpzResidues:
    """Residues mod n as libgmp mpz values.

    An int enters as a read-only view over its own limbs (mpz_roinit_n), so
    nothing is copied or allocated for it; each power is a fresh mpz, and
    leaving the with block clears every one of them, also when a call inside
    it raised.  All state lives in the instance, so concurrent users each
    hold their own.
    """

    def __init__(self, gmp: ctypes.CDLL, n: int) -> None:
        # getattr, since gmp.__gmpz_init inside a class body would be name-mangled
        names = ("init", "clear", "roinit_n", "powm", "powm_ui", "size", "limbs_read")
        (self._init, self._clear, self._roinit, self._powm, self._powm_ui, self._size,
         self._limbs) = (getattr(gmp, "__gmpz_" + name) for name in names)
        self._made: list[_Mpz] = []
        self._viewed: list[bytes] = []  # the limbs the views read, kept alive
        self._n = n
        self._n_mpz = self._view(n)

    def __enter__(self) -> "_MpzResidues":
        return self

    def __exit__(self, *exc: object) -> None:
        for z in self._made:
            self._clear(z)
        self._made.clear()

    def _view(self, x: int) -> _Mpz:
        """A read-only mpz over the limbs of x >= 0."""
        size = (x.bit_length() + 63) // 64
        raw = x.to_bytes(8 * size, "little")
        self._viewed.append(raw)
        z = _Mpz()
        self._roinit(z, raw, size)
        return z

    def value(self, x: int) -> _Mpz:
        return self._view(x % self._n)

    def pow(self, x: _Mpz, e: int) -> _Mpz:
        z = _Mpz()
        self._init(z)
        self._made.append(z)
        if e >> 64:
            self._powm(z, x, self._view(e), self._n_mpz)
        else:
            self._powm_ui(z, x, e, self._n_mpz)
        return z

    def to_int(self, x: _Mpz) -> int:
        return int.from_bytes(ctypes.string_at(self._limbs(x), 8 * self._size(x)), "little")


_Residues = _IntResidues | _MpzResidues


def _residues(n: int) -> _Residues:
    """Residues mod n >= 1, as a context manager: libgmp's when n has
    GMP_MIN_BITS bits and the library loads, else CPython's."""
    if n.bit_length() < GMP_MIN_BITS or (gmp := _gmp()) is None:
        return _IntResidues(n)
    return _MpzResidues(gmp, n)


def _mr_round(ring: _Residues, n: int, a: int) -> bool:
    """One strong-probable-prime round to base a, its power in ring, the
    caller's _residues(n): a proof's many rounds share one view of n."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = ring.to_int(ring.pow(ring.value(a), d))
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters (method A)."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = kronecker(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    # Lucas sequence U_k, V_k for P=1, Q=q, evaluated at k = n+1.
    k = n + 1
    s = (k & -k).bit_length() - 1
    m = k >> s
    u, v, qk = 1, 1, q % n
    for bit in bin(m)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d * u) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v = (u >> 1) % n, (v >> 1) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic for n < MR_PROVEN_BOUND (fixed 12-base Miller-Rabin).

    Larger inputs additionally pass a strong Lucas-Selfridge test; the whole
    battery uses fixed parameters, so results are reproducible at any size.
    """
    n = operator.index(n)
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TINY_PRIMES[-1] ** 2:  # a composite this small has a tiny factor
        return True
    with _residues(n) as ring:
        if not all(_mr_round(ring, n, a) for a in _MR_BASES):
            return False
    if n < MR_PROVEN_BOUND:
        return True
    return _strong_lucas_prp(n)


PROVED = "proved"
PROBABLE = "probable"


def _cofactor_powers(x, powers: Sequence[tuple[int, int]], ring: _Residues) -> list:
    """x**(F/q) for each (q, q**v) in powers, F the product of the q**v, with x
    and the results residues of ring.

    A remainder tree: each half is raised to the other half's product, so
    every level's exponents together have about F's bits.
    """
    if len(powers) == 1:
        q, qv = powers[0]
        return [x if qv == q else ring.pow(x, qv // q)]
    left, right = powers[: len(powers) // 2], powers[len(powers) // 2 :]
    return (_cofactor_powers(ring.pow(x, math.prod(qv for _, qv in right)), left, ring)
            + _cofactor_powers(ring.pow(x, math.prod(qv for _, qv in left)), right, ring))


def _pocklington_holds(n: int, powers: Sequence[tuple[int, int]]) -> Optional[bool]:
    """Whether every prime factor of n is 1 mod F = prod of the q**v in powers,
    which all divide n - 1: True when each q has a base a with a**(n-1) = 1 and
    gcd(a**((n-1)/q) - 1, n) = 1, False when n is shown composite, None when no
    base was found for some q.

    The first base is the smallest a with Jacobi symbol (a|n) = -1, which
    serves q = 2 for every prime n; a q it misses retries the MR bases.  The
    residues stay in _residues(n) from a**((n-1)/F) to the leaves of the
    tree; only the values the checks read come back as ints.
    """
    a = 2
    while (symbol := kronecker(a, n)) == 1:
        a += 1
    if symbol == 0:  # a < n shares a factor with n
        return False
    f = math.prod(qv for _, qv in powers)
    with _residues(n) as ring:
        leaves = _cofactor_powers(ring.pow(ring.value(a), (n - 1) // f), powers, ring)
        if ring.to_int(ring.pow(leaves[0], powers[0][0])) != 1:  # a**(n-1) != 1
            return False
        for (q, _), y in zip(powers, leaves):
            bases = iter(_MR_BASES)
            # y = 1: this base says nothing about q
            while (g := math.gcd(ring.to_int(y) - 1, n)) == n:
                if (b := next(bases, None)) is None:
                    return None
                y = ring.pow(ring.value(b), (n - 1) // q)
                if ring.to_int(ring.pow(y, q)) != 1:
                    return False
            if g != 1:
                return False
    return True


def primality(n: int, factor_base: Iterable[int]) -> Optional[str]:
    """PROVED or PROBABLE when n is prime, None when it is composite.

    factor_base holds primes the caller knows to be prime; the structure of
    n - 1 over them decides which test runs.  Below MR_PROVEN_BOUND is_prime
    is a proof; above it _prove_by_n_minus_1 decides.
    """
    n = operator.index(n)
    if n < MR_PROVEN_BOUND:
        return PROVED if is_prime(n) else None
    return _prove_by_n_minus_1(n, factor_base)


def _prove_by_n_minus_1(n: int, factor_base: Iterable[int]) -> Optional[str]:
    """PROVED, PROBABLE or None for n > 1, by the structure of n - 1.

    The largest prime powers q**v exactly dividing n - 1 with q in
    factor_base are taken until their product F has F**3 > n, and
    Pocklington's criterion shows every prime factor of n to be 1 mod F.
    That proves n prime when F**2 > n; otherwise n = c2*F**2 + c1*F + 1 with
    0 <= c1, c2 < F, and n is prime iff c1**2 - 4*c2 is not a square
    (Brillhart, Lehmer and Selfridge, Math. Comp. 29 (1975), Thm 5; Crandall
    and Pomerance, Prime Numbers, section 4.1).  When the base falls short of
    F**3 > n, or no base serves some q, is_prime decides and n is PROBABLE.
    """
    if math.isqrt(n) ** 2 == n:
        return None
    powers = []
    for q in set(factor_base):
        if q < 2:
            raise ValueError(f"factor base entry {q} is not a prime")
        qv = q
        while (n - 1) % (qv * q) == 0:
            qv *= q
        if (n - 1) % qv == 0:
            powers.append((q, qv))
    f, used = 1, []
    for q, qv in sorted(powers, key=lambda p: p[1], reverse=True):
        if f**3 > n:
            break
        f *= qv
        used.append((q, qv))
    holds = _pocklington_holds(n, used) if f**3 > n else None
    if holds is None:
        return PROBABLE if is_prime(n) else None
    if not holds:
        return None
    if f * f > n:
        return PROVED
    c1, c2 = (n - 1) // f % f, (n - 1) // (f * f)
    d = c1 * c1 - 4 * c2
    return None if d >= 0 and math.isqrt(d) ** 2 == d else PROVED


# ---------------------------------------------------------------------------
# Residue symbols and congruences
# ---------------------------------------------------------------------------


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n); the Legendre symbol when n is an odd prime."""
    if n == 0:
        raise ValueError("kronecker symbol undefined for n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        z = (n & -n).bit_length() - 1
        n >>= z
        if z % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # n is now odd and positive; run the Jacobi loop.
    a %= n
    while a:
        while a % 2 == 0:
            a >>= 1
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue modulo the odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a = 2
    while kronecker(a, p) != -1:
        a += 1
    return a


_LIMB_BITS = 31

# Products of two residues stay exact in int64 while (q - 1)**2 < 2**63.
INT64_EXACT_BELOW = 3_037_000_500


def powmod_array(a: int, e, q: np.ndarray) -> np.ndarray:
    """a**e mod q entrywise, for an integer a >= 0 of any size, exponents
    e >= 0 (one int, or an int64 array like q) and int64 moduli q in
    [2, INT64_EXACT_BELOW).

    a is first reduced over 31-bit limbs by Horner's rule, so that
    base * 2**31 + limb stays below 2**63; the power is square-and-multiply
    on the whole vector at once.
    """
    base = np.zeros_like(q)
    mask = (1 << _LIMB_BITS) - 1
    for shift in range(_LIMB_BITS * ((a.bit_length() - 1) // _LIMB_BITS), -1, -_LIMB_BITS):
        base = ((base << _LIMB_BITS) + ((a >> shift) & mask)) % q
    power = np.ones_like(q)
    exponent = np.zeros_like(q) + e
    while True:
        power = np.where(exponent & 1, power * base % q, power)
        exponent >>= 1
        if not exponent.any():
            return power
        base = base * base % q


def crt_solve(congruences: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r_i (mod m_i) with pairwise coprime moduli >= 2.

    Returns (x, M) with x the smallest non-negative representative modulo
    M = prod m_i.
    """
    if not congruences:
        raise ValueError("crt_solve requires at least one congruence")
    for _, m in congruences:
        if m < 2:
            raise ValueError(f"modulus {m} must be >= 2")
    x, acc = congruences[0][0] % congruences[0][1], congruences[0][1]
    for j in range(1, len(congruences)):
        r, m = congruences[j]
        g = math.gcd(acc, m)
        if g != 1:
            for i in range(j):
                gi = math.gcd(congruences[i][1], m)
                if gi != 1:
                    raise ValueError(
                        f"moduli {congruences[i][1]} and {m} are not coprime "
                        f"(gcd={gi})"
                    )
            raise ValueError(f"modulus {m} is not coprime to the others (gcd={g})")
        # x + acc*t = r (mod m)
        t = (r - x) * pow(acc, -1, m) % m
        x += acc * t
        acc *= m
    return x % acc, acc


# Candidates the pre-sieve strikes at a time.  A prescribed quadratic's
# winner lies ~80 candidates into its progression, a thm12 stage 2's ~600.
_WINDOW = 64


@functools.cache
def _sieving_primes(bound: int) -> np.ndarray:
    """The primes up to bound, built on first use, read-only, and shared by
    later searches and by prime_segments for its base primes."""
    segments = prime_segments(2, bound, ceiling=bound)
    primes = np.concatenate([np.empty(0, dtype=np.int64), *segments])
    primes.flags.writeable = False
    return primes


def _presieve_bound(bits: int) -> int:
    """The sieve bound for a modulus of `bits` bits: a power of two from 2**10
    to 2**20, so that few prime tables are ever built.

    A survivor costs a modexp, which grows about as the cube of the size
    (0.12 ms at 600 bits, 36 ms at 4.8k with libgmp), while each sieving
    prime costs a few int64 operations.  Measured on both sides of that
    trade, the best bound is near 2**12 at 600 bits and 2**20 at 4.8k.
    """
    return 1 << min(max((bits**3 >> 15).bit_length() - 1, 10), 20)


def _survivor_is_prime(n: int, factor_base: Collection[int]) -> bool:
    """Whether a candidate n >= 2 that survived the pre-sieve is prime: one
    base-2 round, then primality's proof, which falls back to is_prime."""
    if n == 2:
        return True
    with _residues(n) as ring:
        if not _mr_round(ring, n, 2):
            return False
    return primality(n, factor_base) is not None


def find_prime_in_ap(
    residue: int,
    modulus: int,
    min_value: int,
    *,
    budget: int = DEFAULT_AP_BUDGET,
    factor_base: Collection[int] = (),
) -> int:
    """Smallest prime p = residue (mod modulus) with p > min_value.

    Dirichlet guarantees existence when gcd(residue, modulus) = 1; that
    precondition is enforced, and budget exhaustion therefore signals a
    configuration problem, never nonexistence.  budget counts candidates.

    The progression is walked in windows of _WINDOW candidates.  A numpy
    pre-sieve strikes every candidate above the sieve bound that a prime up
    to the bound divides, so only the survivors pay a modexp (GMP's
    mpz_nextprime idea).  A survivor that passes one base-2 Miller-Rabin
    round goes to primality(), which proves it over factor_base, primes the
    caller knows such as those of the modulus, and leaves to is_prime what
    the base cannot prove.  Only composites are passed over, so the same
    smallest prime comes out.
    """
    if modulus < 1:
        raise ValueError(f"modulus {modulus} must be >= 1")
    if math.gcd(residue, modulus) != 1:
        raise ValueError(
            f"residue {residue} and modulus {modulus} are not coprime; "
            "the progression contains at most one prime"
        )
    c = residue % modulus
    first = c + modulus * max(0, -((c - min_value - 1) // modulus))
    if first <= min_value:
        first += modulus
    bound = _presieve_bound(modulus.bit_length())
    q = _sieving_primes(bound)
    # By Fermat M**(2q-3) is M**-1 mod q, or 0 when q divides M and so no candidate
    inverse = powmod_array(modulus, 2 * q - 3, q)
    q, inverse = q[inverse != 0], inverse[inverse != 0]
    hit = -powmod_array(first, 1, q) * inverse % q  # q divides first + hit*M
    small = int(np.searchsorted(q, _WINDOW))  # the primes that can strike a window twice
    for start in range(0, budget, _WINDOW):
        width = min(_WINDOW, budget - start)
        low = first + start * modulus
        struck = np.zeros(width, dtype=bool)
        offset = (hit - start) % q
        for step, j in zip(q[:small].tolist(), offset[:small].tolist()):
            struck[j::step] = True
        late = offset[small:]
        struck[late[late < width]] = True
        if low <= bound:  # a candidate may be a sieving prime itself
            struck[: (bound - low) // modulus + 1] = False
        for j in np.flatnonzero(~struck).tolist():
            candidate = low + j * modulus
            if candidate >= 2 and _survivor_is_prime(candidate, factor_base):
                return candidate
    raise ResourceBudgetError(
        f"scan budget {budget} exhausted searching the progression "
        f"{residue} mod {modulus} above {min_value}"
    )


# ---------------------------------------------------------------------------
# Factored integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer carried with its full prime factorization."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        last = 1
        for p, a in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if a < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {a}")
            last = p

    @property
    def value(self) -> int:
        v = self.sign
        for p, a in self.factors:
            v *= p**a
        return v

    def __int__(self) -> int:
        return self.value

    @classmethod
    def from_int(cls, n: int, *, trial_ceiling: int = DEFAULT_TRIAL_CEILING) -> "FactoredInt":
        """Factor n by trial division up to trial_ceiling.

        Division stops as soon as the cofactor is 1 or passes the primality
        battery, which is tested on n and after each prime factor is divided
        out.  A cofactor still composite at the ceiling is rejected rather
        than guessed at.
        """
        n = operator.index(n)
        if n == 0:
            raise ValueError("cannot factor 0")
        sign = 1 if n > 0 else -1
        n = abs(n)
        factors: list[tuple[int, int]] = []
        settled = n == 1 or is_prime(n)
        wheel = (d + step for d in range(5, trial_ceiling + 1, 6) for step in (0, 2))
        for q in itertools.chain((2, 3), wheel):  # 2, 3, then 6k-1, 6k+1
            if settled:
                break
            if n % q == 0:
                a = 0
                while n % q == 0:
                    n //= q
                    a += 1
                factors.append((q, a))
                settled = n == 1 or is_prime(n)
        if not settled:
            raise ValueError(
                f"cofactor {n} is composite with no prime factor below "
                f"the trial ceiling {trial_ceiling}; refusing to guess"
            )
        if n > 1:
            factors.append((n, 1))
        factors.sort()
        return cls(sign, tuple(factors))

    @classmethod
    def from_known_factors(
        cls, sign: int, factors: Sequence[tuple[int, int]]
    ) -> "FactoredInt":
        """Assemble from primes the caller already knows (no refactoring)."""
        return cls(sign, tuple(sorted(factors)))


def squarefree_kernel(n: FactoredInt) -> FactoredInt:
    """Reduce every exponent mod 2: the squarefree part, same sign."""
    return FactoredInt(n.sign, tuple((p, 1) for p, a in n.factors if a % 2 == 1))
