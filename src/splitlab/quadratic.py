"""The quadratic field Q(sqrt(m)): discriminant and splitting type of every prime."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .primes import FactoredInt, kronecker


class SplittingType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class LocalData:
    """Ramification index e, inertia degree f, number of primes above g."""

    e: int
    f: int
    g: int

    def __post_init__(self) -> None:
        if min(self.e, self.f, self.g) < 1:
            raise ValueError(f"local data must be positive, got {self}")

    @property
    def degree(self) -> int:
        return self.e * self.f * self.g


@dataclass(frozen=True)
class SquarefreeInt:
    """A squarefree integer m not in {0, 1}, denoting the field Q(sqrt(m)).

    Negative m is allowed (totally complex field); m = 1 would denote Q and is
    rejected here, the trivial field being represented only by the empty
    multiquadratic basis.
    """

    factored: FactoredInt

    def __post_init__(self) -> None:
        if any(a != 1 for _, a in self.factored.factors):
            raise ValueError(f"{self.factored.value} is not squarefree")
        if self.factored.value == 1:
            raise ValueError("m = 1 denotes the rational field; rejected here")

    @property
    def value(self) -> int:
        return self.factored.value

    @property
    def atoms(self) -> frozenset[int]:
        """The square-class support: prime divisors, plus -1 for the sign."""
        atoms = {p for p, _ in self.factored.factors}
        if self.factored.sign < 0:
            atoms.add(-1)
        return frozenset(atoms)

    def __int__(self) -> int:
        return self.value

    @classmethod
    def from_int(cls, m: int) -> "SquarefreeInt":
        return cls(FactoredInt.from_int(m))

    @classmethod
    def from_prime_factors(cls, sign: int, primes: Iterable[int]) -> "SquarefreeInt":
        """Fast path when the (distinct) prime divisors are already known."""
        return cls(FactoredInt.from_known_factors(sign, [(p, 1) for p in primes]))


def discriminant(field: SquarefreeInt) -> int:
    """m if m = 1 (mod 4), else 4m."""
    m = field.value
    return m if m % 4 == 1 else 4 * m


# Square classes of the 2-adic field, written (-1)^a 5^b 2^c: the odd part's
# residue mod 8 gives (a, b), the parity of the exponent of 2 gives c.
_TWO_ADIC_ODD = {1: (0, 0), 3: (1, 1), 5: (0, 1), 7: (1, 0)}

# 2 splits for the trivial class, is inert for the class of 5 and ramifies for the other six.
_TWO_ADIC_SPLITTING = {(0, 0, 0): SplittingType.SPLIT, (0, 1, 0): SplittingType.INERT}


def two_adic_class(m: int) -> tuple[int, int, int]:
    """Image of a squarefree m in Q_2* / (Q_2*)^2 as exponents of (-1, 5, 2)."""
    if m == 0:
        raise ValueError("0 has no square class")
    c = 1 - m % 2
    return (*_TWO_ADIC_ODD[(m >> c) % 8], c)


def splitting_type(field: SquarefreeInt, p: int) -> SplittingType:
    """How the rational prime p decomposes in Q(sqrt(m))."""
    m = field.value
    if p == 2:
        return _TWO_ADIC_SPLITTING.get(two_adic_class(m), SplittingType.RAMIFIED)
    if m % p == 0:
        return SplittingType.RAMIFIED
    return SplittingType.SPLIT if kronecker(m, p) == 1 else SplittingType.INERT


_LOCAL = {
    SplittingType.RAMIFIED: LocalData(2, 1, 1),
    SplittingType.INERT: LocalData(1, 2, 1),
    SplittingType.SPLIT: LocalData(1, 1, 2),
}


def local_data_quadratic(field: SquarefreeInt, p: int) -> LocalData:
    return _LOCAL[splitting_type(field, p)]
