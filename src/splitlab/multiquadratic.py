"""Composita of quadratic fields as square-class groups over GF(2).

A multiquadratic field is held as a reduced basis of square classes.  Each
class is the support set of a squarefree integer: its prime divisors together
with -1 for the sign, multiplication of classes being symmetric difference of
supports.  Gaussian elimination over the ordered alphabet (-1, 2, 3, 5, ...)
keeps the basis in a canonical reduced echelon form, which makes membership,
disjointness and class enumeration cheap bit pushing.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Union

from .errors import ResourceBudgetError
from .quadratic import LocalData, SplittingType, SquarefreeInt, splitting_type, two_adic_class
from .primes import kronecker

_CLASS_ENUM_CAP = 20


def _atom_key(a: int) -> tuple[int, int]:
    # -1 sorts before every prime
    return (0, 0) if a == -1 else (1, a)


def _pivot(atoms: frozenset[int]) -> int:
    return min(atoms, key=_atom_key)


def _atoms_to_squarefree(atoms: frozenset[int]) -> SquarefreeInt:
    sign = -1 if -1 in atoms else 1
    return SquarefreeInt.from_prime_factors(sign, (a for a in atoms if a != -1))


def _reduce_rows(rows: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """Reduced echelon basis of the span, ordered by pivot atom."""
    basis: list[frozenset[int]] = []
    for vec in rows:
        for row in basis:
            if _pivot(row) in vec:
                vec = vec ^ row
        if not vec:
            continue
        piv = _pivot(vec)
        basis = [row ^ vec if piv in row else row for row in basis]
        basis.append(vec)
        basis.sort(key=lambda row: _atom_key(_pivot(row)))
    return basis


@dataclass(frozen=True)
class MultiquadField:
    """A compositum of quadratic fields; the empty basis denotes Q itself."""

    basis: tuple[SquarefreeInt, ...]

    @classmethod
    def rationals(cls) -> "MultiquadField":
        return cls(())

    @classmethod
    def _from_rows(cls, rows: Iterable[frozenset[int]]) -> "MultiquadField":
        """The field whose classes the atom sets in `rows` span, on its reduced basis."""
        return cls(tuple(_atoms_to_squarefree(v) for v in _reduce_rows(rows)))

    @classmethod
    def from_generators(
        cls, generators: Iterable[Union[int, SquarefreeInt]]
    ) -> "MultiquadField":
        return cls._from_rows(  # 1 is the trivial square class
            (g if isinstance(g, SquarefreeInt) else SquarefreeInt.from_int(operator.index(g))).atoms
            for g in generators if g != 1)

    @property
    def degree(self) -> int:
        return 1 << len(self.basis)

    def _vectors(self) -> list[frozenset[int]]:
        return [b.atoms for b in self.basis]

    def _residual(self, atoms: frozenset[int]) -> frozenset[int]:
        for row in self._vectors():
            if _pivot(row) in atoms:
                atoms = atoms ^ row
        return atoms

    def contains_sqrt(self, m: Union[int, SquarefreeInt]) -> bool:
        """True iff sqrt(m) lies in the field, i.e. m is in the class span."""
        if isinstance(m, int):
            if m == 1:
                return True
            m = SquarefreeInt.from_int(m)
        return not self._residual(m.atoms)

    def adjoin(self, m: Union[int, SquarefreeInt]) -> "MultiquadField":
        """The compositum with Q(sqrt(m)); degree doubles iff m is a new class."""
        if isinstance(m, int):
            m = SquarefreeInt.from_int(m)
        return MultiquadField._from_rows(self._vectors() + [m.atoms])

    def square_classes(self) -> Iterator[SquarefreeInt]:
        """All 2^r - 1 nontrivial classes of the group (oracle-scale only)."""
        r = len(self.basis)
        if r > _CLASS_ENUM_CAP:
            raise ResourceBudgetError(
                f"refusing to enumerate 2^{r} square classes (cap 2^{_CLASS_ENUM_CAP})"
            )
        vecs = self._vectors()
        for size in range(1, r + 1):
            for combo in itertools.combinations(vecs, size):
                atoms = reduce(lambda x, y: x ^ y, combo)
                yield _atoms_to_squarefree(atoms)


def compositum(left: MultiquadField, right: MultiquadField) -> MultiquadField:
    return MultiquadField._from_rows(left._vectors() + right._vectors())


def linearly_disjoint(left: MultiquadField, right: MultiquadField) -> bool:
    """True iff the square-class groups intersect trivially."""
    joint = len(_reduce_rows(left._vectors() + right._vectors()))
    return joint == len(left.basis) + len(right.basis)


def is_totally_real(field: MultiquadField) -> bool:
    """True iff every class is positive; on a reduced basis, iff every generator is."""
    return all(b.value > 0 for b in field.basis)


# ---------------------------------------------------------------------------
# Local data
# ---------------------------------------------------------------------------

# The atom sets of the eight 2-adic class representatives (see
# quadratic.two_adic_class): the images of the classes in Q_2* / (Q_2*)^2.
_TWO_ADIC_ATOMS = {r: SquarefreeInt.from_int(r).atoms for r in (5, -1, -5, 2, 10, -2, -10)}
_TWO_ADIC_ATOMS[1] = frozenset()


def _class_symbol_mod(atoms: frozenset[int], p: int) -> int:
    """Kronecker symbol of the class value modulo the odd prime p."""
    s = 1
    for a in atoms:
        s *= kronecker(a, p)
    return s


def local_data(field: MultiquadField, p: int) -> LocalData:
    """(e, f, g) at p; e and f lie in {1, 2} for odd p, e in {1, 2, 4} at p = 2."""
    deg = field.degree
    if p == 2:
        # The image's rank r gives the local degree e*f = 2**r; f = 2 iff 5 lies in it.
        images = [_TWO_ADIC_ATOMS[two_adic_class(b.value)] for b in field.basis]
        rank = len(_reduce_rows(images))
        f = 2 if len(_reduce_rows(images + [_TWO_ADIC_ATOMS[5]])) == rank else 1
        return LocalData((1 << rank) // f, f, deg >> rank)
    vectors = field._vectors()
    ramified = [v for v in vectors if p in v]
    free = [v for v in vectors if p not in v]
    e = 2 if ramified else 1
    if ramified:
        head = ramified[0]
        free.extend(v ^ head for v in ramified[1:])
    f = 2 if any(_class_symbol_mod(v, p) == -1 for v in free) else 1
    return LocalData(e, f, deg // (e * f))


def totally_split(field: MultiquadField, p: int) -> bool:
    """True iff (e, f, g) = (1, 1, degree).

    Equivalently, p splits in every generator's quadratic field: splitting in
    each of two fields is splitting in their compositum, and both the residue
    symbol and the 2-adic class are multiplicative across classes.
    """
    return all(splitting_type(b, p) is SplittingType.SPLIT for b in field.basis)
