"""Cohomology of a ring with Adams operations, in degrees zero and one.

Everything reduces to integer linear algebra through the vec encoding
of endomorphisms:

* degree zero: endomorphisms commuting with every Adams generator,
  inside the lattice of Frobenius-compatible ones; a kernel
  computation, so the answer is a free group with an explicit matrix
  basis.

* degree one: a cocycle is determined by its values at the primes of
  the universe, each divisible by its prime, subject to one symmetric
  compatibility relation per pair of primes.  Writing the value at p
  as p times an unknown matrix turns divisibility into a change of
  coordinates, the relations into a kernel, and the quotient by
  commutators with compatible endomorphisms into a Smith normal form
  with tracked generators.

The divisibility bookkeeping matters: degree-one values at a prime p
must vanish modulo p, or the commutator quotient would be computed in
the wrong lattice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .cochain import Cochain
from .errors import (
    DivisibilityViolation,
    InconsistentDerivation,
    InternalInconsistency,
    NotFrobeniusCompatible,
)
from .exactalg import (
    AbelianGroup,
    FormPacking,
    IntMatrix,
    Vector,
    operator_norms,
    product_forms,
    quotient_with_generators,
    row_space_basis,
    solve_forms,
    solve_linear,
)
from .rings import AdamsFamily, frobenius_compatible


def _commutator_forms(a: IntMatrix, forms: Sequence[int]) -> list[int]:
    """The forms of vec(a F - F a) from the d^2 forms of vec F.

    If the coefficients of vec F are at most c in absolute value, these
    are at most ``_commutator_bound(a, c)``.

    >>> packing = FormPacking(4, 2)
    >>> units = divided_blocks([1], 4, packing)[0]
    >>> forms = _commutator_forms(IntMatrix.from_rows([[0, 1], [0, 0]]), units)
    >>> [packing.unpack(f)[0] for f in forms]
    [[0, 0, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 0], [0, 0, -1, 0]]
    """
    left, right = product_forms(a, forms, True), product_forms(a, forms, False)
    return list(map(operator.sub, left, right))


def _commutator_bound(a: IntMatrix, c: int) -> int:
    return c * sum(operator_norms(a))


def divided_blocks(primes: Sequence[int], d2: int, packing: FormPacking) -> list[list[int]]:
    """The packed forms of vec f(p) = p vec X_p at each of the primes, in their order.

    The unknowns of ``packing`` start with the blocks X_p, of ``d2``
    entries each, one after another.
    """
    bits = packing.bits
    return [
        [p << (bits * e) for e in range(idx * d2, idx * d2 + d2)] for idx, p in enumerate(primes)
    ]


def _form_kernel(packing: FormPacking, forms: Sequence[int]) -> tuple[Vector, ...]:
    """Basis of the integer solutions of forms that have no constant."""
    solution = solve_forms(packing, forms)
    if solution is None:
        raise InternalInconsistency("a homogeneous system reported no solution")
    return solution.kernel


def _compatible_system(
    family: AdamsFamily, exact: bool, target: Optional[DerivationSpec] = None
) -> tuple[FormPacking, list[int]]:
    """The forms of the compatibility system in the unknowns vec(g), then e_p per prime.

    Per prime p in universe order: when ``exact``, the d^2 forms
    [A_p, g] - target(p), with a zero target when none is given, then
    the d^2 forms [Frob_p, g] + p * e_p, where the auxiliary unknown e_p
    absorbs the multiple of p that Frobenius compatibility allows.  The
    target goes into the constant slot, which the slot bound leaves free.
    """
    d2 = family.rank * family.rank
    primes = family.universe.primes
    bound = max(
        max(_commutator_bound(family.frobenius(p), 1) + p, _commutator_bound(a, 1) if exact else 0)
        for p, a in family.generators
    )
    packing = FormPacking(d2 * (1 + len(primes)), bound)
    g, *aux_blocks = divided_blocks((1, *primes), d2, packing)
    forms: list[int] = []
    for p, aux in zip(primes, aux_blocks):
        if exact:
            values = target.value(p).flat() if target is not None else (0,) * d2
            commutator = _commutator_forms(family.generator(p), g)
            forms.extend(f - (v << packing.shift) for f, v in zip(commutator, values))
        commutator = _commutator_forms(family.frobenius(p), g)
        forms.extend(map(operator.add, commutator, aux))
    return packing, forms


def _endomorphism_lattice(family: AdamsFamily, exact: bool) -> list[IntMatrix]:
    """Kernel of the compatibility system, projected onto vec(g) and re-echelonized."""
    d = family.rank
    kernel = _form_kernel(*_compatible_system(family, exact))
    return [
        IntMatrix.from_flat(d, d, v)
        for v in row_space_basis((v[: d * d] for v in kernel), d * d)
    ]


class DerivationSpec:
    """Degree-one data: one matrix per universe prime, divisible by it.

    The matrix at p is the value of the would-be cocycle there; the
    constructor enforces the divisibility that membership in the
    degree-one group demands.  Whether the data extends to an honest
    cocycle on all integers over the universe is a separate, pairwise check.
    """

    def __init__(self, family: AdamsFamily, values: Mapping[int, IntMatrix]) -> None:
        primes = family.universe.primes
        if set(values) != set(primes):
            raise ValueError(
                f"values must cover exactly the universe primes {primes}"
            )
        d = family.rank
        stored = []
        for p in primes:
            matrix = values[p]
            if matrix.rows != d or matrix.cols != d:
                raise ValueError(f"value at {p} must be {d}x{d}")
            if not matrix.is_divisible_by(p):
                raise DivisibilityViolation(
                    f"value at prime {p} must be divisible by {p}"
                )
            stored.append(matrix)
        self.family = family
        self.values = tuple(stored)
        self._cocycle: Optional[bool] = None
        self._extension: dict[int, IntMatrix] = {}

    def value(self, p: int) -> IntMatrix:
        primes = self.family.universe.primes
        return self.values[primes.index(p)]

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivationSpec):
            return NotImplemented
        return self.family == other.family and self.values == other.values

    def __add__(self, other: "DerivationSpec") -> "DerivationSpec":
        pairs = zip(self.family.universe.primes, self.values, other.values)
        return DerivationSpec(self.family, {p: a + b for p, a, b in pairs})

    def __sub__(self, other: "DerivationSpec") -> "DerivationSpec":
        pairs = zip(self.family.universe.primes, self.values, other.values)
        return DerivationSpec(self.family, {p: a - b for p, a, b in pairs})

    def __neg__(self) -> "DerivationSpec":
        return self.scale(-1)

    def scale(self, c: int) -> "DerivationSpec":
        pairs = zip(self.family.universe.primes, self.values)
        return DerivationSpec(self.family, {p: c * m for p, m in pairs})

    def x_coordinates(self) -> Vector:
        """Concatenated vec of the values divided by their primes."""
        coords: list[int] = []
        for p, matrix in zip(self.family.universe.primes, self.values):
            coords.extend(matrix.exact_divide(p).flat())
        return tuple(coords)

    @staticmethod
    def from_x_coordinates(family: AdamsFamily, coords: Sequence[int]) -> "DerivationSpec":
        d = family.rank
        primes = family.universe.primes
        if len(coords) != len(primes) * d * d:
            raise ValueError("coordinate vector has the wrong length")
        values = {}
        for idx, p in enumerate(primes):
            block = coords[idx * d * d : (idx + 1) * d * d]
            values[p] = p * IntMatrix.from_flat(d, d, block)
        return DerivationSpec(family, values)

    def is_cocycle(self) -> bool:
        """Pairwise symmetry: the two ways to reach f(pq) agree.

        For a free commutative monoid of primes this is exactly the
        condition under which the prime values extend to a cocycle.
        """
        if self._cocycle is None:
            pairs = combinations(zip(self.family.generators, self.values), 2)
            self._cocycle = all(
                ap @ fq + fp @ aq == aq @ fp + fq @ ap for ((_, ap), fp), ((_, aq), fq) in pairs
            )
        return self._cocycle

    def extend(self, m: int) -> IntMatrix:
        """Value at any integer over the universe, by peeling off smallest primes.

        Uses f(p * rest) = psi(p) f(rest) + f(p) psi(rest); the result
        is order-independent precisely because the data is a cocycle.
        """
        if not self.is_cocycle():
            raise InconsistentDerivation(
                "prime values do not satisfy the pairwise cocycle relations"
            )
        family = self.family
        if m == 1:
            return IntMatrix.zeros(family.rank, family.rank)
        if m not in self._extension:
            p, rest = family.universe.peel(m)
            if rest == 1:
                value = self.value(p)
            else:
                value = family.generator(p) @ self.extend(rest) + self.value(p) @ family.adams_at(rest)
            self._extension[m] = value
        return self._extension[m]

    def as_cochain(self) -> Cochain:
        """The cocycle as a dimension-one cochain (requires consistency)."""
        if not self.is_cocycle():
            raise InconsistentDerivation(
                "prime values do not satisfy the pairwise cocycle relations"
            )
        return Cochain(self.family, 1, lambda args: self.extend(args[0]))


def inner_derivation(family: AdamsFamily, g: IntMatrix) -> DerivationSpec:
    """The coboundary of a compatible endomorphism, as prime values.

    Compatibility makes each commutator with an Adams generator
    divisible by its prime, which is exactly what DerivationSpec needs.
    """
    if not frobenius_compatible(g, family):
        raise NotFrobeniusCompatible(
            "inner derivations come from Frobenius-compatible endomorphisms"
        )
    return DerivationSpec(family, {p: a @ g - g @ a for p, a in family.generators})


def frobenius_compatible_basis(family: AdamsFamily) -> list[IntMatrix]:
    """Lattice basis of endomorphisms commuting with Frobenius mod p.

    Solved with one auxiliary matrix unknown per prime absorbing the
    multiple of p, then projecting the kernel onto the endomorphism
    block and re-echelonizing.
    """
    return _endomorphism_lattice(family, exact=False)


@dataclass(frozen=True)
class H0Result:
    """Degree-zero cohomology: always free, with an explicit basis."""

    group: AbelianGroup
    basis: tuple[IntMatrix, ...]


def compute_H0(family: AdamsFamily) -> H0Result:
    """Compatible endomorphisms commuting with every Adams generator.

    Commuting with the generators forces commuting with all Adams
    matrices, since those are products of generator powers.
    """
    basis = tuple(_endomorphism_lattice(family, exact=True))
    return H0Result(AbelianGroup(len(basis), ()), basis)


def cocycle_space_basis(family: AdamsFamily) -> list[DerivationSpec]:
    """Basis of the degree-one cocycles, as derivation specs."""
    return [DerivationSpec.from_x_coordinates(family, v) for v in _cocycle_kernel(family)]


def _cocycle_kernel(family: AdamsFamily) -> tuple[Vector, ...]:
    """Kernel of the pairwise relations in the divided coordinates.

    Unknown X_p satisfies f(p) = p X_p; the relation for p < q reads
    [A_p, f(q)] - [A_q, f(p)] = 0.
    """
    d2 = family.rank * family.rank
    primes = family.universe.primes
    pairs = list(combinations(family.generators, 2))
    bound = max(
        (_commutator_bound(ap, q) + _commutator_bound(aq, p) for (p, ap), (q, aq) in pairs),
        default=0,
    )
    packing = FormPacking(len(primes) * d2, bound)
    values = dict(zip(primes, divided_blocks(primes, d2, packing)))
    forms: list[int] = []
    for (p, ap), (q, aq) in pairs:
        ap_fq, aq_fp = _commutator_forms(ap, values[q]), _commutator_forms(aq, values[p])
        forms.extend(map(operator.sub, ap_fq, aq_fp))
    return _form_kernel(packing, forms)


@dataclass(frozen=True)
class H1Class:
    """A generator of degree-one cohomology with its order (0 = infinite)."""

    order: int
    derivation: DerivationSpec


@dataclass(frozen=True)
class H1Result:
    """Degree-one cohomology with explicit representing cocycles."""

    group: AbelianGroup
    classes: tuple[H1Class, ...]
    cocycle_basis: tuple[DerivationSpec, ...]


def compute_H1(family: AdamsFamily) -> H1Result:
    """Cocycles modulo commutators with compatible endomorphisms.

    The coboundary images are rewritten in the cocycle basis (they must
    lie in its span; anything else is an internal error) and the
    quotient is read off a Smith normal form, keeping generator
    vectors so each class comes with a concrete cocycle.
    """
    cocycles = _cocycle_kernel(family)
    rank = len(cocycles)
    specs = tuple(DerivationSpec.from_x_coordinates(family, v) for v in cocycles)
    images = [
        inner_derivation(family, g).x_coordinates() for g in frobenius_compatible_basis(family)
    ]
    # rank >= |universe|: X_p = I at one prime and 0 at the others is always a cocycle
    basis_matrix = IntMatrix.from_columns(cocycles, len(cocycles[0]))
    columns: list[Vector] = []
    for v in images:
        solution = solve_linear(basis_matrix, v)
        if solution is None:
            raise InternalInconsistency("coboundary image escapes the cocycle lattice")
        columns.append(solution.particular)
    # columns is never empty: the identity is always Frobenius-compatible
    group, generators = quotient_with_generators(IntMatrix.from_columns(columns, rank))
    classes = []
    for gen in generators:
        coords = basis_matrix.apply(gen.vector)
        classes.append(H1Class(gen.order, DerivationSpec.from_x_coordinates(family, coords)))
    return H1Result(group, tuple(classes), specs)


def solve_coboundary_1(family: AdamsFamily, target: DerivationSpec) -> Optional[IntMatrix]:
    """A compatible endomorphism whose coboundary is the target, if any.

    One combined system: exact commutator equations against each Adams
    generator, plus the Frobenius-compatibility congruences with their
    auxiliary unknowns.  Returns None when the target is not an inner
    derivation, which is a certificate relative to this universe.
    """
    solution = solve_forms(*_compatible_system(family, exact=True, target=target))
    if solution is None:
        return None
    d = family.rank
    return IntMatrix.from_flat(d, d, solution.particular[: d * d])
