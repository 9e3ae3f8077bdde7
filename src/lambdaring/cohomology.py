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

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cochain import Cochain
from .errors import (
    DivisibilityViolation,
    InconsistentDerivation,
    NotFrobeniusCompatible,
)
from .exactalg import (
    AbelianGroup,
    IntMatrix,
    Vector,
    kernel_basis,
    left_multiplication_operator,
    quotient_with_generators,
    right_multiplication_operator,
    row_space_basis,
    solve_linear,
    vec_add,
    vec_scale,
    vec_zero,
)
from .rings import AdamsFamily, FactoredInt, frobenius_compatible


def _commutator_operator(matrix: IntMatrix) -> IntMatrix:
    """Operator sending vec(g) to vec(matrix @ g - g @ matrix)."""
    return left_multiplication_operator(matrix) - right_multiplication_operator(matrix)


class DerivationSpec:
    """Degree-one data: one matrix per universe prime, divisible by it.

    The matrix at p is the value of the would-be cocycle there; the
    constructor enforces the divisibility that membership in the
    degree-one group demands.  Whether the data extends to an honest
    cocycle on all factored integers is a separate, pairwise check.
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
        self._extension: dict[FactoredInt, IntMatrix] = {}

    def value(self, p: int) -> IntMatrix:
        primes = self.family.universe.primes
        return self.values[primes.index(p)]

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivationSpec):
            return NotImplemented
        return self.family.ring == other.family.ring and self.values == other.values

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
            family = self.family
            primes = family.universe.primes
            ok = True
            for i in range(len(primes)):
                for j in range(i + 1, len(primes)):
                    p, q = primes[i], primes[j]
                    ap, aq = family.generator(p), family.generator(q)
                    fp, fq = self.values[i], self.values[j]
                    if ap @ fq + fp @ aq != aq @ fp + fq @ ap:
                        ok = False
            self._cocycle = ok
        return self._cocycle

    def extend(self, m) -> IntMatrix:
        """Value at any factored integer, by peeling off smallest primes.

        Uses f(p * rest) = psi(p) f(rest) + f(p) psi(rest); the result
        is order-independent precisely because the data is a cocycle.
        """
        if not self.is_cocycle():
            raise InconsistentDerivation(
                "prime values do not satisfy the pairwise cocycle relations"
            )
        family = self.family
        if not isinstance(m, FactoredInt):
            m = family.universe.factor(int(m))
        d = family.rank

        def rec(n: FactoredInt) -> IntMatrix:
            if n.is_one:
                return IntMatrix.zeros(d, d)
            if n in self._extension:
                return self._extension[n]
            p, rest = n.peel()
            if rest.is_one:
                value = self.value(p)
            else:
                value = family.generator(p) @ rec(rest) + self.value(p) @ family.adams_at(rest)
            self._extension[n] = value
            return value

        return rec(m)

    def as_cochain(self) -> Cochain:
        """The cocycle as a dimension-one cochain (requires consistency)."""
        if not self.is_cocycle():
            raise InconsistentDerivation(
                "prime values do not satisfy the pairwise cocycle relations"
            )
        return Cochain(
            self.family,
            1,
            lambda args: self.extend(args[0]),
            prime_divisible=True,
        )


def is_derivation(spec: DerivationSpec) -> bool:
    """Whether the degree-one data is a cocycle for the differential."""
    return spec.is_cocycle()


def extend_derivation(spec: DerivationSpec, m) -> IntMatrix:
    """Cocycle value at a factored integer; raises on inconsistent data."""
    return spec.extend(m)


def inner_derivation(family: AdamsFamily, g: IntMatrix) -> DerivationSpec:
    """The coboundary of a compatible endomorphism, as prime values.

    Compatibility makes each commutator with an Adams generator
    divisible by its prime, which is exactly what DerivationSpec needs.
    """
    if not frobenius_compatible(g, family):
        raise NotFrobeniusCompatible(
            "inner derivations come from Frobenius-compatible endomorphisms"
        )
    values = {}
    for p in family.universe.primes:
        a = family.generator(p)
        values[p] = a @ g - g @ a
    return DerivationSpec(family, values)


def frobenius_compatible_basis(family: AdamsFamily) -> list[IntMatrix]:
    """Lattice basis of endomorphisms commuting with Frobenius mod p.

    Solved with one auxiliary matrix unknown per prime absorbing the
    multiple of p, then projecting the kernel onto the endomorphism
    block and re-echelonizing.
    """
    d = family.rank
    d2 = d * d
    primes = family.universe.primes
    width = d2 * (1 + len(primes))
    rows: list[list[int]] = []
    for idx, p in enumerate(primes):
        c = _commutator_operator(family.frobenius(p))
        for r in range(d2):
            row = [0] * width
            row[0:d2] = c.row(r)
            row[d2 * (1 + idx) + r] = p
            rows.append(row)
    kernel = kernel_basis(IntMatrix.from_rows(rows))
    projected = [v[:d2] for v in kernel]
    return [
        IntMatrix.from_flat(d, d, v) for v in row_space_basis(projected, d2)
    ]


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
    d = family.rank
    d2 = d * d
    primes = family.universe.primes
    width = d2 * (1 + len(primes))
    rows: list[list[int]] = []
    for idx, p in enumerate(primes):
        exact = _commutator_operator(family.generator(p))
        for r in range(d2):
            row = [0] * width
            row[0:d2] = exact.row(r)
            rows.append(row)
        compat = _commutator_operator(family.frobenius(p))
        for r in range(d2):
            row = [0] * width
            row[0:d2] = compat.row(r)
            row[d2 * (1 + idx) + r] = p
            rows.append(row)
    kernel = kernel_basis(IntMatrix.from_rows(rows))
    projected = [v[:d2] for v in kernel]
    basis_vectors = row_space_basis(projected, d2)
    basis = tuple(IntMatrix.from_flat(d, d, v) for v in basis_vectors)
    return H0Result(AbelianGroup(len(basis), ()), basis)


def cocycle_space_basis(family: AdamsFamily) -> list[DerivationSpec]:
    """Basis of the degree-one cocycles, as derivation specs."""
    return [
        DerivationSpec.from_x_coordinates(family, v)
        for v in _cocycle_kernel(family)
    ]


def _cocycle_kernel(family: AdamsFamily) -> list[Vector]:
    """Kernel of the pairwise relations in the divided coordinates.

    Unknown X_p satisfies f(p) = p X_p; the relation for p < q reads
    q [A_p, X_q] = p [A_q, X_p].
    """
    d2 = family.rank * family.rank
    primes = family.universe.primes
    k = len(primes)
    width = k * d2
    rows: list[list[int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            p, q = primes[i], primes[j]
            cp = _commutator_operator(family.generator(p))
            cq = _commutator_operator(family.generator(q))
            for r in range(d2):
                row = [0] * width
                left = vec_scale(q, tuple(cp.row(r)))
                right = vec_scale(-p, tuple(cq.row(r)))
                row[j * d2 : (j + 1) * d2] = left
                row[i * d2 : (i + 1) * d2] = right
                rows.append(row)
    if not rows:
        rows = [[0] * width]
    return kernel_basis(IntMatrix.from_rows(rows))


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
    specs = tuple(
        DerivationSpec.from_x_coordinates(family, v) for v in cocycles
    )
    images: list[Vector] = []
    for g in frobenius_compatible_basis(family):
        coords: list[int] = []
        for p in family.universe.primes:
            a = family.generator(p)
            commutator = a @ g - g @ a
            coords.extend(commutator.exact_divide(p).flat())
        images.append(tuple(coords))
    if rank == 0:
        return H1Result(AbelianGroup(0, ()), (), ())
    basis_matrix = IntMatrix.from_columns(cocycles, len(cocycles[0]))
    columns: list[Vector] = []
    for v in images:
        solution = solve_linear(basis_matrix, v)
        if solution is None:
            raise AssertionError("coboundary image escapes the cocycle lattice")
        columns.append(solution.particular)
    if columns:
        relations = IntMatrix.from_columns(columns, rank)
    else:
        relations = IntMatrix.zeros(rank, 1)
    group, generators = quotient_with_generators(rank, relations)
    classes = []
    for gen in generators:
        coords = vec_zero(len(cocycles[0]))
        for c, basis_vector in zip(gen.vector, cocycles):
            coords = vec_add(coords, vec_scale(c, basis_vector))
        classes.append(
            H1Class(gen.order, DerivationSpec.from_x_coordinates(family, coords))
        )
    return H1Result(group, tuple(classes), specs)


def solve_coboundary_1(
    family: AdamsFamily, target: DerivationSpec
) -> Optional[IntMatrix]:
    """A compatible endomorphism whose coboundary is the target, if any.

    One combined system: exact commutator equations against each Adams
    generator, plus the Frobenius-compatibility congruences with their
    auxiliary unknowns.  Returns None when the target is not an inner
    derivation, which is a certificate relative to this universe.
    """
    d = family.rank
    d2 = d * d
    primes = family.universe.primes
    width = d2 * (1 + len(primes))
    rows: list[list[int]] = []
    rhs: list[int] = []
    for idx, p in enumerate(primes):
        exact = _commutator_operator(family.generator(p))
        target_flat = target.value(p).flat()
        for r in range(d2):
            row = [0] * width
            row[0:d2] = exact.row(r)
            rows.append(row)
            rhs.append(target_flat[r])
        compat = _commutator_operator(family.frobenius(p))
        for r in range(d2):
            row = [0] * width
            row[0:d2] = compat.row(r)
            row[d2 * (1 + idx) + r] = p
            rows.append(row)
            rhs.append(0)
    solution = solve_linear(IntMatrix.from_rows(rows), tuple(rhs))
    if solution is None:
        return None
    return IntMatrix.from_flat(d, d, solution.particular[:d2])
