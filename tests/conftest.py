"""Shared fixtures: preset families, a small nilpotent example and seeded deformations."""

import os
import random
from pathlib import Path

import pytest

from lambdaring.cohomology import cocycle_space_basis
from lambdaring.deformation import Deformation, _extension_system, infinitesimal, make_deformation
from lambdaring.exactalg import FormPacking, IntMatrix
from lambdaring.rings import (
    AdamsFamily,
    PrimeUniverse,
    RingSpec,
    _cyclic_adams_matrix,
    _cyclic_group_ring,
    preset_family,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(*paths: str) -> dict:
    """The environment of a child interpreter: src, then ``paths``, first on PYTHONPATH."""
    entries = [str(SRC), *paths, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def nilpotent_family(primes=(2, 3, 5)) -> AdamsFamily:
    """Rank-3 truncated polynomial ring Z[x]/(x^3) with basis (1, x, x^2).

    The Adams operation for p sends x to x^p, which is x^2 for p = 2 and
    zero for every larger prime because x^3 = 0.
    """
    structure = tuple(
        tuple(
            tuple(int(k == i + j) for k in range(3))
            for j in range(3)
        )
        for i in range(3)
    )
    spec = RingSpec(rank=3, structure=structure, unit=(1, 0, 0), name="NilCubed")
    generators = []
    for p in primes:
        image_of_x = (0, 0, 1) if p == 2 else (0, 0, 0)
        image_of_x2 = (0, 0, 0)
        cols = [(1, 0, 0), image_of_x, image_of_x2]
        generators.append((p, IntMatrix.from_columns(cols, 3)))
    return AdamsFamily(spec, PrimeUniverse(tuple(primes)), tuple(generators))


def dual_numbers_family(primes) -> AdamsFamily:
    """Z[e]/(e^2) with psi_p(a + b e) = a + p b e: Adams matrices diag(1, n) at n."""
    structure = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    spec = RingSpec(rank=2, structure=structure, unit=(1, 0), name="Dual")
    generators = tuple((p, IntMatrix.from_rows([[1, 0], [0, p]])) for p in primes)
    return AdamsFamily(spec, PrimeUniverse(tuple(primes)), generators)


def cyclic_family(k: int, primes) -> AdamsFamily:
    """The group ring Z[C_k] with psi_p(x) = x^p over the given primes."""
    spec = _cyclic_group_ring(k, f"ZC{k}")
    generators = tuple((p, _cyclic_adams_matrix(k, p)) for p in primes)
    return AdamsFamily(spec, PrimeUniverse(primes), generators)


def noncommuting_family() -> AdamsFamily:
    """Synthetic data violating generator commutation.

    Not a valid Adams family (verification reports the failure); used
    to exercise the no-extension certificate, which only needs the
    solver-side structure.
    """
    spec = preset_family("RC2", (2, 3)).ring
    return AdamsFamily(
        spec,
        PrimeUniverse((2, 3)),
        (
            (2, IntMatrix.from_rows([[1, 1], [0, 0]])),
            (3, IntMatrix.from_rows([[0, 1], [1, 0]])),
        ),
    )


# The row-major Kronecker operators as explicit comprehensions, apart from
# the library's vec-form builder, so that the references built on them do
# not compare that builder with itself.


def kronecker_left(a: IntMatrix) -> IntMatrix:
    """Operator L with ``L @ vec(M) == vec(A @ M)`` in row-major vec convention."""
    d = a.rows
    r = range(d)  # row (i, j), column (k, l): A[i][k] where l == j
    flat = [a[i, k] * (l == j) for i in r for j in r for k in r for l in r]
    return IntMatrix.from_flat(d * d, d * d, flat)


def kronecker_right(b: IntMatrix) -> IntMatrix:
    """Operator R with ``R @ vec(M) == vec(M @ B)`` in row-major vec convention."""
    d = b.rows
    r = range(d)  # row (i, j), column (l, k): B[k][j] where l == i
    flat = [b[k, j] * (l == i) for i in r for j in r for l in r for k in r]
    return IntMatrix.from_flat(d * d, d * d, flat)


def elementary_product(rank: int, steps):
    """g, the product of the I + c E_ij for the (i, j, c) in steps, and its inverse.

    Each factor is unimodular, with inverse I - c E_ij, so g is too.
    """
    g = g_inv = IntMatrix.identity(rank)
    for i, j, c in steps:
        shear = IntMatrix.from_flat(rank, rank, [c * (k == i * rank + j) for k in range(rank**2)])
        g = g @ (IntMatrix.identity(rank) + shear)
        g_inv = (IntMatrix.identity(rank) - shear) @ g_inv
    return g, g_inv


def change_of_basis(family: AdamsFamily, g: IntMatrix, g_inv: IntMatrix) -> AdamsFamily:
    """The same lambda-ring in the basis f_k = sum_i g[i, k] e_i, for a unimodular g.

    A vector with new coordinates y has old coordinates g y, so the
    product f_a f_b has new coordinates g^-1 (f_a f_b), the unit is
    g^-1 u, and the Adams matrix A_p becomes g^-1 A_p g.
    """
    spec = family.ring
    basis = [g.column(k) for k in range(spec.rank)]
    structure = tuple(tuple(g_inv.apply(spec.mul(x, y)) for y in basis) for x in basis)
    ring = RingSpec(rank=spec.rank, structure=structure, unit=g_inv.apply(spec.unit), name=spec.name)
    generators = tuple((p, g_inv @ a @ g) for p, a in family.generators)
    return AdamsFamily(ring, family.universe, generators)


def tensor_product(first: AdamsFamily, second: AdamsFamily) -> AdamsFamily:
    """R tensor S over the universe of both, with basis e_i f_k at index i * rank(S) + k.

    (e_i f_k)(e_j f_l) = (e_i e_j)(f_k f_l), so the structure constants
    and the unit are Kronecker products of those of R and S, and psi_p
    of the product is psi_p tensor psi_p, the Kronecker product of the
    Adams matrices.
    """
    assert first.universe == second.universe
    r, s = first.ring, second.ring

    def kronecker(x, y):
        return tuple(a * b for a in x for b in y)

    pairs = [(i, k) for i in range(r.rank) for k in range(s.rank)]
    structure = tuple(
        tuple(kronecker(r.structure[i][j], s.structure[k][l]) for j, l in pairs) for i, k in pairs
    )
    n = len(pairs)
    ring = RingSpec(
        rank=n, structure=structure, unit=kronecker(r.unit, s.unit), name=f"{r.name}(x){s.name}"
    )
    generators = tuple(
        (p, IntMatrix.from_flat(n, n, [a[i, j] * b[k, l] for i, k in pairs for j, l in pairs]))
        for (p, a), b in zip(first.generators, map(second.generator, first.universe.primes))
    )
    return AdamsFamily(ring, first.universe, generators)


def direct_product(first: AdamsFamily, second: AdamsFamily) -> AdamsFamily:
    """R x S over the universe of both, with the basis of R, then that of S.

    Products across the two factors are zero, the unit is the pair of
    units, and psi_p acts on each factor: its matrix is block-diagonal.
    """
    assert first.universe == second.universe
    r, s = first.ring, second.ring
    d, n = r.rank, r.rank + s.rank

    def block_diagonal(top_left, bottom_right, zero):
        """The n x n table of the blocks top_left(i, j) and bottom_right(i, j), else zero."""
        return tuple(
            tuple(
                top_left(i, j) if i < d and j < d
                else bottom_right(i - d, j - d) if i >= d and j >= d
                else zero
                for j in range(n)
            )
            for i in range(n)
        )

    structure = block_diagonal(
        lambda i, j: r.structure[i][j] + (0,) * s.rank,
        lambda i, j: (0,) * d + s.structure[i][j],
        (0,) * n,
    )
    ring = RingSpec(rank=n, structure=structure, unit=r.unit + s.unit, name=f"{r.name}x{s.name}")
    generators = tuple(
        (p, IntMatrix.from_rows(block_diagonal(lambda i, j: a[i, j], lambda i, j: b[i, j], 0)))
        for (p, a), b in zip(first.generators, map(second.generator, first.universe.primes))
    )
    return AdamsFamily(ring, first.universe, generators)


def expand_forms(packing: FormPacking, forms):
    """The matrix and right-hand side of the system "every form is zero".

    A form packs row . x + c, so it gives the row and the right-hand side
    -c.
    """
    pairs = {}
    for form in set(forms):
        row, constant = packing.unpack(form)
        pairs[form] = row, -constant
    entries = tuple(e for form in forms for e in pairs[form][0])
    return IntMatrix(len(forms), packing.width, entries), tuple(pairs[form][1] for form in forms)


def expanded_extension_system(deformation: Deformation, exponent_bound: int):
    """The box, matrix and right-hand side of try_extend's whole system."""
    box, packing, forms = _extension_system(deformation, exponent_bound)
    return (box, *expand_forms(packing, forms))


def rc3_start_off_the_cocycles() -> Deformation:
    """An order-1 RC3 start over {2, 3} whose t-coefficient is not a cocycle."""
    family = preset_family("RC3", (2, 3))
    rng = random.Random(7)
    terms = {
        p: {1: p * IntMatrix.from_flat(3, 3, [rng.randint(-2, 2) for _ in range(9)])}
        for p in (2, 3)
    }
    start = make_deformation(family, 1, terms)
    assert not infinitesimal(start).is_cocycle()
    return start


def seeded_cocycle_start(preset: str, seed: int) -> Deformation:
    """Order-1 deformation whose t-coefficient is a seeded random cocycle."""
    family = preset_family(preset, (2, 3, 5))
    rng = random.Random(seed)
    spec = None
    for b in cocycle_space_basis(family):
        term = b.scale(rng.randint(-2, 2))
        spec = term if spec is None else spec + term
    return make_deformation(family, 1, {p: {1: spec.value(p)} for p in family.universe.primes})


@pytest.fixture
def z_family() -> AdamsFamily:
    return preset_family("Z", (2, 3, 5))


@pytest.fixture
def rc2_family() -> AdamsFamily:
    return preset_family("RC2", (2, 3, 5))


@pytest.fixture
def rc3_family() -> AdamsFamily:
    return preset_family("RC3", (2, 3, 5))


@pytest.fixture
def nil3_family() -> AdamsFamily:
    return nilpotent_family((2, 3, 5))


@pytest.fixture(params=["Z", "RC2", "RC3"])
def each_preset(request) -> AdamsFamily:
    return preset_family(request.param, (2, 3, 5))
