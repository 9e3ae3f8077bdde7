"""Degree-zero and degree-one cohomology with explicit representatives."""

import random

import pytest

from conftest import nilpotent_family
from lambdaring.cochain import differential, endo_cochain, random_endomorphism
from lambdaring.cohomology import (
    DerivationSpec,
    cocycle_space_basis,
    compute_H0,
    compute_H1,
    extend_derivation,
    frobenius_compatible_basis,
    inner_derivation,
    is_derivation,
    solve_coboundary_1,
)
from lambdaring.errors import (
    DivisibilityViolation,
    InconsistentDerivation,
    NotFrobeniusCompatible,
)
from lambdaring.exactalg import AbelianGroup, IntMatrix, solve_linear
from lambdaring.rings import preset_family


def in_span(matrices, target):
    """Whether target is an integer combination of the given matrices."""
    if not matrices:
        return target.is_zero
    columns = [m.flat() for m in matrices]
    stacked = IntMatrix.from_columns(columns, len(columns[0]))
    return solve_linear(stacked, target.flat()) is not None


class TestCompatibleLattice:
    def test_identity_and_generators_lie_inside(self, each_preset):
        basis = frobenius_compatible_basis(each_preset)
        d = each_preset.rank
        assert in_span(basis, IntMatrix.identity(d))
        for p in each_preset.universe:
            assert in_span(basis, each_preset.generator(p))

    def test_rc2_lattice_shape(self, rc2_family):
        # Congruence conditions cut out a finite-index sublattice: full
        # rank 4, but the single matrix unit e11 falls outside while its
        # double lies inside.
        basis = frobenius_compatible_basis(rc2_family)
        assert len(basis) == 4
        e11 = IntMatrix.from_rows([[0, 0], [0, 1]])
        assert not in_span(basis, e11)
        assert in_span(basis, 2 * e11)
        assert in_span(basis, IntMatrix.from_rows([[1, 0], [0, 1]]))


class TestH0:
    def test_integers(self, z_family):
        result = compute_H0(z_family)
        assert result.group == AbelianGroup(1, ())
        assert result.basis == (IntMatrix.identity(1),)

    def test_rank_two_group_ring(self, rc2_family):
        result = compute_H0(rc2_family)
        assert result.group == AbelianGroup(2, ())
        # The commutant is {[[a, b], [0, a - b]]}; check both directions
        # of the span containment that make the basis exactly right.
        expected = [
            IntMatrix.from_rows([[1, 0], [0, 1]]),
            IntMatrix.from_rows([[0, 1], [0, -1]]),
        ]
        for m in expected:
            assert in_span(result.basis, m)
        for b in result.basis:
            assert in_span(expected, b)

    def test_rank_three_group_ring(self, rc3_family):
        result = compute_H0(rc3_family)
        assert result.group == AbelianGroup(3, ())
        expected = [
            IntMatrix.identity(3),
            rc3_family.generator(2),
            rc3_family.generator(3),
        ]
        for m in expected:
            assert in_span(result.basis, m)
        for b in result.basis:
            assert in_span(expected, b)

    def test_nilpotent(self, nil3_family):
        result = compute_H0(nil3_family)
        assert result.group == AbelianGroup(3, ())

    def test_membership_properties(self, each_preset):
        result = compute_H0(each_preset)
        for b in result.basis:
            cochain = endo_cochain(each_preset, b)  # Frobenius-compatible
            db = differential(cochain)
            for n in (2, 3, 5, 6, 12):
                assert db.at(n).is_zero


class TestCocycles:
    def test_basis_members_are_cocycles(self, each_preset):
        for spec in cocycle_space_basis(each_preset):
            assert is_derivation(spec)

    def test_cocycle_ranks(self):
        assert len(cocycle_space_basis(preset_family("Z", (2, 3, 5)))) == 3
        assert len(cocycle_space_basis(preset_family("RC2", (2,)))) == 4
        assert len(cocycle_space_basis(preset_family("RC3", (2, 3, 5)))) == 15

    def test_extension_respects_products(self, rc3_family):
        basis = cocycle_space_basis(rc3_family)
        spec = basis[0]
        for b, c in zip(basis[1:], (2, -1, 3, 5, -2, 1, 0, 4, 1, -3, 2, 0, 1, 1)):
            spec = spec + b.scale(c)
        for m in (2, 3, 4, 6, 10, 12):
            for n in (2, 3, 5, 6, 9):
                left = spec.extend(m * n)
                right = (
                    rc3_family.adams_at(m) @ spec.extend(n)
                    + spec.extend(m) @ rc3_family.adams_at(n)
                )
                assert left == right

    def test_extension_at_one_is_zero(self, rc2_family):
        spec = cocycle_space_basis(rc2_family)[0]
        assert spec.extend(1).is_zero

    def test_as_cochain_is_closed(self, rc2_family):
        spec = cocycle_space_basis(rc2_family)[-1]
        cochain = spec.as_cochain()
        assert cochain.prime_divisible
        d1 = differential(cochain)
        for m in (2, 3, 4, 6):
            for n in (2, 3, 5):
                assert d1.at(m, n).is_zero

    def test_inconsistent_data_detected(self, rc2_family):
        values = {
            2: IntMatrix.zeros(2, 2),
            3: 3 * IntMatrix.from_rows([[0, 1], [0, 0]]),
            5: IntMatrix.zeros(2, 2),
        }
        spec = DerivationSpec(rc2_family, values)
        assert not is_derivation(spec)
        with pytest.raises(InconsistentDerivation):
            extend_derivation(spec, 6)
        with pytest.raises(InconsistentDerivation):
            spec.as_cochain()

    def test_divisibility_enforced(self, rc2_family):
        values = {
            2: IntMatrix.identity(2),
            3: IntMatrix.zeros(2, 2),
            5: IntMatrix.zeros(2, 2),
        }
        with pytest.raises(DivisibilityViolation):
            DerivationSpec(rc2_family, values)

    def test_coverage_enforced(self, rc2_family):
        with pytest.raises(ValueError):
            DerivationSpec(rc2_family, {2: IntMatrix.zeros(2, 2)})

    def test_coordinate_roundtrip(self, rc3_family):
        spec = cocycle_space_basis(rc3_family)[2]
        coords = spec.x_coordinates()
        back = DerivationSpec.from_x_coordinates(rc3_family, coords)
        assert back == spec


class TestInnerDerivations:
    def test_commutator_values(self, rc2_family):
        g = random_endomorphism(rc2_family, 3)
        spec = inner_derivation(rc2_family, g)
        for p in (2, 3, 5):
            a = rc2_family.generator(p)
            assert spec.value(p) == a @ g - g @ a
        assert is_derivation(spec)

    def test_incompatible_rejected(self, rc2_family):
        with pytest.raises(NotFrobeniusCompatible):
            inner_derivation(rc2_family, IntMatrix.from_rows([[0, 0], [0, 1]]))

    def test_solver_roundtrip(self, each_preset):
        rng = random.Random(12)
        basis = frobenius_compatible_basis(each_preset)
        for _ in range(10):
            g = basis[0].__class__.zeros(each_preset.rank, each_preset.rank)
            for b in basis:
                g = g + rng.randint(-3, 3) * b
            target = inner_derivation(each_preset, g)
            witness = solve_coboundary_1(each_preset, target)
            assert witness is not None
            assert inner_derivation(each_preset, witness) == target


H1_ORACLES = [
    ("Z", (2,), AbelianGroup(1, ())),
    ("Z", (2, 3), AbelianGroup(2, ())),
    ("Z", (2, 3, 5), AbelianGroup(3, ())),
    ("RC2", (2,), AbelianGroup(2, ())),
    ("RC2", (2, 3), AbelianGroup(4, ())),
    ("RC2", (2, 3, 5), AbelianGroup(6, ())),
    ("RC3", (2, 3, 5), AbelianGroup(9, ())),
]


class TestH1:
    @pytest.mark.parametrize("name,primes,expected", H1_ORACLES)
    def test_preset_groups(self, name, primes, expected):
        result = compute_H1(preset_family(name, primes))
        assert result.group == expected

    def test_nilpotent_groups(self):
        assert compute_H1(nilpotent_family((2, 3))).group == AbelianGroup(6, ())
        assert compute_H1(nilpotent_family((2, 3, 5))).group == AbelianGroup(9, ())

    def test_class_count_matches_group(self, each_preset):
        result = compute_H1(each_preset)
        assert len(result.classes) == result.group.free_rank + len(
            result.group.torsion
        )

    def test_representatives_are_noninner_cocycles(self, each_preset):
        result = compute_H1(each_preset)
        for cls in result.classes:
            assert is_derivation(cls.derivation)
            assert solve_coboundary_1(each_preset, cls.derivation) is None
            if cls.order:
                scaled = cls.derivation.scale(cls.order)
                assert solve_coboundary_1(each_preset, scaled) is not None

    def test_integers_have_scaling_classes(self):
        # Over the integers every Adams matrix is 1x1 identity, so the
        # cocycles are exactly f(p) = p * x_p with no inner part: one
        # free class per universe prime.
        family = preset_family("Z", (2, 3, 5))
        result = compute_H1(family)
        # Each representative is supported on a single prime with the
        # minimal divisible value there.
        supports = []
        for cls in result.classes:
            nonzero = [
                p
                for p in family.universe
                if not cls.derivation.value(p).is_zero
            ]
            assert len(nonzero) == 1
            p = nonzero[0]
            assert cls.derivation.value(p) == IntMatrix.from_rows([[p]])
            supports.append(p)
        assert sorted(supports) == [2, 3, 5]

    def test_difference_of_equivalent_reps_is_inner(self, rc2_family):
        result = compute_H1(rc2_family)
        rep = result.classes[0].derivation
        g = random_endomorphism(rc2_family, 4)
        shifted = rep + inner_derivation(rc2_family, g)
        assert solve_coboundary_1(rc2_family, shifted - rep) is not None
        assert solve_coboundary_1(rc2_family, shifted) is None


class TestCoboundarySolver:
    def test_witness_is_compatible_and_exact(self, rc3_family):
        g = random_endomorphism(rc3_family, 8)
        target = inner_derivation(rc3_family, g)
        witness = solve_coboundary_1(rc3_family, target)
        assert witness is not None
        from lambdaring.rings import frobenius_compatible

        assert frobenius_compatible(witness, rc3_family)
        for p in (2, 3, 5):
            a = rc3_family.generator(p)
            assert a @ witness - witness @ a == target.value(p)

    def test_zero_target(self, rc2_family):
        zero = DerivationSpec(
            rc2_family, {p: IntMatrix.zeros(2, 2) for p in (2, 3, 5)}
        )
        witness = solve_coboundary_1(rc2_family, zero)
        assert witness is not None
        assert inner_derivation(rc2_family, witness).is_zero
