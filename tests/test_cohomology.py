"""Degree-zero and degree-one cohomology with explicit representatives."""

import math
import random

import pytest

from conftest import (
    change_of_basis,
    cyclic_family,
    direct_product,
    elementary_product,
    expand_forms,
    kronecker_left,
    kronecker_right,
    nilpotent_family,
    seeded_cocycle_start,
    tensor_product,
)
from lambdaring import cohomology
from lambdaring.cochain import (
    IDENTITY_NAMES,
    differential,
    endo_cochain,
    random_endomorphism,
    run_identity_check,
)
from lambdaring.cohomology import (
    DerivationSpec,
    cocycle_space_basis,
    compute_H0,
    compute_H1,
    frobenius_compatible_basis,
    inner_derivation,
    solve_coboundary_1,
)
from lambdaring.deformation import make_deformation, try_extend
from lambdaring.errors import (
    DivisibilityViolation,
    InconsistentDerivation,
    InternalInconsistency,
    NotFrobeniusCompatible,
)
from lambdaring.exactalg import (
    AbelianGroup,
    FormPacking,
    IntMatrix,
    solve_linear,
    vec_scale,
)
from lambdaring.rings import (
    AdamsFamily,
    PrimeUniverse,
    frobenius_compatible,
    preset_family,
    verify_adams,
    verify_ring,
)


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


class TestDerivationSpecEquality:
    def test_equality_compares_the_adams_matrices(self):
        # one ring and one universe, with different Adams matrices
        family = preset_family("RC2", (2, 3))
        other = AdamsFamily(
            family.ring,
            family.universe,
            ((2, IntMatrix.identity(2)), (3, family.generator(3))),
        )
        assert other.generator(2) != family.generator(2)
        zeros = {p: IntMatrix.zeros(2, 2) for p in (2, 3)}
        assert DerivationSpec(family, zeros) != DerivationSpec(other, zeros)
        assert DerivationSpec(family, zeros) == DerivationSpec(preset_family("RC2", (2, 3)), zeros)

    def test_equality_compares_the_universe(self):
        thirty = IntMatrix.from_rows([[30]])
        over_23 = DerivationSpec(preset_family("Z", (2, 3)), {2: thirty, 3: thirty})
        over_25 = DerivationSpec(preset_family("Z", (2, 5)), {2: thirty, 5: thirty})
        assert over_23.values == over_25.values
        assert over_23 != over_25


class TestCocycles:
    def test_basis_members_are_cocycles(self, each_preset):
        for spec in cocycle_space_basis(each_preset):
            assert spec.is_cocycle()

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
        assert not spec.is_cocycle()
        with pytest.raises(InconsistentDerivation):
            spec.extend(6)
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
        assert spec.is_cocycle()

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
            assert cls.derivation.is_cocycle()
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


    def test_escaping_coboundary_image_is_an_internal_error(self, rc2_family, monkeypatch):
        monkeypatch.setattr(cohomology, "solve_linear", lambda matrix, rhs: None)
        with pytest.raises(InternalInconsistency):
            compute_H1(rc2_family)


class TestCoboundarySolver:
    def test_witness_is_compatible_and_exact(self, rc3_family):
        g = random_endomorphism(rc3_family, 8)
        target = inner_derivation(rc3_family, g)
        witness = solve_coboundary_1(rc3_family, target)
        assert witness is not None
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


# The compatibility systems as the seed built them: each row by hand
# from the difference of the two d^2 x d^2 Kronecker operators.


def seed_commutator_operator(matrix):
    return kronecker_left(matrix) - kronecker_right(matrix)


def seed_frobenius_system(family):
    d2 = family.rank**2
    primes = family.universe.primes
    width = d2 * (1 + len(primes))
    rows = []
    for idx, p in enumerate(primes):
        c = seed_commutator_operator(family.frobenius(p))
        for r in range(d2):
            row = [0] * width
            row[0:d2] = c.row(r)
            row[d2 * (1 + idx) + r] = p
            rows.append(row)
    return IntMatrix.from_rows(rows)


def seed_coboundary_system(family, target=None):
    """The H0 system, and with a target the right-hand side of its solve."""
    d2 = family.rank**2
    primes = family.universe.primes
    width = d2 * (1 + len(primes))
    rows = []
    rhs = []
    for idx, p in enumerate(primes):
        exact = seed_commutator_operator(family.generator(p))
        target_flat = target.value(p).flat() if target is not None else (0,) * d2
        for r in range(d2):
            row = [0] * width
            row[0:d2] = exact.row(r)
            rows.append(row)
            rhs.append(target_flat[r])
        compat = seed_commutator_operator(family.frobenius(p))
        for r in range(d2):
            row = [0] * width
            row[0:d2] = compat.row(r)
            row[d2 * (1 + idx) + r] = p
            rows.append(row)
            rhs.append(0)
    return IntMatrix.from_rows(rows), tuple(rhs)


def seed_cocycle_system(family):
    d2 = family.rank**2
    primes = family.universe.primes
    k = len(primes)
    width = k * d2
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            p, q = primes[i], primes[j]
            cp = seed_commutator_operator(family.generator(p))
            cq = seed_commutator_operator(family.generator(q))
            for r in range(d2):
                row = [0] * width
                row[j * d2 : (j + 1) * d2] = vec_scale(q, tuple(cp.row(r)))
                row[i * d2 : (i + 1) * d2] = vec_scale(-p, tuple(cq.row(r)))
                rows.append(row)
    if not rows:
        rows = [[0] * width]
    return IntMatrix.from_rows(rows)


SMALL, WIDE = (2, 3, 5), (2, 3, 5, 7, 11, 13)
SYSTEM_FAMILIES = [
    *(preset_family(name, primes) for name in ("Z", "RC2", "RC3") for primes in (SMALL, WIDE)),
    *(nilpotent_family(primes) for primes in (SMALL, WIDE)),
    *(cyclic_family(k, SMALL) for k in (4, 5)),
]


class TestCompatibilitySystemMatchesSeed:
    """The one builder emits the seed's rows, in the seed's order."""

    def test_commutator_rows_equal_the_operator_difference(self):
        rng = random.Random(20261018)
        for trial in range(60):
            d = trial % 4 + 1
            a = IntMatrix.from_flat(d, d, [rng.randint(-7, 7) for _ in range(d * d)])
            packing = FormPacking(d * d, 14 * d)
            identity = IntMatrix.identity(d * d)
            units = [packing.pack(identity.row(i)) for i in range(d * d)]
            forms = cohomology._commutator_forms(a, units)
            rows = [packing.unpack(form) for form in forms]
            assert all(constant == 0 for _, constant in rows), trial
            assert IntMatrix.from_rows(row for row, _ in rows) == seed_commutator_operator(a), trial

    @pytest.mark.parametrize(
        "family", SYSTEM_FAMILIES, ids=lambda f: f"{f.ring.name}-{len(f.universe.primes)}p"
    )
    def test_systems_and_right_hand_sides(self, family, monkeypatch):
        system, rhs = expand_forms(*cohomology._compatible_system(family, exact=False))
        assert system == seed_frobenius_system(family)
        assert rhs == (0,) * system.rows
        h0 = expand_forms(*cohomology._compatible_system(family, exact=True))
        assert h0 == seed_coboundary_system(family)

        systems = []
        solve = cohomology.solve_forms

        def record(packing, forms):
            systems.append(expand_forms(packing, forms))
            return solve(packing, forms)

        monkeypatch.setattr(cohomology, "solve_forms", record)
        cocycles = cocycle_space_basis(family)
        relations = seed_cocycle_system(family)
        assert systems == [(relations, (0,) * relations.rows)]
        systems.clear()
        compatible = frobenius_compatible_basis(family)
        assert systems == [(system, rhs)]
        targets = [inner_derivation(family, g) for g in compatible[:3]]
        targets.append(sum(cocycles[1:], cocycles[0]))
        for target in targets:
            systems.clear()
            solve_coboundary_1(family, target)
            assert systems == [seed_coboundary_system(family, target)]


def diagonal_torsion_family() -> AdamsFamily:
    """Commuting diagonal generators on Z[x]/(x^2 - 1) with H^1 = Z^4 (+) Z/2 (+) Z/4.

    Not Adams data of a lambda-ring, but every step of H^1 needs only
    commuting generators, and this is the one family here with torsion.
    """
    ring = preset_family("RC2", (2, 3)).ring
    generators = (
        (2, IntMatrix.from_rows([[2, 0], [0, -2]])),
        (3, IntMatrix.from_rows([[-5, 0], [0, 7]])),
    )
    return AdamsFamily(ring, PrimeUniverse((2, 3)), generators)


def oracle_group(family: AdamsFamily) -> AbelianGroup:
    """H^1 from sympy alone, apart from the elimination engine.

    The cocycles are the kernel of an integer matrix, so they are a
    saturated sublattice of Z^N (N = |universe| d^2 divided coordinates)
    and Z^N / B^1 is H^1 plus a free part.  The invariants of H^1 are
    therefore the torsion of sympy's Smith form of the coboundary images,
    and its free rank is the cocycle rank less the rank of the images.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.matrices import DomainMatrix

    def rank_mod(matrix, p) -> int:
        field = sympy.GF(p)
        rows = [[field(e) for e in matrix.row(i)] for i in range(matrix.rows)]
        return DomainMatrix(rows, (matrix.rows, matrix.cols), field).rank()

    primes = family.universe.primes
    compatible = frobenius_compatible_basis(family)
    # the basis spans the compatible lattice: every member lies in it,
    # and the index of its span is that of the lattice, the product over
    # p of p^(rank of [Frob_p, -] mod p)
    assert all(frobenius_compatible(g, family) for g in compatible)
    index = math.prod(
        p ** rank_mod(seed_commutator_operator(family.frobenius(p)), p) for p in primes
    )
    assert abs(sympy.Matrix([g.flat() for g in compatible]).det()) == index

    images = sympy.Matrix([inner_derivation(family, g).x_coordinates() for g in compatible]).T
    smith = sympy_snf(images, domain=sympy.ZZ)
    invariants = [abs(int(smith[i, i])) for i in range(min(smith.shape))]
    width = len(primes) * family.rank**2
    relations = seed_cocycle_system(family)
    cocycle_rank = width - sympy.Matrix(relations.rows, relations.cols, relations.entries).rank()
    free_rank = cocycle_rank - sum(1 for e in invariants if e)
    return AbelianGroup(free_rank, tuple(sorted(e for e in invariants if e > 1)))


ORACLE_FAMILIES = [
    *(preset_family(name, SMALL) for name in ("Z", "RC2", "RC3")),
    cyclic_family(4, SMALL),
    diagonal_torsion_family(),
]


class TestH1Oracle:
    def test_the_oracle_sees_torsion(self):
        assert oracle_group(diagonal_torsion_family()) == AbelianGroup(4, (2, 4))

    @pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=["Z", "RC2", "RC3", "ZC4", "torsion"])
    def test_group_and_classes_agree_with_the_oracle(self, family):
        result = compute_H1(family)
        assert result.group == oracle_group(family)
        for cls in result.classes:
            assert cls.derivation.is_cocycle()
            if cls.order:
                assert solve_coboundary_1(family, cls.derivation.scale(cls.order)) is not None
            # not inner at any proper divisor of the order, nor at all when it is infinite
            proper = [e for e in range(1, cls.order) if cls.order % e == 0] if cls.order else [1]
            for e in proper:
                assert solve_coboundary_1(family, cls.derivation.scale(e)) is None, (cls.order, e)


def shear_lists(d):
    """Lists of at most 4 shears (i, j, c) with i != j and c in -2..2, drawn by hypothesis."""
    from hypothesis import strategies as st

    # the shear I + c E_ij
    shear = st.tuples(st.integers(0, d - 1), st.integers(1, d - 1), st.integers(-2, 2)).map(
        lambda t: (t[0], (t[0] + t[1]) % d, t[2])
    )
    return st.lists(shear, max_size=4)


CHANGE_OF_BASIS_FAMILIES = [
    preset_family("RC2", (2, 3)),
    preset_family("RC3", (2, 3)),
    cyclic_family(4, (2, 3)),
]


class TestChangeOfBasis:
    """A unimodular change of basis gives the same lambda-ring, so the same answers.

    The conjugated Adams matrices g^-1 A_p g have, in general, no unit
    pattern, so their products take the general loop of the product
    kernel through the whole stack.
    """

    @pytest.mark.parametrize("family", CHANGE_OF_BASIS_FAMILIES, ids=lambda f: f.ring.name)
    def test_axioms_cohomology_and_identities_survive(self, family):
        hypothesis = pytest.importorskip("hypothesis")
        d = family.rank
        h0, h1 = compute_H0(family).group, compute_H1(family).group

        @hypothesis.settings(max_examples=8, deadline=None, derandomize=True)
        @hypothesis.given(shear_lists(d))
        def check(steps):
            g, g_inv = elementary_product(d, steps)
            assert g @ g_inv == IntMatrix.identity(d)
            moved = change_of_basis(family, g, g_inv)
            assert verify_ring(moved.ring) == []
            assert verify_adams(moved) == []
            assert compute_H0(moved).group == h0
            assert compute_H1(moved).group == h1
            for identity in IDENTITY_NAMES:
                for dimension in (0, 1):
                    report = run_identity_check(moved, identity, dimension, 10, 0)
                    assert report.passed, (identity, dimension, report.failures)

        check()

    @pytest.mark.parametrize("preset", ["RC2", "RC3"])
    def test_extension_outcomes_survive(self, preset):
        hypothesis = pytest.importorskip("hypothesis")
        family = preset_family(preset, (2, 3, 5))
        d, primes = family.rank, family.universe.primes
        rng = random.Random(11)
        # a seeded cocycle start extends, and a random start off the cocycles does not
        off = {
            p: {1: p * IntMatrix.from_flat(d, d, [rng.randint(-2, 2) for _ in range(d * d)])}
            for p in primes
        }
        starts = [seeded_cocycle_start(preset, 1), make_deformation(family, 1, off)]
        outcomes = [try_extend(start, 3).succeeded for start in starts]
        assert outcomes == [True, False]

        @hypothesis.settings(max_examples=8, deadline=None, derandomize=True)
        @hypothesis.given(shear_lists(d))
        def check(steps):
            g, g_inv = elementary_product(d, steps)
            moved = change_of_basis(family, g, g_inv)
            for start, outcome in zip(starts, outcomes):
                terms = {p: {1: g_inv @ start.series(p)[1] @ g} for p in primes}
                assert try_extend(make_deformation(moved, 1, terms), 3).succeeded == outcome

        check()


class TestConstructedRings:
    """Tensor and direct products of lambda-rings are lambda-rings."""

    def test_products_pass_the_axiom_checks(self):
        rc2, rc3, z = (preset_family(name, (2, 3, 5)) for name in ("RC2", "RC3", "Z"))
        for family in (tensor_product(rc2, rc3), direct_product(rc2, rc3), direct_product(z, rc2)):
            assert verify_ring(family.ring) == [], family.ring.name
            assert verify_adams(family) == [], family.ring.name

    # Over {2, 3, 5} both groups are Z^18, but H1 of the tensor product
    # takes 3-5 s there, against about 0.5 s for Z[C6]; each pair of those
    # primes takes about 0.1 s.
    @pytest.mark.parametrize("primes", [(2, 3), (2, 5), (3, 5)], ids=str)
    def test_h1_of_rc2_tensor_rc3_is_that_of_z_c6(self, primes):
        # C2 x C3 is C6, so RC2 (x) RC3, the group ring of C2 x C3 with
        # psi_p(g) = g^p, is Z[C6] in another basis
        rc2, rc3 = preset_family("RC2", primes), preset_family("RC3", primes)
        product = compute_H1(tensor_product(rc2, rc3)).group
        assert product == compute_H1(cyclic_family(6, primes)).group
        assert product.torsion == () and product.free_rank > 0
