"""Ring presentations, Adams families, and the Newton recursion."""

import math

import pytest

from conftest import nilpotent_family
from lambdaring.errors import NonIntegralDivision, UnknownPreset, UnknownPrime
from lambdaring.exactalg import IntMatrix
from lambdaring.rings import (
    AdamsFamily,
    FactoredInt,
    LambdaData,
    PrimeUniverse,
    RingSpec,
    adams_from_lambda,
    element_series_mul,
    family_from_dict,
    family_to_dict,
    frobenius_compatible,
    frobenius_map,
    lambda_from_adams,
    lambda_series,
    preset_family,
    verify_adams,
    verify_ring,
)


def binomial(m: int, i: int) -> int:
    """Generalized binomial coefficient, defined for negative m as well."""
    if i < 0:
        return 0
    num = 1
    for k in range(i):
        num *= m - k
    return num // math.factorial(i)


class TestPrimeUniverse:
    def test_factoring(self):
        u = PrimeUniverse((2, 3, 5))
        n = u.factor(360)
        assert n.factors == ((2, 3), (3, 2), (5, 1))
        assert n.value == 360
        assert n.total_exponent == 6
        assert n.exponent_of(2) == 3 and n.exponent_of(7) == 0

    def test_rejects_outside_factor(self):
        u = PrimeUniverse((2, 3))
        with pytest.raises(UnknownPrime):
            u.factor(10)

    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError):
            PrimeUniverse((4,))
        with pytest.raises(ValueError):
            PrimeUniverse((3, 2))
        with pytest.raises(ValueError):
            PrimeUniverse(())

    def test_factored_arithmetic(self):
        u = PrimeUniverse((2, 3))
        a = u.factor(12)
        b = u.factor(18)
        assert (a * b).value == 216
        p, rest = a.peel()
        assert p == 2 and rest.value == 6
        assert FactoredInt.one().is_one
        assert FactoredInt.of_prime(3).is_prime
        assert not a.is_prime
        with pytest.raises(ValueError):
            FactoredInt.one().peel()


class TestRingSpec:
    def test_preset_rings_verify(self, each_preset):
        assert verify_ring(each_preset.ring) == []

    def test_nilpotent_ring_verifies(self, nil3_family):
        assert verify_ring(nil3_family.ring) == []

    def test_broken_ring_reports(self):
        # A table where e0*e1 != e1*e0, which verify_ring must flag.
        spec = RingSpec(
            rank=2,
            structure=(
                ((1, 0), (0, 1)),
                ((1, 1), (1, 1)),
            ),
            unit=(1, 0),
        )
        problems = verify_ring(spec)
        assert any("commutative" in p for p in problems)

    def test_multiplication_matrix(self, rc2_family):
        spec = rc2_family.ring
        mx = spec.multiplication_matrix((0, 1))
        assert mx.apply((0, 1)) == (1, 0)
        assert mx.apply((1, 0)) == (0, 1)

    def test_powers(self, rc3_family):
        spec = rc3_family.ring
        x = (0, 1, 0)
        assert spec.power(x, 3) == (1, 0, 0)
        assert spec.power(x, 0) == spec.unit


class TestAdamsFamilies:
    def test_presets_satisfy_axioms(self, each_preset):
        assert verify_adams(each_preset) == []

    def test_nilpotent_satisfies_axioms(self, nil3_family):
        assert verify_adams(nil3_family) == []

    def test_rc2_generator_matrices(self, rc2_family):
        # psi_2 sends x to x^2 = 1, so both basis elements map to 1.
        assert rc2_family.generator(2) == IntMatrix.from_rows([[1, 1], [0, 0]])
        # Odd primes fix x.
        assert rc2_family.generator(3) == IntMatrix.identity(2)
        assert rc2_family.generator(5) == IntMatrix.identity(2)

    def test_rc3_generator_matrices(self, rc3_family):
        x, x2 = (0, 1, 0), (0, 0, 1)
        assert rc3_family.generator(2).apply(x) == x2
        assert rc3_family.generator(3).apply(x) == (1, 0, 0)
        assert rc3_family.generator(5).apply(x) == x2
        assert rc3_family.generator(2).apply(x2) == x

    def test_adams_at_composites(self, rc3_family):
        a6 = rc3_family.adams_at(6)
        assert a6 == rc3_family.generator(2) @ rc3_family.generator(3)
        assert rc3_family.adams_at(1) == IntMatrix.identity(3)
        assert rc3_family.adams_at(4) == rc3_family.generator(2) @ rc3_family.generator(2)

    def test_unknown_prime(self, z_family):
        with pytest.raises(UnknownPrime):
            z_family.generator(7)
        with pytest.raises(UnknownPrime):
            z_family.adams_at(7)

    def test_violations_reported(self):
        # Scaling by -2 fixes no unit, is not multiplicative, and is not
        # Frobenius mod 2.
        spec = RingSpec(rank=1, structure=(((1,),),), unit=(1,), name="Z")
        family = AdamsFamily(
            spec, PrimeUniverse((2,)), ((2, IntMatrix.from_rows([[-2]])),)
        )
        problems = verify_adams(family)
        assert any("unit" in p for p in problems)
        assert any("multiplicative" in p for p in problems)
        assert any("Frobenius" in p for p in problems)

    def test_commutation_checked(self):
        spec = RingSpec(
            rank=2,
            structure=(
                ((1, 0), (0, 1)),
                ((0, 1), (1, 0)),
            ),
            unit=(1, 0),
            name="RC2",
        )
        # The swap and the projection do not commute.
        family = AdamsFamily(
            spec,
            PrimeUniverse((2, 3)),
            (
                (2, IntMatrix.from_rows([[1, 1], [0, 0]])),
                (3, IntMatrix.from_rows([[0, 1], [1, 0]])),
            ),
        )
        problems = verify_adams(family)
        assert any("commute" in p for p in problems)

    def test_structural_equality(self):
        a = preset_family("RC2", (2, 3))
        b = preset_family("RC2", (2, 3))
        assert a is not b and a == b
        assert a != preset_family("RC2", (2, 3, 5))

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset_family("RC4")


class TestFrobenius:
    def test_z_frobenius_is_identity(self, z_family):
        for p in (2, 3, 5):
            assert z_family.frobenius(p) == IntMatrix.identity(1)

    def test_rc2_frobenius(self, rc2_family):
        # x^2 = 1 exactly, so the mod-2 Frobenius sends x to 1.
        assert rc2_family.frobenius(2) == IntMatrix.from_rows([[1, 1], [0, 0]])

    def test_compatibility_predicate(self, rc2_family):
        assert frobenius_compatible(IntMatrix.identity(2), rc2_family)
        assert frobenius_compatible(rc2_family.generator(2), rc2_family)
        # The projection onto the second coordinate does not commute with
        # the mod-2 Frobenius.
        assert not frobenius_compatible(IntMatrix.from_rows([[0, 0], [0, 1]]), rc2_family)

    def test_entries_reduced(self, nil3_family):
        frob = frobenius_map(nil3_family.ring, 3)
        assert all(0 <= e < 3 for row in frob.entries for e in row)


class TestNewtonRecursion:
    def test_binomial_values_on_integers(self, z_family):
        # On the integers with identity Adams operations the lambda
        # operations are binomial coefficients, for negative inputs too.
        for m in range(-6, 7):
            values = lambda_from_adams(z_family, (m,), 6)
            for i, v in enumerate(values, start=1):
                assert v == (binomial(m, i),), (m, i)

    def test_roundtrip_through_lambda(self, each_preset):
        data = LambdaData.from_adams(each_preset, 6)
        elements = [
            tuple(2 if j == i else -1 for j in range(each_preset.rank))
            for i in range(each_preset.rank)
        ]
        for element in elements:
            recovered = adams_from_lambda(data, element, 6)
            for n in range(1, 7):
                expected = each_preset.adams_at(n).apply(element)
                assert recovered[n - 1] == expected

    def test_non_integral_data_rejected(self):
        spec = RingSpec(rank=1, structure=(((1,),),), unit=(1,), name="Z")
        family = AdamsFamily(
            spec, PrimeUniverse((2,)), ((2, IntMatrix.from_rows([[-2]])),)
        )
        with pytest.raises(NonIntegralDivision):
            lambda_from_adams(family, (1,), 2)

    def test_series_multiplicativity(self, rc3_family):
        # lambda_t(a + b) = lambda_t(a) * lambda_t(b) holds in any
        # lambda-ring; check it for the preset data through degree 5.
        data = LambdaData.from_adams(rc3_family, 5)
        a, b = (1, 1, 0), (0, 2, -1)
        total = tuple(x + y for x, y in zip(a, b))
        left = lambda_series(data, total, 5)
        right = element_series_mul(
            rc3_family.ring,
            lambda_series(data, a, 5),
            lambda_series(data, b, 5),
            5,
        )
        assert left == right

    def test_table_backed_data(self, z_family):
        table = {(2,): [(2,), (1,), (0,)]}
        data = LambdaData.from_table(z_family.ring, table, 3)
        assert data.value((2,), 2) == (1,)
        assert data.value((2,), 0) == (1,)
        with pytest.raises(KeyError):
            data.value((3,), 2)

    def test_table_must_start_with_element(self, z_family):
        with pytest.raises(ValueError):
            LambdaData.from_table(z_family.ring, {(2,): [(1,), (1,)]}, 2)


class TestSerialization:
    def test_roundtrip(self, each_preset):
        doc = family_to_dict(each_preset)
        assert family_from_dict(doc) == each_preset

    def test_roundtrip_nilpotent(self, nil3_family):
        assert family_from_dict(family_to_dict(nil3_family)) == nil3_family
