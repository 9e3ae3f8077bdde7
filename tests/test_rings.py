"""Ring presentations, Adams families, and the Newton recursion."""

import math
import random
import time

import pytest

from conftest import nilpotent_family
from lambdaring.errors import NonIntegralDivision, UnknownPreset, UnknownPrime
from lambdaring.exactalg import IntMatrix, vec_add, vec_zero
from lambdaring.rings import (
    AdamsFamily,
    LambdaData,
    PrimeUniverse,
    RingSpec,
    adams_from_lambda,
    family_from_dict,
    family_to_dict,
    frobenius_compatible,
    frobenius_map,
    lambda_from_adams,
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


def lambda_series(data, element, order):
    """Coefficients of the lambda-series of an element, degrees 0..order."""
    return tuple(data.value(element, i) for i in range(order + 1))


def element_series_mul(spec, a, b, order):
    """Truncated product of two coefficient series with ring coefficients."""
    out = [vec_zero(spec.rank) for _ in range(order + 1)]
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] = vec_add(out[i + j], spec.mul(ai, bj))
    return tuple(out)


class TestPrimeUniverse:
    def test_factoring(self):
        u = PrimeUniverse((2, 3, 5))
        assert u.factor(360) == ((2, 3), (3, 2), (5, 1))
        assert u.factor(1) == ()
        assert u.render(360) == "2^3 * 3^2 * 5"
        assert u.render(1) == "1"

    def test_rejects_outside_factor(self):
        u = PrimeUniverse((2, 3))
        with pytest.raises(UnknownPrime):
            u.factor(10)
        with pytest.raises(UnknownPrime, match="factor 7"):
            u.peel(14)
        # a large outside prime is named without a search for it
        mersenne = 2**61 - 1
        start = time.perf_counter()
        with pytest.raises(UnknownPrime, match=f"factor {mersenne} "):
            u.factor(2 * mersenne)
        with pytest.raises(UnknownPrime, match=f"factor {mersenne} "):
            preset_family("Z", (2, 3)).adams_at(3 * mersenne)
        assert time.perf_counter() - start < 1
        for n in (0, -4):
            with pytest.raises(ValueError, match="positive"):
                u.peel(n)

    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError):
            PrimeUniverse((4,))
        with pytest.raises(ValueError):
            PrimeUniverse((3, 2))
        with pytest.raises(ValueError):
            PrimeUniverse(())

    def test_factored_arithmetic(self):
        u = PrimeUniverse((2, 3))
        assert u.factor(12 * 18) == ((2, 3), (3, 3))
        assert u.peel(12) == (2, 6)
        assert u.peel(9) == (3, 3)
        assert u.peel(3) == (3, 1)
        with pytest.raises(ValueError, match="cannot peel 1"):
            u.peel(1)


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
        assert all(0 <= e < 3 for e in frob.entries)

    @staticmethod
    def unreduced_frobenius(spec, p):
        """The p-th powers over Z, reduced mod p only at the end."""
        cols = [tuple(c % p for c in spec.power(spec.basis_vector(i), p)) for i in range(spec.rank)]
        return IntMatrix.from_columns(cols, spec.rank)

    @pytest.mark.parametrize("name", ["Z", "RC2", "RC3"])
    def test_reducing_each_product_changes_nothing_on_presets(self, name):
        spec = preset_family(name).ring
        for p in (2, 3, 5, 7, 11, 13, 31):
            assert frobenius_map(spec, p) == self.unreduced_frobenius(spec, p), p

    def test_reducing_each_product_changes_nothing_on_random_data(self):
        # arbitrary rank-3 structure constants: neither commutative nor
        # associative, so only the left-to-right order makes the powers agree
        rng = random.Random(15)
        for _ in range(20):
            structure = tuple(
                tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
                for _ in range(3)
            )
            unit = tuple(rng.randint(-3, 3) for _ in range(3))
            spec = RingSpec(rank=3, structure=structure, unit=unit)
            for p in (2, 3, 5, 7):
                assert frobenius_map(spec, p) == self.unreduced_frobenius(spec, p), (spec, p)


    @staticmethod
    def looped_frobenius(spec, p):
        """The former construction: p ring products left to right, each reduced mod p."""
        cols = []
        for i in range(spec.rank):
            power = spec.unit
            for _ in range(p):
                power = tuple(c % p for c in spec.mul(power, spec.basis_vector(i)))
            cols.append(power)
        return IntMatrix.from_columns(cols, spec.rank)

    def test_squaring_equals_the_loop_on_random_data(self):
        # structure constants with no commutativity, associativity or unit
        rng = random.Random(19)
        primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
        for trial in range(60):
            d = rng.randint(1, 4)
            structure = tuple(
                tuple(tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d))
                for _ in range(d)
            )
            unit = tuple(rng.randint(-9, 9) for _ in range(d))
            spec = RingSpec(rank=d, structure=structure, unit=unit)
            for p in rng.sample(primes, 4):
                assert frobenius_map(spec, p) == self.looped_frobenius(spec, p), (trial, p)

    def test_a_dense_rank_eight_ring_at_a_large_prime(self):
        rng = random.Random(20)
        structure = tuple(
            tuple(tuple(rng.randint(-9, 9) for _ in range(8)) for _ in range(8)) for _ in range(8)
        )
        spec = RingSpec(rank=8, structure=structure, unit=tuple(rng.randint(-9, 9) for _ in range(8)))
        start = time.perf_counter()
        frob = frobenius_map(spec, 999983)
        assert time.perf_counter() - start < 1.0
        assert all(0 <= e < 999983 for e in frob.entries)


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

    def test_each_value_is_computed_once(self, rc3_family, monkeypatch):
        import lambdaring.rings as rings

        calls = []
        steps = []
        recursion = rings.lambda_from_adams
        divide = rings._vec_divide

        def counted(family, element, max_degree, known=()):
            calls.append((element, max_degree, len(known)))
            return recursion(family, element, max_degree, known)

        def counted_divide(v, n):
            steps.append(n)
            return divide(v, n)

        monkeypatch.setattr(rings, "lambda_from_adams", counted)
        monkeypatch.setattr(rings, "_vec_divide", counted_divide)
        data = LambdaData.from_adams(rc3_family, 6)
        expected = [rc3_family.adams_at(n).apply((1, 2, 3)) for n in range(1, 7)]
        assert adams_from_lambda(data, (1, 2, 3), 6) == expected
        assert calls == [((1, 2, 3), 6, 0)]
        assert steps == [1, 2, 3, 4, 5, 6]
        assert adams_from_lambda(data, (1, 2, 3), 6) == expected
        assert len(calls) == 1

        # ascending single values, as the axiom checker asks: one new step each
        expected = lambda_from_adams(rc3_family, (2, 0, -1), 6)[1:]
        calls.clear()
        steps.clear()
        fresh = LambdaData.from_adams(rc3_family, 6)
        assert [fresh.value((2, 0, -1), n) for n in range(2, 7)] == expected
        assert [c[1:] for c in calls] == [(2, 0), (3, 2), (4, 3), (5, 4), (6, 5)]
        assert steps == [1, 2, 3, 4, 5, 6]

    def test_resumed_recursion_raises_at_the_same_degree(self):
        # psi_2 = 1 and psi_3 = 3 on Z: lambda_2(1) = 0, then 3 lambda_3(1) = 2
        spec = RingSpec(rank=1, structure=(((1,),),), unit=(1,), name="Z")
        generators = ((2, IntMatrix.from_rows([[1]])), (3, IntMatrix.from_rows([[3]])))
        family = AdamsFamily(spec, PrimeUniverse((2, 3)), generators)
        with pytest.raises(NonIntegralDivision, match="lambda_3") as direct:
            lambda_from_adams(family, (1,), 4)
        data = LambdaData.from_adams(family, 4)
        assert data.value((1,), 2) == (0,)
        with pytest.raises(NonIntegralDivision) as stored:
            data.value((1,), 4)
        with pytest.raises(NonIntegralDivision) as recovered:
            adams_from_lambda(LambdaData.from_adams(family, 4), (1,), 4)
        assert str(stored.value) == str(direct.value) == str(recovered.value)


class TestSerialization:
    def test_roundtrip(self, each_preset):
        doc = family_to_dict(each_preset)
        assert family_from_dict(doc) == each_preset

    def test_roundtrip_nilpotent(self, nil3_family):
        assert family_from_dict(family_to_dict(nil3_family)) == nil3_family
