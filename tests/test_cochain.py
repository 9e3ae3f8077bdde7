"""The cochain complex: differentials, cofaces, identities."""

import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from conftest import nilpotent_family
from lambdaring.cochain import (
    Cochain,
    IDENTITY_NAMES,
    codegeneracy,
    coface,
    differential,
    endo_cochain,
    factored_box,
    random_cochain,
    random_endomorphism,
    run_identity_check,
    sample_tuples,
)
from lambdaring.errors import ContextMismatch, NotFrobeniusCompatible
from lambdaring.exactalg import IntMatrix
from lambdaring.rings import (
    AdamsFamily,
    FactoredInt,
    PrimeUniverse,
    _cyclic_adams_matrix,
    _cyclic_group_ring,
    preset_family,
)


def box_tuples(family, dimension, count, seed, exponent=2):
    rng = random.Random(seed)
    return sample_tuples(
        family.universe, dimension, count, rng, max_total_exponent=exponent
    )


class TestFactoredBox:
    def test_contents(self):
        u = PrimeUniverse((2, 3))
        values = [m.value for m in factored_box(u, 2)]
        assert values == [1, 2, 3, 4, 6, 9]
        assert [m.value for m in factored_box(u, 1, include_one=False)] == [2, 3]


class TestCochainBasics:
    def test_argument_coercion(self, rc2_family):
        f = random_cochain(rc2_family, 1, seed=4)
        twelve = rc2_family.universe.factor(12)
        assert f.at(12) == f.at(twelve)

    def test_wrong_arity(self, rc2_family):
        f = random_cochain(rc2_family, 2, seed=4)
        with pytest.raises(ValueError):
            f.at(2)

    def test_algebra(self, rc2_family):
        f = random_cochain(rc2_family, 1, seed=1)
        g = random_cochain(rc2_family, 1, seed=2)
        assert (f + g).at(6) == f.at(6) + g.at(6)
        assert (f - g).at(6) == f.at(6) - g.at(6)
        assert (-f).at(6) == -f.at(6)
        assert f.scale(3).at(6) == 3 * f.at(6)

    def test_compose_blocks(self, rc2_family):
        f = random_cochain(rc2_family, 1, seed=1)
        g = random_cochain(rc2_family, 2, seed=2)
        h = f.compose(g)
        assert h.dimension == 3
        assert h.at(2, 3, 6) == f.at(2) @ g.at(3, 6)

    def test_context_mismatch(self, rc2_family, rc3_family):
        f = random_cochain(rc2_family, 1, seed=1)
        g = random_cochain(rc3_family, 1, seed=1)
        with pytest.raises(ContextMismatch):
            f + g
        with pytest.raises(ContextMismatch):
            f.compose(g)

    def test_equal_families_compose(self):
        # Structurally equal families built twice must interoperate.
        a = preset_family("RC2", (2, 3))
        b = preset_family("RC2", (2, 3))
        f = random_cochain(a, 1, seed=1)
        g = random_cochain(b, 1, seed=1)
        assert (f + g).at(2) == 2 * f.at(2)

    def test_seeded_determinism(self, rc3_family):
        f = random_cochain(rc3_family, 2, seed=77)
        g = random_cochain(rc3_family, 2, seed=77)
        h = random_cochain(rc3_family, 2, seed=78)
        assert f.at(4, 9) == g.at(4, 9)
        assert any(
            f.at(*args) != h.at(*args) for args in box_tuples(rc3_family, 2, 20, 0)
        )


class TestEndomorphisms:
    def test_random_endomorphism_is_compatible(self, each_preset):
        for seed in range(10):
            matrix = random_endomorphism(each_preset, seed)
            cochain = endo_cochain(each_preset, matrix)
            assert cochain.dimension == 0
            assert cochain.at() == matrix

    def test_incompatible_rejected(self, rc2_family):
        bad = IntMatrix.from_rows([[0, 0], [0, 1]])
        with pytest.raises(NotFrobeniusCompatible):
            endo_cochain(rc2_family, bad)

    def test_wrong_size_rejected(self, rc2_family):
        with pytest.raises(ValueError):
            endo_cochain(rc2_family, IntMatrix.identity(3))


class TestDifferential:
    def test_matches_alternating_cofaces(self, rc3_family):
        for dim in (0, 1, 2):
            if dim == 0:
                f = endo_cochain(rc3_family, random_endomorphism(rc3_family, 3))
            else:
                f = random_cochain(rc3_family, dim, seed=3)
            df = differential(f)
            for args in box_tuples(rc3_family, dim + 1, 15, seed=dim):
                total = IntMatrix.zeros(3, 3)
                sign = 1
                for i in range(dim + 2):
                    total = total + sign * coface(i, f).at(*args)
                    sign = -sign
                assert df.at(*args) == total

    def test_endomorphism_differential_is_commutator(self, rc2_family):
        matrix = random_endomorphism(rc2_family, 9)
        df = differential(endo_cochain(rc2_family, matrix))
        for n in (2, 3, 4, 6):
            an = rc2_family.adams_at(n)
            assert df.at(n) == an @ matrix - matrix @ an

    def test_endomorphism_differential_is_divisible(self, each_preset):
        # The degree-zero image consists of honest degree-one cochains:
        # commutators with the Adams matrix at p vanish mod p because
        # both sides are Frobenius mod p.
        for seed in range(5):
            f = endo_cochain(each_preset, random_endomorphism(each_preset, seed))
            df = differential(f)
            for p in each_preset.universe:
                assert df.at(p).is_divisible_by(p)

    def test_unit_argument_kills_degree_one(self, rc2_family):
        # f(1) = psi(1) f(1) pattern: d f (1, 1) = f(1) for any f, so a
        # cocycle must vanish at 1; spot the raw identity instead.
        f = random_cochain(rc2_family, 1, seed=11)
        df = differential(f)
        assert df.at(1, 1) == f.at(1)


def seed_differential(f: Cochain) -> Cochain:
    """The term-by-term differential: one validated matrix per term.

    Kept as the reference that the summed row buffer must reproduce.
    """
    family = f.family
    n = f.dimension

    def evaluate(args):
        total = family.adams_at(args[0]) @ f.at(*args[1:])
        sign = -1
        for i in range(1, n + 1):
            merged = args[: i - 1] + (args[i - 1] * args[i],) + args[i + 1 :]
            total = total + sign * f.at(*merged)
            sign = -sign
        return total + sign * (f.at(*args[:-1]) @ family.adams_at(args[-1]))

    return Cochain(family, n + 1, evaluate)


def seed_random_value(dimension: int, seed: int, args: tuple, rank: int) -> IntMatrix:
    """A fresh generator per value and ``randint(-3, 3)`` per entry.

    Kept as the reference that the reseeded generator of
    ``random_cochain`` must reproduce value for value.
    """
    key = f"cochain:{seed}:{dimension}:" + ",".join(str(m.value) for m in args)
    rng = random.Random(key)
    return IntMatrix(
        rank, rank, tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank))
    )


SIX_PRIMES = (2, 3, 5, 7, 11, 13)


def seeded_value_families():
    families = [preset_family(name, SIX_PRIMES) for name in ("Z", "RC2", "RC3")]
    families.append(
        AdamsFamily(
            _cyclic_group_ring(4, "ZC4"),
            PrimeUniverse(SIX_PRIMES),
            tuple((p, _cyclic_adams_matrix(4, p)) for p in SIX_PRIMES),
        )
    )
    families.append(nilpotent_family(SIX_PRIMES))
    return families


def merged_factors(m: FactoredInt, n: FactoredInt) -> tuple:
    exponents = dict(m.factors)
    for p, e in n.factors:
        exponents[p] = exponents.get(p, 0) + e
    return tuple(sorted(exponents.items()))


class TestEvaluationMatchesSeed:
    @pytest.mark.parametrize("name", ["Z", "RC2", "RC3"])
    def test_differential_equals_the_term_by_term_reference(self, name):
        family = preset_family(name, (2, 3, 5))
        for dim in (0, 1, 2):
            for seed in (1, 2):
                if dim == 0:
                    f = endo_cochain(family, random_endomorphism(family, seed))
                else:
                    f = random_cochain(family, dim, seed=seed)
                df, ref = differential(f), seed_differential(f)
                ddf, ref2 = differential(df), seed_differential(ref)
                for args in box_tuples(family, dim + 1, 25, seed=seed, exponent=3):
                    assert df.at(*args) == ref.at(*args), (name, dim, args)
                for args in box_tuples(family, dim + 2, 25, seed=seed):
                    value = ddf.at(*args)
                    assert value == ref2.at(*args), (name, dim, args)
                    assert value.is_zero

    @pytest.mark.parametrize("family", seeded_value_families(), ids=lambda f: f.ring.name)
    def test_random_values_equal_the_per_value_generator(self, family):
        one = FactoredInt.one()
        primes = [FactoredInt.of_prime(p) for p in SIX_PRIMES]
        for dimension in (1, 2, 3):
            seed = 7 * dimension + family.rank
            tuples = [(one,) * dimension, tuple(primes[-dimension:])]
            tuples += [(one,) * (dimension - 1) + (p,) for p in primes]
            tuples += box_tuples(family, dimension, 12, seed=seed)
            f = random_cochain(family, dimension, seed)
            for args in tuples:
                assert f.at(*args) == seed_random_value(dimension, seed, args, family.rank), args
            # one generator serves every value, so the order of evaluation must not matter
            g = random_cochain(family, dimension, seed)
            for args in reversed(tuples):
                assert g.at(*args) == f.at(*args), args

    def test_factored_products_equal_a_dict_merge(self):
        universe = PrimeUniverse((2, 3, 5))
        box = factored_box(universe, 4)
        assert len(box) == 35
        for m in box:
            for n in box:
                product = m * n
                rebuilt = FactoredInt(merged_factors(m, n))
                assert product.factors == rebuilt.factors
                assert product == rebuilt
                assert hash(product) == hash(rebuilt) == hash((rebuilt.factors,))
                assert product.value == m.value * n.value
                assert (product == m) == (n.is_one)
        one = FactoredInt.one()
        for m in box:
            assert m * one is m
            assert one * m is (one if m.is_one else m)
            assert universe.factor(m.value) == m
            assert hash(universe.factor(m.value)) == hash(m)

    def test_factored_ints_validate_and_stay_frozen(self):
        with pytest.raises(ValueError, match="positive"):
            FactoredInt(((2, 0),))
        with pytest.raises(ValueError, match="increasing"):
            FactoredInt(((3, 1), (2, 1)))
        n = FactoredInt(((2, 1), (3, 2)))
        assert repr(n) == "FactoredInt(factors=((2, 1), (3, 2)))"
        assert n != (((2, 1), (3, 2)),) and n != 18
        with pytest.raises(FrozenInstanceError):
            n.factors = ()
        assert {n: 1}[FactoredInt(((2, 1), (3, 2)))] == 1
        copied = pickle.loads(pickle.dumps(n))
        assert copied == n and hash(copied) == hash(n)

    def test_cache_hit_skips_coercion_but_keeps_the_arity_check(self, rc2_family):
        f = random_cochain(rc2_family, 2, seed=4)
        six = rc2_family.universe.factor(6)
        value = f.at(six, six)
        assert f.at(6, 6) is value
        assert f.at(six, 6) is value
        with pytest.raises(ValueError):
            f.at(six)
        with pytest.raises(ValueError):
            f.at(six, six, six)


class TestCofacesAndCodegeneracies:
    def test_coface_range(self, rc2_family):
        f = random_cochain(rc2_family, 1, seed=0)
        with pytest.raises(IndexError):
            coface(-1, f)
        with pytest.raises(IndexError):
            coface(3, f)

    def test_codegeneracy_range(self, rc2_family):
        f = random_cochain(rc2_family, 2, seed=0)
        with pytest.raises(IndexError):
            codegeneracy(-1, f)
        with pytest.raises(IndexError):
            codegeneracy(2, f)

    def test_codegeneracy_dimension_floor(self, rc2_family):
        f = random_cochain(rc2_family, 1, seed=0)
        with pytest.raises(ValueError):
            codegeneracy(0, f)

    def test_codegeneracy_inserts_unit(self, rc3_family):
        f = random_cochain(rc3_family, 2, seed=2)
        s0 = codegeneracy(0, f)
        s1 = codegeneracy(1, f)
        assert s0.at(6) == f.at(1, 6)
        assert s1.at(6) == f.at(6, 1)


class TestIdentities:
    @pytest.mark.parametrize("identity", IDENTITY_NAMES)
    @pytest.mark.parametrize("dimension", [0, 1, 2])
    def test_identities_hold(self, each_preset, identity, dimension):
        report = run_identity_check(each_preset, identity, dimension, 25, seed=42)
        assert report.passed, report.failures[:3]

    def test_identities_hold_on_nilpotent(self, nil3_family):
        for identity in IDENTITY_NAMES:
            report = run_identity_check(nil3_family, identity, 1, 25, seed=7)
            assert report.passed

    def test_report_shape(self, rc2_family):
        report = run_identity_check(rc2_family, "d-squared", 1, 10, seed=0)
        doc = report.to_dict()
        assert doc["identity"] == "d-squared"
        assert doc["samples"] == 10
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_unknown_identity(self, rc2_family):
        with pytest.raises(ValueError):
            run_identity_check(rc2_family, "jacobi", 1, 5, seed=0)

    def test_wrong_sign_leibniz_fails(self, rc2_family):
        # Negative control: with the sign of the second term flipped the
        # identity must be violated somewhere — the checker is not vacuous.
        f = random_cochain(rc2_family, 1, seed=21)
        g = random_cochain(rc2_family, 1, seed=22)
        lhs = differential(f.compose(g))
        wrong = differential(f).compose(g) + f.compose(differential(g))
        mismatches = sum(
            1
            for args in box_tuples(rc2_family, 3, 10, seed=5)
            if lhs.at(*args) != wrong.at(*args)
        )
        assert mismatches > 0

    def test_wrong_coface_relation_fails(self, rc2_family):
        # The relation pairs coface(j) after coface(i) with coface(i)
        # after coface(j-1) for i < j; using coface(j) on the right too
        # must break.
        f = random_cochain(rc2_family, 1, seed=23)
        left = coface(2, coface(0, f))
        wrong = coface(0, coface(2, f))
        mismatches = sum(
            1
            for args in box_tuples(rc2_family, 3, 10, seed=6)
            if left.at(*args) != wrong.at(*args)
        )
        assert mismatches > 0

