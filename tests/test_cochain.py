"""The cochain complex: differentials, cofaces, identities."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, dual_numbers_family, nilpotent_family
from lambdaring import cochain as cochain_module
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
from lambdaring.cohomology import cocycle_space_basis
from lambdaring.deformation import trivial_deformation
from lambdaring.errors import ContextMismatch, NotFrobeniusCompatible, UnknownPrime
from lambdaring.exactalg import IntMatrix
from lambdaring.rings import (
    AdamsFamily,
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
        assert factored_box(u, 2) == (1, 2, 3, 4, 6, 9)
        assert factored_box(u, 1, include_one=False) == (2, 3)
        assert factored_box(u, 0) == (1,)


class TestCochainBasics:
    def test_argument_coercion(self, rc2_family):
        # arguments are the integers themselves: one cache entry per value
        f = random_cochain(rc2_family, 1, seed=4)
        assert f.at(12) is f.at(2 * 2 * 3)
        assert f.at(12) == seed_random_value(1, 4, (12,), rc2_family.rank)

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


def seed_coface(i: int, f: Cochain) -> Cochain:
    """The i-th coface with one validated matrix product, the reference for ``coface``."""
    family = f.family
    n = f.dimension

    def evaluate(args):
        if i == 0:
            return family.adams_at(args[0]) @ f.at(*args[1:])
        if i == n + 1:
            return f.at(*args[:-1]) @ family.adams_at(args[-1])
        return f.at(*args[: i - 1], args[i - 1] * args[i], *args[i + 1 :])

    return Cochain(family, n + 1, evaluate)


def seed_random_value(dimension: int, seed: int, args: tuple, rank: int) -> IntMatrix:
    """A fresh generator per value and ``randint(-3, 3)`` per entry.

    Kept as the reference that the reseeded generator of
    ``random_cochain`` must reproduce value for value.
    """
    key = f"cochain:{seed}:{dimension}:" + ",".join(str(m) for m in args)
    rng = random.Random(key)
    return IntMatrix(rank, rank, tuple(rng.randint(-3, 3) for _ in range(rank * rank)))


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


def merged_factors(m: tuple, n: tuple) -> tuple:
    exponents = dict(m)
    for p, e in n:
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
        for dimension in (1, 2, 3):
            seed = 7 * dimension + family.rank
            tuples = [(1,) * dimension, SIX_PRIMES[-dimension:]]
            tuples += [(1,) * (dimension - 1) + (p,) for p in SIX_PRIMES]
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
        factor = universe.factor
        box = factored_box(universe, 4)
        assert len(box) == 35
        for m in box:
            assert sum(e for _, e in factor(m)) <= 4
            for n in box:
                assert factor(m * n) == merged_factors(factor(m), factor(n))
                if n > 1:
                    p, rest = universe.peel(m * n)
                    assert p == factor(m * n)[0][0] and p * rest == m * n

    @pytest.mark.parametrize(
        "family", [nilpotent_family(), dual_numbers_family((2, 3, 5))], ids=lambda f: f.ring.name
    )
    def test_adams_matrices_without_unit_patterns(self, family):
        # psi_2 of Z[x]/(x^3) and diag(1, p) are not unit patterns, so the Adams
        # products at arguments other than 1 take the general loop of product_forms
        assert any(m._unit_pattern() is None for _, m in family.generators)
        for dim in (0, 1, 2):
            for seed in (1, 2):
                if dim == 0:
                    f = endo_cochain(family, random_endomorphism(family, seed))
                else:
                    f = random_cochain(family, dim, seed=seed)
                g = random_cochain(family, 1, seed=seed + 10)
                h = random_cochain(family, dim, seed=seed + 20) if dim else f.scale(2)
                pairs = [(differential(f), seed_differential(f))]
                pairs += [(coface(i, f), seed_coface(i, f)) for i in range(dim + 2)]
                for i in range(dim - 1):
                    unit_at_i = Cochain(family, dim - 1, lambda a, i=i: f.at(*a[:i], 1, *a[i:]))
                    pairs.append((codegeneracy(i, f), unit_at_i))
                pairs += [
                    (f.compose(g), Cochain(family, dim + 1, lambda a: f.at(*a[:dim]) @ g.at(a[dim]))),
                    (f + h, Cochain(family, dim, lambda a: f.at(*a) + h.at(*a))),
                    (f - h, Cochain(family, dim, lambda a: f.at(*a) - h.at(*a))),
                    (f.scale(-3), Cochain(family, dim, lambda a: -3 * f.at(*a))),
                ]
                for got, want in pairs:
                    for args in box_tuples(family, got.dimension, 20, seed=seed, exponent=3):
                        assert got.at(*args) == want.at(*args), (dim, got.dimension, args)
        for identity in IDENTITY_NAMES:
            for dim in (0, 1, 2):
                report = run_identity_check(family, identity, dim, 25, seed=dim + 3)
                assert report.passed, (identity, dim, report.failures[:3])

    def test_cache_hit_skips_coercion_but_keeps_the_arity_check(self, rc2_family):
        f = random_cochain(rc2_family, 2, seed=4)
        value = f.at(6, 6)
        assert f.at(6, 6) is value
        with pytest.raises(ValueError):
            f.at(6)
        with pytest.raises(ValueError):
            f.at(6, 6, 6)


def argument_contract_breaches() -> list:
    """Calls on 0, -4 and 14 over {2, 3, 5} that did not raise.

    Each entry point is called on the bad arguments twice: on a fresh
    universe, and after every integer of a box has passed its check.
    A RecursionError, say from peeling 0 forever, propagates.
    """
    family = preset_family("RC2", (2, 3, 5))
    entry_points = {
        "Cochain.at": random_cochain(family, 1, seed=1).at,
        "AdamsFamily.adams_at": family.adams_at,
        "Deformation.at": trivial_deformation(family, 1).at,
        "DerivationSpec.extend": cocycle_space_basis(family)[0].extend,
    }
    breaches = []
    for filled in (False, True):
        if filled:
            for n in factored_box(family.universe, 3):
                for call in entry_points.values():
                    call(n)
        for name, call in entry_points.items():
            for n in (0, -4, 14):
                try:
                    call(n)
                except (ValueError, UnknownPrime):
                    continue
                breaches.append((name, n, filled))
    return breaches


class TestArgumentContract:
    def test_outside_arguments_raise(self):
        assert argument_contract_breaches() == []

    def test_outside_arguments_raise_under_dash_o(self):
        env = child_env(str(Path(__file__).resolve().parent))
        script = "from test_cochain import argument_contract_breaches as b; print(b())"
        process = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert process.returncode == 0, process.stderr
        assert process.stdout == "[]\n"


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

    @staticmethod
    def break_coface_one(monkeypatch):
        """Double the first merge term, in coface(1, f) and in every differential."""
        term = cochain_module._coface_term

        def broken(f, i, args):
            value = term(f, i, args)
            return tuple(2 * e for e in value) if i == 1 else value

        monkeypatch.setattr(cochain_module, "_coface_term", broken)

    def test_a_broken_coface_fails_the_codegeneracy_sections(self, rc2_family, monkeypatch):
        assert run_identity_check(rc2_family, "cosimplicial", 1, 5, seed=0).passed
        self.break_coface_one(monkeypatch)
        report = run_identity_check(rc2_family, "cosimplicial", 1, 5, seed=0)
        assert "codegeneracy section fails at index 0" in report.failures
        assert "codegeneracy section fails at index 1" in report.failures

    def test_a_broken_differential_fails_d_squared(self, rc2_family, monkeypatch):
        assert run_identity_check(rc2_family, "d-squared", 1, 10, seed=0).passed
        self.break_coface_one(monkeypatch)
        report = run_identity_check(rc2_family, "d-squared", 1, 10, seed=0)
        assert report.failures
        assert all(f.startswith("d(d(f)) nonzero at (") for f in report.failures)

    def test_a_broken_coface_fails_the_leibniz_rule(self, rc2_family, monkeypatch):
        assert run_identity_check(rc2_family, "leibniz", 1, 10, seed=0).passed
        self.break_coface_one(monkeypatch)
        report = run_identity_check(rc2_family, "leibniz", 1, 10, seed=0)
        assert report.failures
        assert all(f.startswith("Leibniz rule fails at (") for f in report.failures)

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

