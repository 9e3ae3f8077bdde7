"""Universal polynomials in elementary-symmetric coordinates."""

import itertools
import math
import pathlib

import pytest

from lambdaring.errors import InternalInconsistency, LimitExceeded
from lambdaring.rings import LambdaData, preset_family
from lambdaring.symfun import (
    DEFAULT_COMPOSITION_LIMIT,
    MultiPoly,
    _exact_division,
    compute_P,
    compute_P_ij,
    verify_lambda_axioms,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def binomial(m: int, i: int) -> int:
    if i < 0:
        return 0
    num = 1
    for k in range(i):
        num *= m - k
    return num // math.factorial(i)


def elementary_values(letters, letter_name):
    """Map (letter_name, a) to e_a of the given integer alphabet."""
    values = {}
    for a in range(1, len(letters) + 1):
        values[(letter_name, a)] = sum(
            math.prod(c) for c in itertools.combinations(letters, a)
        )
    return values


class TestMultiPoly:
    def test_text_is_canonical(self):
        s1 = MultiPoly.variable("s", 1)
        s2 = MultiPoly.variable("s", 2)
        assert (s1 * s1 - 2 * s2 + 1).text() == "s1^2 - 2*s2 + 1"
        assert (s1 - s1).text() == "0"
        assert MultiPoly.constant(-3).text() == "-3"
        assert (s2 - s2).is_zero

    def test_equal_polynomials_compare_equal(self):
        s1 = MultiPoly.variable("s", 1)
        t1 = MultiPoly.variable("t", 1)
        left = (s1 + t1) * (s1 - t1)
        right = s1 * s1 - t1 * t1
        assert left == right
        assert left.text() == right.text()

    def test_eval_int(self):
        s1 = MultiPoly.variable("s", 1)
        t1 = MultiPoly.variable("t", 1)
        assert (s1 * t1 - 3).eval_int({("s", 1): 4, ("t", 1): 5}) == 17

    def test_power(self):
        s1 = MultiPoly.variable("s", 1)
        assert (s1 + 1) ** 2 == s1 * s1 + 2 * s1 + 1
        with pytest.raises(ValueError):
            (s1 + 1) ** -1

    def test_exact_division(self):
        s1 = MultiPoly.variable("s", 1)
        assert _exact_division(6 * s1 - 4, 2) == 3 * s1 - 2
        # A remainder means the Newton recursion was fed inconsistent
        # data; it is raised, not rounded, and survives python -O.
        with pytest.raises(InternalInconsistency):
            _exact_division(6 * s1 - 3, 2)


class TestProductPolynomials:
    def test_first_values(self):
        assert compute_P(1).text() == "s1*t1"
        assert compute_P(2).text() == "s1^2*t2 + s2*t1^2 - 2*s2*t2"

    def test_binomial_specialization(self):
        # With lambda_a(m) = C(m, a) the product rule must reproduce
        # C(mn, i); this pins every coefficient of the polynomial.
        for i in range(1, 6):
            polynomial = compute_P(i).expression
            for m in range(-5, 6):
                for n in range(-5, 6):
                    assignment = {("s", a): binomial(m, a) for a in range(1, i + 1)}
                    assignment.update(
                        {("t", b): binomial(n, b) for b in range(1, i + 1)}
                    )
                    assert polynomial.eval_int(assignment) == binomial(m * n, i)

    def test_concrete_alphabets(self):
        # Independent of the Newton recursion: expand the z-coefficient
        # of the product of (1 + x_a y_b z) directly over explicit integer
        # alphabets, with more letters than the polynomial's defining
        # alphabet to catch any hidden dependence on the alphabet size.
        for i in (1, 2, 3, 5):
            polynomial = compute_P(i).expression
            for x, y in [
                ((2, 3, 5), (1, 2, 4)),
                ((1, -1, 2), (3, 1, 1)),
                ((2, 3, 5, 7), (1, 1, 2, 3)),
                ((2, -1, 3, 1, 2), (1, 3, -2, 1, 1)),
            ]:
                if len(x) < i:
                    continue
                assignment = elementary_values(x, "s")
                assignment.update(elementary_values(y, "t"))
                pairs = [a * b for a in x for b in y]
                direct = sum(
                    math.prod(c) for c in itertools.combinations(pairs, i)
                )
                assert polynomial.eval_int(assignment) == direct

    def test_matches_the_sympy_expansion(self):
        # Oracle outside this library's polynomial arithmetic: sympy expands
        # e_i of the i^2 products x_a*y_b, and P_i at s_k = e_k(x),
        # t_k = e_k(y); the two must be the same polynomial in x and y.
        sympy = pytest.importorskip("sympy")

        def e(k, letters):
            return sympy.Add(*(sympy.Mul(*c) for c in itertools.combinations(letters, k)))

        for i in (1, 2, 3):
            x = sympy.symbols(f"x1:{i + 1}")
            y = sympy.symbols(f"y1:{i + 1}")
            alphabet = {"s": x, "t": y}
            evaluated = sympy.Add(
                *(
                    c * sympy.Mul(*(e(k, alphabet[letter]) ** n for (letter, k), n in monomial))
                    for monomial, c in compute_P(i).expression.terms
                )
            )
            direct = e(i, [a * b for a in x for b in y])
            assert sympy.Poly(evaluated, *x, *y) == sympy.Poly(direct, *x, *y), i

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            compute_P(0)


class TestCompositionPolynomials:
    def test_first_values(self):
        assert compute_P_ij(1, 1).text() == "s1"
        assert compute_P_ij(1, 2).text() == "s2"
        assert compute_P_ij(2, 1).text() == "s2"
        assert compute_P_ij(2, 2).text() == "s1*s3 - s4"

    def test_binomial_specialization(self):
        for i in range(1, 4):
            for j in range(1, 4):
                if i * j > DEFAULT_COMPOSITION_LIMIT:
                    continue
                polynomial = compute_P_ij(i, j).expression
                for m in range(-5, 6):
                    assignment = {("s", a): binomial(m, a) for a in range(1, i * j + 1)}
                    assert polynomial.eval_int(assignment) == binomial(
                        binomial(m, j), i
                    )

    def test_concrete_alphabets(self):
        for i, j in [(1, 2), (2, 2), (1, 3), (3, 1), (2, 3)]:
            polynomial = compute_P_ij(i, j).expression
            for x in [(2, 3, 5, 7, 1, 4, 6), (1, -1, 2, 2, 3, 1, 5)]:
                x = x[: max(i * j + 1, i * j)]  # at least the defining size
                assignment = elementary_values(x, "s")
                subset_products = [
                    math.prod(c) for c in itertools.combinations(x, j)
                ]
                direct = sum(
                    math.prod(c)
                    for c in itertools.combinations(subset_products, i)
                )
                assert polynomial.eval_int(assignment) == direct

    def test_limit_guard(self):
        with pytest.raises(LimitExceeded):
            compute_P_ij(3, 3)
        with pytest.raises(LimitExceeded):
            compute_P_ij(2, 4)
        with pytest.raises(ValueError):
            compute_P_ij(0, 1)

    def test_limit_can_be_raised(self):
        polynomial = compute_P_ij(1, 7, limit=7)
        assert polynomial.text() == "s7"


class TestGoldenFiles:
    def test_product_polynomials_match(self):
        for i in range(1, 6):
            expected = (GOLDEN / f"product_P{i}.txt").read_text().strip()
            assert compute_P(i).text() == expected

    def test_composition_polynomials_match(self):
        pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
        pairs += [(1, 4), (1, 5), (1, 6), (4, 1), (5, 1), (6, 1)]
        for i, j in pairs:
            expected = (GOLDEN / f"composition_P{i}_{j}.txt").read_text().strip()
            assert compute_P_ij(i, j).text() == expected


class TestAxiomChecker:
    def test_presets_pass(self):
        family = preset_family("RC2", (2, 3, 5))
        data = LambdaData.from_adams(family, 4)
        samples = [(1, 0), (0, 1), (1, 1), (2, -1)]
        assert verify_lambda_axioms(data, samples, 4) == []

    def test_integers_pass(self):
        family = preset_family("Z", (2, 3, 5))
        data = LambdaData.from_adams(family, 6)
        samples = [(m,) for m in range(-4, 5)]
        assert verify_lambda_axioms(data, samples, 6) == []

    def test_corrupted_table_flagged(self):
        # Adams-derived values on Z with one corrupted stored entry:
        # lambda_2(3) = 4 instead of 3.
        data = LambdaData.from_adams(preset_family("Z", (2, 3, 5)), 3)
        data._values[(3,)] = [(3,), (4,), (1,)]
        problems = verify_lambda_axioms(data, [(2,), (3,)], 3)
        assert problems
        assert any("product rule" in p or "additivity" in p for p in problems)
