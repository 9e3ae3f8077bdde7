"""Universal polynomials through Newton's identities.

The product and composition rules of a lambda-structure are governed by
integer polynomials P_i and P_ij in the lambda values of the arguments.
Both come from the Newton recursion of ``rings`` run over polynomial
coefficients: treat the lambda values s_a of an argument as variables,
get its Adams values (the power sums p_k) with ``newton_psi``, apply
the Adams operations to the product or the composite, where they are
easy, and go back with ``newton_lambda``, whose divisions by n are
exact over the integers (Macdonald, *Symmetric Functions and Hall
Polynomials*, I.2).

Variables are pairs ``(letter, index)``; the published polynomials use
``s`` for the elementary values of the first argument and ``t`` for
the second.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .errors import InternalInconsistency, LimitExceeded
from .exactalg import Vector, vec_add, vec_scale, vec_zero
from .rings import LambdaData, RingSpec, newton_lambda, newton_psi

Variable = tuple[str, int]
Monomial = tuple[tuple[Variable, int], ...]

DEFAULT_COMPOSITION_LIMIT = 6


@dataclass(frozen=True)
class MultiPoly:
    """Multivariate polynomial with integer coefficients.

    Terms are stored canonically (highest total degree first, then by
    variable structure), so equal polynomials compare equal and print
    identically.

    >>> s1 = MultiPoly.variable("s", 1)
    >>> t1 = MultiPoly.variable("t", 1)
    >>> (s1 * t1 - 2 * s1).text()
    's1*t1 - 2*s1'
    >>> (s1 - s1).is_zero
    True
    """

    terms: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def _term_key(item: tuple[Monomial, int]):
        monomial, _ = item
        degree = sum(e for _, e in monomial)
        return (-degree, monomial)

    @staticmethod
    def from_dict(data: Mapping[Monomial, int]) -> "MultiPoly":
        cleaned = {m: c for m, c in data.items() if c}
        return MultiPoly(tuple(sorted(cleaned.items(), key=MultiPoly._term_key)))

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly(())

    @staticmethod
    def constant(c: int) -> "MultiPoly":
        return MultiPoly.from_dict({(): int(c)})

    @staticmethod
    def variable(letter: str, index: int) -> "MultiPoly":
        return MultiPoly.from_dict({(((letter, index), 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = _coerce(other)
        data = dict(self.terms)
        for m, c in other.terms:
            data[m] = data.get(m, 0) + c
        return MultiPoly.from_dict(data)

    def __radd__(self, other: int) -> "MultiPoly":
        return self + other

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "MultiPoly":
        return _coerce(other) - self

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = _coerce(other)
        data: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _monomial_mul(m1, m2)
                data[m] = data.get(m, 0) + c1 * c2
        return MultiPoly.from_dict(data)

    def __rmul__(self, other: int) -> "MultiPoly":
        return self * other

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = MultiPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def substitute(self, mapping: Mapping[Variable, "MultiPoly"]) -> "MultiPoly":
        """Replace variables by polynomials; unmapped variables stay."""
        result = MultiPoly.zero()
        for monomial, coeff in self.terms:
            term = MultiPoly.constant(coeff)
            for var, exp in monomial:
                base = mapping.get(var, MultiPoly.variable(*var))
                term = term * base**exp
            result = result + term
        return result

    def eval_int(self, assignment: Mapping[Variable, int]) -> int:
        """Evaluate with integer values for every variable that occurs."""
        total = 0
        for monomial, coeff in self.terms:
            value = coeff
            for var, exp in monomial:
                value *= assignment[var] ** exp
            total += value
        return total

    def eval_in_ring(self, spec: RingSpec, assignment: Mapping[Variable, Vector]) -> Vector:
        """Evaluate with ring elements (coordinate vectors) as values."""
        total = vec_zero(spec.rank)
        for monomial, coeff in self.terms:
            value = spec.unit
            for var, exp in monomial:
                for _ in range(exp):
                    value = spec.mul(value, assignment[var])
            total = vec_add(total, vec_scale(coeff, value))
        return total

    def text(self) -> str:
        """Canonical human-readable form, deterministic across runs."""
        if not self.terms:
            return "0"
        chunks = []
        for position, (monomial, coeff) in enumerate(self.terms):
            sign = "-" if coeff < 0 else "+"
            magnitude = abs(coeff)
            factors = [
                f"{letter}{index}" + (f"^{exp}" if exp > 1 else "")
                for (letter, index), exp in monomial
            ]
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = str(magnitude) + "*" + "*".join(factors)
            if position == 0:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append(f"{sign} {body}")
        return " ".join(chunks)


def _coerce(value: "MultiPoly | int") -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(value)


def _monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _exact_division(poly: MultiPoly, n: int) -> MultiPoly:
    if any(c % n for _, c in poly.terms):
        raise InternalInconsistency(f"a Newton step left a remainder mod {n}")
    return MultiPoly(tuple((m, c // n) for m, c in poly.terms))


def _power_sums(letter: str, count: int) -> list[MultiPoly]:
    """p_1..p_count in the lambda values letter1..letter<count>."""
    lams = [MultiPoly.variable(letter, a) for a in range(1, count + 1)]
    return newton_psi(lams, operator.mul, operator.add, operator.mul)


def _lambdas(psis: Sequence[MultiPoly]) -> list[MultiPoly]:
    return newton_lambda(
        psis, MultiPoly.constant(1), operator.mul, operator.add, operator.mul, _exact_division
    )


@dataclass(frozen=True)
class UniversalPolynomial:
    """A universal lambda-ring polynomial with its defining indices."""

    kind: str  # "product" or "composition"
    indices: tuple[int, ...]
    expression: MultiPoly

    def text(self) -> str:
        return self.expression.text()


@functools.lru_cache(maxsize=None)
def compute_P(i: int) -> UniversalPolynomial:
    """Polynomial expressing lambda_i(r*s) through lambda values of r and s.

    The Adams operations are multiplicative, psi_k(r*s) = psi_k(r) *
    psi_k(s), and psi_k of each argument is its power sum p_k written in
    its lambda values, s_a = lambda_a(r) and t_b = lambda_b(s); P_i is
    lambda_i of those products.

    >>> compute_P(1).text()
    's1*t1'
    >>> compute_P(2).text()
    's1^2*t2 + s2*t1^2 - 2*s2*t2'
    """
    if i < 1:
        raise ValueError("the product polynomial needs i >= 1")
    psis = [ps * pt for ps, pt in zip(_power_sums("s", i), _power_sums("t", i))]
    return UniversalPolynomial("product", (i,), _lambdas(psis)[i - 1])


@functools.lru_cache(maxsize=None)
def _compute_P_ij_cached(i: int, j: int) -> UniversalPolynomial:
    p = _power_sums("s", i * j)
    # psi_m(lambda_j r) = lambda_j(psi_m r), and psi_m r has power sums
    # p_k(psi_m r) = p_km(r).
    psis = [_lambdas(p[m - 1 : j * m : m])[j - 1] for m in range(1, i + 1)]
    return UniversalPolynomial("composition", (i, j), _lambdas(psis)[i - 1])


def compute_P_ij(i: int, j: int, limit: int = DEFAULT_COMPOSITION_LIMIT) -> UniversalPolynomial:
    """Polynomial expressing lambda_i(lambda_j(r)) through lambda values of r.

    With s_a = lambda_a(r), psi_m(lambda_j r) = lambda_j(psi_m r) is
    lambda_j of the power sums p_m, p_2m, ..., p_jm of r, and P_ij is
    lambda_i of those psi_m.  The work grows quickly with i*j; requests
    beyond the limit raise LimitExceeded instead of running long.

    >>> compute_P_ij(1, 2).text()
    's2'
    >>> compute_P_ij(3, 1).text()
    's3'
    """
    if i < 1 or j < 1:
        raise ValueError("the composition polynomial needs i, j >= 1")
    if i * j > limit:
        raise LimitExceeded(f"composition polynomial with i*j = {i * j} exceeds limit {limit}")
    return _compute_P_ij_cached(i, j)


def verify_lambda_axioms(
    data: LambdaData,
    samples: Sequence[Sequence[int]],
    bound: int,
    *,
    composition_limit: int = DEFAULT_COMPOSITION_LIMIT,
) -> list[str]:
    """Check the lambda-ring axioms on sampled elements up to a degree bound.

    Covers: lambda_0 = 1 and lambda_1 = id (structural for the data
    types here, still asserted), vanishing on the unit in degrees >= 2,
    the sum rule lambda_i(r + s) = sum_k lambda_k(r) lambda_{i-k}(s) on
    pairs of samples, the product
    rule through the universal product polynomials, and the composition
    rule through the universal composition polynomials with i*j capped
    by ``composition_limit``.

    Returns human-readable violation strings; empty means every sampled
    instance of every axiom holds.
    """
    spec = data.spec
    violations: list[str] = []
    elements = [tuple(r) for r in samples]

    def lam(r: Vector, k: int) -> Vector:
        return data.value(r, k)

    for r in elements:
        if lam(r, 0) != spec.unit:
            violations.append(f"lambda_0({r}) != 1")
        if lam(r, 1) != r:
            violations.append(f"lambda_1({r}) != the element itself")
    for i in range(2, bound + 1):
        if lam(spec.unit, i) != vec_zero(spec.rank):
            violations.append(f"lambda_{i}(1) != 0")
    for r, s in combinations_with_replacement(elements, 2):
        total = vec_add(r, s)
        for i in range(1, bound + 1):
            expected = vec_zero(spec.rank)
            for k in range(i + 1):
                expected = vec_add(expected, spec.mul(lam(r, k), lam(s, i - k)))
            if lam(total, i) != expected:
                violations.append(f"additivity fails: lambda_{i}({r} + {s})")
        product = spec.mul(r, s)
        for i in range(1, bound + 1):
            polynomial = compute_P(i)
            assignment = {("s", a): lam(r, a) for a in range(1, i + 1)}
            assignment.update({("t", b): lam(s, b) for b in range(1, i + 1)})
            expected = polynomial.expression.eval_in_ring(spec, assignment)
            if lam(product, i) != expected:
                violations.append(f"product rule fails: lambda_{i}({r} * {s})")
    for r in elements:
        for j in range(1, bound + 1):
            for i in range(1, bound // j + 1):
                if i * j > composition_limit or i * j > bound:
                    continue
                polynomial = compute_P_ij(i, j, composition_limit)
                assignment = {("s", a): lam(r, a) for a in range(1, i * j + 1)}
                expected = polynomial.expression.eval_in_ring(spec, assignment)
                if lam(lam(r, j), i) != expected:
                    violations.append(f"composition rule fails: lambda_{i}(lambda_{j}({r}))")
    return violations
