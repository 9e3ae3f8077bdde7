"""Formal deformations of Adams operations and their obstruction theory.

A deformation of order N replaces each Adams generator by a polynomial
family: a series in t, truncated past t^N, whose constant coefficient
is the generator and whose higher coefficients at the prime p are
divisible by p.  Values at composite arguments are products of
generator series, so a deformation behaves like a monoid map modulo
t^{N+1} exactly when the generator series pairwise commute at every
coefficient.

Pushing to order N+1 is a cohomological problem: the failure of
multiplicativity at t^{N+1} is a two-cocycle built from the existing
coefficients, and a new top term exists precisely when that cocycle is
a coboundary of degree-one data with the right divisibility.  The
solver works in divided coordinates (the value at p is p times the
unknown), accumulates the affine dependence of peeled values on the
prime unknowns, and imposes the coboundary equation on every pair from
a bounded box of factored integers.  A returned extension is verified
by construction; a returned None certifies that no top term with the
required divisibility satisfies those equations, and hence none exists
at all.

Equivalences are conjugations by formal automorphisms: invertible
series with identity constant term and Frobenius-compatible
coefficients.  Compatibility is what keeps conjugation inside the
deformation space: each coefficient of U A_p U^{-1} - A_p reduces
modulo p to a Frobenius commutator, so divisibility survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cochain import Cochain, factored_box
from .errors import (
    ConfigParseError,
    DivisibilityViolation,
    InternalInconsistency,
    NotCoboundary,
    NotFrobeniusCompatible,
    PrefixMismatch,
)
from .exactalg import (
    IntMatrix,
    Vector,
    multiply_vecs,
    solve_linear,
    vec_add,
    vec_sub,
    vec_zero,
)
from .cohomology import DerivationSpec, solve_coboundary_1
from .rings import AdamsFamily, FactoredInt, family_from_dict, family_to_dict, frobenius_compatible

Series = tuple[IntMatrix, ...]


def series_identity(rank: int, order: int) -> Series:
    head = [IntMatrix.identity(rank)]
    head.extend(IntMatrix.zeros(rank, rank) for _ in range(order))
    return tuple(head)


def series_mul(a: Sequence[IntMatrix], b: Sequence[IntMatrix], order: int) -> Series:
    """Product of matrix polynomials in t, truncated past t^order."""
    rank = a[0].rows
    out = []
    for k in range(order + 1):
        acc = IntMatrix.zeros(rank, rank)
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                acc = acc + a[i] @ b[k - i]
        out.append(acc)
    return tuple(out)


def series_inverse(a: Sequence[IntMatrix], order: int) -> Series:
    """Inverse of a series with identity constant term, mod t^{order+1}."""
    rank = a[0].rows
    if a[0] != IntMatrix.identity(rank):
        raise ValueError("only series with identity constant term are inverted here")
    out = [IntMatrix.identity(rank)]
    for k in range(1, order + 1):
        acc = IntMatrix.zeros(rank, rank)
        for i in range(1, k + 1):
            if i < len(a):
                acc = acc + a[i] @ out[k - i]
        out.append(-acc)
    return tuple(out)


class Deformation:
    """Truncated one-parameter family of Adams operations.

    ``series(p)`` lists coefficients 0..order at the prime p; the
    constant term is the Adams generator and each higher term is
    divisible by p.  Whether the generator series commute is a
    verifiable property, not a constructor guarantee; values at
    composite arguments multiply the series in peeling order and are
    canonical once verification passes.
    """

    def __init__(
        self, family: AdamsFamily, order: int, series: Mapping[int, Sequence[IntMatrix]]
    ) -> None:
        if order < 0:
            raise ValueError("deformation order must be nonnegative")
        primes = family.universe.primes
        if set(series) != set(primes):
            raise ValueError(f"series must cover exactly the universe primes {primes}")
        d = family.rank
        stored = []
        for p in primes:
            coefficients = tuple(series[p])
            if len(coefficients) != order + 1:
                raise ValueError(
                    f"series at {p} must have {order + 1} coefficients, got "
                    f"{len(coefficients)}"
                )
            if coefficients[0] != family.generator(p):
                raise ValueError(f"coefficient 0 at {p} must be the Adams generator")
            for i, c in enumerate(coefficients):
                if c.rows != d or c.cols != d:
                    raise ValueError(f"coefficient {i} at {p} must be {d}x{d}")
                if i >= 1 and not c.is_divisible_by(p):
                    raise DivisibilityViolation(
                        f"coefficient {i} at prime {p} must be divisible by {p}"
                    )
            stored.append(coefficients)
        self.family = family
        self.order = order
        self._series = tuple(stored)
        self._at_cache: dict[FactoredInt, Series] = {}

    def series(self, p: int) -> Series:
        return self._series[self.family.universe.primes.index(p)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Deformation):
            return NotImplemented
        return (
            self.family.ring == other.family.ring
            and self.order == other.order
            and self._series == other._series
        )

    def at(self, m) -> Series:
        """Series at any factored integer, by multiplying peeled factors."""
        if not isinstance(m, FactoredInt):
            m = self.family.universe.factor(int(m))
        if m.is_one:
            return series_identity(self.family.rank, self.order)
        if m not in self._at_cache:
            p, rest = m.peel()
            self._at_cache[m] = series_mul(self.series(p), self.at(rest), self.order)
        return self._at_cache[m]


def trivial_deformation(family: AdamsFamily, order: int) -> Deformation:
    d = family.rank
    zero = IntMatrix.zeros(d, d)
    series = {
        p: (family.generator(p),) + (zero,) * order for p in family.universe.primes
    }
    return Deformation(family, order, series)


def make_deformation(
    family: AdamsFamily, order: int, terms: Mapping[int, Mapping[int, IntMatrix]]
) -> Deformation:
    """Build a deformation from the nonconstant terms only.

    ``terms[p][i]`` is the coefficient of t^i at the prime p, for
    i >= 1; omitted coefficients are zero.
    """
    d = family.rank
    zero = IntMatrix.zeros(d, d)
    series = {}
    for p in family.universe.primes:
        given = terms.get(p, {})
        for i in given:
            if not 1 <= i <= order:
                raise ValueError(f"term index {i} at {p} outside 1..{order}")
        coefficients = [family.generator(p)]
        coefficients.extend(given.get(i, zero) for i in range(1, order + 1))
        series[p] = coefficients
    return Deformation(family, order, series)


def infinitesimal(deformation: Deformation) -> DerivationSpec:
    """The first-order part, as degree-one data at the primes."""
    family = deformation.family
    d = family.rank
    values = {}
    for p in family.universe.primes:
        if deformation.order >= 1:
            values[p] = deformation.series(p)[1]
        else:
            values[p] = IntMatrix.zeros(d, d)
    return DerivationSpec(family, values)


@dataclass(frozen=True)
class DeformationReport:
    """Outcome of verifying a deformation's structural requirements."""

    order: int
    commuting: bool
    divisible: bool
    product_law_samples: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "commuting": self.commuting,
            "divisible": self.divisible,
            "product_law_samples": self.product_law_samples,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def verify_deformation(
    deformation: Deformation, *, max_total_exponent: int = 2
) -> DeformationReport:
    """Check commutation, divisibility, and the sampled product law.

    Divisibility holds by construction; it is rechecked so the report
    stands on its own.  The product law over the bounded box follows
    from pairwise commutation, and is exercised directly anyway.
    """
    family = deformation.family
    primes = family.universe.primes
    failures: list[str] = []
    divisible = True
    for p in primes:
        for i, c in enumerate(deformation.series(p)):
            if i >= 1 and not c.is_divisible_by(p):
                divisible = False
                failures.append(f"coefficient {i} at {p} not divisible by {p}")
    commuting = True
    for a in range(len(primes)):
        for b in range(a + 1, len(primes)):
            p, q = primes[a], primes[b]
            left = series_mul(deformation.series(p), deformation.series(q), deformation.order)
            right = series_mul(deformation.series(q), deformation.series(p), deformation.order)
            if left != right:
                commuting = False
                failures.append(f"generator series at {p} and {q} do not commute")
    box = factored_box(family.universe, max_total_exponent, include_one=False)
    samples = 0
    for m in box:
        for n in box:
            samples += 1
            product = series_mul(deformation.at(m), deformation.at(n), deformation.order)
            if product != deformation.at(m * n):
                failures.append(f"product law fails at ({m}, {n})")
    return DeformationReport(
        deformation.order, commuting, divisible, samples, tuple(failures)
    )


def obstruction(deformation: Deformation) -> Cochain:
    """The two-cochain blocking a top term at the next order.

    Its value at (m, n) is minus the t^{N+1} coefficient of the product
    of the two truncated series; a new coefficient f works at order
    N+1 exactly when df equals this cochain.
    """
    family = deformation.family
    order = deformation.order
    d = family.rank

    def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
        m, n = args
        left = deformation.at(m)
        right = deformation.at(n)
        total = IntMatrix.zeros(d, d)
        for i in range(1, order + 1):
            j = order + 1 - i
            if j <= order:
                total = total + left[i] @ right[j]
        return -total

    return Cochain(family, 2, evaluate)


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of the order-raising solve over a bounded argument box."""

    extended: Optional[Deformation]
    exponent_bound: int
    box_size: int
    equations: int

    @property
    def succeeded(self) -> bool:
        return self.extended is not None


def try_extend(deformation: Deformation, exponent_bound: int = 3) -> ExtensionResult:
    """Raise the order by one, or certify that no top term exists.

    The unknown top coefficient is determined on composites by peeling
    against the obstruction, so the only free unknowns are the divided
    values at the primes.  Every pair from the box of factored integers
    with exponent sum up to the bound contributes one matrix equation;
    a solution yields a deformation whose validity is independent of
    the box, while unsolvability of this necessary subset proves
    unsolvability outright.
    """
    box, system, rhs = _extension_system(deformation, exponent_bound)
    solution = solve_linear(system, rhs)
    if solution is None:
        return ExtensionResult(None, exponent_bound, len(box), system.rows)
    family = deformation.family
    d = family.rank
    d2 = d * d
    x = solution.particular
    new_terms: dict[int, dict[int, IntMatrix]] = {}
    for idx, p in enumerate(family.universe.primes):
        block = x[idx * d2 : (idx + 1) * d2]
        top = p * IntMatrix.from_flat(d, d, block)
        per_prime = {}
        for i in range(1, deformation.order + 1):
            per_prime[i] = deformation.series(p)[i]
        per_prime[deformation.order + 1] = top
        new_terms[p] = per_prime
    extended = make_deformation(family, deformation.order + 1, new_terms)
    return ExtensionResult(extended, exponent_bound, len(box), system.rows)


def _extension_system(
    deformation: Deformation, exponent_bound: int
) -> tuple[tuple[FactoredInt, ...], IntMatrix, Vector]:
    """The box and the stacked linear system ``system @ X == rhs`` of try_extend.

    X stacks the divided top values at the primes.  Each pair (m, n)
    of the box gives the d*d rows of vec(A_m f(n) - f(mn) + f(m) A_n)
    == vec(obstruction(m, n)), with f affine in X.
    """
    if exponent_bound < 1:
        raise ValueError("the exponent bound must be at least 1")
    family = deformation.family
    primes = family.universe.primes
    d = family.rank
    d2 = d * d
    width = len(primes) * d2
    obs = obstruction(deformation)
    zero_vec = vec_zero(d2)

    # affine dependence of the peeled top term on the prime unknowns:
    # vec f(n) = sum_c columns[n][c] * X[c] + constants[n]
    columns: dict[FactoredInt, list[Vector]] = {FactoredInt.one(): [zero_vec] * width}
    constants: dict[FactoredInt, Vector] = {FactoredInt.one(): zero_vec}

    def affine_at(n: FactoredInt) -> tuple[list[Vector], Vector]:
        if n in columns:
            return columns[n], constants[n]
        p, rest = n.peel()
        if rest.is_one:
            idx = primes.index(p)
            cols = [zero_vec] * width
            for e in range(d2):
                cols[idx * d2 + e] = tuple(p if r == e else 0 for r in range(d2))
            const = zero_vec
        else:
            rest_cols, rest_const = affine_at(rest)
            prime_cols, _ = affine_at(FactoredInt.of_prime(p))
            lead = family.generator(p)
            cols = list(
                map(
                    vec_add,
                    multiply_vecs(rest_cols, left=lead),
                    multiply_vecs(prime_cols, right=family.adams_at(rest)),
                )
            )
            (lead_const,) = multiply_vecs([rest_const], left=lead)
            const = vec_sub(lead_const, obs.at(p, rest).flat())
        columns[n] = cols
        constants[n] = const
        return cols, const

    box = factored_box(family.universe, exponent_bound, include_one=False)
    rows: list[Vector] = []
    rhs: list[int] = []
    for m in box:
        am = family.adams_at(m)
        for n in box:
            an = family.adams_at(n)
            cols_m, c_m = affine_at(m)
            cols_n, c_n = affine_at(n)
            cols_mn, c_mn = affine_at(m * n)
            left = multiply_vecs(cols_n + [c_n], left=am)
            right = multiply_vecs(cols_m + [c_m], right=an)
            total = [
                vec_add(vec_sub(x, y), z)
                for x, y, z in zip(left, cols_mn + [c_mn], right)
            ]
            total_const = total.pop()
            rows.extend(zip(*total))
            rhs.extend(vec_sub(obs.at(m, n).flat(), total_const))
    return box, IntMatrix(len(rows), width, tuple(rows)), tuple(rhs)


class FormalAutomorphism:
    """Invertible series acting on deformations by conjugation.

    The constant term is the identity and every higher coefficient must
    be Frobenius-compatible; that is exactly the condition under which
    conjugation preserves the divisibility of deformation coefficients.
    """

    def __init__(self, family: AdamsFamily, coefficients: Sequence[IntMatrix]) -> None:
        d = family.rank
        coefficients = tuple(coefficients)
        if not coefficients or coefficients[0] != IntMatrix.identity(d):
            raise ValueError("a formal automorphism starts with the identity")
        for i, c in enumerate(coefficients):
            if c.rows != d or c.cols != d:
                raise ValueError(f"coefficient {i} must be {d}x{d}")
            if i >= 1 and not frobenius_compatible(c, family):
                raise NotFrobeniusCompatible(
                    f"coefficient {i} is not Frobenius-compatible"
                )
        self.family = family
        self.coefficients = coefficients

    def inverse_to(self, order: int) -> Series:
        return series_inverse(self.coefficients, order)


def apply_automorphism(auto: FormalAutomorphism, deformation: Deformation) -> Deformation:
    """Conjugate every generator series, truncating at the same order."""
    if auto.family != deformation.family:
        raise ValueError("automorphism and deformation use different families")
    order = deformation.order
    inverse = auto.inverse_to(order)
    series = {}
    for p in deformation.family.universe.primes:
        conjugated = series_mul(
            series_mul(auto.coefficients, deformation.series(p), order), inverse, order
        )
        series[p] = conjugated
    # constructor re-asserts divisibility, which conjugation preserves
    return Deformation(deformation.family, order, series)


def check_equivalent_extensions(
    first: Deformation, second: Deformation
) -> Optional[IntMatrix]:
    """Witness that two extensions of one deformation are conjugate.

    Both inputs must agree through all but the top order; the top terms
    differ by an inner derivation exactly when conjugation by
    1 - t^N (witness) carries one to the other.  Returns the witness
    endomorphism, or None when the difference is a genuinely new class.
    """
    if first.family != second.family:
        raise PrefixMismatch("deformations use different families")
    if first.order != second.order or first.order < 1:
        raise PrefixMismatch("extensions must share a positive order")
    family = first.family
    for p in family.universe.primes:
        for i in range(first.order):
            if first.series(p)[i] != second.series(p)[i]:
                raise PrefixMismatch(
                    f"coefficient {i} at {p} differs below the top order"
                )
    top = first.order
    delta = {
        p: second.series(p)[top] - first.series(p)[top]
        for p in family.universe.primes
    }
    witness = solve_coboundary_1(family, DerivationSpec(family, delta))
    if witness is None:
        return None
    for p in family.universe.primes:
        a = family.generator(p)
        if a @ witness - witness @ a != delta[p]:
            raise InternalInconsistency(f"the witness does not reproduce the difference at {p}")
    return witness


def normalize(deformation: Deformation, level: int) -> tuple[Deformation, IntMatrix]:
    """Remove the t^level coefficient by conjugation, if it is inner.

    Raises NotCoboundary when the coefficient represents a nonzero
    cohomology class, i.e. when no conjugation can remove it.
    """
    if not 1 <= level <= deformation.order:
        raise ValueError("level must lie between 1 and the deformation order")
    family = deformation.family
    values = {p: deformation.series(p)[level] for p in family.universe.primes}
    witness = solve_coboundary_1(family, DerivationSpec(family, values))
    if witness is None:
        raise NotCoboundary(
            f"the t^{level} coefficient is not an inner derivation"
        )
    d = family.rank
    coefficients = [IntMatrix.identity(d)]
    coefficients.extend(IntMatrix.zeros(d, d) for _ in range(level - 1))
    coefficients.append(witness)
    auto = FormalAutomorphism(family, coefficients)
    normalized = apply_automorphism(auto, deformation)
    for p in family.universe.primes:
        if not normalized.series(p)[level].is_zero:
            raise InternalInconsistency(f"conjugation left a t^{level} coefficient at {p}")
    return normalized, witness


def deformation_to_dict(deformation: Deformation) -> dict:
    """Self-contained serialization: family data plus nonzero terms."""
    terms: dict[str, dict[str, list[int]]] = {}
    for p in deformation.family.universe.primes:
        per_prime = {}
        for i in range(1, deformation.order + 1):
            c = deformation.series(p)[i]
            if not c.is_zero:
                per_prime[str(i)] = list(c.flat())
        if per_prime:
            terms[str(p)] = per_prime
    return {
        "family": family_to_dict(deformation.family),
        "order": deformation.order,
        "terms": terms,
    }


def deformation_from_dict(data: Mapping) -> Deformation:
    """Inverse of deformation_to_dict."""
    try:
        family = family_from_dict(data["family"])
        order = int(data["order"])
        d = family.rank
        terms: dict[int, dict[int, IntMatrix]] = {}
        for p_text, per_prime in data.get("terms", {}).items():
            p = int(p_text)
            parsed = {}
            for i_text, flat in per_prime.items():
                flat = [int(x) for x in flat]
                if len(flat) != d * d:
                    raise ConfigParseError(
                        f"term {i_text} at {p} must have {d * d} entries"
                    )
                parsed[int(i_text)] = IntMatrix.from_flat(d, d, flat)
            terms[p] = parsed
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigParseError):
            raise
        raise ConfigParseError(f"malformed deformation data: {exc}") from exc
    return make_deformation(family, order, terms)
