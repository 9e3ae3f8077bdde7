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
a bounded box of integers over the universe.  A returned extension is
verified by construction; a returned None certifies that no top term
with the required divisibility satisfies those equations, and hence
none exists at all.

Equivalences are conjugations by formal automorphisms: invertible
series with identity constant term and Frobenius-compatible
coefficients.  Compatibility is what keeps conjugation inside the
deformation space: each coefficient of U A_p U^{-1} - A_p reduces
modulo p to a Frobenius commutator, so divisibility survives.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence

from .cochain import Cochain, factored_box
from .errors import (
    ConfigParseError,
    DivisibilityViolation,
    InternalInconsistency,
    NotCoboundary,
    NotFrobeniusCompatible,
    PrefixMismatch,
)
from .exactalg import FormPacking, IntMatrix, Vector, operator_norms, product_forms, solve_forms
from .cohomology import DerivationSpec, divided_blocks, inner_derivation, solve_coboundary_1
from .rings import (
    AdamsFamily,
    canonical_key,
    family_from_dict,
    family_to_dict,
    frobenius_compatible,
    json_int,
)

Series = tuple[IntMatrix, ...]


def series_identity(rank: int, order: int) -> Series:
    head = [IntMatrix.identity(rank)]
    head.extend(IntMatrix.zeros(rank, rank) for _ in range(order))
    return tuple(head)


def _product_sum(pairs, rank: int, op=operator.add) -> IntMatrix:
    """The sum of x @ y over the pairs, or minus it with ``op=operator.sub``.

    The flat entries of the products are summed in turn.
    """
    total = (0,) * (rank * rank)
    for x, y in pairs:
        total = tuple(map(op, total, (x @ y).entries))
    return IntMatrix(rank, rank, total)


def series_mul(a: Sequence[IntMatrix], b: Sequence[IntMatrix], order: int) -> Series:
    """Product of matrix polynomials in t, truncated past t^order."""
    rank = a[0].rows
    return tuple(
        _product_sum(
            ((a[i], b[k - i]) for i in range(k + 1) if i < len(a) and k - i < len(b)), rank
        )
        for k in range(order + 1)
    )


def series_inverse(a: Sequence[IntMatrix], order: int) -> Series:
    """Inverse of a series with identity constant term, mod t^{order+1}."""
    rank = a[0].rows
    if a[0] != IntMatrix.identity(rank):
        raise ValueError("only series with identity constant term are inverted here")
    out = [IntMatrix.identity(rank)]
    for k in range(1, order + 1):
        terms = ((a[i], out[k - i]) for i in range(1, min(k, len(a) - 1) + 1))
        out.append(_product_sum(terms, rank, operator.sub))
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
        self._at_cache: dict[int, Series] = {}

    def series(self, p: int) -> Series:
        return self._series[self.family.universe.primes.index(p)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Deformation):
            return NotImplemented
        return (
            self.family == other.family
            and self.order == other.order
            and self._series == other._series
        )

    def at(self, m: int) -> Series:
        """Series at any integer over the universe, by multiplying peeled factors."""
        if m == 1:
            return series_identity(self.family.rank, self.order)
        if m not in self._at_cache:
            p, rest = self.family.universe.peel(m)
            self._at_cache[m] = series_mul(self.series(p), self.at(rest), self.order)
        return self._at_cache[m]


def trivial_deformation(family: AdamsFamily, order: int) -> Deformation:
    return make_deformation(family, order, {})


def make_deformation(
    family: AdamsFamily, order: int, terms: Mapping[int, Mapping[int, IntMatrix]]
) -> Deformation:
    """Build a deformation from the nonconstant terms only.

    ``terms[p][i]`` is the coefficient of t^i at the prime p, for
    i >= 1; omitted coefficients are zero.
    """
    primes = family.universe.primes
    stray = sorted(set(terms) - set(primes))
    if stray:
        raise ValueError(f"terms at primes {stray} outside the universe {primes}")
    d = family.rank
    zero = IntMatrix.zeros(d, d)
    series = {}
    for p in primes:
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


def verify_deformation(deformation: Deformation) -> DeformationReport:
    """Check commutation, divisibility, and the sampled product law.

    Divisibility holds by construction; it is rechecked so the report
    stands on its own.  The product law over the box of exponent sum up
    to 2 follows from pairwise commutation, and is exercised directly
    anyway.
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
    box = factored_box(family.universe, 2, include_one=False)
    render = family.universe.render
    samples = 0
    for m in box:
        for n in box:
            samples += 1
            product = series_mul(deformation.at(m), deformation.at(n), deformation.order)
            if product != deformation.at(m * n):
                failures.append(f"product law fails at ({render(m)}, {render(n)})")
    return DeformationReport(
        deformation.order, commuting, divisible, samples, tuple(failures)
    )


def obstruction(deformation: Deformation) -> Cochain:
    """The two-cochain blocking a top term at the next order.

    Its value at (m, n) is minus the t^{N+1} coefficient of the product
    of the two truncated series; a new coefficient f works at order
    N+1 exactly when df equals this cochain.
    """
    d = deformation.family.rank
    value = _obstruction_values(deformation)
    return Cochain(deformation.family, 2, lambda args: IntMatrix.from_flat(d, d, value(*args)))


def _obstruction_values(deformation: Deformation) -> Callable[[int, int], Vector]:
    """The map (m, n) -> vec of the obstruction at (m, n).

    It is minus the block row [F_1(m) .. F_N(m)] of m times the block
    column [F_N(n); ..; F_1(n)] of n; each is formed once per element.
    """
    d = deformation.family.rank
    factors: dict[int, tuple] = {}

    def factor(m: int) -> tuple:
        if m not in factors:
            top = deformation.at(m)[1:]
            rows = tuple(tuple(chain.from_iterable(c.row(i) for c in top)) for i in range(d))
            columns = tuple(tuple(chain.from_iterable(c.column(j) for c in top[::-1])) for j in range(d))
            factors[m] = rows, columns
        return factors[m]

    def value(m: int, n: int) -> Vector:
        rows, columns = factor(m)[0], factor(n)[1]
        return tuple([-sum(map(operator.mul, row, column)) for row in rows for column in columns])

    return value


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
    values at the primes.  Every pair from the box of integers with
    exponent sum up to the bound contributes one matrix equation;
    a solution yields a deformation whose validity is independent of
    the box, while unsolvability of this necessary subset proves
    unsolvability outright.
    """
    box, packing, forms = _extension_system(deformation, exponent_bound)
    family = deformation.family
    solution = solve_forms(packing, forms)
    if solution is None:
        return ExtensionResult(None, exponent_bound, len(box), len(forms))
    top = DerivationSpec.from_x_coordinates(family, solution.particular)
    series = {p: deformation.series(p) + (top.value(p),) for p in family.universe.primes}
    extended = Deformation(family, deformation.order + 1, series)
    return ExtensionResult(extended, exponent_bound, len(box), len(forms))


def _extension_system(
    deformation: Deformation, exponent_bound: int
) -> tuple[tuple[int, ...], FormPacking, list[int]]:
    """The box, and the packing and forms of try_extend's system.

    X stacks the divided top values at the primes, the unknowns of the
    packing.  Each pair (m, n) of the box gives the d*d equations
    vec(A_m f(n) - f(mn) + f(m) A_n) == vec(obstruction(m, n)), with f
    affine in X; the equations of the pairs follow the box order, so the
    system has |box|^2 d^2 of them.

    Every entry of f(n), and of each product with an Adams matrix, is
    one form packed by a ``FormPacking``: X in the slots, the constant
    above, and an equation is its row minus its obstruction value
    shifted into the constant slot.  The values f(n) are filled in one
    ascending pass over the box of twice the bound: it holds every
    product m*n of two box elements, and each element's peeled cofactor
    comes before it.

    The slot width comes from a bound on the coefficients of the rows.
    Let beta(n) bound those of f(n), and |A|_oo and |A|_1 be the largest
    absolute row and column sums.  Then beta(p) = p, and peeling
    f(p r) = A_p f(r) + f(p) psi(r) - obs(p, r) gives
    beta(p r) = |A_p|_oo beta(r) + |psi(r)|_1 p.  The row of (m, n) is
    then bounded by |A_m|_oo beta(n) + beta(mn) + |A_n|_1 beta(m).
    """
    if exponent_bound < 1:
        raise ValueError("the exponent bound must be at least 1")
    family = deformation.family
    universe = family.universe
    primes = universe.primes
    d2 = family.rank * family.rank
    obs = _obstruction_values(deformation)
    box = factored_box(universe, exponent_bound, include_one=False)

    # Products and norms depend on an Adams matrix only through its value,
    # and the box has few distinct Adams matrices: each gets an index once,
    # with its two norms, and the caches are keyed on that index.
    indices: dict[IntMatrix, int] = {}
    matrices: list[IntMatrix] = []
    norms: list[tuple[int, int]] = []

    def index(adams: IntMatrix) -> int:
        k = indices.get(adams)
        if k is None:
            k = indices[adams] = len(matrices)
            matrices.append(adams)
            norms.append(operator_norms(adams))
        return k

    beta = dict(zip(primes, primes))
    peeled = []
    for n in factored_box(universe, 2 * exponent_bound, include_one=False):
        if n not in beta:
            p, rest = universe.peel(n)
            lead, tail = index(family.generator(p)), index(family.adams_at(rest))
            beta[n] = norms[lead][0] * beta[rest] + norms[tail][1] * p
            peeled.append((n, p, rest, lead, tail))
    kinds = [(m, index(family.adams_at(m))) for m in box]
    bound = max(
        norms[km][0] * beta[n] + beta[m * n] + norms[kn][1] * beta[m]
        for m, km in kinds
        for n, kn in kinds
    )
    packing = FormPacking(len(primes) * d2, bound)
    shift = packing.shift
    affine = dict(zip(primes, divided_blocks(primes, d2, packing)))
    products: dict[tuple[bool, int, int], list[int]] = {}

    def product(left: bool, k: int, n: int) -> list[int]:
        key = (left, k, n)
        if key not in products:
            products[key] = product_forms(matrices[k], affine[n], left)
        return products[key]

    for n, p, rest, lead, tail in peeled:
        terms = zip(product(True, lead, rest), product(False, tail, p), obs(p, rest))
        affine[n] = [x + y - (o << shift) for x, y, o in terms]

    forms = [
        x - y + z - (o << shift)
        for m, km in kinds
        for n, kn in kinds
        for x, y, z, o in zip(
            product(True, km, n), affine[m * n], product(False, kn, m), obs(m, n)
        )
    ]
    return box, packing, forms


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


def apply_automorphism(auto: FormalAutomorphism, deformation: Deformation) -> Deformation:
    """Conjugate every generator series, truncating at the same order."""
    if auto.family != deformation.family:
        raise ValueError("automorphism and deformation use different families")
    order = deformation.order
    inverse = series_inverse(auto.coefficients, order)
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
    difference = DerivationSpec(family, delta)
    witness = solve_coboundary_1(family, difference)
    if witness is None:
        return None
    if inner_derivation(family, witness) != difference:
        raise InternalInconsistency("the witness does not reproduce the difference")
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
        order = json_int(data["order"], "order")
        d = family.rank
        terms: dict[int, dict[int, IntMatrix]] = {}
        for p_text, per_prime in data.get("terms", {}).items():
            p = canonical_key(p_text, "a prime")
            parsed = {}
            for i_text, flat in per_prime.items():
                i = canonical_key(i_text, f"an index at {p}")
                flat = [json_int(x, f"an entry of term {i} at {p}") for x in flat]
                if len(flat) != d * d:
                    raise ConfigParseError(
                        f"term {i} at {p} must have {d * d} entries"
                    )
                parsed[i] = IntMatrix.from_flat(d, d, flat)
            terms[p] = parsed
        return make_deformation(family, order, terms)
    except (ConfigParseError, DivisibilityViolation):
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"malformed deformation data: {exc}") from exc
