"""Cochain complex attached to a ring with Adams operations.

Arguments of an n-cochain are n positive integers that factor over the
prime universe; the value is an integer matrix acting on the ring.  The
differential alternates the Adams action on the outside with merges of
adjacent arguments:

    (df)(m_0, ..., m_n) = psi(m_0) f(m_1, ..., m_n)
                          + sum_i (-1)^i f(..., m_{i-1} m_i, ...)
                          + (-1)^{n+1} f(m_0, ..., m_{n-1}) psi(m_n)

Dimension-zero cochains are endomorphisms commuting with Frobenius
modulo each prime; their differentials are commutators with the Adams
matrices and inherit divisibility by the prime at prime arguments.

Identity checkers (square-zero, cosimplicial relations, the Leibniz
rule for composition) evaluate on seeded pseudo-random cochains, so a
reported pass is reproducible from the seed.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ContextMismatch, NotFrobeniusCompatible
from .exactalg import IntMatrix, product_forms
from .rings import AdamsFamily, PrimeUniverse, frobenius_compatible

IDENTITY_NAMES = ("d-squared", "cosimplicial", "leibniz")


def factored_box(
    universe: PrimeUniverse, max_total_exponent: int, *, include_one: bool = True
) -> tuple[int, ...]:
    """All integers over the universe with exponent sum up to the bound, ascending.

    >>> from .rings import PrimeUniverse
    >>> factored_box(PrimeUniverse((2, 3)), 2)
    (1, 2, 3, 4, 6, 9)
    """
    box = level = {1}
    for _ in range(max_total_exponent):
        # the integers of exponent sum one more than those of level
        level = {n * p for n in level for p in universe.primes}
        box = box | level
    return tuple(sorted(box if include_one else box - {1}))


class Cochain:
    """A map from tuples of positive integers to integer matrices.

    ``at`` is the checked entry: it checks the arity and the universe
    and returns an ``IntMatrix``, cached per argument tuple.  Inside
    the module a value is a flat row-major tuple of d*d ints, also
    cached per argument tuple.  The cochains derived here (random
    cochains, sums, compositions, cofaces, codegeneracies and
    differentials) compute theirs from those of their parts, on
    arguments derived from checked ones, which are not checked again.
    """

    def __init__(
        self,
        family: AdamsFamily,
        dimension: int,
        evaluate: Callable[[tuple[int, ...]], IntMatrix],
    ) -> None:
        if dimension < 0:
            raise ValueError("cochain dimension must be nonnegative")
        self.family = family
        self.dimension = dimension
        self._evaluate = evaluate
        self._cache: dict[tuple[int, ...], IntMatrix] = {}
        self._values: dict[tuple[int, ...], tuple[int, ...]] = {}

    def at(self, *args: int) -> IntMatrix:
        """Value on positive integers that factor over the universe."""
        value = self._cache.get(args)
        if value is not None:
            return value
        if len(args) != self.dimension:
            raise ValueError(
                f"a dimension-{self.dimension} cochain takes {self.dimension} "
                f"arguments, got {len(args)}"
            )
        self.family.universe.check(args)
        return self._matrix(args)

    def _matrix(self, args: tuple[int, ...]) -> IntMatrix:
        """The value at valid arguments as a matrix, kept for ``at``."""
        value = self._cache.get(args)
        if value is None:
            d = self.family.rank
            value = self._cache[args] = IntMatrix(d, d, self._value(args))
        return value

    def _value(self, args: tuple[int, ...]) -> tuple[int, ...]:
        """The flat value at valid arguments."""
        value = self._values.get(args)
        if value is None:
            value = self._values[args] = self._compute(args)
        return value

    def _compute(self, args: tuple[int, ...]) -> tuple[int, ...]:
        # a derived cochain replaces this with its own flat evaluation
        value = self._evaluate(args)
        d = self.family.rank
        if value.rows != d or value.cols != d:
            raise ValueError("cochain values must be square of the ring rank")
        return value.flat()

    def _check_context(self, other: "Cochain", same_dimension: bool) -> None:
        if self.family != other.family:
            raise ContextMismatch("cochains belong to different Adams families")
        if same_dimension and self.dimension != other.dimension:
            raise ContextMismatch(
                f"dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_context(other, same_dimension=True)
        a, b = self._value, other._value
        return _derived(
            self.family, self.dimension, lambda args: tuple(map(operator.add, a(args), b(args)))
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c: int) -> "Cochain":
        value = self._value
        compute = value if c == 1 else lambda args: tuple(c * e for e in value(args))
        return _derived(self.family, self.dimension, compute)

    def compose(self, other: "Cochain") -> "Cochain":
        """Juxtaposition product: apply self on the left block of arguments.

        The result has the sum of the dimensions; its value is the
        matrix product of the two blocks' values.
        """
        self._check_context(other, same_dimension=False)
        split = self.dimension
        left, right = self._matrix, other._value

        def compute(args: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(product_forms(left(args[:split]), right(args[split:]), True))

        return _derived(self.family, self.dimension + other.dimension, compute)


def _derived(
    family: AdamsFamily,
    dimension: int,
    compute: Callable[[tuple[int, ...]], tuple[int, ...]],
) -> Cochain:
    """A cochain whose flat values ``compute`` gives at valid arguments."""
    f = Cochain(family, dimension, None)
    f._compute = compute
    return f


def endo_cochain(family: AdamsFamily, matrix: IntMatrix) -> Cochain:
    """Wrap an endomorphism as a dimension-zero cochain.

    Membership requires commuting with Frobenius modulo each prime of
    the universe; anything else cannot sit in this complex.
    """
    if matrix.rows != family.rank or matrix.cols != family.rank:
        raise ValueError("endomorphism size must match the ring rank")
    if not frobenius_compatible(matrix, family):
        raise NotFrobeniusCompatible(
            "endomorphism does not commute with Frobenius modulo every prime"
        )
    value = matrix.flat()
    return _derived(family, 0, lambda args: value)


def _coface_term(f: Cochain, i: int, args: tuple[int, ...]) -> tuple[int, ...]:
    """The flat value of the i-th coface of f at args: the i-th term of df."""
    if i == 0:
        return tuple(product_forms(f.family.adams_at(args[0]), f._value(args[1:]), True))
    if i == f.dimension + 1:
        return tuple(product_forms(f.family.adams_at(args[-1]), f._value(args[:-1]), False))
    return f._value(args[: i - 1] + (args[i - 1] * args[i],) + args[i + 1 :])


def differential(f: Cochain) -> Cochain:
    """Coboundary of a cochain, one dimension up."""
    # the i-th term enters with the sign (-1)^i of the module docstring's formula
    signs = [(i, operator.sub if i % 2 else operator.add) for i in range(1, f.dimension + 2)]

    def compute(args: tuple[int, ...]) -> tuple[int, ...]:
        total = _coface_term(f, 0, args)
        for i, op in signs:
            total = map(op, total, _coface_term(f, i, args))
        return tuple(total)

    return _derived(f.family, f.dimension + 1, compute)


def coface(i: int, f: Cochain) -> Cochain:
    """The i-th coface; the differential is their alternating sum."""
    n = f.dimension
    if not 0 <= i <= n + 1:
        raise IndexError(f"coface index {i} out of range 0..{n + 1}")
    return _derived(f.family, n + 1, lambda args: _coface_term(f, i, args))


def codegeneracy(i: int, f: Cochain) -> Cochain:
    """The i-th codegeneracy: insert the unit argument at slot i.

    Defined here for dimension two and up; dropping to dimension zero
    would land outside the Frobenius-compatible endomorphisms without
    further hypotheses.
    """
    n = f.dimension
    if n < 2:
        raise ValueError("codegeneracies are defined for dimension two and up here")
    if not 0 <= i <= n - 1:
        raise IndexError(f"codegeneracy index {i} out of range 0..{n - 1}")

    value = f._value
    return _derived(f.family, n - 1, lambda args: value(args[:i] + (1,) + args[i:]))


# Seeded pseudo-random cochains.  Values are generated from a digest of
# (seed, dimension, arguments), so a cochain is a total deterministic
# function: the same seed gives the same cochain in every run, with no
# bounded table to fall off.


def random_cochain(family: AdamsFamily, dimension: int, seed: int) -> Cochain:
    """Deterministic pseudo-random cochain of positive dimension.

    Entries lie in -3..3.  Each value is the one that ``randint(-3, 3)``
    draws entry by entry from ``random.Random(key)``, for the key
    ``"cochain:{seed}:{dimension}:"`` followed by the comma-joined
    argument values; one generator per cochain is reseeded with that key.
    """
    if dimension < 1:
        raise ValueError("use random_endomorphism for dimension zero")
    entries = range(family.rank**2)
    prefix = f"cochain:{seed}:{dimension}:"
    rng = random.Random()
    getrandbits = rng.getrandbits

    def compute(args: tuple[int, ...]) -> tuple[int, ...]:
        rng.seed(prefix + ",".join(map(str, args)))
        value = []
        for _ in entries:
            # randint(-3, 3) draws 3 bits until they fall below 7
            r = getrandbits(3)
            while r == 7:
                r = getrandbits(3)
            value.append(r - 3)
        return tuple(value)

    return _derived(family, dimension, compute)


def random_endomorphism(family: AdamsFamily, seed: int) -> IntMatrix:
    """Random integer polynomial in the Adams generators, coefficients in -2..2.

    Such matrices commute with every generator exactly, hence with
    Frobenius modulo each prime, so they are always valid
    dimension-zero cochains.
    """
    rng = random.Random(f"endo:{seed}")
    d = family.rank
    generators = [IntMatrix.identity(d)]
    generators += [matrix for _, matrix in family.generators]
    for _, a in family.generators:
        for _, b in family.generators:
            generators.append(a @ b)
    total = IntMatrix.zeros(d, d)
    for g in generators:
        total = total + rng.randint(-2, 2) * g
    return total


def sample_tuples(
    universe: PrimeUniverse,
    dimension: int,
    count: int,
    rng: random.Random,
    *,
    max_total_exponent: int = 2,
) -> list[tuple[int, ...]]:
    """Seeded sample of argument tuples from the bounded factored box."""
    box = factored_box(universe, max_total_exponent)
    return [
        tuple(rng.choice(box) for _ in range(dimension)) for _ in range(count)
    ]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of sampling one structural identity of the complex."""

    identity: str
    dimension: int
    samples: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "dimension": self.dimension,
            "samples": self.samples,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def _render_args(f: Cochain, args: tuple[int, ...]) -> str:
    return "(" + ", ".join(map(f.family.universe.render, args)) + ")"


def _check_d_squared(f: Cochain, tuples: Sequence[tuple[int, ...]]) -> list[str]:
    ddf = differential(differential(f))
    failures = []
    for args in tuples:
        if any(ddf._value(args)):
            failures.append("d(d(f)) nonzero at " + _render_args(f, args))
    return failures


def _check_cosimplicial(
    f: Cochain, tuples: Sequence[tuple[int, ...]]
) -> list[str]:
    n = f.dimension
    failures = []
    # shared, so each inner coface value is computed once for all pairs;
    # the pairs after row i read inner[j - 1] for j > i only, so the values
    # of inner[i] are dropped once row i is done, and the codegeneracy
    # sections below recompute the few they need
    inner = [coface(i, f) for i in range(n + 2)]
    for i in range(0, n + 2):
        for j in range(i + 1, n + 3):
            left = coface(j, inner[i])
            right = coface(i, inner[j - 1])
            for args in tuples:
                if left._value(args) != right._value(args):
                    failures.append(
                        f"coface relation fails for (i, j) = ({i}, {j}) at "
                        + _render_args(f, args)
                    )
                    break
        inner[i]._values.clear()
    if n >= 1:
        short = tuples[0][:n] if tuples else ()
        for i in range(0, n + 1):
            section = codegeneracy(i, inner[i])
            section2 = codegeneracy(i, inner[i + 1])
            for args in {short, tuple(reversed(short))}:
                if not args:
                    continue
                expected = f._value(args)
                if section._value(args) != expected or section2._value(args) != expected:
                    failures.append(f"codegeneracy section fails at index {i}")
                    break
    return failures


def _check_leibniz(
    f: Cochain, g: Cochain, tuples: Sequence[tuple[int, ...]]
) -> list[str]:
    sign = -1 if f.dimension % 2 else 1
    lhs = differential(f.compose(g))
    rhs = differential(f).compose(g) + f.compose(differential(g)).scale(sign)
    failures = []
    for args in tuples:
        if lhs._value(args) != rhs._value(args):
            failures.append("Leibniz rule fails at " + _render_args(f, args))
    return failures


def run_identity_check(
    family: AdamsFamily,
    identity: str,
    dimension: int,
    samples: int,
    seed: int,
) -> IdentityReport:
    """Sample one structural identity on seeded random cochains.

    The ``leibniz`` check pairs a random cochain of the requested
    dimension with a random dimension-one cochain.
    """
    if identity not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITY_NAMES}")
    rng = random.Random(f"identity:{identity}:{seed}")
    if dimension == 0:
        f = endo_cochain(family, random_endomorphism(family, seed))
    else:
        f = random_cochain(family, dimension, seed)
    # every identity compares two cochains of dimension + 2
    tuples = sample_tuples(family.universe, dimension + 2, samples, rng)
    # the checks evaluate flat values, which check no arguments themselves
    for args in tuples:
        family.universe.check(args)
    if identity == "d-squared":
        failures = _check_d_squared(f, tuples)
    elif identity == "cosimplicial":
        failures = _check_cosimplicial(f, tuples)
    else:
        g = random_cochain(family, 1, seed + 1)
        failures = _check_leibniz(f, g, tuples)
    return IdentityReport(identity, dimension, len(tuples), tuple(failures))
