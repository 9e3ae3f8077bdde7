"""Cochain complex attached to a ring with Adams operations.

Arguments of an n-cochain are n factored integers from the prime
universe; the value is an integer matrix acting on the ring.  The
differential alternates the Adams action on the outside with merges of
adjacent arguments:

    (df)(m_0, ..., m_n) = psi(m_0) f(m_1, ..., m_n)
                          + sum_i (-1)^i f(..., m_{i-1} m_i, ...)
                          + (-1)^{n+1} f(m_0, ..., m_{n-1}) psi(m_n)

Dimension-zero cochains are endomorphisms commuting with Frobenius
modulo each prime; their differentials are commutators with the Adams
matrices and inherit divisibility by the prime at prime arguments.
That divisibility is what the ``prime_divisible`` flag records on
dimension-one cochains.

Identity checkers (square-zero, cosimplicial relations, the Leibniz
rule for composition) evaluate on seeded pseudo-random cochains, so a
reported pass is reproducible from the seed.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ConfigParseError,
    ContextMismatch,
    DivisibilityViolation,
    NotFrobeniusCompatible,
)
from .exactalg import IntMatrix
from .rings import AdamsFamily, FactoredInt, PrimeUniverse, frobenius_compatible

IDENTITY_NAMES = ("d-squared", "cosimplicial", "leibniz")


def factored_box(
    universe: PrimeUniverse, max_total_exponent: int, *, include_one: bool = True
) -> tuple[FactoredInt, ...]:
    """All factored integers with exponent sum up to the bound, ascending.

    >>> from .rings import PrimeUniverse
    >>> [m.value for m in factored_box(PrimeUniverse((2, 3)), 2)]
    [1, 2, 3, 4, 6, 9]
    """
    primes = universe.primes
    ranges = [range(max_total_exponent + 1)] * len(primes)
    out = []
    for exps in product(*ranges):
        total = sum(exps)
        if total > max_total_exponent or (total == 0 and not include_one):
            continue
        out.append(
            FactoredInt(tuple((p, e) for p, e in zip(primes, exps) if e))
        )
    out.sort(key=lambda m: m.value)
    return tuple(out)


class Cochain:
    """A map from tuples of factored integers to integer matrices.

    Values are cached per argument tuple, so repeated evaluation of
    derived cochains (differentials, compositions) stays cheap.
    """

    def __init__(
        self,
        family: AdamsFamily,
        dimension: int,
        evaluate: Callable[[tuple[FactoredInt, ...]], IntMatrix],
        *,
        prime_divisible: bool = False,
        table: Optional[dict[tuple[int, ...], IntMatrix]] = None,
    ) -> None:
        if dimension < 0:
            raise ValueError("cochain dimension must be nonnegative")
        if prime_divisible and dimension != 1:
            raise ValueError("the prime-divisibility flag applies to dimension one only")
        self.family = family
        self.dimension = dimension
        self.prime_divisible = prime_divisible
        self.table = table
        self._evaluate = evaluate
        self._cache: dict[tuple[FactoredInt, ...], IntMatrix] = {}

    def _coerce_args(self, args: tuple) -> tuple[FactoredInt, ...]:
        if len(args) != self.dimension:
            raise ValueError(
                f"a dimension-{self.dimension} cochain takes {self.dimension} "
                f"arguments, got {len(args)}"
            )
        for a in args:
            if not isinstance(a, FactoredInt):
                break
        else:
            return args
        factor = self.family.universe.factor
        return tuple(a if isinstance(a, FactoredInt) else factor(int(a)) for a in args)

    def at(self, *args) -> IntMatrix:
        """Value on the given arguments (factored integers or plain ints)."""
        value = self._cache.get(args)
        if value is not None:
            return value
        key = self._coerce_args(args)
        if key is not args:
            value = self._cache.get(key)
        if value is None:
            value = self._evaluate(key)
            d = self.family.rank
            if value.rows != d or value.cols != d:
                raise ValueError("cochain values must be square of the ring rank")
            self._cache[key] = value
        return value

    def _check_context(self, other: "Cochain", same_dimension: bool) -> None:
        if self.family != other.family:
            raise ContextMismatch("cochains belong to different Adams families")
        if same_dimension and self.dimension != other.dimension:
            raise ContextMismatch(
                f"dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_context(other, same_dimension=True)
        return Cochain(
            self.family,
            self.dimension,
            lambda args: self.at(*args) + other.at(*args),
            prime_divisible=self.prime_divisible and other.prime_divisible,
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __neg__(self) -> "Cochain":
        return Cochain(
            self.family,
            self.dimension,
            lambda args: -self.at(*args),
            prime_divisible=self.prime_divisible,
        )

    def scale(self, c: int) -> "Cochain":
        def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
            value = self.at(*args)
            return value if c == 1 else c * value

        return Cochain(
            self.family, self.dimension, evaluate, prime_divisible=self.prime_divisible
        )

    def compose(self, other: "Cochain") -> "Cochain":
        """Juxtaposition product: apply self on the left block of arguments.

        The result has the sum of the dimensions; its value is the
        matrix product of the two blocks' values.
        """
        self._check_context(other, same_dimension=False)
        split = self.dimension

        def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
            return self.at(*args[:split]) @ other.at(*args[split:])

        return Cochain(self.family, self.dimension + other.dimension, evaluate)


def zero_cochain(family: AdamsFamily, dimension: int) -> Cochain:
    d = family.rank
    zero = IntMatrix.zeros(d, d)
    return Cochain(
        family,
        dimension,
        lambda args: zero,
        prime_divisible=(dimension == 1),
    )


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
    return Cochain(family, 0, lambda args: matrix)


def make_table_cochain(
    family: AdamsFamily,
    dimension: int,
    table: Mapping[Sequence[int], IntMatrix],
    *,
    prime_divisible: bool = False,
) -> Cochain:
    """Cochain backed by an explicit finite table keyed by argument values.

    A claimed divisibility flag is verified on every prime argument
    present in the table; a violating entry raises rather than letting
    a bad table masquerade as a valid degree-one cochain.
    """
    if dimension < 1:
        raise ValueError("table cochains need dimension at least one")
    normalized: dict[tuple[int, ...], IntMatrix] = {}
    for key, matrix in table.items():
        key = tuple(int(k) for k in key)
        if len(key) != dimension:
            raise ValueError(f"table key {key} does not have {dimension} entries")
        normalized[key] = matrix
    if prime_divisible:
        if dimension != 1:
            raise ValueError("the prime-divisibility flag applies to dimension one only")
        for p in family.universe.primes:
            matrix = normalized.get((p,))
            if matrix is not None and not matrix.is_divisible_by(p):
                raise DivisibilityViolation(
                    f"table value at ({p},) is not divisible by {p}"
                )

    def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
        key = tuple(m.value for m in args)
        if key not in normalized:
            raise KeyError(f"table cochain has no entry for arguments {key}")
        return normalized[key]

    return Cochain(
        family, dimension, evaluate, prime_divisible=prime_divisible, table=normalized
    )


def differential(f: Cochain) -> Cochain:
    """Coboundary of a cochain, one dimension up."""
    family = f.family
    n = f.dimension
    d = family.rank

    def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
        # The terms are summed row by row into one buffer, the i-th
        # with the sign (-1)^i of the formula in the module docstring.
        rows = (family.adams_at(args[0]) @ f.at(*args[1:])).entries
        for i in range(1, n + 2):
            if i <= n:
                term = f.at(*args[: i - 1], args[i - 1] * args[i], *args[i + 1 :])
            else:
                term = f.at(*args[:-1]) @ family.adams_at(args[-1])
            op = operator.sub if i % 2 else operator.add
            rows = [tuple(map(op, a, b)) for a, b in zip(rows, term.entries)]
        return IntMatrix._trusted(d, d, tuple(rows))

    return Cochain(family, n + 1, evaluate, prime_divisible=(n == 0))


def coface(i: int, f: Cochain) -> Cochain:
    """The i-th coface; the differential is their alternating sum."""
    family = f.family
    n = f.dimension
    if not 0 <= i <= n + 1:
        raise IndexError(f"coface index {i} out of range 0..{n + 1}")

    def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
        if i == 0:
            return family.adams_at(args[0]) @ f.at(*args[1:])
        if i == n + 1:
            return f.at(*args[:-1]) @ family.adams_at(args[-1])
        merged = args[: i - 1] + (args[i - 1] * args[i],) + args[i + 1 :]
        return f.at(*merged)

    return Cochain(family, n + 1, evaluate)


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
    one = FactoredInt.one()

    def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
        return f.at(*(args[:i] + (one,) + args[i:]))

    return Cochain(f.family, n - 1, evaluate)


# Seeded pseudo-random cochains.  Values are generated from a digest of
# (seed, dimension, arguments), so a cochain is a total deterministic
# function: the same seed gives the same cochain in every run, with no
# bounded table to fall off.


def _seeded_matrix(
    seed: str, d: int, entry_bound: int, scale: int = 1
) -> IntMatrix:
    rng = random.Random(seed)
    return IntMatrix._trusted(
        d,
        d,
        tuple(
            [tuple([scale * rng.randint(-entry_bound, entry_bound) for _ in range(d)]) for _ in range(d)]
        ),
    )


def random_cochain(
    family: AdamsFamily,
    dimension: int,
    seed: int,
    *,
    entry_bound: int = 3,
    prime_divisible: bool = False,
) -> Cochain:
    """Deterministic pseudo-random cochain of positive dimension.

    With the divisibility flag set (dimension one), values at prime
    arguments are generated divisible by that prime.
    """
    if dimension < 1:
        raise ValueError("use random_endomorphism for dimension zero")
    d = family.rank

    def evaluate(args: tuple[FactoredInt, ...]) -> IntMatrix:
        key = f"cochain:{seed}:{dimension}:" + ",".join(str(m.value) for m in args)
        scale = 1
        if prime_divisible and dimension == 1 and args[0].is_prime:
            scale = args[0].value
        return _seeded_matrix(key, d, entry_bound, scale)

    return Cochain(family, dimension, evaluate, prime_divisible=prime_divisible)


def random_endomorphism(
    family: AdamsFamily, seed: int, *, coeff_bound: int = 2
) -> IntMatrix:
    """Random integer polynomial in the Adams generators.

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
        total = total + rng.randint(-coeff_bound, coeff_bound) * g
    return total


def sample_tuples(
    universe: PrimeUniverse,
    dimension: int,
    count: int,
    rng: random.Random,
    *,
    max_total_exponent: int = 2,
) -> list[tuple[FactoredInt, ...]]:
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


def _check_d_squared(f: Cochain, tuples: Sequence[tuple[FactoredInt, ...]]) -> list[str]:
    ddf = differential(differential(f))
    failures = []
    for args in tuples:
        if not ddf.at(*args).is_zero:
            failures.append(
                "d(d(f)) nonzero at (" + ", ".join(str(m) for m in args) + ")"
            )
    return failures


def _check_cosimplicial(
    f: Cochain, tuples: Sequence[tuple[FactoredInt, ...]]
) -> list[str]:
    n = f.dimension
    failures = []
    for i in range(0, n + 2):
        for j in range(i + 1, n + 3):
            left = coface(j, coface(i, f))
            right = coface(i, coface(j - 1, f))
            for args in tuples:
                if left.at(*args) != right.at(*args):
                    failures.append(
                        f"coface relation fails for (i, j) = ({i}, {j}) at "
                        + "(" + ", ".join(str(m) for m in args) + ")"
                    )
                    break
    if n >= 1:
        short = tuples[0][:n] if tuples else ()
        for i in range(0, n + 1):
            section = codegeneracy(i, coface(i, f))
            section2 = codegeneracy(i, coface(i + 1, f))
            for args in {short, tuple(reversed(short))}:
                if not args:
                    continue
                if section.at(*args) != f.at(*args) or section2.at(*args) != f.at(*args):
                    failures.append(f"codegeneracy section fails at index {i}")
                    break
    return failures


def _check_leibniz(
    f: Cochain, g: Cochain, tuples: Sequence[tuple[FactoredInt, ...]]
) -> list[str]:
    sign = -1 if f.dimension % 2 else 1
    lhs = differential(f.compose(g))
    rhs = differential(f).compose(g) + f.compose(differential(g)).scale(sign)
    failures = []
    for args in tuples:
        if lhs.at(*args) != rhs.at(*args):
            failures.append(
                "Leibniz rule fails at (" + ", ".join(str(m) for m in args) + ")"
            )
    return failures


def run_identity_check(
    family: AdamsFamily,
    identity: str,
    dimension: int,
    samples: int,
    seed: int,
    *,
    max_total_exponent: int = 2,
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
    if identity == "d-squared":
        arg_count = dimension + 2
    elif identity == "cosimplicial":
        arg_count = dimension + 2
    else:
        arg_count = dimension + 1 + 1  # one extra slot for the dimension-one partner
    tuples = sample_tuples(
        family.universe, arg_count, samples, rng, max_total_exponent=max_total_exponent
    )
    if identity == "d-squared":
        failures = _check_d_squared(f, tuples)
    elif identity == "cosimplicial":
        failures = _check_cosimplicial(f, tuples)
    else:
        g = random_cochain(family, 1, seed + 1)
        failures = _check_leibniz(f, g, tuples)
    return IdentityReport(identity, dimension, len(tuples), tuple(failures))


def table_cochain_to_dict(cochain: Cochain) -> dict:
    """Serialize a table-backed cochain; derived cochains have no table."""
    if cochain.table is None:
        raise ValueError("only table-backed cochains can be serialized")
    entries = [
        {"args": list(key), "matrix": list(matrix.flat())}
        for key, matrix in sorted(cochain.table.items())
    ]
    return {
        "dimension": cochain.dimension,
        "prime_divisible": cochain.prime_divisible,
        "entries": entries,
    }


def table_cochain_from_dict(family: AdamsFamily, data: Mapping) -> Cochain:
    """Inverse of table_cochain_to_dict; validates shape and divisibility."""
    try:
        dimension = int(data["dimension"])
        prime_divisible = bool(data.get("prime_divisible", False))
        d = family.rank
        table = {}
        for entry in data["entries"]:
            args = tuple(int(a) for a in entry["args"])
            flat = [int(x) for x in entry["matrix"]]
            if len(flat) != d * d:
                raise ConfigParseError(
                    f"matrix for arguments {args} must have {d * d} entries"
                )
            table[args] = IntMatrix.from_flat(d, d, flat)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigParseError):
            raise
        raise ConfigParseError(f"malformed cochain table: {exc}") from exc
    return make_table_cochain(
        family, dimension, table, prime_divisible=prime_divisible
    )
