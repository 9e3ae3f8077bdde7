"""Rings with Adams operations, presented by integer data.

A ring is a free Z-module of finite rank d with a basis, described by
its d*d*d structure constants and the coordinates of its unit.  The
lambda-structure enters through Adams data: one d x d integer matrix
per prime of a finite *prime universe* P.  Arbitrary operation indices
are handled by factoring them over P, so every answer the library
produces is relative to the chosen universe; integers with a prime
factor outside P are rejected rather than guessed at.

Lambda-operation values are recovered from Adams values through the
Newton recursion, which stays inside the ring exactly when the data is
consistent; a remainder in one of its exact divisions is reported, not
rounded.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import (
    ConfigParseError,
    NonIntegralDivision,
    UnknownPreset,
    UnknownPrime,
)
from .exactalg import IntMatrix, Vector, vec_add, vec_scale, vec_zero

DEFAULT_PRIMES = (2, 3, 5)


def is_prime(n: int) -> bool:
    """Trial-division primality test; universe primes are always small.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeUniverse:
    """Finite, strictly increasing tuple of primes.

    >>> u = PrimeUniverse((2, 3))
    >>> str(u.factor(12))
    '2^2 * 3'
    >>> u.factor(10)
    Traceback (most recent call last):
    ...
    lambdaring.errors.UnknownPrime: 10 has the factor 5 outside the universe (2, 3)
    """

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("a prime universe must contain at least one prime")
        previous = 1
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p <= previous:
                raise ValueError("universe primes must be strictly increasing")
            previous = p

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def factor(self, n: int) -> "FactoredInt":
        if n < 1:
            raise ValueError("only positive integers factor over a universe")
        factors = []
        remaining = n
        for p in self.primes:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            if e:
                factors.append((p, e))
        if remaining != 1:
            stray = next(q for q in range(2, remaining + 1) if remaining % q == 0)
            raise UnknownPrime(f"{n} has the factor {stray} outside the universe {self.primes}")
        return FactoredInt._trusted(tuple(factors))


class FactoredInt:
    """A positive integer stored as its prime factorization.

    Instances are immutable and hash by their factors; the hash is
    computed once, since factored integers key every cochain cache.

    >>> n = FactoredInt(((2, 2), (3, 1)))
    >>> n.value
    12
    >>> (n * n).total_exponent
    6
    >>> n.peel()
    (2, FactoredInt(factors=((2, 1), (3, 1))))
    """

    __slots__ = ("factors", "_hash")

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: tuple[tuple[int, int], ...]) -> None:
        previous = 1
        for p, e in factors:
            if e < 1:
                raise ValueError("exponents must be positive")
            if p <= previous:
                raise ValueError("factor primes must be strictly increasing")
            previous = p
        _set_factors(self, factors)
        _set_hash(self, hash((factors,)))

    @classmethod
    def _trusted(cls, factors: tuple[tuple[int, int], ...]) -> "FactoredInt":
        """Build without validation; the caller guarantees sorted positive factors."""
        n = object.__new__(cls)
        _set_factors(n, factors)
        _set_hash(n, hash((factors,)))
        return n

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (FactoredInt, (self.factors,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FactoredInt(factors={self.factors!r})"

    @staticmethod
    def one() -> "FactoredInt":
        return FactoredInt(())

    @staticmethod
    def of_prime(p: int) -> "FactoredInt":
        return FactoredInt(((p, 1),))

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    @property
    def is_one(self) -> bool:
        return not self.factors

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def total_exponent(self) -> int:
        return sum(e for _, e in self.factors)

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def __mul__(self, other: "FactoredInt") -> "FactoredInt":
        if not other.factors:
            return self
        if not self.factors:
            return other
        exponents = dict(self.factors)
        for p, e in other.factors:
            exponents[p] = exponents.get(p, 0) + e
        return FactoredInt._trusted(tuple(sorted(exponents.items())))

    def peel(self) -> tuple[int, "FactoredInt"]:
        """Split off one power of the smallest prime: n == p * rest."""
        if self.is_one:
            raise ValueError("cannot peel 1")
        (p, e), *rest = self.factors
        if e == 1:
            return p, FactoredInt._trusted(tuple(rest))
        return p, FactoredInt._trusted(((p, e - 1), *rest))

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


_set_factors = FactoredInt.factors.__set__
_set_hash = FactoredInt._hash.__set__


@dataclass(frozen=True)
class RingSpec:
    """Finite-rank free Z-algebra given by structure constants.

    ``structure[i][j]`` is the coordinate vector of the product of the
    i-th and j-th basis elements; ``unit`` is the coordinate vector of
    the multiplicative identity.
    """

    rank: int
    structure: tuple[tuple[Vector, ...], ...]
    unit: Vector
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if len(self.structure) != self.rank or any(
            len(row) != self.rank for row in self.structure
        ):
            raise ValueError("structure constants must form a rank x rank table")
        for row in self.structure:
            for v in row:
                if len(v) != self.rank:
                    raise ValueError("structure constant vectors must have length rank")
        if len(self.unit) != self.rank:
            raise ValueError("unit vector must have length rank")

    def basis_vector(self, i: int) -> Vector:
        return tuple(int(i == j) for j in range(self.rank))

    def mul(self, x: Sequence[int], y: Sequence[int]) -> Vector:
        """Product of two coordinate vectors."""
        out = [0] * self.rank
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.structure[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, s in enumerate(row[j]):
                    if s:
                        out[k] += c * s
        return tuple(out)

    def power(self, x: Sequence[int], n: int) -> Vector:
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.unit
        for _ in range(n):
            result = self.mul(result, x)
        return result

    def multiplication_matrix(self, x: Sequence[int]) -> IntMatrix:
        """Matrix of multiplication by x in the chosen basis."""
        cols = [self.mul(x, self.basis_vector(j)) for j in range(self.rank)]
        return IntMatrix.from_columns(cols, self.rank)


def verify_ring(spec: RingSpec) -> list[str]:
    """Check commutativity, associativity and the unit law on the basis.

    Returns a list of human-readable violations; empty means the data
    is a commutative unital ring.
    """
    violations = []
    d = spec.rank
    for i in range(d):
        for j in range(i + 1, d):
            if spec.structure[i][j] != spec.structure[j][i]:
                violations.append(f"not commutative: e{i}*e{j} != e{j}*e{i}")
    basis = [spec.basis_vector(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = spec.mul(spec.structure[i][j], basis[k])
                right = spec.mul(basis[i], spec.structure[j][k])
                if left != right:
                    violations.append(f"not associative on (e{i}, e{j}, e{k})")
    for i in range(d):
        if spec.mul(spec.unit, basis[i]) != basis[i]:
            violations.append(f"unit law fails: 1*e{i} != e{i}")
        if spec.mul(basis[i], spec.unit) != basis[i]:
            violations.append(f"unit law fails: e{i}*1 != e{i}")
    return violations


def frobenius_map(spec: RingSpec, p: int) -> IntMatrix:
    """Matrix of the mod-p Frobenius r -> r^p on the basis, entries in [0, p).

    The p-th power map is additive mod p, so its effect on the basis
    determines it; column i holds the coordinates of (e_i)^p mod p.
    """
    cols = []
    for i in range(spec.rank):
        power = spec.power(spec.basis_vector(i), p)
        cols.append(tuple(c % p for c in power))
    return IntMatrix.from_columns(cols, spec.rank)


@dataclass(frozen=True)
class AdamsFamily:
    """A ring together with one Adams matrix per universe prime."""

    ring: RingSpec
    universe: PrimeUniverse
    generators: tuple[tuple[int, IntMatrix], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        primes = tuple(p for p, _ in self.generators)
        if primes != self.universe.primes:
            raise ValueError("need exactly one Adams matrix per universe prime, in order")
        d = self.ring.rank
        for p, m in self.generators:
            if (m.rows, m.cols) != (d, d):
                raise ValueError(f"Adams matrix at {p} must be {d}x{d}")

    @property
    def rank(self) -> int:
        return self.ring.rank

    def generator(self, p: int) -> IntMatrix:
        for q, m in self.generators:
            if q == p:
                return m
        raise UnknownPrime(f"no Adams matrix for {p} in universe {self.universe.primes}")

    def frobenius(self, p: int) -> IntMatrix:
        key = ("frobenius", p)
        if key not in self._cache:
            if p not in self.universe:
                raise UnknownPrime(f"{p} is outside the universe {self.universe.primes}")
            self._cache[key] = frobenius_map(self.ring, p)
        return self._cache[key]

    def adams_at(self, n: "FactoredInt | int") -> IntMatrix:
        """Adams matrix at n, the product of prime generators per factorization."""
        if isinstance(n, int):
            n = self.universe.factor(n)
        key = ("adams", n.factors)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = IntMatrix.identity(self.ring.rank)
        for p, e in n.factors:
            g = self.generator(p)
            for _ in range(e):
                result = g @ result
        self._cache[key] = result
        return result


def verify_adams(family: AdamsFamily) -> list[str]:
    """Check the Adams axioms that are decidable from the generator data.

    Per prime: the matrix is a ring endomorphism (fixes the unit and
    respects basis products) and is congruent mod p to the Frobenius
    map.  Across primes: all generator matrices commute, which makes
    the extension to composite indices well defined and multiplicative.
    """
    violations = []
    spec = family.ring
    d = spec.rank
    basis = [spec.basis_vector(i) for i in range(d)]
    for p, m in family.generators:
        if m.apply(spec.unit) != spec.unit:
            violations.append(f"psi_{p} does not fix the unit")
        for i in range(d):
            for j in range(i, d):
                image_of_product = m.apply(spec.structure[i][j])
                product_of_images = spec.mul(m.apply(basis[i]), m.apply(basis[j]))
                if image_of_product != product_of_images:
                    violations.append(f"psi_{p} is not multiplicative on (e{i}, e{j})")
        if not (m - family.frobenius(p)).is_zero_mod(p):
            violations.append(f"psi_{p} is not congruent to Frobenius mod {p}")
    for a in range(len(family.generators)):
        for b in range(a + 1, len(family.generators)):
            p, mp = family.generators[a]
            q, mq = family.generators[b]
            if mp @ mq != mq @ mp:
                violations.append(f"psi_{p} and psi_{q} do not commute")
    return violations


def frobenius_compatible(f: IntMatrix, family: AdamsFamily) -> bool:
    """Whether an additive endomorphism commutes with Frobenius mod every p.

    This is the degree-zero condition f(r)^p = f(r^p) mod pR, checked
    on the basis; both sides are additive mod p so that suffices.
    """
    if (f.rows, f.cols) != (family.rank, family.rank):
        raise ValueError("endomorphism shape does not match the ring rank")
    for p in family.universe:
        frob = family.frobenius(p)
        if not (frob @ f - f @ frob).is_zero_mod(p):
            return False
    return True


T = TypeVar("T")


def newton_lambda(
    psis: Sequence[T],
    one: T,
    mul: Callable[[T, T], T],
    add: Callable[[T, T], T],
    scale: Callable[[int, T], T],
    divide: Callable[[T, int], T],
) -> list[T]:
    """Lambda values from Adams values by Newton's identity.

    Solves n*lam_n = sum_{k=1..n} (-1)^(k-1) lam_{n-k} psi_k for
    ``[lam_1, ..., lam_N]`` given ``[psi_1, ..., psi_N]``, over any
    coefficients supplied as ``one`` and the arithmetic callables;
    ``divide(x, n)`` is the exact division by n.

    >>> Z = preset_family("Z").ring
    >>> newton_lambda([(4,)] * 4, Z.unit, Z.mul, vec_add, vec_scale, _vec_divide)
    [(4,), (6,), (4,), (1,)]
    """
    lams = [one]
    for n in range(1, len(psis) + 1):
        acc = mul(lams[n - 1], psis[0])
        for k in range(2, n + 1):
            acc = add(acc, scale(-1 if k % 2 == 0 else 1, mul(lams[n - k], psis[k - 1])))
        lams.append(divide(acc, n))
    return lams[1:]


def newton_psi(
    lams: Sequence[T],
    mul: Callable[[T, T], T],
    add: Callable[[T, T], T],
    scale: Callable[[int, T], T],
) -> list[T]:
    """Adams values from lambda values by Newton's identity; no division.

    psi_n = sum_{k=1..n-1} (-1)^(k-1) lam_k psi_{n-k} + (-1)^(n-1) n lam_n,
    the inverse of ``newton_lambda``.

    >>> Z = preset_family("Z").ring
    >>> newton_psi([(4,), (6,), (4,), (1,)], Z.mul, vec_add, vec_scale)
    [(4,), (4,), (4,), (4,)]
    """
    psis: list[T] = []
    for n in range(1, len(lams) + 1):
        acc = scale(n if n % 2 else -n, lams[n - 1])
        for k in range(1, n):
            acc = add(acc, scale(1 if k % 2 else -1, mul(lams[k - 1], psis[n - k - 1])))
        psis.append(acc)
    return psis


def _vec_divide(v: Vector, n: int) -> Vector:
    for c in v:
        if c % n:
            raise NonIntegralDivision(
                f"lambda_{n} would need {c}/{n}; the Adams data is not integral here"
            )
    return tuple(c // n for c in v)


def lambda_from_adams(
    family: AdamsFamily, element: Sequence[int], max_degree: int
) -> list[Vector]:
    """Lambda-operation values on one element via the Newton recursion.

    Returns ``[lam_1, ..., lam_max_degree]`` as coordinate vectors.
    Each step divides by the degree; a remainder means the Adams data
    is not the shadow of any lambda-structure on this element and
    raises NonIntegralDivision.

    >>> fam = preset_family("Z")
    >>> lambda_from_adams(fam, (4,), 4)
    [(4,), (6,), (4,), (1,)]
    """
    spec = family.ring
    element = tuple(element)
    if len(element) != spec.rank:
        raise ValueError("element length does not match the ring rank")
    adams_values = [
        family.adams_at(family.universe.factor(k)).apply(element)
        for k in range(1, max_degree + 1)
    ]
    return newton_lambda(adams_values, spec.unit, spec.mul, vec_add, vec_scale, _vec_divide)


class LambdaData:
    """Lambda-operation values for elements of a ring.

    Either derived on demand from an Adams family through the Newton
    recursion, or backed by an explicit table (useful for checking
    hand-supplied data against the axioms).
    """

    def __init__(
        self,
        spec: RingSpec,
        max_degree: int,
        *,
        family: Optional[AdamsFamily] = None,
        table: Optional[Mapping[Vector, Sequence[Vector]]] = None,
    ) -> None:
        if (family is None) == (table is None):
            raise ValueError("provide exactly one of family or table")
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.spec = spec
        self.max_degree = max_degree
        self.family = family
        self._values: dict[tuple[Vector, int], Vector] = {}
        if table is not None:
            for r, values in table.items():
                r = tuple(r)
                if values and tuple(values[0]) != r:
                    raise ValueError("a lambda table must start with lambda_1(r) == r")
                for i, v in enumerate(values, start=1):
                    self._values[(r, i)] = tuple(v)

    @staticmethod
    def from_adams(family: AdamsFamily, max_degree: int) -> "LambdaData":
        return LambdaData(family.ring, max_degree, family=family)

    @staticmethod
    def from_table(
        spec: RingSpec, table: Mapping[Vector, Sequence[Vector]], max_degree: int
    ) -> "LambdaData":
        return LambdaData(spec, max_degree, table=table)

    def value(self, element: Sequence[int], degree: int) -> Vector:
        """lambda_degree(element); degree 0 is the unit, degree 1 the element."""
        element = tuple(element)
        if degree < 0:
            raise ValueError("negative lambda degrees are not defined")
        if degree == 0:
            return self.spec.unit
        if degree == 1:
            return element
        key = (element, degree)
        if key not in self._values:
            if self.family is None:
                raise KeyError(f"no stored value for lambda_{degree} at {element}")
            values = lambda_from_adams(self.family, element, degree)
            for i, v in enumerate(values, start=1):
                self._values[(element, i)] = v
        return self._values[key]


def adams_from_lambda(
    data: LambdaData, element: Sequence[int], max_degree: int
) -> list[Vector]:
    """Adams values on one element recovered from lambda values.

    Inverse direction of the Newton recursion; always integral.

    >>> fam = preset_family("Z")
    >>> data = LambdaData.from_adams(fam, 6)
    >>> adams_from_lambda(data, (5,), 4)
    [(5,), (5,), (5,), (5,)]
    """
    spec = data.spec
    lams = [data.value(element, n) for n in range(1, max_degree + 1)]
    return newton_psi(lams, spec.mul, vec_add, vec_scale)


def lambda_series(data: LambdaData, element: Sequence[int], order: int) -> tuple[Vector, ...]:
    """Coefficients of the lambda-series of an element, degrees 0..order."""
    return tuple(data.value(element, i) for i in range(order + 1))


def element_series_mul(
    spec: RingSpec, a: Sequence[Vector], b: Sequence[Vector], order: int
) -> tuple[Vector, ...]:
    """Truncated product of two coefficient series with ring coefficients."""
    out = [vec_zero(spec.rank) for _ in range(order + 1)]
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] = vec_add(out[i + j], spec.mul(ai, bj))
    return tuple(out)


# Preset rings: the integers, and the group rings of the cyclic groups
# of order 2 and 3, with the Adams operations sending the generator x
# to x^p.  These are the standard small examples where every piece of
# this library can be computed by hand.


def _cyclic_group_ring(k: int, name: str) -> RingSpec:
    structure = tuple(
        tuple(
            tuple(int(target == (i + j) % k) for target in range(k))
            for j in range(k)
        )
        for i in range(k)
    )
    unit = tuple(int(i == 0) for i in range(k))
    return RingSpec(rank=k, structure=structure, unit=unit, name=name)


def _cyclic_adams_matrix(k: int, p: int) -> IntMatrix:
    cols = [
        tuple(int(target == (i * p) % k) for target in range(k))
        for i in range(k)
    ]
    return IntMatrix.from_columns(cols, k)


PRESET_NAMES = ("Z", "RC2", "RC3")


def preset_family(name: str, primes: Iterable[int] = DEFAULT_PRIMES) -> AdamsFamily:
    """One of the built-in Adams families over the given universe.

    "Z" is the integers with every Adams operation the identity; "RC2"
    and "RC3" are the group rings Z[x]/(x^2 - 1) and Z[x]/(x^3 - 1)
    with psi_p(x) = x^p.
    """
    universe = PrimeUniverse(tuple(primes))
    if name == "Z":
        spec = RingSpec(rank=1, structure=(((1,),),), unit=(1,), name="Z")
        gens = tuple((p, IntMatrix.identity(1)) for p in universe)
        return AdamsFamily(spec, universe, gens)
    if name == "RC2":
        spec = _cyclic_group_ring(2, "RC2")
        gens = tuple((p, _cyclic_adams_matrix(2, p)) for p in universe)
        return AdamsFamily(spec, universe, gens)
    if name == "RC3":
        spec = _cyclic_group_ring(3, "RC3")
        gens = tuple((p, _cyclic_adams_matrix(3, p)) for p in universe)
        return AdamsFamily(spec, universe, gens)
    raise UnknownPreset(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


# Ring description files: a JSON document with integer payloads.
#
#   rank                 d
#   structure_constants  d*d*d integers; entry (i, j, k) at i*d*d + j*d + k
#   unit                 d integers
#   primes               the universe
#   adams                map from prime (as a string key) to d*d integers,
#                        row-major


def family_to_dict(family: AdamsFamily) -> dict:
    d = family.ring.rank
    return {
        "rank": d,
        "structure_constants": [
            c for row in family.ring.structure for v in row for c in v
        ],
        "unit": list(family.ring.unit),
        "primes": list(family.universe.primes),
        "adams": {str(p): list(m.flat()) for p, m in family.generators},
    }


def family_from_dict(doc: Mapping) -> AdamsFamily:
    try:
        d = int(doc["rank"])
        flat = [int(c) for c in doc["structure_constants"]]
        unit = tuple(int(c) for c in doc["unit"])
        primes = tuple(int(p) for p in doc["primes"])
        adams_doc = doc["adams"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad ring description: {exc}") from exc
    if len(flat) != d * d * d:
        raise ConfigParseError(
            f"structure_constants must hold {d * d * d} integers, got {len(flat)}"
        )
    structure = tuple(
        tuple(
            tuple(flat[i * d * d + j * d + k] for k in range(d)) for j in range(d)
        )
        for i in range(d)
    )
    spec = RingSpec(rank=d, structure=structure, unit=unit, name=str(doc.get("name", "")))
    universe = PrimeUniverse(primes)
    generators = []
    for p in primes:
        key = str(p)
        if key not in adams_doc:
            raise ConfigParseError(f"missing Adams matrix for prime {p}")
        entries = [int(c) for c in adams_doc[key]]
        if len(entries) != d * d:
            raise ConfigParseError(f"Adams matrix for {p} must hold {d * d} integers")
        generators.append((p, IntMatrix.from_flat(d, d, entries)))
    return AdamsFamily(spec, universe, tuple(generators))


def load_ring_file(path: str) -> AdamsFamily:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read ring file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"ring file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError(f"ring file {path} must hold a JSON object")
    return family_from_dict(doc)
