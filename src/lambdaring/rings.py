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

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Mapping, Sequence, TypeVar

from .errors import (
    ConfigParseError,
    NonIntegralDivision,
    UnknownPreset,
    UnknownPrime,
)
from .exactalg import IntMatrix, Vector, vec_add, vec_scale

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

    Cochain arguments are plain positive integers; the universe alone
    knows how one factors, and rejects any with a prime outside it.

    >>> u = PrimeUniverse((2, 3))
    >>> u.factor(12), u.peel(12), u.render(12)
    (((2, 2), (3, 1)), (2, 6), '2^2 * 3')
    >>> u.factor(10)
    Traceback (most recent call last):
    ...
    lambdaring.errors.UnknownPrime: 10 has the factor 5 outside the universe (2, 3)
    """

    primes: tuple[int, ...]
    # integers that have already factored over the primes
    _known: set = field(default_factory=set, compare=False, repr=False)

    # is_prime divides by every d with d * d <= p, so a prime up to
    # MAX_PRIME is checked in at most 1000 divisions.
    MAX_PRIME: ClassVar[int] = 10**6

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("a prime universe must contain at least one prime")
        previous = 1
        for p in self.primes:
            if p > self.MAX_PRIME:
                raise ValueError(f"the prime {p} is above the limit {self.MAX_PRIME}")
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

    def factor(self, n: int) -> tuple[tuple[int, int], ...]:
        """The (prime, exponent) pairs of n, primes ascending."""
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
            # the cofactor, not its least prime: finding that is factoring
            raise UnknownPrime(
                f"{n} has the factor {remaining} outside the universe {self.primes}"
            )
        return tuple(factors)

    def check(self, args: tuple[int, ...]) -> None:
        """Raise unless every argument is a positive integer over the universe.

        Each integer is factored once; later checks are one set lookup.
        """
        if not self._known.issuperset(args):
            for n in args:
                self.factor(n)
            self._known.update(args)

    def peel(self, n: int) -> tuple[int, int]:
        """Split off the least prime of n: ``n == p * rest``."""
        self.check((n,))
        for p in self.primes:
            if n % p == 0:
                return p, n // p
        raise ValueError("cannot peel 1")

    def render(self, n: int) -> str:
        """n as its factorization, such as ``2^2 * 3``; 1 is ``1``."""
        factors = self.factor(n)
        if not factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


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
    determines it; column i holds (e_i)^p mod p, multiplied out left to
    right from the unit as RingSpec.power does.  As v -> v e_i is linear
    in v for any structure constants, that is R^p applied to the unit,
    where column j of R is e_j e_i; R^p is taken by squaring mod p.
    """
    d = spec.rank

    def image(columns: Sequence[Vector], v: Vector) -> Vector:
        # the matrix with these columns applied to v, mod p
        out = [0] * d
        for c, column in zip(v, columns):
            if c:
                out = [a + c * b for a, b in zip(out, column)]
        return tuple(a % p for a in out)

    cols = []
    for i in range(d):
        columns, power, e = [spec.structure[j][i] for j in range(d)], spec.unit, p
        while e:
            if e & 1:
                power = image(columns, power)
            e >>= 1
            if e:
                columns = [image(columns, column) for column in columns]
        cols.append(power)
    return IntMatrix.from_columns(cols, d)


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

    def adams_at(self, n: int) -> IntMatrix:
        """Adams matrix at n, the product of prime generators per factorization."""
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        result = IntMatrix.identity(self.ring.rank)
        for p, e in self.universe.factor(n):
            g = self.generator(p)
            for _ in range(e):
                result = g @ result
        self._cache[n] = result
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
        if not (m - family.frobenius(p)).is_divisible_by(p):
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
        if not (frob @ f - f @ frob).is_divisible_by(p):
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
    known: Sequence[T] = (),
) -> list[T]:
    """Lambda values from Adams values by Newton's identity.

    Solves n*lam_n = sum_{k=1..n} (-1)^(k-1) lam_{n-k} psi_k for
    ``[lam_1, ..., lam_N]`` given ``[psi_1, ..., psi_N]``, over any
    coefficients supplied as ``one`` and the arithmetic callables;
    ``divide(x, n)`` is the exact division by n.  ``known`` is a prefix
    ``[lam_1, ..., lam_k]`` from an earlier run; the recursion resumes
    at degree k+1.

    >>> Z = preset_family("Z").ring
    >>> newton_lambda([(4,)] * 4, Z.unit, Z.mul, vec_add, vec_scale, _vec_divide)
    [(4,), (6,), (4,), (1,)]
    >>> newton_lambda([(4,)] * 4, Z.unit, Z.mul, vec_add, vec_scale, _vec_divide, [(4,), (6,)])
    [(4,), (6,), (4,), (1,)]
    """
    lams = [one, *known]
    for n in range(len(lams), len(psis) + 1):
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
    family: AdamsFamily,
    element: Sequence[int],
    max_degree: int,
    known: Sequence[Vector] = (),
) -> list[Vector]:
    """Lambda-operation values on one element via the Newton recursion.

    Returns ``[lam_1, ..., lam_max_degree]`` as coordinate vectors,
    resuming after the values ``known`` from an earlier call.  Each
    step divides by the degree; a remainder means the Adams data is not
    the shadow of any lambda-structure on this element and raises
    NonIntegralDivision.

    >>> fam = preset_family("Z")
    >>> lambda_from_adams(fam, (4,), 4)
    [(4,), (6,), (4,), (1,)]
    """
    spec = family.ring
    element = tuple(element)
    if len(element) != spec.rank:
        raise ValueError("element length does not match the ring rank")
    adams_values = [
        family.adams_at(k).apply(element)
        for k in range(1, max_degree + 1)
    ]
    return newton_lambda(
        adams_values, spec.unit, spec.mul, vec_add, vec_scale, _vec_divide, known
    )


class LambdaData:
    """Lambda-operation values for elements of a ring.

    Derived on demand from an Adams family through the Newton recursion.
    """

    def __init__(self, family: AdamsFamily, max_degree: int) -> None:
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.spec = family.ring
        self.family = family
        # [lambda_1, ..., lambda_k] of each element, k as far as asked
        self._values: dict[Vector, list[Vector]] = {}

    @staticmethod
    def from_adams(family: AdamsFamily, max_degree: int) -> "LambdaData":
        return LambdaData(family, max_degree)

    def value(self, element: Sequence[int], degree: int) -> Vector:
        """lambda_degree(element); degree 0 is the unit, degree 1 the element."""
        if degree < 0:
            raise ValueError("negative lambda degrees are not defined")
        if degree == 0:
            return self.spec.unit
        return self.values(element, degree)[degree - 1]

    def values(self, element: Sequence[int], degree: int) -> list[Vector]:
        """``[lambda_1(element), ..., lambda_degree(element)]``.

        The recursion resumes after the values already stored, so each
        value is computed once.
        """
        element = tuple(element)
        if degree < 2:
            return [element] if degree == 1 else []
        known = self._values.get(element, [])
        if len(known) < degree:
            known = lambda_from_adams(self.family, element, degree, known)
            self._values[element] = known
        return known[:degree]


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
    return newton_psi(data.values(element, max_degree), data.spec.mul, vec_add, vec_scale)


# Preset rings: the group rings of the cyclic groups of order 1 (the
# integers), 2 and 3, with the Adams operations sending the generator x
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


_PRESET_ORDERS = {"Z": 1, "RC2": 2, "RC3": 3}
PRESET_NAMES = tuple(_PRESET_ORDERS)


def preset_family(name: str, primes: Iterable[int] = DEFAULT_PRIMES) -> AdamsFamily:
    """One of the built-in Adams families over the given universe.

    "Z" is the integers with every Adams operation the identity; "RC2"
    and "RC3" are the group rings Z[x]/(x^2 - 1) and Z[x]/(x^3 - 1)
    with psi_p(x) = x^p.
    """
    universe = PrimeUniverse(tuple(primes))
    if name not in _PRESET_ORDERS:
        raise UnknownPreset(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    k = _PRESET_ORDERS[name]
    gens = tuple((p, _cyclic_adams_matrix(k, p)) for p in universe)
    return AdamsFamily(_cyclic_group_ring(k, name), universe, gens)


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


def json_int(value, name: str) -> int:
    """A JSON integer as is; a float, a bool or a string is malformed."""
    if type(value) is not int:
        raise ConfigParseError(f"{name} must be an integer, got {value!r}")
    return value


def canonical_key(text: str, name: str) -> int:
    """The integer a prime or index key names, accepted only as ``str(int(text))``.

    ``int`` also reads ``"+2"``, ``" 2"`` and ``"02"``; taking those would let
    two keys name one term, and the last one read would silently win.
    """
    value = int(text)
    if text != str(value):
        raise ConfigParseError(f"key {text!r} for {name} is not written as {value}")
    return value


def family_from_dict(doc: Mapping) -> AdamsFamily:
    """Inverse of family_to_dict; malformed input raises ConfigParseError."""
    try:
        d = json_int(doc["rank"], "rank")
        flat = [json_int(c, "a structure constant") for c in doc["structure_constants"]]
        unit = tuple(json_int(c, "a unit entry") for c in doc["unit"])
        primes = tuple(json_int(p, "a prime") for p in doc["primes"])
        adams_doc = doc["adams"]
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
            entries = [json_int(c, f"an Adams entry at {p}") for c in adams_doc[key]]
            if len(entries) != d * d:
                raise ConfigParseError(f"Adams matrix for {p} must hold {d * d} integers")
            generators.append((p, IntMatrix.from_flat(d, d, entries)))
        for key in adams_doc:
            if canonical_key(key, "an Adams matrix") not in universe:
                raise ConfigParseError(f"Adams key {key!r} names no prime of the universe {primes}")
        return AdamsFamily(spec, universe, tuple(generators))
    except ConfigParseError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad ring description: {exc}") from exc
