"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints; no floating
point is used anywhere in the library.  The two workhorses are the
Smith normal form with unimodular transforms tracked on both sides, and
an exact linear solver built on the same elimination.  Quotients of
free abelian groups by integer relation lattices come out as canonical
invariant-factor presentations with explicit generator bookkeeping, so
cohomology classes can be printed, not just counted.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional, Sequence

from .errors import InternalInconsistency, NonIntegralDivision

Vector = tuple[int, ...]


def vec_add(x: Sequence[int], y: Sequence[int]) -> Vector:
    if len(x) != len(y):
        raise ValueError("vector lengths differ")
    return tuple(map(operator.add, x, y))


def vec_sub(x: Sequence[int], y: Sequence[int]) -> Vector:
    if len(x) != len(y):
        raise ValueError("vector lengths differ")
    return tuple(map(operator.sub, x, y))


def vec_scale(k: int, x: Sequence[int]) -> Vector:
    return tuple(k * a for a in x)


def vec_zero(n: int) -> Vector:
    return (0,) * n


class IntMatrix:
    """Immutable integer matrix with row-major entries.

    ``entries`` is a tuple of row tuples.  The constructor and the
    ``from_*``, ``identity`` and ``zeros`` builders validate the shape;
    the arithmetic builds its results with ``_trusted``, which skips the
    checks because each result's shape is known.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m @ IntMatrix.identity(2) == m
    True
    >>> (m - m).is_zero
    True
    >>> m.apply((1, 0))
    (1, 3)
    >>> m
    IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))
    """

    __slots__ = ("rows", "cols", "entries")

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Build without validation; the caller guarantees the shape."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_entries(m, entries)
        return m

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (IntMatrix, (self.rows, self.cols, self.entries))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = tuple(tuple(int(e) for e in row) for row in rows)
        if not data:
            raise ValueError("from_rows needs at least one row; use zeros()")
        return IntMatrix(len(data), len(data[0]), data)

    @staticmethod
    def from_flat(rows: int, cols: int, flat: Sequence[int]) -> "IntMatrix":
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        data = tuple(
            tuple(int(e) for e in flat[i * cols : (i + 1) * cols]) for i in range(rows)
        )
        return IntMatrix(rows, cols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], height: int) -> "IntMatrix":
        """Matrix whose j-th column is ``cols[j]``; works for zero columns."""
        for c in cols:
            if len(c) != height:
                raise ValueError("column height mismatch")
        data = tuple(tuple(int(c[i]) for c in cols) for i in range(height))
        return IntMatrix(height, len(cols), data)

    def flat(self) -> Vector:
        return tuple(e for row in self.entries for e in row)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        data = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(self.cols, self.rows, data)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix._trusted(
            self.rows,
            self.cols,
            tuple(tuple(map(operator.add, r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix._trusted(
            self.rows,
            self.cols,
            tuple(tuple(map(operator.sub, r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(
            self.rows, self.cols, tuple(tuple(map(operator.neg, r)) for r in self.entries)
        )

    def __rmul__(self, k: int) -> "IntMatrix":
        return IntMatrix._trusted(
            self.rows, self.cols, tuple(tuple(k * a for a in r) for r in self.entries)
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        columns = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        data = tuple(
            [tuple([sum(map(operator.mul, row, col)) for col in columns]) for row in self.entries]
        )
        return IntMatrix._trusted(self.rows, other.cols, data)

    def apply(self, vector: Sequence[int]) -> Vector:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(operator.mul, row, vector)) for row in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def is_zero_mod(self, p: int) -> bool:
        return all(a % p == 0 for row in self.entries for a in row)

    def is_divisible_by(self, k: int) -> bool:
        return all(a % k == 0 for row in self.entries for a in row)

    def exact_divide(self, k: int) -> "IntMatrix":
        """Divide every entry by k, raising NonIntegralDivision on remainders."""
        if k == 0:
            raise ZeroDivisionError("exact_divide by zero")
        if not self.is_divisible_by(k):
            raise NonIntegralDivision(f"matrix is not divisible by {k}")
        return IntMatrix._trusted(
            self.rows, self.cols, tuple(tuple(a // k for a in r) for r in self.entries)
        )

    def _check_shape(self, other: "IntMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.entries) + "]"


_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_entries = IntMatrix.entries.__set__


@dataclass(frozen=True)
class SmithDecomposition:
    """Invertible change of basis ``u @ matrix @ v == d`` with d diagonal.

    The diagonal is nonnegative and each entry divides the next.  The
    inverses of both transforms are carried along so generator
    bookkeeping downstream never has to re-invert anything.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> Vector:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for e in self.diagonal if e != 0)


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class _Eliminator:
    """Shared row/column elimination engine.

    Mutates a working copy of the matrix toward diagonal form while
    optionally tracking the left transform (with inverse), the right
    transform (with inverse), and a right-hand side that receives the
    same row operations.  Solvers skip the left transform entirely so
    huge systems never materialize an rows-by-rows matrix.
    """

    def __init__(
        self,
        matrix: IntMatrix,
        *,
        track_u: bool,
        track_v_inv: bool,
        rhs: Optional[Sequence[int]] = None,
    ) -> None:
        self.nrows = matrix.rows
        self.ncols = matrix.cols
        self.d = [list(row) for row in matrix.entries]
        self.u = _identity_rows(self.nrows) if track_u else None
        self.u_inv = _identity_rows(self.nrows) if track_u else None
        self.v = _identity_rows(self.ncols)
        self.v_inv = _identity_rows(self.ncols) if track_v_inv else None
        self.rhs = list(rhs) if rhs is not None else None

    # Row operations act as left multiplication by an elementary matrix E:
    # the working matrix and u get E applied, u_inv gets E^-1 on the right.

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        if self.u is not None:
            self.u[i], self.u[j] = self.u[j], self.u[i]
            for row in self.u_inv:
                row[i], row[j] = row[j], row[i]
        if self.rhs is not None:
            self.rhs[i], self.rhs[j] = self.rhs[j], self.rhs[i]

    def add_row(self, i: int, j: int, q: int) -> None:
        """row_i += q * row_j."""
        if q == 0:
            return
        self.d[i] = [a + q * b for a, b in zip(self.d[i], self.d[j])]
        if self.u is not None:
            self.u[i] = [a + q * b for a, b in zip(self.u[i], self.u[j])]
            for row in self.u_inv:
                row[j] -= q * row[i]
        if self.rhs is not None:
            self.rhs[i] += q * self.rhs[j]

    def negate_row(self, i: int) -> None:
        self.d[i] = [-a for a in self.d[i]]
        if self.u is not None:
            self.u[i] = [-a for a in self.u[i]]
            for row in self.u_inv:
                row[i] = -row[i]
        if self.rhs is not None:
            self.rhs[i] = -self.rhs[i]

    # Column operations are right multiplication by elementary F: the
    # working matrix and v get F on the right, v_inv gets F^-1 on the left.

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        if self.v_inv is not None:
            self.v_inv[i], self.v_inv[j] = self.v_inv[j], self.v_inv[i]

    def add_col(self, j: int, i: int, q: int) -> None:
        """col_j += q * col_i."""
        if q == 0:
            return
        for row in self.d:
            row[j] += q * row[i]
        for row in self.v:
            row[j] += q * row[i]
        if self.v_inv is not None:
            vi, vj = self.v_inv[i], self.v_inv[j]
            for k in range(self.ncols):
                vi[k] -= q * vj[k]

    def diagonalize(self, *, divisibility_chain: bool) -> int:
        """Clear the matrix to diagonal form; returns the diagonal length used.

        The pivot is the first entry of least absolute value in row-major
        order; the search stops at the first unit, which is the entry it
        would pick anyway.  While column t and row t are cleared, the
        scans for the next nonzero entry resume where they stopped:
        ``row_from`` marks rows t+1.. already zero in column t and
        ``col_from`` entries t+1.. of row t already zero.  The row mark
        resets only when column t changes (a column swap with t or the
        divisibility step), the column mark only when row t changes (a
        row swap with t or the divisibility step).  Every other
        operation leaves the scanned zeros in place, so the sequence of
        swaps, additions and quotients is the same as that of a scan
        restarted from t+1 after every step.
        """
        d = self.d
        nrows, ncols = self.nrows, self.ncols
        t = 0
        limit = min(nrows, ncols)
        while t < limit:
            pivot = self._find_pivot(t)
            if pivot is None:
                break
            self.swap_rows(t, pivot[0])
            self.swap_cols(t, pivot[1])
            row_from = col_from = t + 1
            while True:
                if d[t][t] < 0:
                    self.negate_row(t)
                p = d[t][t]
                row_from = next((i for i in range(row_from, nrows) if d[i][t]), nrows)
                if row_from < nrows:
                    i = row_from
                    self.add_row(i, t, -(d[i][t] // p))
                    if d[i][t]:
                        self.swap_rows(t, i)
                        col_from = t + 1
                    continue
                pivot_row = d[t]
                col_from = next((j for j in range(col_from, ncols) if pivot_row[j]), ncols)
                if col_from < ncols:
                    j = col_from
                    self.add_col(j, t, -(pivot_row[j] // p))
                    if pivot_row[j]:
                        self.swap_cols(t, j)
                        row_from = t + 1
                    continue
                if not divisibility_chain:
                    break
                stray = next(
                    (
                        i
                        for i in range(t + 1, nrows)
                        for e in d[i][t + 1 :]
                        if e % p
                    ),
                    None,
                )
                if stray is None:
                    break
                # Pull the offending row into row t; the next clearing pass
                # shrinks the pivot toward the gcd of the whole block.
                self.add_row(t, stray, 1)
                row_from = col_from = t + 1
            t += 1
        return t

    def _find_pivot(self, t: int) -> Optional[tuple[int, int]]:
        """First entry of least absolute value in the block below and right of (t, t)."""
        pivot = None
        best = 0
        for i in range(t, self.nrows):
            segment = self.d[i][t:]
            least = min(map(abs, filter(None, segment)), default=0)
            if least and (pivot is None or least < best):
                j = next(j for j, e in enumerate(segment) if abs(e) == least)
                pivot, best = (i, t + j), least
                if best == 1:
                    break
        return pivot


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both unimodular transforms and inverses.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> s = smith_normal_form(m)
    >>> s.diagonal
    (2, 4)
    >>> s.u @ m @ s.v == s.d
    True
    >>> s.u @ s.u_inv == IntMatrix.identity(2)
    True
    """
    work = _Eliminator(matrix, track_u=True, track_v_inv=True)
    work.diagonalize(divisibility_chain=True)
    decomposition = SmithDecomposition(
        u=IntMatrix.from_flat(work.nrows, work.nrows, [e for r in work.u for e in r])
        if work.nrows
        else IntMatrix.zeros(0, 0),
        d=IntMatrix(work.nrows, work.ncols, tuple(tuple(r) for r in work.d)),
        v=IntMatrix.from_flat(work.ncols, work.ncols, [e for r in work.v for e in r])
        if work.ncols
        else IntMatrix.zeros(0, 0),
        u_inv=IntMatrix.from_flat(work.nrows, work.nrows, [e for r in work.u_inv for e in r])
        if work.nrows
        else IntMatrix.zeros(0, 0),
        v_inv=IntMatrix.from_flat(work.ncols, work.ncols, [e for r in work.v_inv for e in r])
        if work.ncols
        else IntMatrix.zeros(0, 0),
    )
    if decomposition.u @ matrix @ decomposition.v != decomposition.d:
        raise InternalInconsistency("Smith transforms do not reproduce the diagonal form")
    return decomposition


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    >>> determinant(IntMatrix.from_rows([[2, 4], [6, 8]]))
    -8
    >>> determinant(IntMatrix.identity(3))
    1
    """
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    if n == 0:
        return 1
    a = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class LinearSolution:
    """One particular solution plus a basis of the integer kernel."""

    particular: Vector
    kernel: tuple[Vector, ...]


def solve_linear(matrix: IntMatrix, rhs: Sequence[int]) -> Optional[LinearSolution]:
    """All integer solutions of ``matrix @ x == rhs``, or None.

    The solution set, when nonempty, is ``particular + span_Z(kernel)``.

    >>> a = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> solve_linear(a, (4, 9)).particular
    (2, 3)
    >>> solve_linear(a, (1, 1)) is None
    True
    >>> sol = solve_linear(IntMatrix.from_rows([[1, 1]]), (5,))
    >>> sol.kernel
    ((-1, 1),)
    """
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    work = _Eliminator(matrix, track_u=False, track_v_inv=False, rhs=rhs)
    used = work.diagonalize(divisibility_chain=False)
    y = [0] * matrix.cols
    for i in range(used):
        p = work.d[i][i]
        c = work.rhs[i]
        if p == 0:
            if c:
                return None
            continue
        if c % p:
            return None
        y[i] = c // p
    for i in range(used, matrix.rows):
        if work.rhs[i]:
            return None
    v = work.v
    particular = tuple(sum(v[i][k] * y[k] for k in range(matrix.cols)) for i in range(matrix.cols))
    free = [k for k in range(matrix.cols) if k >= used or work.d[k][k] == 0]
    kernel = tuple(tuple(v[i][k] for i in range(matrix.cols)) for k in free)
    return LinearSolution(particular=particular, kernel=kernel)


def kernel_basis(matrix: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the integer kernel ``{x : matrix @ x == 0}``."""
    solution = solve_linear(matrix, vec_zero(matrix.rows))
    if solution is None:
        raise InternalInconsistency("a homogeneous system reported no solution")
    return solution.kernel


def row_space_basis(vectors: Iterable[Sequence[int]], width: int) -> tuple[Vector, ...]:
    """Echelon basis of the lattice spanned by the given row vectors.

    Integer row operations only, so the span is preserved exactly.

    >>> row_space_basis([(2, 0), (3, 0)], 2)
    ((1, 0),)
    >>> row_space_basis([(0, 0)], 2)
    ()
    """
    rows = [list(v) for v in vectors if any(v)]
    basis_start = 0
    for col in range(width):
        while True:
            live = [i for i in range(basis_start, len(rows)) if rows[i][col]]
            if not live:
                break
            pick = min(live, key=lambda i: abs(rows[i][col]))
            others = [i for i in live if i != pick]
            if not others:
                if rows[pick][col] < 0:
                    rows[pick] = [-a for a in rows[pick]]
                rows[basis_start], rows[pick] = rows[pick], rows[basis_start]
                basis_start += 1
                break
            for i in others:
                q = rows[i][col] // rows[pick][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[pick])]
        rows = rows[:basis_start] + [r for r in rows[basis_start:] if any(r)]
    return tuple(tuple(r) for r in rows[:basis_start])


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` entries are at least 2 and each divides the next, so
    the presentation is canonical.

    >>> AbelianGroup(2, (6,)).render()
    'Z^2 (+) Z/6'
    >>> AbelianGroup(0, ()).render()
    '0'
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        previous = None
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion invariants must be at least 2")
            if previous is not None and t % previous:
                raise ValueError("torsion invariants must form a divisibility chain")
            previous = t

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " (+) ".join(parts) if parts else "0"


@dataclass(frozen=True)
class QuotientGenerator:
    """A generator of a quotient group, as a vector of the ambient Z^n.

    ``order`` is 0 for a generator of infinite order, otherwise the
    exact (finite) order of its class.
    """

    vector: Vector
    order: int


def quotient_with_generators(
    generators_rank: int, relations: IntMatrix
) -> tuple[AbelianGroup, tuple[QuotientGenerator, ...]]:
    """Present ``Z^generators_rank / column-span(relations)``.

    Relations enter as the columns of a matrix with ``generators_rank``
    rows.  Returns the canonical group together with vectors whose
    classes generate it (torsion generators first, in invariant order).

    >>> g, gens = quotient_with_generators(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> g.render()
    'Z/6'
    >>> len(gens)
    1
    """
    if relations.rows != generators_rank:
        raise ValueError(
            f"relations live in Z^{relations.rows} but the group has rank {generators_rank}"
        )
    decomposition = smith_normal_form(relations)
    diagonal = decomposition.diagonal
    torsion = []
    generators = []
    for i in range(generators_rank):
        invariant = diagonal[i] if i < len(diagonal) else 0
        if invariant == 1:
            continue
        generators.append(QuotientGenerator(decomposition.u_inv.column(i), invariant))
        if invariant:
            torsion.append(invariant)
    free_rank = sum(1 for g in generators if g.order == 0)
    return AbelianGroup(free_rank, tuple(torsion)), tuple(generators)


def quotient_presentation(generators_rank: int, relations: IntMatrix) -> AbelianGroup:
    """Canonical presentation of ``Z^generators_rank / column-span(relations)``.

    >>> quotient_presentation(2, IntMatrix.from_rows([[2, 0], [0, 3]])).render()
    'Z/6'
    >>> quotient_presentation(3, IntMatrix.zeros(3, 0)).render()
    'Z^3'
    >>> quotient_presentation(1, IntMatrix.from_rows([[1]])).render()
    '0'
    """
    group, _ = quotient_with_generators(generators_rank, relations)
    return group


def left_multiplication_operator(a: IntMatrix) -> IntMatrix:
    """Operator L with ``L @ vec(M) == vec(A @ M)`` in row-major vec convention."""
    d = a.rows
    if a.cols != d:
        raise ValueError("left multiplication operator needs a square matrix")
    rows = []
    for i in range(d):
        for j in range(d):
            row = [0] * (d * d)
            for k in range(d):
                row[k * d + j] = a[i, k]
            rows.append(row)
    return IntMatrix.from_flat(d * d, d * d, [e for r in rows for e in r])


def right_multiplication_operator(b: IntMatrix) -> IntMatrix:
    """Operator R with ``R @ vec(M) == vec(M @ B)`` in row-major vec convention."""
    d = b.rows
    if b.cols != d:
        raise ValueError("right multiplication operator needs a square matrix")
    rows = []
    for i in range(d):
        for j in range(d):
            row = [0] * (d * d)
            for k in range(d):
                row[i * d + k] = b[k, j]
            rows.append(row)
    return IntMatrix.from_flat(d * d, d * d, [e for r in rows for e in r])


def multiply_vecs(
    vecs: Sequence[Sequence[int]],
    *,
    left: Optional[IntMatrix] = None,
    right: Optional[IntMatrix] = None,
) -> list[Vector]:
    """Read each vector as a row-major square matrix F; return vec(left @ F) or vec(F @ right).

    Gives the columns of ``left_multiplication_operator(left) @ C`` (or
    of the right operator) for C with the given columns, at d^3 rather
    than d^4 multiply-adds per column; zero entries are skipped.

    >>> a = IntMatrix.from_rows([[0, 1], [1, 0]])
    >>> multiply_vecs([(1, 2, 3, 4)], left=a)
    [(3, 4, 1, 2)]
    >>> multiply_vecs([(1, 2, 3, 4)], right=a)
    [(2, 1, 4, 3)]
    """
    if (left is None) == (right is None):
        raise ValueError("give exactly one of left and right")
    factor = left if left is not None else right
    d = factor.rows
    if factor.cols != d:
        raise ValueError("multiply_vecs needs a square matrix")
    n = d * d
    zero = (0,) * n
    out = []
    for vec in vecs:
        if len(vec) != n:
            raise ValueError(f"vector length {len(vec)} is not {d}x{d}")
        if not any(vec):
            out.append(zero)
            continue
        acc = [0] * n
        if left is not None:
            # (A F)[i][j] = sum_k A[i][k] F[k][j]
            for i, a_row in enumerate(factor.entries):
                base = i * d
                for k, a in enumerate(a_row):
                    if a:
                        f_row = k * d
                        for j in range(d):
                            acc[base + j] += a * vec[f_row + j]
        else:
            # (F B)[i][j] = sum_k F[i][k] B[k][j]
            for ik, f in enumerate(vec):
                if f:
                    base = ik - ik % d
                    b_row = factor.entries[ik % d]
                    for j in range(d):
                        acc[base + j] += f * b_row[j]
        out.append(tuple(acc))
    return out


def stack_rows(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Vertical concatenation of matrices with equal column counts."""
    if not blocks:
        raise ValueError("nothing to stack")
    cols = blocks[0].cols
    rows = []
    for b in blocks:
        if b.cols != cols:
            raise ValueError("column counts differ")
        rows.extend(b.entries)
    return IntMatrix(sum(b.rows for b in blocks), cols, tuple(rows))


def stack_cols(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Horizontal concatenation of matrices with equal row counts."""
    if not blocks:
        raise ValueError("nothing to stack")
    nrows = blocks[0].rows
    for b in blocks:
        if b.rows != nrows:
            raise ValueError("row counts differ")
    data = tuple(tuple(e for b in blocks for e in b.entries[i]) for i in range(nrows))
    return IntMatrix(nrows, sum(b.cols for b in blocks), data)
