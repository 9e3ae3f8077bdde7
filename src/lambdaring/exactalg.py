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
from itertools import islice
from typing import Iterable, Optional, Sequence

from .errors import InternalInconsistency, NonIntegralDivision

Vector = tuple[int, ...]


def vec_add(x: Sequence[int], y: Sequence[int]) -> Vector:
    if len(x) != len(y):
        raise ValueError("vector lengths differ")
    return tuple(map(operator.add, x, y))


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

    A product with a factor whose every column is a unit vector, such
    as an Adams matrix of a monoid ring, is formed without arithmetic:
    on the right such a factor gathers entries of each row, on the left
    it sums rows of the other factor.  The factor's pattern is read off
    it on first use and kept in a private slot.

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

    __slots__ = ("rows", "cols", "entries", "_unit_rows")

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

    def _unit_pattern(self) -> Optional[tuple[int, ...]]:
        """The row of the 1 in each column, or None unless every column is a unit vector."""
        try:
            return self._unit_rows
        except AttributeError:
            pass
        pattern = None
        others = self.rows - 1
        found = []
        for column in zip(*self.entries) if self.rows else ((),) * self.cols:
            if column.count(0) != others or 1 not in column:
                break
            found.append(column.index(1))
        else:
            pattern = tuple(found)
        _set_unit_rows(self, pattern)
        return pattern

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        pattern = other._unit_pattern()
        if pattern is not None:
            # column j of the product is column pattern[j] of self
            data = tuple([tuple([row[k] for k in pattern]) for row in self.entries])
        elif (pattern := self._unit_pattern()) is not None:
            # row i of the product sums the rows k of other with pattern[k] == i
            zero = (0,) * other.cols
            rows = [zero] * self.rows
            for i, row in zip(pattern, other.entries):
                rows[i] = row if rows[i] is zero else tuple(map(operator.add, rows[i], row))
            data = tuple(rows)
        else:
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
_set_unit_rows = IntMatrix._unit_rows.__set__


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
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _add_multiple(lists: list[list[int]], i: int, j: int, q: int) -> None:
    """lists[i] += q * lists[j]; with i == j and q == -2 it negates lists[i]."""
    lists[i] = [a + q * b for a, b in zip(lists[i], lists[j])]


class _Eliminator:
    """Shared row/column elimination engine; its mode comes from its input.

    Given a right-hand side it solves: the side gets the row operations
    and the right transform ``v`` the column operations.  Without one it
    computes a Smith normal form, tracking ``u``, ``u_inv``, ``v`` and
    ``v_inv`` and making the diagonal a divisibility chain.  Each
    transform is held in the orientation its operations act on: ``u``
    (row operations E) and ``v_inv`` (column operations F, as F^-1 on the
    left) as rows, ``u_inv`` (E^-1 on the right) and ``v`` (F) as
    columns, so every update swaps two lists or adds a multiple of one
    list to another.

    Tall systems repeat few rows many times, so the matrix work is done
    once per distinct row.  Each distinct input row object becomes one
    list shared by every position holding it, and every zero row is the
    tuple ``zero_row``; positions sharing a list always hold equal rows.
    Row operations bind a position to a new list and never change one;
    column operations change each distinct list once, in place.  Every
    scan of diagonalize walks ``live``, the positions from t on whose row
    is not ``zero_row``, so a tall system costs about as much as its
    nonzero rows.
    """

    def __init__(self, matrix: IntMatrix, rhs: Optional[Sequence[int]] = None) -> None:
        self.nrows = matrix.rows
        self.ncols = matrix.cols
        self.zero_row = (0,) * self.ncols
        distinct = {id(row): row for row in matrix.entries}
        lists = {key: list(row) if any(row) else self.zero_row for key, row in distinct.items()}
        self.d = [lists[id(row)] for row in matrix.entries]
        self.t = 0  # the step of diagonalize
        # the ascending positions from t on whose row is not zero_row
        self.live = [i for i, row in enumerate(self.d) if row is not self.zero_row]
        # (id(row), q) -> (row, pivot, row + q * pivot); holding row keeps its id unique
        self.memo: dict[tuple[int, int], tuple] = {}
        self.rhs = None if rhs is None else list(rhs)
        self.v = _identity_rows(self.ncols)
        # row_swapped and col_swapped: the lists whose entries i and j a swap exchanges
        if rhs is None:
            self.u = _identity_rows(self.nrows)
            self.u_inv = _identity_rows(self.nrows)
            self.v_inv = _identity_rows(self.ncols)
            self.row_swapped = (self.d, self.u, self.u_inv)
            self.col_swapped = (self.v, self.v_inv)
        else:
            self.row_swapped = (self.d, self.rhs)
            self.col_swapped = (self.v,)

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        for lists in self.row_swapped:
            lists[i], lists[j] = lists[j], lists[i]

    def add_row(self, i: int, j: int, q: int) -> None:
        """row_i += q * row_j, over the columns from t on.

        Every copy of row i gets the same new list while row j is the same
        list and no column changes; a zero result becomes ``zero_row``.
        """
        if q == 0:
            return
        d = self.d
        row, pivot = d[i], d[j]
        key = (id(row), q)
        hit = self.memo.get(key)
        if hit is None or hit[1] is not pivot:
            t = self.t
            new = row[:t] + [a + q * b for a, b in zip(row[t:], pivot[t:])]
            hit = self.memo[key] = (row, pivot, new if any(new) else self.zero_row)
        d[i] = hit[2]
        if self.rhs is not None:
            self.rhs[i] += q * self.rhs[j]
        else:
            _add_multiple(self.u, i, j, q)
            _add_multiple(self.u_inv, j, i, -q)

    def negate_row(self, i: int) -> None:
        self.d[i] = [-a for a in self.d[i]]
        if self.rhs is not None:
            self.rhs[i] = -self.rhs[i]
        else:
            _add_multiple(self.u, i, i, -2)
            _add_multiple(self.u_inv, i, i, -2)

    def swap_cols(self, i: int, j: int) -> None:
        """Exchange columns i, j >= t; the rows above t are zero in both."""
        if i == j:
            return
        self.memo.clear()
        d = self.d
        for row in {id(d[k]): d[k] for k in self.live}.values():
            if row is not self.zero_row:
                row[i], row[j] = row[j], row[i]
        for lists in self.col_swapped:
            lists[i], lists[j] = lists[j], lists[i]

    def add_col(self, j: int, i: int, q: int) -> None:
        """col_j += q * col_i; column i is zero outside row i, so only row i changes."""
        if q == 0:
            return
        self.memo.clear()
        target = self.d[i]
        target[j] += q * target[i]
        _add_multiple(self.v, j, i, q)
        if self.rhs is None:
            _add_multiple(self.v_inv, i, j, -q)

    def diagonalize(self) -> int:
        """Clear the matrix to diagonal form; returns the diagonal length used.

        Without a right-hand side, a last step per pivot makes it divide
        the rest of the block.

        The pivot is the first entry of least absolute value in row-major
        order; the search stops at the first unit, which is the entry it
        would pick anyway.  While column t and row t are cleared, the
        scans for the next nonzero entry resume where they stopped:
        ``row_from`` marks the entries 1.. of ``live`` (rows below t)
        already zero in column t and ``col_from`` entries t+1.. of row t
        already zero.  The row mark resets only when column t changes (a
        column swap with t or the divisibility step), the column mark
        only when row t changes (a row swap with t or the divisibility
        step).  Every other operation leaves the scanned zeros in place,
        so the sequence of swaps, additions and quotients is the same as
        that of a scan restarted from t+1 after every step.

        In step t the rows at t and below are zero in the columns before
        t, and the rows above t are zero from column t on.  So a row
        operation, which combines two rows at t or below, needs only the
        columns from t on, and ``add_col``, which runs once column t is
        zero outside row t, changes row t alone.

        No operation of step t turns a zero row into a nonzero one: a
        row operation changes only a row that is nonzero in column t or
        row t itself, and a column operation changes rows in place,
        never ``zero_row``.  So ``live``, filtered at the end of each
        step and joined by position t once the pivot row is swapped in,
        holds every row the pivot search, the row scans, the column
        swaps and the divisibility scan could find nonzero, in the order
        a walk over every position would meet them.
        """
        d, zero_row = self.d, self.zero_row
        ncols = self.ncols
        divisibility_step = self.rhs is None
        t, limit = 0, min(self.nrows, ncols)
        while t < limit:
            self.t = t
            self.memo.clear()
            pivot = self._find_pivot(t)
            if pivot is None:
                break
            self.swap_rows(t, pivot[0])
            live = self.live
            if live[0] != t:
                live.insert(0, t)
            self.swap_cols(t, pivot[1])
            below = len(live)
            row_from, col_from = 1, t + 1
            while True:
                if d[t][t] < 0:
                    self.negate_row(t)
                p = d[t][t]
                row_from = next((k for k in range(row_from, below) if d[live[k]][t]), below)
                if row_from < below:
                    i = live[row_from]
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
                        row_from = 1
                    continue
                if not divisibility_step:
                    break
                stray = next(
                    (i for i in islice(live, 1, None) for e in d[i][t + 1 :] if e % p), None
                )
                if stray is None:
                    break
                # Pull the offending row into row t; the next clearing pass
                # shrinks the pivot toward the gcd of the whole block.
                self.add_row(t, stray, 1)
                row_from, col_from = 1, t + 1
            self.live = [i for i in islice(live, 1, None) if d[i] is not zero_row]
            t += 1
        return t

    def _find_pivot(self, t: int) -> Optional[tuple[int, int]]:
        """First entry of least absolute value below and right of (t, t); one least per list."""
        pivot, best = None, 0
        least_of: dict[int, int] = {}
        d, zero_row = self.d, self.zero_row
        for i in self.live:
            row = d[i]
            if row is zero_row:
                continue
            least = least_of.get(id(row))
            if least is None:
                least = least_of[id(row)] = min(map(abs, filter(None, row[t:])))
            if pivot is None or least < best:
                j = next(j for j in range(t, self.ncols) if abs(row[j]) == least)
                pivot, best = (i, j), least
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
    work = _Eliminator(matrix)
    work.diagonalize()
    n, m = work.nrows, work.ncols
    decomposition = SmithDecomposition(
        u=IntMatrix.from_flat(n, n, [e for r in work.u for e in r]),
        d=IntMatrix(n, m, tuple(tuple(r) for r in work.d)),
        v=IntMatrix.from_columns(work.v, m),
        u_inv=IntMatrix.from_columns(work.u_inv, n),
        v_inv=IntMatrix.from_flat(m, m, [e for r in work.v_inv for e in r]),
    )
    if decomposition.u @ matrix @ decomposition.v != decomposition.d:
        raise InternalInconsistency("Smith transforms do not reproduce the diagonal form")
    return decomposition


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
    work = _Eliminator(matrix, rhs)
    used = work.diagonalize()
    if any(work.rhs[used:]):
        return None
    # x = v y with d y = u rhs, where each pivot d[k][k] of the used
    # length is positive; the columns of v past the pivots span the kernel
    y = []
    for k in range(used):
        quotient, remainder = divmod(work.rhs[k], work.d[k][k])
        if remainder:
            return None
        y.append(quotient)
    particular = tuple(sum(map(operator.mul, row, y)) for row in zip(*work.v))
    kernel = tuple(tuple(column) for column in work.v[used:])
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
    relations: IntMatrix,
) -> tuple[AbelianGroup, tuple[QuotientGenerator, ...]]:
    """Present ``Z^n / column-span(relations)`` for ``n = relations.rows``.

    Relations enter as the columns of the matrix.  Returns the canonical
    group together with vectors whose classes generate it (torsion
    generators first, in invariant order).

    >>> g, gens = quotient_with_generators(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> g.render()
    'Z/6'
    >>> len(gens)
    1
    >>> quotient_with_generators(IntMatrix.from_rows([[1]]))
    (AbelianGroup(free_rank=0, torsion=()), ())
    """
    decomposition = smith_normal_form(relations)
    diagonal = decomposition.diagonal
    torsion = []
    generators = []
    for i in range(relations.rows):
        invariant = diagonal[i] if i < len(diagonal) else 0
        if invariant == 1:
            continue
        generators.append(QuotientGenerator(decomposition.u_inv.column(i), invariant))
        if invariant:
            torsion.append(invariant)
    free_rank = sum(1 for g in generators if g.order == 0)
    return AbelianGroup(free_rank, tuple(torsion)), tuple(generators)


def left_multiplication_operator(a: IntMatrix) -> IntMatrix:
    """Operator L with ``L @ vec(M) == vec(A @ M)`` in row-major vec convention."""
    d = a.rows
    if a.cols != d:
        raise ValueError("left multiplication operator needs a square matrix")
    r = range(d)  # row (i, j), column (k, l): A[i][k] where l == j
    flat = [a[i, k] * (l == j) for i in r for j in r for k in r for l in r]
    return IntMatrix.from_flat(d * d, d * d, flat)


def right_multiplication_operator(b: IntMatrix) -> IntMatrix:
    """Operator R with ``R @ vec(M) == vec(M @ B)`` in row-major vec convention."""
    d = b.rows
    if b.cols != d:
        raise ValueError("right multiplication operator needs a square matrix")
    r = range(d)  # row (i, j), column (l, k): B[k][j] where l == i
    flat = [b[k, j] * (l == i) for i in r for j in r for l in r for k in r]
    return IntMatrix.from_flat(d * d, d * d, flat)

