"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints; no floating
point is used anywhere in the library.  The two workhorses are the
Smith normal form with unimodular transforms tracked on both sides, and
an exact linear solver built on the same elimination, which every system
the library builds enters through ``solve_forms`` as packed forms.
Quotients of free abelian groups by integer relation lattices come out
as canonical invariant-factor presentations with explicit generator
bookkeeping, so cohomology classes can be printed, not just counted.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Iterable, Optional, Sequence

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
    """Immutable integer matrix.

    ``entries`` is the flat row-major tuple of its rows*cols ints:
    entry (i, j) is ``entries[i * cols + j]``, and ``exactalg`` alone
    does that index arithmetic.  The constructor checks the shape,
    ``from_rows`` also rejects ragged rows, and ``from_flat`` and
    ``from_columns`` coerce outside input to int; the arithmetic builds
    its results with ``_trusted``, which skips the checks because each
    result's shape is known.  ``m[i, j]``, ``row`` and ``column`` take
    negative indices and raise IndexError outside the range, as
    indexing a tuple of row tuples would.

    Every product, here and in ``product_forms``, is formed by one
    kernel.  A factor whose every column is a unit vector, such as an
    Adams matrix of a monoid ring, takes no arithmetic there: on the
    right it gathers entries of each row, on the left it sums rows of
    the other factor.  Its pattern is read off it on first use and
    kept in a private slot.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m @ IntMatrix.identity(2) == m
    True
    >>> (m - m).is_zero
    True
    >>> m.apply((1, 0))
    (1, 3)
    >>> m.row(-1), m.column(1), m[1, 0]
    ((3, 4), (2, 4), 3)
    >>> m
    IntMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))
    """

    __slots__ = ("rows", "cols", "entries", "_unit_rows")

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
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
        data = [tuple(int(e) for e in row) for row in rows]
        if not data:
            raise ValueError("from_rows needs at least one row; use zeros()")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged matrix rows")
        return IntMatrix._trusted(len(data), cols, tuple(itertools.chain.from_iterable(data)))

    @staticmethod
    def from_flat(rows: int, cols: int, flat: Sequence[int]) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(int(e) for e in flat))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], height: int) -> "IntMatrix":
        """Matrix whose j-th column is ``cols[j]``; works for zero columns."""
        for c in cols:
            if len(c) != height:
                raise ValueError("column height mismatch")
        return IntMatrix(height, len(cols), tuple(int(c[i]) for i in range(height) for c in cols))

    def flat(self) -> Vector:
        return self.entries

    # range(n)[i] is the position of index i, counted from the end when
    # negative, and raises IndexError outside -n..n-1, as a tuple does
    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[range(self.rows)[i] * self.cols + range(self.cols)[j]]

    def row(self, i: int) -> Vector:
        start = range(self.rows)[i] * self.cols
        return self.entries[start : start + self.cols]

    def column(self, j: int) -> Vector:
        return self.entries[range(self.cols)[j] :: self.cols]

    def transpose(self) -> "IntMatrix":
        data = tuple(itertools.chain.from_iterable(map(self.column, range(self.cols))))
        return IntMatrix._trusted(self.cols, self.rows, data)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix._trusted(
            self.rows, self.cols, tuple(map(operator.add, self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix._trusted(
            self.rows, self.cols, tuple(map(operator.sub, self.entries, other.entries))
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols, tuple(map(operator.neg, self.entries)))

    def __rmul__(self, k: int) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols, tuple(k * a for a in self.entries))

    def _unit_pattern(self) -> Optional[tuple[int, ...]]:
        """The row of the 1 in each column, or None unless every column is a unit vector."""
        try:
            return self._unit_rows
        except AttributeError:
            pass
        pattern = None
        others = self.rows - 1
        found = []
        for column in map(self.column, range(self.cols)):
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
        right = other._unit_pattern()
        left = self._unit_pattern() if right is None else None
        data = _product(self.entries, other.entries, self.rows, self.cols, other.cols, left, right)
        return IntMatrix._trusted(self.rows, other.cols, tuple(data))

    def apply(self, vector: Sequence[int]) -> Vector:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(_product(self.entries, vector, self.rows, self.cols, 1, None, None))

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_divisible_by(self, k: int) -> bool:
        return all(a % k == 0 for a in self.entries)

    def exact_divide(self, k: int) -> "IntMatrix":
        """Divide every entry by k, raising NonIntegralDivision on remainders."""
        if k == 0:
            raise ZeroDivisionError("exact_divide by zero")
        if not self.is_divisible_by(k):
            raise NonIntegralDivision(f"matrix is not divisible by {k}")
        return IntMatrix._trusted(self.rows, self.cols, tuple(a // k for a in self.entries))

    def _check_shape(self, other: "IntMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows)) + "]"


_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_entries = IntMatrix.entries.__set__
_set_unit_rows = IntMatrix._unit_rows.__set__


def _product(
    x: Sequence, y: Sequence, n: int, k: int, m: int, left: Optional[Vector], right: Optional[Vector]
) -> list:
    """The flat row-major product of x, n x k, and y, k x m, both flat row-major.

    Entries may be ints or packed forms.  ``left`` and ``right`` are
    the unit patterns of x and y, or None; a factor with a pattern is
    applied with no arithmetic, the right one first.
    """
    if right is not None:  # entry (i, j) is x[i, right[j]]
        return [x[i * k + c] for i in range(n) for c in right]
    if left is not None:  # row i sums the rows c of y with left[c] == i
        zero = (0,) * m
        sums = [zero] * n
        for c, i in enumerate(left):
            row = y[c * m : c * m + m]
            sums[i] = row if sums[i] is zero else tuple(map(operator.add, sums[i], row))
        return list(itertools.chain.from_iterable(sums))
    # the rows of x, k entries at a time; n empty rows when k is 0
    rows = zip(*[iter(x)] * k) if k else [()] * n
    columns = [y[j::m] for j in range(m)]
    return [sum(map(operator.mul, row, column)) for row in rows for column in columns]


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


def _support(row: list[int], start: int = 0) -> list[int]:
    """The columns from ``start`` on where the row is nonzero."""
    return list(itertools.compress(range(start, len(row)), row[start:]))


def _add_multiple(lists: list[list[int]], i: int, j: int, q: int) -> None:
    """lists[i] += q * lists[j] in place, over the support of lists[j].

    With i == j and q == -2 it negates lists[i].
    """
    target, source = lists[i], lists[j]
    for k in _support(source):
        target[k] += q * source[k]


def _combine(row: list[int], pivot: list[int], q: int, support: list[int]) -> list[int]:
    """row + q * pivot as a new list, where ``support`` holds the pivot's nonzero columns.

    row itself when q is 0.
    """
    if not q:
        return row
    row = row.copy()
    for j in support:
        row[j] += q * pivot[j]
    return row


def _least(row: list[int]) -> int:
    """The least nonzero absolute value among the row's coefficients; 0 if they are all zero.

    The coefficients are every entry but the last, the right-hand side,
    which is taken off for the scan and put back, to copy nothing.
    """
    rhs = row.pop()
    least = min(map(abs, filter(None, row)), default=0)
    row.append(rhs)
    return least


_POSITIONS = operator.itemgetter(1)
_LEAST = operator.itemgetter(2)


class _Unsolvable(Exception):
    """A row's coefficients are all zero and its right-hand side is not."""


class _Eliminator:
    """Shared row/column elimination engine.

    Built from a system of ``nrows`` equations in ``ncols`` unknowns,
    given by keys: key i stands for equation i, and equal keys for equal
    equations.  ``equation(key)`` gives the row of an equation, a fresh
    list that the elimination changes: its ``ncols`` coefficients, then
    its right-hand side.  So the right-hand side gets every row
    operation, and the right transform ``v`` gets the column operations,
    which solves the system.  ``smith_normal_form`` builds it from the
    rows of a matrix, each ending in 0, then also tracks ``u``, ``u_inv``
    and ``v_inv``, which makes ``diagonalize`` turn the diagonal into a
    divisibility chain.  Each transform is held in the orientation its
    operations act on: ``u`` (row operations E) and ``v_inv`` (column
    operations F, as F^-1 on the left) as rows, ``u_inv`` (E^-1 on the
    right) and ``v`` (F) as columns, so every update swaps two lists or
    adds a multiple of one list to another.

    The rows below the pivots are held in groups ``[row, positions,
    least]``: one row list, the ascending positions that hold that row,
    and the least nonzero absolute value among its coefficients, so a
    right-hand side is never a pivot.  A row whose coefficients are all
    zero belongs to no group, and one whose right-hand side is not zero
    means there is no solution.  The engine starts with one group per
    distinct key, in the order of their first positions, so a Smith
    form, keyed by position because ``u`` and ``u_inv`` differ per
    position, keeps every position in its own group.  Scans and row
    operations run once per group, so a tall system costs about as much
    as its distinct rows.  The pivot of step t (position t) is held
    apart; ``pivots`` keeps the row of each finished step.

    Each step costs what it changes.  ``least`` is computed once, when
    the group's row list is made, and stays exact: a row operation
    makes a new list, a column swap moves entries without changing
    them, and the other column operations touch only the pivot.  So the
    pivot search reads one cached value per group.  Row updates, and
    updates of a transform, visit only the columns where the row added
    in is nonzero; the support of a pivot row is found once per row
    sweep and again whenever the sweep makes a new pivot.

    The path is that of an elimination over every position, because of
    one invariant.  Take one row sweep of step t: it starts at the pivot
    choice or at a column swap, and ends when column t is clear below
    t.  Within it, only a group's first position can change the pivot.
    After Euclid runs there, the pivot's column-t entry divides the
    group's, and every later pivot's entry divides the one before, so
    every later copy reduces to zero in column t in one row operation,
    with no swap.
    """

    def __init__(self, nrows: int, ncols: int, keys: Iterable, equation: Callable) -> None:
        positions_of: dict = {}
        for i, key in enumerate(keys):
            positions = positions_of.get(key)
            if positions is None:
                positions_of[key] = [i]
            else:
                positions.append(i)
        self.nrows = nrows
        self.ncols = ncols
        self.u = None
        self.v = _identity_rows(ncols)
        self.col_swapped = (self.v,)
        self.pivots: list[list[int]] = []
        self.groups = []
        for key, positions in positions_of.items():
            row = equation(key)
            least = _least(row)
            if least:
                self.groups.append([row, positions, least])
            elif row[-1]:
                raise _Unsolvable

    def track_add(self, i: int, j: int, q: int) -> None:
        """Record row_i += q * row_j in u and u_inv."""
        if self.u is not None and q:
            _add_multiple(self.u, i, j, q)
            _add_multiple(self.u_inv, j, i, -q)

    def track_swap(self, i: int, j: int) -> None:
        """Record the exchange of rows i and j in u and u_inv."""
        if self.u is not None and i != j:
            for lists in (self.u, self.u_inv):
                lists[i], lists[j] = lists[j], lists[i]

    def swap_cols(self, i: int, j: int, pivot: list[int]) -> None:
        """Exchange columns i, j >= t; the pivots before t are zero in both."""
        if i == j:
            return
        for group in self.groups:
            row = group[0]
            row[i], row[j] = row[j], row[i]
        pivot[i], pivot[j] = pivot[j], pivot[i]
        for lists in self.col_swapped:
            lists[i], lists[j] = lists[j], lists[i]

    def diagonalize(self) -> int:
        """Clear the coefficients to diagonal form; returns the diagonal length used.

        Each step t takes a pivot, then alternates row sweeps, which clear
        column t below t, with column operations, which clear row t to
        the right of t, until both are clear.  When ``u`` is tracked, a
        last step per pivot makes it divide the rest of the block.

        The pivot is the least coefficient in absolute value, of the
        earliest first position holding it, in the first column holding
        it; the search reads each group's cached ``least``.  ``col_from``
        marks the entries t+1.. of the pivot row already zero; it resets
        after each row sweep and each divisibility step, the two that may
        change the pivot row by more than a column operation.

        In step t the rows below are zero in the columns before t, and
        the pivots above are zero from column t on.  So a row operation
        needs only the entries from column t on, the right-hand side
        included, and a column operation, which runs once column t is
        zero below t, changes the pivot alone.  No operation turns a zero
        row into a nonzero one, and no column operation makes a nonzero
        row zero, so the groups hold every row that a scan over the
        positions from t on could find nonzero.  Raises ``_Unsolvable`` as
        soon as a row's coefficients become zero while its right-hand
        side does not.
        """
        ncols = self.ncols
        divisibility_step = self.u is not None
        t, limit = 0, min(self.nrows, ncols)
        while t < limit and self.groups:
            pivot = self.sweep(t, self.take_pivot(t))
            col_from = t + 1
            while True:
                p = pivot[t]
                col_from = next(itertools.compress(range(col_from, ncols), pivot[col_from:]), ncols)
                if col_from < ncols:
                    # col_j += q * col_t, which is zero outside the pivot row
                    j = col_from
                    q = -(pivot[j] // p)
                    if q:
                        pivot[j] += q * p
                        _add_multiple(self.v, j, t, q)
                        if divisibility_step:
                            _add_multiple(self.v_inv, t, j, -q)
                    if pivot[j]:
                        self.swap_cols(t, j, pivot)
                        pivot = self.sweep(t, pivot)
                        col_from = t + 1
                    continue
                if not divisibility_step:
                    break
                self.groups.sort(key=_POSITIONS)
                # the rows below are zero up to column t
                stray = next(
                    (g for g in self.groups if any(e % p for e in filter(None, g[0]))), None
                )
                if stray is None:
                    break
                # Pull the offending row into the pivot; the next column
                # pass shrinks the pivot toward the gcd of the whole block.
                pivot = _combine(pivot, stray[0], 1, _support(stray[0], t))
                self.track_add(t, stray[1][0], 1)
                col_from = t + 1
            self.pivots.append(pivot)
            t += 1
        return t

    def take_pivot(self, t: int) -> list[int]:
        """Move the pivot's row to position t and its column to t; a positive pivot."""
        groups = self.groups
        groups.sort(key=_POSITIONS)
        leasts = list(map(_LEAST, groups))
        best = min(leasts)
        pick = leasts.index(best)
        row, positions, _ = groups[pick]
        i = positions[0]
        if i != t and groups[0][1][0] == t:
            # the row at position t moves to position i
            held = groups[0][1]
            del held[0]
            bisect.insort(held, i)
        self.track_swap(t, i)
        del positions[0]
        if positions:
            row = list(row)
        else:
            del groups[pick]
        self.swap_cols(t, list(map(abs, row)).index(best, t), row)
        if row[t] < 0:
            row = [-a for a in row]
            if self.u is not None:
                _add_multiple(self.u, t, t, -2)
                _add_multiple(self.u_inv, t, t, -2)
        return row

    def sweep(self, t: int, pivot: list[int]) -> list[int]:
        """Clear column t below t; returns the pivot row it ends with.

        Euclid runs at each first position in position order, swapping
        its row with the pivot while a remainder is left.  The pivot in
        force after each first position that changed it starts a new
        epoch.  The other positions of a group then move as blocks, one
        new row per epoch; in the epoch of a first position that kept the
        pivot, they join its result.
        """
        self.groups.sort(key=_POSITIONS)
        staying, moving = [], []
        for group in self.groups:
            (moving if group[0][t] else staying).append(group)
        if not moving:
            return pivot
        support = _support(pivot, t)
        starts = [-1]  # the position after which each epoch's pivot is in force
        epochs = [(pivot, support)]
        firsts = []
        for row, positions, _ in moving:
            i = positions[0]
            while True:
                q = -(row[t] // pivot[t])
                row = _combine(row, pivot, q, support)
                self.track_add(i, t, q)
                if not row[t]:
                    break
                pivot, row = row, pivot
                support = _support(pivot, t)
                self.track_swap(t, i)
            if pivot is epochs[-1][0]:
                own = len(epochs) - 1
            else:
                own = None
                starts.append(i)
                epochs.append((pivot, support))
            firsts.append((own, [row, [i]]))

        def keep(row: list[int], positions: list[int]) -> None:
            least = _least(row)
            if least:
                staying.append([row, positions, least])
            elif row[-1]:
                raise _Unsolvable

        for (row, positions, _), (own, first) in zip(moving, firsts):
            lo, n = 1, len(positions)
            while lo < n:
                e = bisect.bisect_left(starts, positions[lo]) - 1
                hi = n if e + 1 == len(starts) else bisect.bisect_left(positions, starts[e + 1], lo)
                if e == own:
                    first[1].extend(positions[lo:hi])
                else:
                    epoch_pivot, epoch_support = epochs[e]
                    q = -(row[t] // epoch_pivot[t])
                    keep(_combine(row, epoch_pivot, q, epoch_support), positions[lo:hi])
                lo = hi
            keep(*first)
        self.groups = staying
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
    n, m = matrix.rows, matrix.cols
    work = _Eliminator(n, m, range(n), lambda i: [*matrix.row(i), 0])
    work.u = _identity_rows(n)
    work.u_inv = _identity_rows(n)
    work.v_inv = _identity_rows(m)
    work.col_swapped = (work.v, work.v_inv)
    used = work.diagonalize()
    decomposition = SmithDecomposition(
        u=IntMatrix(n, n, tuple(itertools.chain.from_iterable(work.u))),
        d=IntMatrix(n, m, tuple(e for r in work.pivots for e in r[:m]) + (0,) * (m * (n - used))),
        v=IntMatrix.from_columns(work.v, m),
        u_inv=IntMatrix.from_columns(work.u_inv, n),
        v_inv=IntMatrix(m, m, tuple(itertools.chain.from_iterable(work.v_inv))),
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
    pairs = zip(map(matrix.row, range(matrix.rows)), rhs)
    return _solve(matrix.rows, matrix.cols, pairs, lambda pair: [*pair[0], pair[1]])


def solve_forms(packing: FormPacking, forms: Sequence[int]) -> Optional[LinearSolution]:
    """All integer solutions of "every form is zero", or None.

    A form packs row . x + c by ``packing``, so its equation is
    row . x == -c, and ``packing``'s bound must bound every row.  Two
    forms are then equal ints exactly when their equations are equal,
    so only the distinct ints are unpacked.

    >>> packing = FormPacking(2, 3)
    >>> solve_forms(packing, [packing.pack([2, 0], -4), packing.pack([0, 3], -9)] * 2)
    LinearSolution(particular=(2, 3), kernel=())
    """

    def equation(form: int) -> list[int]:
        row, constant = packing.unpack(form)
        row.append(-constant)
        return row

    return _solve(len(forms), packing.width, forms, equation)


def _solve(nrows: int, ncols: int, keys: Iterable, equation: Callable) -> Optional[LinearSolution]:
    """The solutions of ``nrows`` equations, given as ``_Eliminator`` takes them."""
    try:
        work = _Eliminator(nrows, ncols, keys, equation)
        work.diagonalize()
    except _Unsolvable:
        return None
    # x = v y with d y = u rhs, where each pivot d[k][k] is positive; the
    # columns of v past the pivots span the kernel
    y = []
    for k, pivot in enumerate(work.pivots):
        quotient, remainder = divmod(pivot[-1], pivot[k])
        if remainder:
            return None
        y.append(quotient)
    particular = tuple(sum(map(operator.mul, row, y)) for row in zip(*work.v))
    kernel = tuple(tuple(column) for column in work.v[len(y):])
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


_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


class FormPacking:
    """Affine forms in ``width`` unknowns, each held as one int: a Kronecker substitution.

    The form c_0 x_0 + ... + c_{w-1} x_{w-1} + c is the int
    sum_e c_e 2^(b e) + c 2^(b w): coefficient e is slot e, a balanced
    digit of b = ``bits`` bits, and the constant is the unbounded slot
    above them.  So sums, differences and integer multiples of forms
    are those of their ints.  An int stands for one form, and unpacks
    to it, when every coefficient has absolute value below 2^(b-1);
    the terms summed on the way may exceed that, and the constant may be
    any integer.  ``bound`` must bound the coefficients of every form
    that is unpacked or compared.  b is the least power of two from 8
    on with 2^(b-1) > ``bound``, so that slots are whole bytes and, up
    to 64 bits, machine integers.

    >>> packing = FormPacking(3, 100)
    >>> packing.bits
    8
    >>> form = packing.pack([5, -50, 0], -7)
    >>> packing.unpack(3 * form - form)
    ([10, -100, 0], -14)
    """

    __slots__ = ("width", "bits", "shift", "_offset", "_mask", "_format")

    def __init__(self, width: int, bound: int) -> None:
        self.width = width
        self.bits = max(8, 1 << bound.bit_length().bit_length())
        self.shift = self.bits * width
        self._mask = (1 << self.shift) - 1
        # 2^(b-1) in every coefficient slot
        self._offset = (self._mask // ((1 << self.bits) - 1)) << (self.bits - 1)
        self._format = _SLOT_FORMATS.get(self.bits // 8)

    def pack(self, coefficients: Sequence[int], constant: int = 0) -> int:
        if len(coefficients) != self.width:
            raise ValueError(f"a form has {self.width} coefficients, got {len(coefficients)}")
        form = constant
        for c in reversed(coefficients):
            form = (form << self.bits) + c
        return form

    def unpack(self, form: int) -> tuple[list[int], int]:
        """The coefficients and the constant of a packed form.

        Adding 2^(b-1) to every slot makes each digit c + 2^(b-1), in
        [0, 2^b), with no carry between slots; flipping its top bit
        again leaves c in b-bit two's complement.
        """
        biased = form + self._offset
        size = self.bits // 8
        data = ((biased & self._mask) ^ self._offset).to_bytes(size * self.width, sys.byteorder)
        if self._format:
            coefficients = memoryview(data).cast(self._format).tolist()
        else:
            coefficients = [
                int.from_bytes(data[k : k + size], sys.byteorder, signed=True)
                for k in range(0, len(data), size)
            ]
        return coefficients, biased >> self.shift


def operator_norms(a: IntMatrix) -> tuple[int, int]:
    """The largest absolute row sum and the largest absolute column sum of a.

    If every coefficient of the forms of vec F is at most c in absolute
    value, those of vec(A F) are at most the first times c, and those of
    vec(F A) the second times c.

    >>> operator_norms(IntMatrix.from_rows([[1, -2], [0, 4]]))
    (4, 6)
    """
    absolute = IntMatrix._trusted(a.rows, a.cols, tuple(map(abs, a.entries)))
    rows, columns = map(absolute.row, range(a.rows)), map(absolute.column, range(a.cols))
    return max(map(sum, rows), default=0), max(map(sum, columns), default=0)


def product_forms(a: IntMatrix, forms: Sequence[int], left: bool) -> list[int]:
    """The forms of vec(A F) when ``left``, else of vec(F A), from the d*d forms of vec F.

    Forms are ints, packed by a ``FormPacking`` or plain, and vec is
    row-major: entry (i, j) of F is form i*d + j, as in ``IntMatrix``,
    so the product is formed by the kernel of ``IntMatrix.__matmul__``,
    with the unit pattern of A.

    >>> a = IntMatrix.from_rows([[0, 1], [2, 0]])
    >>> product_forms(a, [1, 2, 3, 4], True)
    [3, 4, 2, 4]
    >>> u = IntMatrix.from_rows([[0, 0], [1, 1]])
    >>> product_forms(u, [1, 2, 3, 4], True), product_forms(u, [1, 2, 3, 4], False)
    ([0, 0, 4, 6], [2, 2, 4, 4])
    """
    d = a.rows
    if a.cols != d or len(forms) != d * d:
        raise ValueError("vec products need a square matrix and d*d forms")
    if left:
        return _product(a.entries, forms, d, d, d, a._unit_pattern(), None)
    return _product(forms, a.entries, d, d, d, None, a._unit_pattern())


def _operator(a: IntMatrix, left: bool) -> IntMatrix:
    n = a.rows**2
    packing = FormPacking(n, max(map(abs, a.flat()), default=0))
    units = [1 << (packing.bits * e) for e in range(n)]
    rows = (packing.unpack(form)[0] for form in product_forms(a, units, left))
    return IntMatrix(n, n, tuple(itertools.chain.from_iterable(rows)))


def left_multiplication_operator(a: IntMatrix) -> IntMatrix:
    """Operator L with ``L @ vec(M) == vec(A @ M)`` in row-major vec convention."""
    return _operator(a, True)


def right_multiplication_operator(b: IntMatrix) -> IntMatrix:
    """Operator R with ``R @ vec(M) == vec(M @ B)`` in row-major vec convention."""
    return _operator(b, False)
