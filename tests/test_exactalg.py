"""Exact integer linear algebra: normal forms, solvers, quotient groups."""

import copy
import itertools
import math
import operator
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass
from types import SimpleNamespace

import pytest

from conftest import (
    cyclic_family,
    expand_forms,
    expanded_extension_system,
    kronecker_left,
    kronecker_right,
    rc3_start_off_the_cocycles,
    seeded_cocycle_start,
)
from lambdaring import cohomology, deformation, exactalg
from lambdaring.cohomology import (
    DerivationSpec,
    cocycle_space_basis,
    compute_H0,
    frobenius_compatible_basis,
    inner_derivation,
    solve_coboundary_1,
)
from lambdaring.deformation import try_extend
from lambdaring.errors import InternalInconsistency, NonIntegralDivision
from lambdaring.exactalg import (
    AbelianGroup,
    FormPacking,
    IntMatrix,
    LinearSolution,
    kernel_basis,
    left_multiplication_operator,
    product_forms,
    quotient_with_generators,
    right_multiplication_operator,
    row_space_basis,
    smith_normal_form,
    solve_forms,
    solve_linear,
)
from lambdaring.rings import preset_family


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_flat(
        rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)]
    )


def reference_determinant(m: IntMatrix) -> int:
    """Cofactor expansion, used only to cross-check the fast routine."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if not m[0, j]:
            continue
        minor = IntMatrix.from_rows(
            [
                [m[i, k] for k in range(n) if k != j]
                for i in range(1, n)
            ]
        )
        sign = -1 if j % 2 else 1
        total += sign * m[0, j] * reference_determinant(minor)
    return total


class SeedEliminator:
    """The original elimination engine: every row copied, every scan restarted.

    Kept whole as the reference that the resuming scans and the shared
    row lists of ``exactalg._Eliminator`` must reproduce step for step.
    """

    def __init__(self, matrix, *, track_u, track_v_inv, rhs=None):
        identity = lambda n: [[int(i == j) for j in range(n)] for i in range(n)]
        self.nrows = matrix.rows
        self.ncols = matrix.cols
        self.d = [list(matrix.row(i)) for i in range(matrix.rows)]
        self.u = identity(self.nrows) if track_u else None
        self.u_inv = identity(self.nrows) if track_u else None
        self.v = identity(self.ncols)
        self.v_inv = identity(self.ncols) if track_v_inv else None
        self.rhs = list(rhs) if rhs is not None else None

    def swap_rows(self, i, j):
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        if self.u is not None:
            self.u[i], self.u[j] = self.u[j], self.u[i]
            for row in self.u_inv:
                row[i], row[j] = row[j], row[i]
        if self.rhs is not None:
            self.rhs[i], self.rhs[j] = self.rhs[j], self.rhs[i]

    def add_row(self, i, j, q):
        if q == 0:
            return
        self.d[i] = [a + q * b for a, b in zip(self.d[i], self.d[j])]
        if self.u is not None:
            self.u[i] = [a + q * b for a, b in zip(self.u[i], self.u[j])]
            for row in self.u_inv:
                row[j] -= q * row[i]
        if self.rhs is not None:
            self.rhs[i] += q * self.rhs[j]

    def negate_row(self, i):
        self.d[i] = [-a for a in self.d[i]]
        if self.u is not None:
            self.u[i] = [-a for a in self.u[i]]
            for row in self.u_inv:
                row[i] = -row[i]
        if self.rhs is not None:
            self.rhs[i] = -self.rhs[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        if self.v_inv is not None:
            self.v_inv[i], self.v_inv[j] = self.v_inv[j], self.v_inv[i]

    def add_col(self, j, i, q):
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

    def diagonalize(self, *, divisibility_chain):
        return seed_diagonalize(self, divisibility_chain=divisibility_chain)


def seed_diagonalize(self, *, divisibility_chain: bool) -> int:
    """The original elimination: every scan restarts from t + 1."""
    t = 0
    limit = min(self.nrows, self.ncols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, self.nrows):
            row = self.d[i]
            for j in range(t, self.ncols):
                e = row[j]
                if e and (best is None or abs(e) < best):
                    pivot, best = (i, j), abs(e)
        if pivot is None:
            break
        self.swap_rows(t, pivot[0])
        self.swap_cols(t, pivot[1])
        while True:
            if self.d[t][t] < 0:
                self.negate_row(t)
            p = self.d[t][t]
            i = next((i for i in range(t + 1, self.nrows) if self.d[i][t]), None)
            if i is not None:
                self.add_row(i, t, -(self.d[i][t] // p))
                if self.d[i][t]:
                    self.swap_rows(t, i)
                continue
            j = next((j for j in range(t + 1, self.ncols) if self.d[t][j]), None)
            if j is not None:
                self.add_col(j, t, -(self.d[t][j] // p))
                if self.d[t][j]:
                    self.swap_cols(t, j)
                continue
            if not divisibility_chain:
                break
            stray = next(
                (
                    i
                    for i in range(t + 1, self.nrows)
                    for e in self.d[i][t + 1 :]
                    if e % p
                ),
                None,
            )
            if stray is None:
                break
            self.add_row(t, stray, 1)
        t += 1
    return t


def seed_smith_normal_form(matrix):
    """The original Smith driver, on the seed engine, with all five transforms tracked."""
    work = SeedEliminator(matrix, track_u=True, track_v_inv=True)
    work.diagonalize(divisibility_chain=True)
    n, m = work.nrows, work.ncols
    decomposition = SimpleNamespace(
        u=IntMatrix.from_flat(n, n, [e for r in work.u for e in r]),
        d=IntMatrix.from_flat(n, m, [e for r in work.d for e in r]),
        v=IntMatrix.from_flat(m, m, [e for r in work.v for e in r]),
        u_inv=IntMatrix.from_flat(n, n, [e for r in work.u_inv for e in r]),
        v_inv=IntMatrix.from_flat(m, m, [e for r in work.v_inv for e in r]),
    )
    if decomposition.u @ matrix @ decomposition.v != decomposition.d:
        raise InternalInconsistency("Smith transforms do not reproduce the diagonal form")
    return decomposition


def seed_solve_linear(matrix, rhs):
    """The original solving driver, on the seed engine."""
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    work = SeedEliminator(matrix, track_u=False, track_v_inv=False, rhs=rhs)
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
    if any(work.rhs[used:]):
        return None
    v = work.v
    particular = tuple(sum(map(operator.mul, row, y)) for row in v)
    free = [k for k in range(matrix.cols) if k >= used or work.d[k][k] == 0]
    kernel = tuple(tuple(v[i][k] for i in range(matrix.cols)) for k in free)
    return LinearSolution(particular=particular, kernel=kernel)


def sparse_unit_matrix(rng, rows, cols):
    """Tall and sparse, many +-1 entries, some rows entirely zero."""
    data = []
    for _ in range(rows):
        if rng.random() < 0.3:
            data.append([0] * cols)
            continue
        data.append(
            [rng.choice((0, 0, 0, 0, 1, -1, 1, -1, 2, -3, 5)) for _ in range(cols)]
        )
    return IntMatrix.from_rows(data)


def rank_deficient_matrix(rng, rows, cols):
    inner = rng.randint(1, max(1, min(rows, cols) - 1))
    return random_matrix(rng, rows, inner, bound=4) @ random_matrix(
        rng, inner, cols, bound=4
    )


def comparison_matrices():
    rng = random.Random(20261018)
    for _ in range(25):
        yield sparse_unit_matrix(rng, rng.randint(20, 45), rng.randint(3, 9))
    for _ in range(25):
        n = rng.randint(2, 8)
        yield random_matrix(rng, n, n + rng.randint(-1, 1))
    for _ in range(25):
        yield rank_deficient_matrix(rng, rng.randint(2, 30), rng.randint(2, 8))


def extend_shaped_rows(rng, rows, cols):
    """Tall, like the extension systems: a few distinct rows, repeated, among many zero rows.

    Equal rows are one shared tuple, as the interned system rows are.
    """
    distinct = [
        tuple(rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 6)) for _ in range(cols))
        for _ in range(rng.randint(1, 5))
    ]
    zero = (0,) * cols
    return tuple(zero if rng.random() < 0.5 else rng.choice(distinct) for _ in range(rows))


def extend_shaped_matrix(rng, rows, cols):
    return matrix_of_rows(cols, extend_shaped_rows(rng, rows, cols))


def matrix_of_rows(cols, rows):
    """The matrix with the given rows, of ``cols`` entries each; zero rows allowed."""
    return IntMatrix(len(rows), cols, tuple(e for row in rows for e in row))


def row_tuples(a):
    return tuple(map(a.row, range(a.rows)))


def swapped_in_zero_row_matrices():
    """A zero row sits at position t when the pivot row is swapped in."""
    yield IntMatrix.from_rows([[0, 0, 0], [0, 4, 2], [0, 0, 0], [1, 3, 0]])
    yield IntMatrix.from_rows([[2, 0], [0, 0], [0, 0], [4, 6], [0, 3]])
    yield IntMatrix.from_rows([[0, 0], [0, 0], [2, 0], [0, 0], [0, 5], [2, 5]])
    # row 1 becomes zero under the first pivot, then the next pivot is swapped over it
    yield IntMatrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 0], [0, 3, 3], [0, 0, 7]])


def shared_row_matrices():
    """Repeated row objects on the paths that treat copies of a row differently."""
    r, o, w = (1, 2, -1, 0), (0, 3, 1, 2), (2, 1, 0, 5)
    n = tuple(-a for a in r)
    # copies of the pivot row below it, equal and negated, with the pivot
    # row itself first as it is and then negated
    yield matrix_of_rows(4, (r, o, r, n, (0,) * 4, r, n, w))
    yield matrix_of_rows(4, (n, r, o, n, r, w, n))
    # pivot 2 with copies of a row whose entry is 3: the first copy's
    # remainder is swapped into the pivot position, so the later copies
    # get other multipliers than the first
    a, b, c = (2, 0, 4), (3, 5, 0), (0, 6, 7)
    yield matrix_of_rows(3, (a, b, c, b, b, c, b))
    yield matrix_of_rows(3, (c, b, a, b, c, b))
    # the divisibility step pulls a shared row into the pivot row
    p, s, q = (2, 0, 0), (0, 3, 0), (0, 0, 9)
    yield matrix_of_rows(3, (p, s, s, q, s, q))
    s = (0, 6, 0, 0)
    yield matrix_of_rows(4, ((4, 0, 0, 0), s, s, (0, 0, 10, 15), s))
    # in the first sweep Euclid changes the pivot at the first copy of a
    # below the pivot and again at the first copy of c: the copy of a
    # between them clears against the pivot in force there, not the last
    a, b, c = (9, -6, -6, -6), (-7, 5, -8, -4), (4, 8, -6, 9)
    yield matrix_of_rows(4, (a, b, b, a, c, c, a))


def small_shared_row_matrices(rng, count):
    """Short rows with small entries, some row object repeated.

    A Euclid swap can then change the pivot between two copies of one
    row, which must not reuse the sum formed with the earlier pivot.
    """
    for _ in range(count):
        cols = rng.randint(2, 4)
        distinct = [tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rng.randint(2, 4))]
        rows = tuple(rng.choice(distinct) for _ in range(rng.randint(len(distinct) + 1, 8)))
        yield matrix_of_rows(cols, rows)


def repeated_row_matrix(rng, cols):
    """2-6 distinct rows, each repeated up to 40 times, in a shuffled order.

    The entries have few common factors, so Euclid often swaps the pivot
    at the first copy of one row while copies of another row lie on both
    sides of it: those copies clear column t against different pivots.
    """
    values = (0, 1, -1, 2, -2, 3, -3, 5, 7, -9)
    distinct = [tuple(rng.choice(values) for _ in range(cols)) for _ in range(rng.randint(2, 6))]
    rows = [row for row in distinct for _ in range(rng.randint(1, 40))]
    rng.shuffle(rows)
    return matrix_of_rows(cols, rows)


def with_fresh_copies(rng, a, share):
    """The same matrix with some rows replaced by content-equal separate tuples."""
    rows = tuple(tuple(list(r)) if rng.random() >= share else r for r in row_tuples(a))
    return matrix_of_rows(a.cols, rows)


def degenerate_matrices():
    for shape in ((3, 4), (5, 1), (1, 5), (0, 3), (3, 0), (0, 0)):
        yield IntMatrix.zeros(*shape)


# The Smith form tracks d, v and u_inv; u and v_inv are solved for when
# read.  Every derived transform is compared on the small matrices, where
# deriving costs little; on the tall and large systems the tracked ones
# are, since u and v_inv are functions of them.
TRACKED = ("d", "v", "u_inv")
ALL_FIVE = ("u", "d", "v", "u_inv", "v_inv")


class TestEliminationMatchesSeed:
    """The resuming scans, the shared row lists and the transforms held as
    whole rows or columns take exactly the seed's path."""

    @staticmethod
    def assert_same_as_seed(a, right_hand_sides, label, transforms=ALL_FIVE):
        fast = [solve_linear(a, rhs) for rhs in right_hand_sides]
        fast_snf = smith_normal_form(a)
        slow = [seed_solve_linear(a, rhs) for rhs in right_hand_sides]
        slow_snf = seed_smith_normal_form(a)
        assert fast == slow, f"{label}: solve_linear differs"
        for name in transforms:
            assert getattr(fast_snf, name) == getattr(slow_snf, name), (
                f"{label}: {name} differs"
            )
        return fast

    def test_solutions_and_normal_forms_equal_the_reference(self):
        rng = random.Random(5)
        for trial, a in enumerate(comparison_matrices()):
            x = tuple(rng.randint(-3, 3) for _ in range(a.cols))
            right_hand_sides = [a.apply(x), tuple(rng.randint(-2, 2) for _ in range(a.rows))]
            fast = self.assert_same_as_seed(a, right_hand_sides, f"trial {trial}")
            assert fast[0] is not None

    def test_extend_shaped_systems_equal_the_reference(self):
        rng = random.Random(20261019)
        for trial in range(30):
            a = extend_shaped_matrix(rng, rng.randint(10, 80), rng.randint(2, 9))
            x = tuple(rng.randint(-3, 3) for _ in range(a.cols))
            right_hand_sides = [
                a.apply(x),
                tuple(rng.randint(-1, 1) if any(row) else 0 for row in row_tuples(a)),
                tuple(rng.randint(-1, 1) for _ in range(a.rows)),
            ]
            fast = self.assert_same_as_seed(a, right_hand_sides, f"trial {trial}", TRACKED)
            assert fast[0] is not None

    def test_rows_repeated_up_to_forty_times_equal_the_reference(self):
        rng = random.Random(20261023)
        for trial in range(40):
            a = repeated_row_matrix(rng, rng.randint(2, 6))
            consistent = a.apply(tuple(rng.randint(-3, 3) for _ in range(a.cols)))
            perturbed = list(consistent)
            perturbed[rng.randrange(a.rows)] += rng.choice((-1, 1, 2))
            right_hand_sides = [
                consistent,
                tuple(perturbed),
                tuple(rng.randint(-2, 2) for _ in range(a.rows)),
            ]
            fast = self.assert_same_as_seed(a, right_hand_sides, f"trial {trial}", TRACKED)
            assert fast[0] is not None

    def test_zero_rows_swapped_out_of_the_pivot_position(self):
        for k, a in enumerate(swapped_in_zero_row_matrices()):
            x = tuple(range(1, a.cols + 1))
            fast = self.assert_same_as_seed(a, [a.apply(x)], f"case {k}")
            assert a.apply(fast[0].particular) == a.apply(x)

    def test_zero_and_empty_matrices(self):
        for a in degenerate_matrices():
            label = f"{a.rows}x{a.cols}"
            (fast,) = self.assert_same_as_seed(a, [(0,) * a.rows], label)
            assert fast.particular == (0,) * a.cols, label
            assert len(fast.kernel) == a.cols, label
            if a.rows:
                assert solve_linear(a, (1,) + (0,) * (a.rows - 1)) is None, label

    def test_shared_rows_on_every_path(self):
        cases = itertools.chain(
            shared_row_matrices(), small_shared_row_matrices(random.Random(20261021), 80)
        )
        for k, a in enumerate(cases):
            assert len(set(row_tuples(a))) < a.rows
            x = tuple(range(2, a.cols + 2))
            right_hand_sides = [a.apply(x), tuple(range(a.rows))]
            fast = self.assert_same_as_seed(a, right_hand_sides, f"case {k}")
            assert a.apply(fast[0].particular) == a.apply(x)

    def test_answers_do_not_depend_on_which_rows_are_shared(self):
        rng = random.Random(20261020)
        cases = list(shared_row_matrices())
        cases += [extend_shaped_matrix(rng, rng.randint(10, 60), rng.randint(2, 7)) for _ in range(15)]
        for k, shared in enumerate(cases):
            x = tuple(rng.randint(-3, 3) for _ in range(shared.cols))
            right_hand_sides = [shared.apply(x), tuple(rng.randint(-1, 1) for _ in range(shared.rows))]
            answers = []
            for share in (1.0, 0.5, 0.0):
                a = with_fresh_copies(rng, shared, share)
                assert a == shared
                fast = self.assert_same_as_seed(a, right_hand_sides, f"case {k}", TRACKED)
                answers.append((fast, smith_normal_form(a)))
            assert answers[0] == answers[1] == answers[2], f"case {k}"

    def test_rc3_extension_equals_the_reference(self):
        start = seeded_cocycle_start("RC3", 1)
        fast = try_extend(start, 3)
        _, system, rhs = expanded_extension_system(start, 3)
        slow = DerivationSpec.from_x_coordinates(
            start.family, seed_solve_linear(system, rhs).particular
        )
        assert fast.succeeded and fast.equations == 3249
        for p in start.family.universe.primes:
            assert fast.extended.series(p)[2] == slow.value(p)

    # the seed engine takes seconds on the 10,404 rows of RC3 at bound 4
    @pytest.mark.parametrize("preset, seed, bound", [("RC3", 2, 3), ("RC3", 3, 3), ("RC2", 1, 4)])
    def test_extension_systems_solve_like_the_seed(self, preset, seed, bound):
        _, system, rhs = expanded_extension_system(seeded_cocycle_start(preset, seed), bound)
        assert len(set(row_tuples(system))) < system.rows
        fast = solve_linear(system, rhs)
        assert fast is not None
        assert fast == seed_solve_linear(system, rhs)

    def test_a_column_swap_moves_a_cached_least_entry(self, monkeypatch):
        # step 0 takes the 1 in column 2 and swaps columns 0 and 2, which
        # moves the least entries of rows 1 and 3 (2 and 4) from column 0
        # to column 2; step 1 then takes row 1's 2 from its new column
        a = IntMatrix.from_rows([[3, 0, 1, 4], [2, 5, 0, 7], [0, 3, 0, 6], [4, 0, 0, 9]])
        fast = self.assert_same_as_seed(a, [a.apply((1, -2, 3, 1)), (1, 0, 2, 0)], "hand case")
        assert fast[0] is not None
        swaps = []
        swap_cols = exactalg._Eliminator.swap_cols

        def record(work, i, j, pivot):
            swaps.append((i, j))
            swap_cols(work, i, j, pivot)

        monkeypatch.setattr(exactalg._Eliminator, "swap_cols", record)
        solve_linear(a, (1, 0, 2, 0))
        assert swaps[:2] == [(0, 2), (1, 2)]

    def test_a_row_operation_lowers_a_cached_least_entry(self):
        # the first sweep turns row 2 into (0, 1, 2, 0): its least entry
        # falls from 2 to 1 while a 2 stays, so step 1 takes it ahead of
        # row 1, whose least entry is 2, only if its value was recomputed
        a = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 2, 2], [2, 3, 2, 0]])
        fast = self.assert_same_as_seed(a, [a.apply((1, 2, 3, 4)), (0, 2, 1)], "hand case")
        assert fast[0] is not None

    # the sparse systems the cohomology jobs solve, from the library's builders
    @pytest.mark.parametrize(
        "family",
        [
            cyclic_family(4, (2, 3, 5, 7)),
            cyclic_family(5, (2, 3, 5, 7)),
            preset_family("RC3", (2, 3, 5, 7, 11, 13)),
        ],
        ids=["ZC4", "ZC5", "RC3"],
    )
    def test_compatibility_systems_equal_the_reference(self, family):
        a, _ = expand_forms(*cohomology._compatible_system(family, exact=True))
        rng = random.Random(a.rows)
        x = tuple(rng.randint(-3, 3) for _ in range(a.cols))
        noise = tuple(rng.randint(-1, 1) for _ in range(a.rows))
        right_hand_sides = [(0,) * a.rows, a.apply(x), noise]
        fast = self.assert_same_as_seed(a, right_hand_sides, family.ring.name, TRACKED)
        assert fast[0] is not None and fast[1] is not None

    def test_h1_solves_and_relation_matrix_equal_the_reference(self, monkeypatch):
        solves, relations = [], []
        solve, quotient = cohomology.solve_linear, cohomology.quotient_with_generators
        with monkeypatch.context() as patch:
            patch.setattr(
                cohomology, "solve_linear", lambda a, rhs: solves.append((a, rhs)) or solve(a, rhs)
            )
            patch.setattr(
                cohomology, "quotient_with_generators", lambda r: relations.append(r) or quotient(r)
            )
            cohomology.compute_H1(cyclic_family(5, (2, 3, 5)))
        assert len(solves) == 25
        for k, (a, rhs) in enumerate(solves):
            assert solve_linear(a, rhs) == seed_solve_linear(a, rhs), f"image {k}"
        (relation,) = relations
        fast, slow = smith_normal_form(relation), seed_smith_normal_form(relation)
        for name in TRACKED:
            assert getattr(fast, name) == getattr(slow, name), name

    def test_interned_rows_build_the_same_matrix(self):
        rng = random.Random(3)
        for _ in range(10):
            rows = extend_shaped_rows(rng, 40, 6)
            copies = tuple(tuple(list(r)) for r in rows)
            shared, fresh = matrix_of_rows(6, rows), matrix_of_rows(6, copies)
            assert len({id(r) for r in rows}) < len({id(r) for r in copies})
            assert shared == fresh
            assert hash(shared) == hash(fresh)
            assert repr(shared) == repr(fresh)


@dataclass(frozen=True)
class SeedIntMatrix:
    """The dataclass matrix with its shape validated on every result.

    Kept as the reference that the slotted ``IntMatrix`` must reproduce
    value for value.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    def transpose(self) -> "SeedIntMatrix":
        data = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return SeedIntMatrix(self.cols, self.rows, data)

    def __add__(self, other):
        return SeedIntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(map(operator.add, r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __sub__(self, other):
        return SeedIntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(map(operator.sub, r, s)) for r, s in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        return SeedIntMatrix(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.entries))

    def __rmul__(self, k):
        return SeedIntMatrix(
            self.rows, self.cols, tuple(tuple(k * a for a in r) for r in self.entries)
        )

    def __matmul__(self, other):
        cols_t = other.transpose().entries
        data = tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols_t) for row in self.entries
        )
        return SeedIntMatrix(self.rows, other.cols, data)

    def apply(self, vector):
        return tuple(sum(map(operator.mul, row, vector)) for row in self.entries)

    def exact_divide(self, k):
        if k == 0:
            raise ZeroDivisionError("exact_divide by zero")
        if not all(a % k == 0 for row in self.entries for a in row):
            raise NonIntegralDivision(f"matrix is not divisible by {k}")
        return SeedIntMatrix(self.rows, self.cols, tuple(tuple(a // k for a in r) for r in self.entries))


def matrix_pair(rng, rows, cols, bound=9):
    """The same random entries as a lean and as a reference matrix."""
    data = tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))
    return matrix_of_rows(cols, data), SeedIntMatrix(rows, cols, data)


def same(lean, ref) -> bool:
    """The lean matrix holds the reference's fields, its entries read row-major."""
    fields = (ref.rows, ref.cols, tuple(e for row in ref.entries for e in row))
    return (
        type(lean) is IntMatrix
        and (lean.rows, lean.cols, lean.entries) == fields
        and hash(lean) == hash(fields)
        and repr(lean) == "IntMatrix(rows={!r}, cols={!r}, entries={!r})".format(*fields)
    )


@pytest.fixture
def checked_solves(monkeypatch):
    """The library's solve_forms calls, each checked against solve_linear.

    solve_linear runs on the expanded matrix and right-hand side, and
    the two must give equal LinearSolutions or both None.  Each call
    records its number of forms and whether it had a solution.
    """
    calls = []

    def checked(packing, forms):
        solution = solve_forms(packing, forms)
        assert solution == solve_linear(*expand_forms(packing, forms))
        calls.append((len(forms), solution is not None))
        return solution

    for module in (cohomology, deformation):
        monkeypatch.setattr(module, "solve_forms", checked)
    return calls


class TestSolveFormsMatchesSolveLinear:
    """Every system the library builds solves alike as forms and as a matrix."""

    def test_random_forms_with_repeats(self):
        rng = random.Random(20261021)
        outcomes = set()
        for trial in range(120):
            width, bound = rng.randint(0, 6), rng.choice([1, 9, 200, 2**40])
            packing = FormPacking(width, bound)
            x = [rng.randint(-3, 3) for _ in range(width)]
            distinct = []
            for _ in range(rng.randint(1, 8)):
                row = [rng.choice((0, rng.randint(-bound, bound))) for _ in range(width)]
                rhs = sum(map(operator.mul, row, x)) + (rng.random() < 0.1) * rng.randint(-2, 2)
                distinct.append(packing.pack(row, -rhs))
            forms = [rng.choice(distinct) for _ in range(rng.randint(0, 30))]
            solution = solve_forms(packing, forms)
            assert solution == solve_linear(*expand_forms(packing, forms)), trial
            outcomes.add(solution is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "family",
        [
            preset_family("Z", (2,)),
            preset_family("RC3", (2, 3, 5)),
            preset_family("RC3", (2, 3, 5, 7, 11, 13)),
            cyclic_family(4, (2, 3, 5, 7)),
            cyclic_family(5, (2, 3, 5)),
            cyclic_family(5, (2, 3, 5, 7)),
        ],
        ids=["Z-1p", "RC3-3p", "RC3-6p", "ZC4-4p", "ZC5-3p", "ZC5-4p"],
    )
    def test_frobenius_and_h0_systems(self, family, checked_solves):
        frobenius_compatible_basis(family)
        compute_H0(family)
        d2, k = family.rank**2, len(family.universe.primes)
        assert checked_solves == [(k * d2, True), (2 * k * d2, True)]

    @pytest.mark.parametrize("primes", [(2,), (2, 3, 5), (2, 3, 5, 7)])
    def test_cocycle_relations(self, primes, checked_solves):
        # one prime has no pair of primes, so no relation at all
        for family in (preset_family("RC3", primes), cyclic_family(4, primes)):
            checked_solves.clear()
            assert len(cocycle_space_basis(family)) >= len(primes)
            pairs = len(primes) * (len(primes) - 1) // 2
            assert checked_solves == [(pairs * family.rank**2, True)]

    @pytest.mark.parametrize(
        "family", [preset_family("RC3", (2, 3, 5)), cyclic_family(4, (2, 3, 5))], ids=["RC3", "ZC4"]
    )
    def test_coboundary_solves(self, family, checked_solves):
        huge = 10**9999 + 1  # 10^4 digits
        compatible = frobenius_compatible_basis(family)
        inner = inner_derivation(family, sum(compatible[1:], compatible[0]))
        rng = random.Random(family.rank)
        off = DerivationSpec(
            family,
            {
                p: p * IntMatrix.from_flat(
                    family.rank, family.rank, [rng.randint(-2, 2) for _ in range(family.rank**2)]
                )
                for p in family.universe.primes
            },
        )
        assert not off.is_cocycle()
        targets = [inner, inner.scale(huge), off, off.scale(huge)]
        targets += [c.scale(e) for c in cocycle_space_basis(family) for e in (1, huge)]
        checked_solves.clear()
        witnesses = [solve_coboundary_1(family, target) for target in targets]
        assert [w is not None for w in witnesses[:4]] == [True, True, False, False]
        assert None in witnesses[4:]
        assert [solved for _, solved in checked_solves] == [w is not None for w in witnesses]
        for target, witness in zip(targets, witnesses):
            if witness is not None:
                assert inner_derivation(family, witness) == target

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_extension_systems(self, bound, checked_solves):
        starts = [seeded_cocycle_start("RC3", seed) for seed in (1, 2)]
        checked_solves.clear()
        for start in starts:
            result = try_extend(start, bound)
            assert result.succeeded
        assert checked_solves == [(result.equations, True)] * 2

    def test_an_extension_start_off_the_cocycles(self, checked_solves):
        start = rc3_start_off_the_cocycles()
        for bound in (2, 3):
            assert not try_extend(start, bound).succeeded
        assert checked_solves == [(225, False), (9 * 9**2, False)]


class TestLeanCoreMatchesSeed:
    """Results built without validation equal the validated reference."""

    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (2, 5), (5, 3)]

    def test_arithmetic_equals_the_reference(self):
        rng = random.Random(20261018)
        for trial in range(40):
            rows, cols = self.SHAPES[trial % len(self.SHAPES)]
            inner = rng.choice((0, 1, 2, 3))
            a, ra = matrix_pair(rng, rows, cols)
            b, rb = matrix_pair(rng, rows, cols)
            c, rc = matrix_pair(rng, cols, inner)
            k = rng.choice((-3, -1, 0, 1, 2, 7))
            assert same(a @ c, ra @ rc), trial
            assert same(a + b, ra + rb), trial
            assert same(a - b, ra - rb), trial
            assert same(-a, -ra), trial
            assert same(k * a, k * ra), trial
            assert same(a.transpose(), ra.transpose()), trial
            assert same(a.transpose() @ b, ra.transpose() @ rb), trial
            x = tuple(rng.randint(-5, 5) for _ in range(cols))
            assert a.apply(x) == ra.apply(x), trial
            divisor = rng.choice((-2, 1, 3))
            assert same((divisor * a).exact_divide(divisor), (divisor * ra).exact_divide(divisor))
            if any(e % 4 for e in a.entries):
                with pytest.raises(NonIntegralDivision):
                    a.exact_divide(4)
                with pytest.raises(NonIntegralDivision):
                    ra.exact_divide(4)
            with pytest.raises(ZeroDivisionError):
                a.exact_divide(0)

    def test_equality_and_hash_follow_the_entries(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a == IntMatrix(2, 2, (1, 2, 3, 4))
        assert a != a.transpose()
        assert a != SeedIntMatrix(2, 2, row_tuples(a))
        assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(3, 0)
        assert len({a, a @ IntMatrix.identity(2), a.transpose()}) == 2
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntMatrix(-1, 0, ())
        with pytest.raises(ValueError, match="nonnegative"):
            IntMatrix.zeros(2, -1)
        with pytest.raises(ValueError, match="expected 2 entries"):
            IntMatrix(2, 1, (1,))
        with pytest.raises(ValueError, match="expected 4 entries"):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix.from_flat(2, 2, [1, 2, 3])

    def test_matrices_are_frozen(self):
        a = IntMatrix.identity(2)
        with pytest.raises(FrozenInstanceError):
            a.rows = 3
        with pytest.raises(FrozenInstanceError):
            a.entries = ()
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(FrozenInstanceError):
            del a.cols
        assert a == IntMatrix.identity(2)


def unit_column_pair(rng, rows, cols):
    """A random matrix whose every column is a unit vector, lean and reference.

    The 1s may share rows, so the pattern need not be a permutation.
    """
    ones = [rng.randrange(rows) for _ in range(cols)] if rows else []
    data = tuple(tuple(int(ones[j] == i) for j in range(cols)) for i in range(rows))
    return matrix_of_rows(cols, data), SeedIntMatrix(rows, cols, data)


def near_miss(matrix, rng, kind):
    """The matrix with one column one entry away from a unit vector."""
    rows = [list(row) for row in row_tuples(matrix)]
    j = rng.randrange(matrix.cols)
    i = next(i for i in range(matrix.rows) if rows[i][j] == 1)
    if kind == "second 1":
        i = rng.choice([k for k in range(matrix.rows) if k != i])
    rows[i][j] = {"0": 0, "-1": -1, "2": 2, "second 1": 1}[kind]
    data = tuple(tuple(row) for row in rows)
    return matrix_of_rows(matrix.cols, data), SeedIntMatrix(matrix.rows, matrix.cols, data)


class TestUnitColumnProducts:
    """Products with a unit-column factor take no arithmetic and equal the reference."""

    SHAPES = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (3, 4, 2), (4, 3, 5), (5, 5, 5), (2, 1, 3)]

    def test_a_unit_column_factor_on_either_side(self):
        rng = random.Random(20261019)
        for trial in range(60):
            rows, inner, cols = self.SHAPES[trial % len(self.SHAPES)]
            left, ref_left = unit_column_pair(rng, rows, inner)
            right, ref_right = unit_column_pair(rng, inner, cols)
            a, ra = matrix_pair(rng, rows, inner)
            b, rb = matrix_pair(rng, inner, cols)
            assert same(left @ b, ref_left @ rb), trial
            assert same(a @ right, ra @ ref_right), trial
            assert same(left @ right, ref_left @ ref_right), trial
            # the pattern is kept, so a second product takes it from the slot
            assert same(left @ b, ref_left @ rb), trial
            assert same(a @ right, ra @ ref_right), trial

    @pytest.mark.parametrize("kind", ["0", "-1", "2", "second 1"])
    def test_columns_one_entry_from_a_unit_vector(self, kind):
        rng = random.Random(f"near-miss:{kind}")
        for trial in range(40):
            rows, inner, cols = self.SHAPES[trial % len(self.SHAPES)]
            if kind == "second 1" and inner < 2:
                continue
            unit, _ = unit_column_pair(rng, inner, inner)
            left, ref_left = near_miss(unit, rng, kind)
            a, ra = matrix_pair(rng, rows, inner)
            b, rb = matrix_pair(rng, inner, cols)
            assert same(left @ b, ref_left @ rb), trial
            assert same(a @ left, ra @ ref_left), trial
            assert same(left @ left, ref_left @ ref_left), trial

    def test_empty_and_one_by_one_shapes(self):
        rng = random.Random(7)
        for rows, inner, cols in [(0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0), (2, 0, 0), (0, 2, 0)]:
            a, ra = matrix_pair(rng, rows, inner)
            b, rb = matrix_pair(rng, inner, cols)
            assert same(a @ b, ra @ rb), (rows, inner, cols)
            assert same(b.transpose() @ a.transpose(), rb.transpose() @ ra.transpose())
        for entry in (-2, -1, 0, 1, 2):
            one, ref_one = IntMatrix(1, 1, (entry,)), SeedIntMatrix(1, 1, ((entry,),))
            for other in (-3, 0, 1, 5):
                b, rb = IntMatrix(1, 1, (other,)), SeedIntMatrix(1, 1, ((other,),))
                assert same(one @ b, ref_one @ rb), (entry, other)
                assert same(b @ one, rb @ ref_one), (entry, other)

    def test_a_kept_pattern_leaves_the_value_semantics_alone(self):
        rng = random.Random(11)
        unit, _ = unit_column_pair(rng, 3, 3)
        plain = random_matrix(rng, 3, 3)
        fresh_unit = IntMatrix(3, 3, unit.entries)
        fresh_plain = IntMatrix(3, 3, plain.entries)
        unit @ plain
        plain @ unit
        assert unit._unit_rows is not None and plain._unit_rows is None
        for kept, fresh in ((unit, fresh_unit), (plain, fresh_plain)):
            assert kept == fresh and hash(kept) == hash(fresh)
            assert repr(kept) == repr(fresh)
            assert pickle.dumps(kept) == pickle.dumps(fresh)
            copied = pickle.loads(pickle.dumps(kept))
            assert copied == kept and repr(copied) == repr(kept)
            deep = copy.deepcopy(kept)
            assert deep == kept and hash(deep) == hash(kept)
            assert deep @ fresh_plain == fresh @ fresh_plain
            with pytest.raises(FrozenInstanceError):
                kept.rows = 4
            with pytest.raises(FrozenInstanceError):
                kept._unit_rows = None
            with pytest.raises(FrozenInstanceError):
                del kept._unit_rows
            assert kept == fresh


class TestInternalChecks:
    def test_smith_check_raises_on_a_broken_transform(self, monkeypatch):
        original = exactalg._Eliminator.diagonalize
        # v and u_inv are held as columns: [1][0] is entry (0, 1)
        for transform in ("v", "u_inv"):

            def corrupted(self):
                used = original(self)
                getattr(self, transform)[1][0] += 1
                return used

            with monkeypatch.context() as patch:
                patch.setattr(exactalg._Eliminator, "diagonalize", corrupted)
                with pytest.raises(InternalInconsistency):
                    smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))

    def test_kernel_check_raises_when_the_solver_fails(self, monkeypatch):
        monkeypatch.setattr(exactalg, "solve_linear", lambda matrix, rhs: None)
        with pytest.raises(InternalInconsistency):
            kernel_basis(IntMatrix.identity(2))

    def test_homogeneous_forms_with_no_solution_raise(self, monkeypatch):
        family = preset_family("RC2", (2, 3))
        target = inner_derivation(family, IntMatrix.identity(2))
        monkeypatch.setattr(cohomology, "solve_forms", lambda packing, forms: None)
        for homogeneous in (compute_H0, frobenius_compatible_basis, cocycle_space_basis):
            with pytest.raises(InternalInconsistency):
                homogeneous(family)
        # a coboundary solve is not homogeneous: no solution means no witness
        assert solve_coboundary_1(family, target) is None


class TestIntMatrix:
    def test_arithmetic(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a + b).flat() == (1, 3, 4, 4)
        assert (a - a).is_zero
        assert (-a).flat() == (-1, -2, -3, -4)
        assert (2 * a).flat() == (2, 4, 6, 8)
        assert (a @ b).flat() == (2, 1, 4, 3)
        assert a.apply((1, 0)) == (1, 3)
        assert a.transpose().flat() == (1, 3, 2, 4)

    def test_divisibility_helpers(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert m.is_divisible_by(2)
        assert not m.is_divisible_by(4)
        assert not m.is_divisible_by(3)
        assert m.exact_divide(2).flat() == (1, 2, 3, 4)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2, 2), (1, 4)])
    def test_indices_read_as_a_tuple_of_rows_would(self, shape):
        # the flat layout must not let an index past a row's end read the
        # next row, nor an index past the last row read nothing
        rows, cols = shape
        nested = tuple(tuple(range(i * cols + 1, i * cols + cols + 1)) for i in range(rows))
        m = IntMatrix.from_rows(nested)

        def outcome(read):
            try:
                return read()
            except IndexError:
                return IndexError

        indices = (-rows - 1, -cols - 1, -1, 0, 1, rows, cols)
        for i in indices:
            assert outcome(lambda: m.row(i)) == outcome(lambda: nested[i]), i
            for j in indices:
                want = outcome(lambda: nested[i][j])
                assert outcome(lambda: m[i, j]) == want, (i, j)
        for j in indices:
            want = outcome(lambda: tuple(row[j] for row in nested))
            assert outcome(lambda: m.column(j)) == want, j
        assert outcome(lambda: m[0, cols]) is IndexError
        assert outcome(lambda: m.row(rows)) is IndexError
        assert outcome(lambda: m.column(cols)) is IndexError

    def test_shape_errors(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[1], [2]])
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            b @ b


class TestSmithNormalForm:
    def test_fuzz_decomposition(self):
        rng = random.Random(20260822)
        for trial in range(300):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = random_matrix(rng, rows, cols)
            dec = smith_normal_form(a)
            product = dec.u @ a @ dec.v
            assert product == dec.d, f"trial {trial}: U A V != D"
            # D is diagonal with a nonnegative divisibility chain.
            diag = dec.diagonal
            for i in range(dec.d.rows):
                for j in range(dec.d.cols):
                    if i != j:
                        assert dec.d[i, j] == 0
            for i, entry in enumerate(diag):
                assert entry >= 0
                if i and diag[i - 1]:
                    assert entry % diag[i - 1] == 0
                if i and diag[i - 1] == 0:
                    assert entry == 0
            # The transforms are inverse pairs of determinant +-1.
            assert dec.u @ dec.u_inv == IntMatrix.identity(rows)
            assert dec.v @ dec.v_inv == IntMatrix.identity(cols)
            assert reference_determinant(dec.u) in (1, -1)
            assert reference_determinant(dec.v) in (1, -1)

    def test_known_invariants(self):
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(a).diagonal == (2, 2, 156)

    def test_derived_transforms_are_solved_once_on_read(self, monkeypatch):
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        dec = smith_normal_form(a)
        assert "u" not in vars(dec) and "v_inv" not in vars(dec)
        # derived by a private elimination, so a traced solve_linear sees no call
        monkeypatch.setattr(exactalg, "solve_linear", None)
        u, v_inv = dec.u, dec.v_inv
        assert dec.u is u and dec.v_inv is v_inv
        assert u @ dec.u_inv == dec.v @ v_inv == IntMatrix.identity(3)
        # a transform that is not unimodular, singular or not, has no integer inverse
        for broken in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 1]]):
            broken = IntMatrix.from_rows(broken)
            dec = exactalg.SmithDecomposition(d=IntMatrix.identity(2), v=broken, u_inv=broken)
            for name in ("u", "v_inv"):
                with pytest.raises(InternalInconsistency):
                    getattr(dec, name)

    def test_zero_and_identity(self):
        assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
        assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            a = IntMatrix.zeros(rows, cols)
            dec = smith_normal_form(a)
            assert dec.u @ a @ dec.v == dec.d == a
            assert dec.u == dec.u_inv == IntMatrix.identity(rows)
            assert dec.v == dec.v_inv == IntMatrix.identity(cols)
            assert dec.diagonal == ()


    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(31)
        for trial in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, rows, cols)
            if trial % 3 == 1:
                a = rank_deficient_matrix(rng, rows + 1, cols + 1)
            elif trial % 3 == 2:
                # Scaled rows force torsion beyond the first invariant.
                a = IntMatrix.from_rows(
                    [[(i + 2) * e for e in a.row(i)] for i in range(a.rows)]
                )
            ours = smith_normal_form(a).diagonal
            reference = sympy_snf(sympy.Matrix(a.rows, a.cols, a.entries), domain=sympy.ZZ)
            theirs = tuple(abs(int(reference[i, i])) for i in range(min(a.rows, a.cols)))
            assert ours == theirs, f"trial {trial}: {a.entries}"


class TestSolveLinear:
    def test_consistent_fuzz(self):
        rng = random.Random(99)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, bound=5)
            x = tuple(rng.randint(-4, 4) for _ in range(cols))
            rhs = a.apply(x)
            sol = solve_linear(a, rhs)
            assert sol is not None
            assert a.apply(sol.particular) == rhs
            for k in sol.kernel:
                assert a.apply(k) == (0,) * rows

    def test_kernel_rank(self):
        rng = random.Random(41)
        for _ in range(100):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, bound=5)
            rank = smith_normal_form(a).rank
            assert len(kernel_basis(a)) == cols - rank

    def test_no_rational_solution(self):
        a = IntMatrix.from_rows([[1, 0], [1, 0]])
        assert solve_linear(a, (1, 2)) is None

    def test_no_integral_solution(self):
        a = IntMatrix.from_rows([[2]])
        assert solve_linear(a, (3,)) is None

    def test_underdetermined(self):
        a = IntMatrix.from_rows([[3, 5]])
        sol = solve_linear(a, (1,))
        assert sol is not None
        assert 3 * sol.particular[0] + 5 * sol.particular[1] == 1
        assert len(sol.kernel) == 1

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve_linear(IntMatrix.identity(2), (1,))

    def test_against_sympy(self):
        # A x == b has an integer solution exactly when A and [A | b] have
        # the same rank and the same product of nonzero invariant factors.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        def rank_and_divisor(rows):
            m = sympy.Matrix(rows)
            if not m.rows or not m.cols:
                return 0, 1
            diagonal = sympy_snf(m, domain=sympy.ZZ).diagonal()
            nonzero = [abs(int(e)) for e in diagonal if e != 0]
            return m.rank(), math.prod(nonzero)

        rng = random.Random(20261020)
        solvable = 0
        for trial in range(30):
            if trial % 3 == 0:
                a = sparse_unit_matrix(rng, rng.randint(15, 40), rng.randint(2, 7))
            elif trial % 3 == 1:
                a = extend_shaped_matrix(rng, rng.randint(15, 40), rng.randint(2, 7))
            else:
                a = rank_deficient_matrix(rng, rng.randint(2, 7), rng.randint(2, 7))
            if trial % 2:
                rhs = a.apply(tuple(rng.randint(-3, 3) for _ in range(a.cols)))
            else:
                rhs = tuple(rng.choice((0, 0, 1, -2)) for _ in range(a.rows))
            ours = solve_linear(a, rhs)
            rows = [list(r) for r in row_tuples(a)]
            expected = rank_and_divisor(rows) == rank_and_divisor(
                [r + [b] for r, b in zip(rows, rhs)]
            )
            assert (ours is not None) == expected, f"trial {trial}"
            if ours is None:
                continue
            solvable += 1
            assert a.apply(ours.particular) == rhs, f"trial {trial}"
            rank = sympy.Matrix(rows).rank()
            assert len(ours.kernel) == a.cols - rank, f"trial {trial}"
            for k in ours.kernel:
                assert a.apply(k) == (0,) * a.rows, f"trial {trial}"
            if ours.kernel:
                # a basis of the whole integer kernel: independent and saturated
                assert rank_and_divisor([list(k) for k in ours.kernel]) == (
                    len(ours.kernel),
                    1,
                ), f"trial {trial}"
        assert 15 <= solvable < 30


class TestRowSpace:
    def test_membership_preserved(self):
        rng = random.Random(1234)
        for _ in range(50):
            width = rng.randint(1, 4)
            count = rng.randint(0, 5)
            vectors = [
                tuple(rng.randint(-4, 4) for _ in range(width))
                for _ in range(count)
            ]
            basis = row_space_basis(vectors, width)
            original = IntMatrix.from_columns(vectors, width) if vectors else IntMatrix.zeros(width, 0)
            reduced = IntMatrix.from_columns(basis, width) if basis else IntMatrix.zeros(width, 0)
            # Every original vector lies in the span of the basis and back.
            for v in vectors:
                assert solve_linear(reduced, v) is not None
            for b in basis:
                assert solve_linear(original, b) is not None
            # The basis is independent: as many elements as the rank.
            assert len(basis) == smith_normal_form(original).rank


class TestQuotients:
    def test_textbook_example(self):
        relations = IntMatrix.from_rows([[2, 0], [0, 3]])
        group, gens = quotient_with_generators(relations)
        assert group == AbelianGroup(0, (6,))
        assert group.render() == "Z/6"
        assert len(gens) == 1 and gens[0].order == 6

    def test_free_part(self):
        group = quotient_with_generators(IntMatrix.zeros(3, 0))[0]
        assert group == AbelianGroup(3, ())

    def test_mixed(self):
        relations = IntMatrix.from_rows([[2, 0], [0, 0], [0, 4]])
        group, gens = quotient_with_generators(relations)
        assert group.free_rank == 1
        assert group.torsion == (2, 4)
        orders = sorted(g.order for g in gens)
        assert orders == [0, 2, 4]

    def test_generator_orders_are_honest(self):
        # order * vector must fall in the relation span; the vector itself
        # must not (for torsion > 1), and free generators must avoid it
        # entirely.
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 4)
            cols = rng.randint(0, 4)
            relations = random_matrix(rng, n, cols, bound=4) if cols else IntMatrix.zeros(n, 0)
            group, gens = quotient_with_generators(relations)
            for g in gens:
                if g.order:
                    scaled = tuple(g.order * c for c in g.vector)
                    assert solve_linear(relations, scaled) is not None
                    assert solve_linear(relations, g.vector) is None
                else:
                    assert solve_linear(relations, g.vector) is None

    def test_group_invariants_validated(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())


class TestFormPacking:
    @pytest.mark.parametrize("width", [0, 1, 5, 27])
    def test_slots_are_exact_at_their_limits(self, width):
        rng = random.Random(width)
        for bound in (0, 1, 127, 128, 2**15, 2**63 - 1, 2**63, 2**100):
            packing = FormPacking(width, bound)
            bits = packing.bits
            assert bits >= 8 and bits & (bits - 1) == 0 and 2 ** (bits - 1) > bound
            assert bits == 8 or 2 ** (bits // 2 - 1) <= bound
            top = 2 ** (bits - 1) - 1
            constant = rng.choice([-1, 1]) * rng.randrange(10**9999, 10**10000)
            assert 10**9999 <= abs(constant) < 10**10000  # 10^4 digits
            for coefficients in (
                [top] * width,
                [-top] * width,
                [top if e % 2 else -top for e in range(width)],
                [rng.randint(-top, top) for _ in range(width)],
            ):
                for c in (0, 1, -1, top, -top, constant):
                    form = packing.pack(coefficients, c)
                    assert packing.unpack(form) == (coefficients, c), (bits, c)

    def test_a_form_is_its_int(self):
        packing = FormPacking(3, 10)
        x = packing.pack([1, -2, 3], 4)
        y = packing.pack([-5, 0, 1], -1)
        assert packing.unpack(2 * x - 3 * y) == ([17, -4, 3], 11)
        assert packing.pack([0, 0, 0], 9) == 9 << packing.shift
        assert packing.pack([0, 1, 0]) == 1 << packing.bits
        with pytest.raises(ValueError):
            packing.pack([1, 2])

    def test_operator_norms_bound_the_products(self):
        rng = random.Random(20)
        for _ in range(30):
            d = rng.randint(1, 4)
            a = random_matrix(rng, d, d)
            f = random_matrix(rng, d, d)
            c = max(map(abs, f.flat()))
            by_rows, by_columns = exactalg.operator_norms(a)
            assert max(map(abs, (a @ f).flat())) <= by_rows * c
            assert max(map(abs, (f @ a).flat())) <= by_columns * c


class TestMultiplicationOperators:
    def test_vectorized_products(self):
        rng = random.Random(17)
        for _ in range(40):
            d = rng.randint(1, 3)
            a = random_matrix(rng, d, d, bound=5)
            m = random_matrix(rng, d, d, bound=5)
            vec = m.flat()
            left = left_multiplication_operator(a)
            right = right_multiplication_operator(a)
            assert left.apply(vec) == (a @ m).flat()
            assert right.apply(vec) == (m @ a).flat()

    def test_product_forms_equal_the_kronecker_operators(self):
        # the forms of vec(A F) and vec(F A) are the operators times the forms of vec F
        rng = random.Random(18)
        for trial in range(60):
            d, width = rng.randint(1, 4), rng.randint(1, 5)
            a = random_matrix(rng, d, d, bound=2)
            forms = random_matrix(rng, d * d, width, bound=3)
            constants = [rng.randint(-10**30, 10**30) for _ in range(d * d)]
            # every coefficient of a product is at most 2 * d * 3
            packing = FormPacking(width, 6 * d)
            packed = [packing.pack(row, c) for row, c in zip(row_tuples(forms), constants)]
            for left, operator_of in ((True, kronecker_left), (False, kronecker_right)):
                got = [packing.unpack(f) for f in product_forms(a, packed, left)]
                want = operator_of(a)
                assert IntMatrix.from_rows(row for row, _ in got) == want @ forms, (trial, left)
                assert tuple(c for _, c in got) == want.apply(constants), (trial, left)

    def test_unit_patterns_give_the_general_loop_ints(self):
        # an A whose every column is a unit vector takes the shortcut; the same
        # entries with the pattern slot set to None take the general loop
        rng = random.Random(20)
        for trial in range(60):
            d, width = rng.randint(1, 4), rng.randint(1, 5)
            ones = [rng.randrange(d) for _ in range(d)]
            a = IntMatrix.from_columns([[int(i == r) for i in range(d)] for r in ones], d)
            assert a._unit_pattern() == tuple(ones)
            general = IntMatrix(d, d, a.entries)
            exactalg._set_unit_rows(general, None)
            packing = FormPacking(width, 3 * d)
            packed = [
                packing.pack([rng.randint(-3, 3) for _ in range(width)], rng.randint(-10**30, 10**30))
                for _ in range(d * d)
            ]
            plain = [rng.randint(-9, 9) for _ in range(d * d)]
            for forms in (packed, plain):
                for left in (True, False):
                    got = product_forms(a, forms, left)
                    assert got == product_forms(general, forms, left), (trial, left)

    def test_plain_ints_are_forms(self):
        # one unknown: vec(A F) and vec(F A) of an integer matrix F
        rng = random.Random(19)
        for _ in range(20):
            d = rng.randint(1, 4)
            a, f = random_matrix(rng, d, d), random_matrix(rng, d, d)
            assert tuple(product_forms(a, f.flat(), True)) == (a @ f).flat()
            assert tuple(product_forms(a, f.flat(), False)) == (f @ a).flat()

    def test_square_required(self):
        with pytest.raises(ValueError):
            left_multiplication_operator(IntMatrix.zeros(1, 2))
        with pytest.raises(ValueError):
            right_multiplication_operator(IntMatrix.zeros(1, 2))
