"""Exact integer linear algebra: normal forms, solvers, quotient groups."""

import copy
import operator
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass

import pytest

from lambdaring import exactalg
from lambdaring.errors import InternalInconsistency, NonIntegralDivision
from lambdaring.exactalg import (
    AbelianGroup,
    IntMatrix,
    determinant,
    kernel_basis,
    left_multiplication_operator,
    multiply_vecs,
    quotient_presentation,
    quotient_with_generators,
    right_multiplication_operator,
    row_space_basis,
    smith_normal_form,
    solve_linear,
    stack_cols,
    stack_rows,
)


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


def seed_diagonalize(self, *, divisibility_chain: bool) -> int:
    """The original elimination: every scan restarts from t + 1.

    Kept as the reference that the resuming scans must reproduce step
    for step.
    """
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


class TestEliminationMatchesSeed:
    """The resuming scans take exactly the seed's elimination path."""

    def test_solutions_and_normal_forms_equal_the_reference(self, monkeypatch):
        rng = random.Random(5)
        for trial, a in enumerate(comparison_matrices()):
            x = tuple(rng.randint(-3, 3) for _ in range(a.cols))
            right_hand_sides = [a.apply(x), tuple(rng.randint(-2, 2) for _ in range(a.rows))]
            fast = [solve_linear(a, rhs) for rhs in right_hand_sides]
            fast_snf = smith_normal_form(a)
            with monkeypatch.context() as patch:
                patch.setattr(exactalg._Eliminator, "diagonalize", seed_diagonalize)
                slow = [solve_linear(a, rhs) for rhs in right_hand_sides]
                slow_snf = smith_normal_form(a)
            assert fast == slow, f"trial {trial}: solve_linear differs"
            assert fast[0] is not None
            for name in ("u", "d", "v", "u_inv", "v_inv"):
                assert getattr(fast_snf, name) == getattr(slow_snf, name), (
                    f"trial {trial}: {name} differs"
                )


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
    return IntMatrix(rows, cols, data), SeedIntMatrix(rows, cols, data)


def same(lean, ref) -> bool:
    return (
        type(lean) is IntMatrix
        and (lean.rows, lean.cols, lean.entries) == (ref.rows, ref.cols, ref.entries)
        and hash(lean) == hash(ref)
        and repr(lean) == repr(ref).replace("SeedIntMatrix", "IntMatrix")
    )


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
            if any(e % 4 for row in a.entries for e in row):
                with pytest.raises(NonIntegralDivision):
                    a.exact_divide(4)
                with pytest.raises(NonIntegralDivision):
                    ra.exact_divide(4)
            with pytest.raises(ZeroDivisionError):
                a.exact_divide(0)

    def test_equality_and_hash_follow_the_entries(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a == IntMatrix(2, 2, ((1, 2), (3, 4)))
        assert a != a.transpose()
        assert a != SeedIntMatrix(2, 2, a.entries)
        assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(3, 0)
        assert len({a, a @ IntMatrix.identity(2), a.transpose()}) == 2
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntMatrix(-1, 0, ())
        with pytest.raises(ValueError, match="nonnegative"):
            IntMatrix.zeros(2, -1)
        with pytest.raises(ValueError, match="row count"):
            IntMatrix(2, 1, ((1,),))
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix(2, 2, ((1, 2), (3,)))
        with pytest.raises(ValueError):
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


class TestInternalChecks:
    def test_smith_check_raises_on_a_broken_transform(self, monkeypatch):
        original = exactalg._Eliminator.diagonalize

        def corrupted(self, *, divisibility_chain):
            used = original(self, divisibility_chain=divisibility_chain)
            self.v[0][0] += 1
            return used

        monkeypatch.setattr(exactalg._Eliminator, "diagonalize", corrupted)
        with pytest.raises(InternalInconsistency):
            smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))

    def test_kernel_check_raises_when_the_solver_fails(self, monkeypatch):
        monkeypatch.setattr(exactalg, "solve_linear", lambda matrix, rhs: None)
        with pytest.raises(InternalInconsistency):
            kernel_basis(IntMatrix.identity(2))


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
        assert m.exact_divide(2).flat() == (1, 2, 3, 4)
        assert m.is_zero_mod(2)
        assert not m.is_zero_mod(3)

    def test_shape_errors(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[1], [2]])
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            b @ b

    def test_stacking(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[3, 4]])
        assert stack_rows([a, b]).flat() == (1, 2, 3, 4)
        assert stack_cols([a.transpose(), b.transpose()]).flat() == (1, 3, 2, 4)


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
            assert determinant(dec.u) in (1, -1)
            assert determinant(dec.v) in (1, -1)

    def test_known_invariants(self):
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(a).diagonal == (2, 2, 156)

    def test_zero_and_identity(self):
        assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
        assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)


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
            reference = sympy_snf(sympy.Matrix(a.entries), domain=sympy.ZZ)
            theirs = tuple(abs(int(reference[i, i])) for i in range(min(a.rows, a.cols)))
            assert ours == theirs, f"trial {trial}: {a.entries}"


class TestDeterminant:
    def test_against_cofactor_expansion(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, bound=6)
            assert determinant(a) == reference_determinant(a)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix.zeros(2, 3))


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
        group, gens = quotient_with_generators(2, relations)
        assert group == AbelianGroup(0, (6,))
        assert group.render() == "Z/6"
        assert len(gens) == 1 and gens[0].order == 6

    def test_free_part(self):
        group = quotient_presentation(3, IntMatrix.zeros(3, 0))
        assert group == AbelianGroup(3, ())

    def test_mixed(self):
        relations = IntMatrix.from_rows([[2, 0], [0, 0], [0, 4]])
        group, gens = quotient_with_generators(3, relations)
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
            group, gens = quotient_with_generators(n, relations)
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

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            quotient_with_generators(2, IntMatrix.zeros(3, 1))


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

    def test_multiply_vecs_matches_the_operators(self):
        rng = random.Random(23)
        for _ in range(40):
            d = rng.randint(1, 4)
            a = random_matrix(rng, d, d, bound=5)
            columns = [random_matrix(rng, d, d, bound=5).flat() for _ in range(3)]
            columns.append((0,) * (d * d))
            stacked = IntMatrix.from_columns(columns, d * d)
            left = left_multiplication_operator(a) @ stacked
            right = right_multiplication_operator(a) @ stacked
            assert multiply_vecs(columns, left=a) == [left.column(j) for j in range(4)]
            assert multiply_vecs(columns, right=a) == [right.column(j) for j in range(4)]

    def test_multiply_vecs_arguments(self):
        a = IntMatrix.identity(2)
        with pytest.raises(ValueError):
            multiply_vecs([(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            multiply_vecs([(1, 2, 3, 4)], left=a, right=a)
        with pytest.raises(ValueError):
            multiply_vecs([(1, 2, 3)], left=a)

    def test_square_required(self):
        with pytest.raises(ValueError):
            left_multiplication_operator(IntMatrix.zeros(1, 2))
        with pytest.raises(ValueError):
            right_multiplication_operator(IntMatrix.zeros(1, 2))
