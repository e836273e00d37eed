"""Exact linear algebra: determinants, adjugates, ranks, kernel vectors.

Oracles here are deliberately naive (cofactor expansion, Fraction-based
Gaussian elimination) and independent of the Bareiss code under test.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from regulartri import (
    DimensionError,
    InvalidInputError,
    NoDependenceError,
    NotCorankOneError,
    RegulartriError,
    adjugate,
    determinant,
    kernel_basis,
    kernel_vector,
    cube,
    rank,
    simplex_product,
)
from regulartri import exact

from test_search import optimized_output


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _cofactor_det(minor)
    return total


def _gauss_rank(rows):
    work = [[Fraction(x) for x in row] for row in rows]
    nc = len(work[0])
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def test_matrix_shape_checks():
    for bad in ([], [()], [(1, 2), (3,)]):
        with pytest.raises(DimensionError):
            rank(bad)
        with pytest.raises(DimensionError):
            determinant(bad)
        with pytest.raises(DimensionError):
            adjugate(bad)
        with pytest.raises(DimensionError):
            kernel_basis(bad)
    with pytest.raises(DimensionError, match="square"):
        adjugate([(1, 2, 3), (4, 5, 6)])


def test_determinant_pins():
    assert determinant([(1, 0), (0, 1)]) == 1
    assert determinant([(0, 1), (1, 0)]) == -1
    assert determinant([(2, 3), (4, 5)]) == -2
    assert determinant([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 0
    assert determinant([(3,)]) == 3


def test_determinant_of_integers_is_int():
    # Singular matrices too, with or without a pivot column of zeros.
    for rows in ([(0, 1), (0, 2)], [(1, 2, 3), (4, 5, 6), (7, 8, 9)], [(2, 3), (4, 5)]):
        assert type(determinant(rows)) is int
    rng = random.Random(20261018)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        assert type(determinant(rows)) is int


@pytest.mark.parametrize("function", (determinant, adjugate, rank, kernel_basis, kernel_vector))
def test_non_int_entries_are_refused(function):
    # Integer data in: even an integral Fraction or float is not an int.
    for bad in (Fraction(1, 2), Fraction(2), 2.0, "2", True):
        for rows in ([(bad, 0), (0, 2)], [(1, 0), (0, bad)]):
            with pytest.raises(InvalidInputError, match="is not an int"):
                function(rows)


def test_determinant_rejects_non_square():
    with pytest.raises(DimensionError):
        determinant([(1, 2, 3), (4, 5, 6)])


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(20260814)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == _cofactor_det(rows)


def test_adjugate_matches_cofactor_oracle():
    # m·adj = adj·m = det·I, with entries equal to the cofactors.  Some
    # matrices are singular (a repeated or summed row), and zeroed leading
    # entries make the elimination swap rows.
    rng = random.Random(20261019)
    kinds = set()
    for trial in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % (n - 1)])]
        if trial % 4 == 0:
            for r in rows[:-1]:
                r[0] = 0
        det, adj = adjugate(rows)
        assert det == _cofactor_det(rows) and type(det) is int
        for i in range(n):
            for j in range(n):
                want = det if i == j else 0
                assert sum(rows[i][k] * adj[k][j] for k in range(n)) == want
                assert sum(adj[i][k] * rows[k][j] for k in range(n)) == want
                minor = [[x for c, x in enumerate(r) if c != i] for k, r in enumerate(rows)
                         if k != j]
                assert adj[i][j] == (-1) ** (i + j) * (_cofactor_det(minor) if minor else 1)
        kinds.add((det == 0, rows[0][0] == 0))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_adjugate_pins():
    assert adjugate([(2, 3), (4, 5)]) == (-2, [[5, -3], [-4, 2]])
    assert adjugate([(0, 1), (1, 0)]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([(1, 2), (2, 4)]) == (0, [[4, -2], [-2, 1]])
    assert adjugate([(7,)]) == (7, [[1]])
    assert adjugate([(0,)]) == (0, [[1]])


def test_determinant_exact_on_large_entries():
    # Floating point would lose these digits; exact arithmetic must not.
    rows = [
        (10**15, 10**15 + 1, 0),
        (10**15 - 1, 10**15, 1),
        (1, 2, 10**15),
    ]
    assert determinant(rows) == _cofactor_det(rows)


def test_rank_pins():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(0, 0), (0, 0)]) == 0
    assert rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def test_rank_matches_gauss_oracle():
    rng = random.Random(77)
    for _ in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert rank(rows) == _gauss_rank(rows)


def bareiss_rank(rows) -> int:
    """Rank by a Bareiss echelon loop: the reference for `rank`."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    r = 0
    prev = 1
    for c in range(nc):
        pivot_row = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nr):
            ri = rows[i]
            lead = ri[c]
            for j in range(c, nc):
                ri[j] = (pivot * ri[j] - lead * rows[r][j]) // prev
        prev = pivot
        r += 1
        if r == nr:
            break
    return r


def rank_greedy_basis(vectors) -> list:
    """`greedy_basis` by one rank per vector: the reference."""
    chosen = []
    for i, v in enumerate(vectors):
        if bareiss_rank([vectors[j] for j in chosen] + [v]) > len(chosen):
            chosen.append(i)
            if len(chosen) == len(v):
                break
    return chosen


def test_rank_and_greedy_basis_match_references():
    rng = random.Random(20261019)
    for _ in range(3000):
        count, width = rng.randint(1, 8), rng.randint(1, 6)
        spread = rng.choice((1, 3, 100))
        vectors = [tuple(rng.randint(-spread, spread) for _ in range(width))
                   for _ in range(count)]
        # Repeats and sums make dependent vectors common.
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(count), rng.randrange(count)
            vectors.append(tuple(a + b for a, b in zip(vectors[i], vectors[j])))
        assert rank(vectors) == bareiss_rank(vectors), vectors
        assert exact.greedy_basis(vectors) == rank_greedy_basis(vectors), vectors
    for config in (cube(3), simplex_product(2, 5)):
        columns = list(zip(*((1,) + p for p in config.points)))
        assert exact.greedy_basis(columns) == rank_greedy_basis(columns)
        assert exact.greedy_basis(config.hom) == rank_greedy_basis(config.hom)


def test_greedy_basis_refuses_non_int_entries():
    for bad in (Fraction(2), 2.0, True):
        with pytest.raises(InvalidInputError, match="is not an int"):
            exact.greedy_basis([(1, 0), (0, bad)])


def test_kernel_vector_pins():
    # Column 2 = column 0 + column 1.
    k = kernel_vector([(1, 0, 1), (0, 1, 1)])
    assert k == (1, 1, -1)
    # Sign normalization: first nonzero entry comes out positive.
    k = kernel_vector([(1, 0, 0), (0, 1, -1)])
    assert k == (0, 1, 1)


def test_kernel_vector_is_primitive_and_exact():
    rng = random.Random(99)
    found = 0
    for _ in range(400):
        nr = rng.randint(2, 4)
        nc = nr + 1
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if _gauss_rank(rows) != nc - 1:
            continue
        found += 1
        k = kernel_vector(rows)
        assert len(k) == nc
        assert any(x != 0 for x in k)
        for row in rows:
            assert sum(a * b for a, b in zip(row, k)) == 0
        g = 0
        for x in k:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in k if x != 0) > 0
    assert found >= 100


def test_kernel_vector_error_cases():
    with pytest.raises(NoDependenceError):
        kernel_vector([(1, 0), (0, 1)])
    with pytest.raises(NotCorankOneError):
        kernel_vector([(1, 0, 0, 0), (0, 1, 0, 0)])


def test_kernel_basis_pins():
    assert kernel_basis([(1, 0), (0, 1)]) == []
    assert kernel_basis([(0, 0, 0)]) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # Free columns 2 and 3; each vector is positive at its own.
    assert kernel_basis([(2, 0, 1, 3), (0, 2, 1, -1)]) == [(-1, -1, 2, 0), (-3, 1, 0, 2)]
    assert kernel_basis([(1, 1, 1)]) == [(-1, 1, 0), (-1, 0, 1)]


def test_kernel_basis_matches_fraction_oracle():
    # Its size is the nullity; its vectors are independent kernel vectors,
    # primitive, positive at their own free column and zero at the others'.
    rng = random.Random(20261019)
    sizes = set()
    for _ in range(600):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(nc)]
                for _ in range(nr)]
        basis = kernel_basis(rows)
        assert len(basis) == nc - _gauss_rank(rows)
        sizes.add(len(basis))
        if not basis:
            continue
        assert _gauss_rank(basis) == len(basis)
        # A free column is in the span of the columns before it.
        ranks = [0] + [_gauss_rank([row[:c + 1] for row in rows]) for c in range(nc)]
        free = [c for c in range(nc) if ranks[c + 1] == ranks[c]]
        for vec, f in zip(basis, free):
            assert vec[f] > 0
            assert all(vec[c] == 0 for c in free if c != f)
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
            g = 0
            for x in vec:
                g = gcd(g, x)
            assert g == 1
    assert {0, 1, 2, 3} <= sizes


def test_kernel_basis_leaves_its_rows_unchanged():
    # The elimination shares the rows it does not replace, and the recheck
    # reads them: neither may change a row in place.
    rng = random.Random(20261023)
    for _ in range(300):
        rows = [[rng.choice((0, rng.randint(-4, 4))) for _ in range(5)]
                for _ in range(rng.randint(1, 4))]
        before = [row[:] for row in rows]
        kernel_basis(rows)
        assert rows == before
        ints = exact.int_rows(rows)
        exact._gauss_jordan(ints)
        assert ints == before


@contextmanager
def forged_elimination():
    """`exact._gauss_jordan` drops its last pivot meanwhile, so that pivot's
    column comes out free, with a vector that is not in the kernel."""
    original = exact._gauss_jordan

    def forged(rows):
        work, pivots = original(rows)
        return work[:-1], pivots[:-1]

    exact._gauss_jordan = forged
    try:
        yield
    finally:
        exact._gauss_jordan = original


def kernel_with_forged_elimination():
    """kernel_vector on a matrix with a one-dimensional kernel under
    `forged_elimination`."""
    with forged_elimination():
        return kernel_vector([(1, 0, 1), (0, 1, 1)])


def test_kernel_vector_recheck_raises():
    with pytest.raises(RegulartriError, match="fails its recheck"):
        kernel_with_forged_elimination()


def test_kernel_vector_recheck_survives_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_exact import kernel_with_forged_elimination\n"
        "try:\n"
        "    kernel_with_forged_elimination()\n"
        "except RegulartriError as e:\n"
        "    print(e)\n"
    )
    assert lines == ["kernel vector fails its recheck against the matrix"]
