"""Exact linear algebra over arbitrary-precision integers.

Everything in this module is combinatorial bookkeeping for geometry that must
never see floating point.  Every matrix is integer data in: an entry whose
type is not `int` raises InvalidInputError.  Determinants and adjugates
are computed by fraction-free Bareiss elimination, ranks and kernels by
division-free Gauss-Jordan elimination, and kernel vectors are returned as
primitive integer tuples with a fixed sign convention so they can be
compared and hashed exactly.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import (
    DimensionError,
    InvalidInputError,
    NoDependenceError,
    NotCorankOneError,
    RegulartriError,
)


def int_rows(m, what="matrix"):
    """The rows of `m` as lists: InvalidInputError on any entry whose type
    is not `int` (a bool, float, Fraction or str is refused)."""
    rows = [list(r) for r in m]
    for r in rows:
        for x in r:
            if type(x) is not int:
                raise InvalidInputError(f"{what} entry {x!r} is not an int")
    return rows


def _as_rows(m):
    rows = int_rows(m)
    if not rows or not rows[0]:
        raise DimensionError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionError("ragged rows in matrix")
    return rows


def determinant(m) -> int:
    """Exact determinant of an integer matrix, as an `int`, via
    fraction-free Bareiss elimination.  Raises DimensionError on non-square
    input.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant requires a square matrix")
    return _bareiss(rows)


def _bareiss(rows) -> int:
    """Determinant of a square integer matrix; eliminates in place."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            ri = rows[i]
            rk = rows[k]
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - lead * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def adjugate(m):
    """(det, adj) of a square integer matrix, with m·adj = adj·m = det·I.

    Fraction-free Gauss-Jordan elimination of [m | I] (Bareiss, 1968)
    ends at [±det·I | ±adj]; a singular m takes its cofactors instead.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("adjugate requires a square matrix")
    work = [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        swap = next((i for i in range(k, n) if work[i][k]), None)
        if swap is None:
            return 0, _cofactors(rows)
        if swap != k:
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        rk = work[k]
        pivot = rk[k]
        for ri in work:
            if ri is not rk:
                lead = ri[k]
                for j in range(k + 1, 2 * n):
                    ri[j] = (pivot * ri[j] - lead * rk[j]) // prev
        prev = pivot
    return sign * prev, [[sign * x for x in r[n:]] for r in work]


def _cofactors(rows):
    """The adjugate by cofactors: entry (j, i) is (-1)^(i+j) times the minor
    of `rows` without row i and column j."""
    n = len(rows)

    def minor(i, j):
        sub = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
        return _bareiss(sub) if sub else 1

    return [[(-1) ** (i + j) * minor(i, j) for i in range(n)] for j in range(n)]


def rank(m) -> int:
    """Rank of an integer matrix: its number of Gauss-Jordan pivots."""
    return len(_gauss_jordan(_as_rows(m))[1])


def greedy_basis(vectors) -> list:
    """Indices of a maximal independent subset, chosen greedily in order.

    Each vector is kept when it is independent of those before it: the
    kept vectors are the pivot columns of one Gauss-Jordan elimination
    with the vectors as columns, which stops once they span their space.
    """
    return _gauss_jordan(list(zip(*_as_rows(vectors))))[1]


def _primitive(vec):
    """Divide an integer vector by its gcd and make the first nonzero positive."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        return tuple(vec)
    vec = [x // g for x in vec]
    for x in vec:
        if x != 0:
            if x < 0:
                vec = [-y for y in vec]
            break
    return tuple(vec)


def kernel_basis(m) -> list:
    """A basis of the right kernel of an integer matrix, as primitive
    integer tuples: one per free column of its reduced echelon form, in
    ascending order, each positive at its own free column and zero at the
    others.  An empty list when the columns are independent.

    Each vector is rechecked against every row of `m`, and one that fails
    raises RegulartriError (not an assert, so `python -O` keeps it).
    """
    return _kernel_basis(_as_rows(m))


def _kernel_basis(rows) -> list:
    """`kernel_basis` of rows already known to be nonempty lists of ints of
    one width, taken as they are: no copy, no check of their entries.
    Each vector is still rechecked against every row."""
    width = len(rows[0])
    work, pivots = _gauss_jordan(rows)
    pivoted = set(pivots)
    basis = []
    for f in range(width):
        if f in pivoted:
            continue
        # x_f = scale and x_p = -row[f] * scale / row[p] for each pivot
        # row, with scale the least common multiple that keeps x integral.
        scale = 1
        for row, p in zip(work, pivots):
            if row[f]:
                d = abs(row[p])
                scale = scale * d // gcd(scale, d)
        vec = [0] * width
        vec[f] = g = scale
        for row, p in zip(work, pivots):
            x = vec[p] = -row[f] * scale // row[p]
            g = gcd(g, x)
        vec = tuple(x // g for x in vec)
        if any(sum(map(mul, row, vec)) for row in rows):
            raise RegulartriError("kernel vector fails its recheck against the matrix")
        basis.append(vec)
    return basis


def _gauss_jordan(rows):
    """(work, pivots): Gauss-Jordan elimination of `rows` in integers, with
    column pivoting; `rows` is left as it was.

    `pivots` lists the pivot columns, and `work[i]` is zero at every pivot
    column but its own, `pivots[i]`.  A row is eliminated only where it is
    nonzero, by the smallest integer combination with the pivot row, so
    no division is needed.
    """
    work = list(rows)  # rows are replaced, never changed in place
    pivots = []
    for c in range(len(rows[0])):
        k = len(pivots)
        for swap in range(k, len(work)):
            if work[swap][c]:
                break
        else:
            continue
        work[k], work[swap] = work[swap], work[k]
        rk = work[k]
        pivot = rk[c]
        for i, ri in enumerate(work):
            lead = ri[c]
            if lead and i != k:
                g = gcd(pivot, lead)
                a, b = pivot // g, lead // g
                work[i] = [a * x - b * y for x, y in zip(ri, rk)]
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work, pivots


def kernel_vector(m) -> tuple:
    """Spanning vector of the one-dimensional right kernel of an integer
    matrix, as a primitive integer tuple whose first nonzero entry is
    positive.

    Raises NoDependenceError when the kernel is trivial and
    NotCorankOneError when it has dimension two or more.

    This is `kernel_basis` for a kernel of dimension one.
    `PointConfiguration` gets each circuit by Cramer's rule from an
    adjugate, and the tests use this function as the independent reference
    for those circuits.
    """
    basis = kernel_basis(m)
    if not basis:
        raise NoDependenceError("matrix has full column rank: no dependence")
    if len(basis) > 1:
        raise NotCorankOneError(f"kernel has dimension {len(basis)}, expected 1")
    return _primitive(basis[0])
