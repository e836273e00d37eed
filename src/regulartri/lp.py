"""Exact feasibility LPs with certified answers: integer data in, exact
rational answers out.

Only two questions are ever asked: is a target vector a nonnegative
combination of given generators, and does a strict homogeneous system
row·h > 0 admit a solution.  The second is asked as an instance of the
first (see `strict_homogeneous`), and the first is phase-1 of the simplex
method with Bland's anti-cycling rule, so answers are deterministic and
never approximate.  The data must be `int`s (anything else raises
InvalidInputError), and the simplex pivots integers over one common
denominator, as lrs does (Avis 2000): `Fraction`s appear only in the
returned answer.  Every answer carries either a witness or a Farkas
certificate, and both are re-verified exactly before being returned — an
infeasibility claim is never just the solver's word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionError, RegulartriError
from .exact import int_rows


@dataclass(frozen=True)
class Feasibility:
    """Outcome of a feasibility question.

    Exactly one of `witness` / `certificate` is set.  For combination
    queries the witness lists one coefficient per generator and the
    certificate is a separating functional y with y·g <= 0 for every
    generator and y·target > 0.  For strict systems the witness is a height
    vector satisfying every row strictly and the certificate is a
    nonnegative, nonzero row combination summing to zero.
    """

    feasible: bool
    witness: tuple = None
    certificate: tuple = None


def _phase_one(columns, rhs):
    """Feasibility of {x >= 0 : sum_j x_j * columns[j] = rhs}.

    Returns (True, x, None) or (False, None, y) with y·columns[j] <= 0 for
    all j and y·rhs > 0; x and y are tuples of Fractions.  It takes integer
    columns and an integer right-hand side; scaling the system by a positive
    number leaves the pivot sequence, x and y unchanged.

    Phase 1 with one artificial per row and Bland's rule, on an integer
    tableau T with common denominator D: T / D is the usual tableau.  A
    pivot on p keeps its row and maps every other entry a to
    (p·a - f·b) // D, where f is in a's row and p's column and b in p's row
    and a's column; then D = p.  The division is exact (Edmonds 1967,
    Bareiss 1968) and D stays positive.
    """
    m = len(rhs)
    k = len(columns)
    width = k + m
    rows = [[col[i] for col in columns] + [rhs[i]] for i in range(m)]
    sign = []
    tab = []
    for i, row in enumerate(rows):
        s = -1 if row[k] < 0 else 1
        sign.append(s)
        tab.append([s * v for v in row[:k]] + [0] * m + [s * row[k]])
        tab[i][k + i] = 1
    basis = list(range(k, width))
    # reduced costs of "minimize the sum of the artificials", times D
    obj = [-sum(row[j] for row in tab) for j in range(width + 1)]
    for j in range(k, width):
        obj[j] = 0
    d = 1

    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # compare the ratios tab[i][width] / coef by cross-multiplying
                left = tab[i][width] * tab[leave][enter]
                right = tab[leave][width] * coef
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RegulartriError("phase-1 objective is bounded below by zero")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _eliminate(tab[i], prow, p, d, enter)
        obj = _eliminate(obj, prow, p, d, enter)
        basis[leave] = enter
        d = p

    if obj[width] == 0:
        x = [Fraction(0)] * k
        for i, bv in enumerate(basis):
            if bv < k:
                x[bv] = Fraction(tab[i][width], d)
        return True, tuple(x), None
    # simplex multipliers: pi_i = 1 - reduced cost of artificial i,
    # mapped back through the row sign flips
    y = tuple(Fraction(sign[i] * (d - obj[k + i]), d) for i in range(m))
    return False, None, y


def _eliminate(row, prow, p, d, enter):
    """One row of an integer pivot on prow[enter] = p, old denominator d."""
    f = row[enter]
    if f == 0:
        return row if p == d else [p * a // d for a in row]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]


def _integer_multiple(vectors):
    """The vectors times one positive common multiple of their
    denominators: a list of int lists, with every sign kept."""
    scale = lcm(*(v.denominator for vec in vectors for v in vec))
    return [[v.numerator * (scale // v.denominator) for v in vec] for vec in vectors]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def nonneg_combination(generators, target) -> Feasibility:
    """Is `target` a nonnegative combination of `generators`?

    Vectors are ints (InvalidInputError otherwise) and all share one length.
    """
    gens = int_rows(generators, "generator")
    (tgt,) = int_rows([target], "target")
    for g in gens:
        if len(g) != len(tgt):
            raise DimensionError("generator/target length mismatch")
    if not gens:
        if all(x == 0 for x in tgt):
            return Feasibility(True, witness=())
        return Feasibility(False, certificate=tuple(Fraction(x) for x in tgt))

    feasible, x, y = _phase_one(gens, tgt)
    # The rechecks use s·x and s·y for one s > 0 that makes them integer.
    if feasible:
        sx, (s,) = _integer_multiple((x, (1,)))
        combo = [0] * len(tgt)
        for c, g in zip(sx, gens):
            if c:
                for i, v in enumerate(g):
                    combo[i] += c * v
        if any(c < 0 for c in sx) or combo != [s * v for v in tgt]:
            raise RegulartriError("witness failed exact recheck")
        return Feasibility(True, witness=x)
    (sy,) = _integer_multiple((y,))
    if _dot(sy, tgt) <= 0 or any(_dot(sy, g) > 0 for g in gens):
        raise RegulartriError("certificate failed exact recheck")
    return Feasibility(False, certificate=y)


def strict_homogeneous(rows, dim=None) -> Feasibility:
    """Does some h satisfy row·h > 0 for every row?

    Valid only for homogeneous systems: feasibility is equivalent to
    row·h >= 1 by rescaling, asked as the combination R·p - R·q - s = 1
    with p, q, s >= 0 and h = p - q.  `nonneg_combination` rechecks both
    answers: its witness gives R·h = 1 + s >= 1, and its separating
    functional (y·col <= 0 on R, -R and -I, and y·1 > 0) is exactly a
    nonnegative nonzero y with yᵀR = 0, the certificate of infeasibility.
    Rows are ints (InvalidInputError otherwise).
    """
    rows = int_rows(rows, "row")
    if not rows:
        if dim is None:
            raise DimensionError("dimension needed for an empty system")
        return Feasibility(True, witness=(Fraction(0),) * dim)
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionError("rows of mixed lengths")
    if dim is not None and dim != n:
        raise DimensionError("dim does not match row length")
    m = len(rows)
    columns = []
    for j in range(n):
        columns.append(tuple(rows[i][j] for i in range(m)))
    for j in range(n):
        columns.append(tuple(-rows[i][j] for i in range(m)))
    for i in range(m):
        col = [0] * m
        col[i] = -1
        columns.append(tuple(col))

    res = nonneg_combination(columns, (1,) * m)
    if res.feasible:
        x = res.witness
        return Feasibility(True, witness=tuple(x[j] - x[n + j] for j in range(n)))
    return res
