"""Exact rational feasibility LPs with certified answers.

Only two questions are ever asked: is a target vector a nonnegative
combination of given generators, and does a strict homogeneous system
row·h > 0 admit a solution.  Both reduce to phase-1 of the simplex method,
run in exact `Fraction` arithmetic with Bland's anti-cycling rule, so answers
are deterministic and never approximate.  Every answer carries either a
witness or a Farkas certificate, and both are re-verified exactly before
being returned — an infeasibility claim is never just the solver's word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, RegulartriError


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
    all j and y·rhs > 0.
    """
    m = len(rhs)
    k = len(columns)
    sign = [1] * m
    b = [Fraction(x) for x in rhs]
    rows = [[Fraction(columns[j][i]) for j in range(k)] for i in range(m)]
    for i in range(m):
        if b[i] < 0:
            b[i] = -b[i]
            rows[i] = [-x for x in rows[i]]
            sign[i] = -1
    # columns: k structural + m artificial; artificial j corresponds to row j
    width = k + m
    tab = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [b[i]]
        row[k + i] = Fraction(1)
        tab.append(row)
    basis = [k + i for i in range(m)]
    # objective: minimize the sum of artificials; reduced-cost row
    obj = [Fraction(0)] * (width + 1)
    for j in range(width):
        cj = Fraction(1) if j >= k else Fraction(0)
        obj[j] = cj - sum(tab[i][j] for i in range(m))
    obj[width] = -sum(b)

    while True:
        enter = None
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][width] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise RegulartriError("phase-1 objective is bounded below by zero")
        _pivot(tab, obj, basis, leave, enter, width)

    value = -obj[width]
    if value == 0:
        x = [Fraction(0)] * k
        for i, bv in enumerate(basis):
            if bv < k:
                x[bv] = tab[i][width]
        return True, tuple(x), None
    # simplex multipliers: pi_i = 1 - reduced cost of artificial i,
    # mapped back through the row sign flips
    y = tuple(sign[i] * (1 - obj[k + i]) for i in range(m))
    return False, None, y


def _pivot(tab, obj, basis, leave, enter, width):
    pivot = tab[leave][enter]
    prow = [x / pivot for x in tab[leave]]
    tab[leave] = prow
    basis[leave] = enter
    for i in range(len(tab)):
        if i != leave and tab[i][enter] != 0:
            f = tab[i][enter]
            tab[i] = [a - f * p for a, p in zip(tab[i], prow)]
    if obj[enter] != 0:
        f = obj[enter]
        for j in range(width + 1):
            obj[j] -= f * prow[j]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def nonneg_combination(generators, target) -> Feasibility:
    """Is `target` a nonnegative combination of `generators`?

    Vectors may mix ints and Fractions; all must share one length.
    """
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    tgt = tuple(Fraction(x) for x in target)
    for g in gens:
        if len(g) != len(tgt):
            raise DimensionError("generator/target length mismatch")
    if not gens:
        if all(x == 0 for x in tgt):
            return Feasibility(True, witness=())
        return Feasibility(False, certificate=tgt)

    feasible, x, y = _phase_one(gens, tgt)
    if feasible:
        combo = [Fraction(0)] * len(tgt)
        for c, g in zip(x, gens):
            for i, v in enumerate(g):
                combo[i] += c * v
        if any(c < 0 for c in x) or tuple(combo) != tgt:
            raise RegulartriError("witness failed exact recheck")
        return Feasibility(True, witness=x)
    if _dot(y, tgt) <= 0 or any(_dot(y, g) > 0 for g in gens):
        raise RegulartriError("certificate failed exact recheck")
    return Feasibility(False, certificate=y)


def strict_homogeneous(rows, dim=None) -> Feasibility:
    """Does some h satisfy row·h > 0 for every row?

    Valid only for homogeneous systems: feasibility is equivalent to
    row·h >= 1 by rescaling, which is what gets solved.  An infeasible
    system yields a nonnegative nonzero combination of the rows equal to
    zero (re-verified exactly).
    """
    rows = [tuple(Fraction(x) for x in r) for r in rows]
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
    # variables: h = p - q with p, q >= 0, slack s >= 0: Rp - Rq - s = 1
    columns = []
    for j in range(n):
        columns.append(tuple(rows[i][j] for i in range(m)))
    for j in range(n):
        columns.append(tuple(-rows[i][j] for i in range(m)))
    for i in range(m):
        col = [Fraction(0)] * m
        col[i] = Fraction(-1)
        columns.append(tuple(col))
    target = (Fraction(1),) * m

    feasible, x, y = _phase_one(columns, target)
    if feasible:
        h = tuple(x[j] - x[n + j] for j in range(n))
        if any(_dot(r, h) < 1 for r in rows):
            raise RegulartriError("witness failed exact recheck")
        return Feasibility(True, witness=h)
    if (
        any(v < 0 for v in y)
        or not any(v > 0 for v in y)
        or any(sum(y[i] * rows[i][j] for i in range(m)) != 0 for j in range(n))
    ):
        raise RegulartriError("certificate failed exact recheck")
    return Feasibility(False, certificate=tuple(y))
