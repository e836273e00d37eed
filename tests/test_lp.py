"""Exact LP feasibility: every answer is checked here from scratch,
independently of the recheck the solver already performs internally.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest

from regulartri import (
    DimensionError,
    InvalidInputError,
    RegulartriError,
    ResourceLimitError,
    SearchMode,
    SearchStats,
    enumerate_triangulations,
    is_regular,
    lp,
    nested_triangles,
    nonneg_combination,
    simplex_product,
    strict_homogeneous,
)
from regulartri.search import GeometricFlipOracle, NeighborProvider, reverse_search

from test_search import optimized_output


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _check_combination_answer(gens, target, result):
    if result.feasible:
        x = result.witness
        assert result.certificate is None
        assert len(x) == len(gens)
        assert all(c >= 0 for c in x)
        for j in range(len(target)):
            assert sum(c * g[j] for c, g in zip(x, gens)) == target[j]
    else:
        y = result.certificate
        assert result.witness is None
        assert _dot(y, target) > 0
        for g in gens:
            assert _dot(y, g) <= 0


def _check_strict_answer(rows, result):
    if result.feasible:
        h = result.witness
        for r in rows:
            assert _dot(r, h) > 0
    else:
        y = result.certificate
        assert all(v >= 0 for v in y)
        assert any(v > 0 for v in y)
        for j in range(len(rows[0])):
            assert sum(y[i] * rows[i][j] for i in range(len(rows))) == 0


def test_combination_pins():
    gens = [(1, 0), (0, 1)]
    r = nonneg_combination(gens, (3, 5))
    assert r.feasible and r.witness == (3, 5)
    r = nonneg_combination(gens, (-1, 0))
    assert not r.feasible
    _check_combination_answer(gens, (-1, 0), r)
    # Scaling a single generator.
    r = nonneg_combination([(2, 4)], (1, 2))
    assert r.feasible and r.witness == (Fraction(1, 2),)
    # Same ray, wrong direction.
    r = nonneg_combination([(2, 4)], (-1, -2))
    assert not r.feasible


def test_combination_empty_generators():
    r = nonneg_combination([], (0, 0, 0))
    assert r.feasible and r.witness == ()
    r = nonneg_combination([], (0, 1))
    assert not r.feasible
    _check_combination_answer([], (0, 1), r)


def test_combination_dimension_check():
    with pytest.raises(DimensionError):
        nonneg_combination([(1, 0, 0)], (1, 0))


def test_lp_refuses_non_int_data():
    # Integer data in: even an integral Fraction or float is not an int.
    for bad in (Fraction(1, 3), Fraction(2), 2.0, "2", True):
        for gens, target in (([(bad, 1), (0, 1)], (1, 1)), ([(1, 0), (0, 1)], (1, bad))):
            with pytest.raises(InvalidInputError, match="is not an int"):
                nonneg_combination(gens, target)
        for rows in ([(bad, 1), (0, 1)], [(1, 0), (0, bad)]):
            with pytest.raises(InvalidInputError, match="is not an int"):
                strict_homogeneous(rows)


def test_combination_random_feasible():
    rng = random.Random(2024)
    for _ in range(120):
        m = rng.randint(1, 6)
        d = rng.randint(1, 5)
        gens = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(m)]
        coeffs = [rng.randint(0, 4) for _ in range(m)]
        target = tuple(
            sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d)
        )
        r = nonneg_combination(gens, target)
        assert r.feasible
        _check_combination_answer(gens, target, r)


def test_combination_random_infeasible():
    # Put every generator weakly on one side of a hyperplane and the target
    # strictly on the other: infeasibility is then guaranteed by
    # construction, so the solver must produce a valid separating
    # certificate every time.
    rng = random.Random(4048)
    built = 0
    for _ in range(300):
        d = rng.randint(2, 5)
        normal = tuple(rng.randint(-3, 3) for _ in range(d))
        if all(x == 0 for x in normal):
            continue
        gens = []
        for _ in range(rng.randint(1, 6)):
            g = tuple(rng.randint(-5, 5) for _ in range(d))
            if _dot(normal, g) <= 0:
                gens.append(g)
        target = tuple(3 * x for x in normal)
        if not gens or _dot(normal, target) <= 0:
            continue
        built += 1
        r = nonneg_combination(gens, target)
        assert not r.feasible
        _check_combination_answer(gens, target, r)
    assert built >= 80


def test_strict_pins():
    r = strict_homogeneous([(1, 0), (0, 1)])
    assert r.feasible
    _check_strict_answer([(1, 0), (0, 1)], r)
    # Opposite rows can never both be strictly positive.
    rows = [(1, -1), (-1, 1)]
    r = strict_homogeneous(rows)
    assert not r.feasible
    _check_strict_answer(rows, r)


def test_strict_empty_system():
    r = strict_homogeneous([], dim=3)
    assert r.feasible and len(r.witness) == 3
    with pytest.raises(DimensionError):
        strict_homogeneous([])
    with pytest.raises(DimensionError):
        strict_homogeneous([(1, 0)], dim=3)


def test_strict_random_feasible():
    rng = random.Random(31337)
    for _ in range(100):
        d = rng.randint(1, 5)
        h0 = tuple(rng.randint(-4, 4) for _ in range(d))
        if all(x == 0 for x in h0):
            continue
        rows = []
        for _ in range(rng.randint(1, 8)):
            row = tuple(rng.randint(-5, 5) for _ in range(d))
            if _dot(row, h0) > 0:
                rows.append(row)
        if not rows:
            continue
        r = strict_homogeneous(rows)
        assert r.feasible
        _check_strict_answer(rows, r)


def test_strict_random_infeasible():
    # A system containing v, w and -(v + w) admits the exact positive
    # combination v + w + (v + w backwards) = 0, so it is infeasible.
    rng = random.Random(808)
    for _ in range(100):
        d = rng.randint(2, 5)
        v = tuple(rng.randint(-4, 4) for _ in range(d))
        w = tuple(rng.randint(-4, 4) for _ in range(d))
        rows = [v, w, tuple(-(a + b) for a, b in zip(v, w))]
        for _ in range(rng.randint(0, 4)):
            rows.append(tuple(rng.randint(-4, 4) for _ in range(d)))
        rng.shuffle(rows)
        r = strict_homogeneous(rows)
        assert not r.feasible
        _check_strict_answer(rows, r)


# -- the exact rechecks catch a wrong phase-1 answer ------------------------

#: (solver, arguments, forged phase-1 answer, the part that fails its recheck)
FORGED_PHASE_ONE = (
    # x·gens = (3, 4), not the target
    ("nonneg_combination", ([(1, 0), (0, 1)], (3, 5)), (True, (3, 4), None), "witness"),
    # x·gens hits the target, but with a negative coefficient
    ("nonneg_combination", ([(1, 0), (0, 1), (1, 1)], (3, 5)),
     (True, (4, 6, -1), None), "witness"),
    # y·target < 0
    ("nonneg_combination", ([(1, 0), (0, 1)], (3, 5)), (False, None, (-1, -1)),
     "certificate"),
    # h = 0 satisfies no row strictly
    ("strict_homogeneous", ([(1, 0), (0, 1)],), (True, (0,) * 6, None), "witness"),
    # 1·(1,-1) + 2·(-1,1) is not zero
    ("strict_homogeneous", ([(1, -1), (-1, 1)],), (False, None, (1, 2)), "certificate"),
)


def forged_solve(solver, args, answer):
    """Call the solver with `lp._phase_one` answering `answer` instead."""
    original = lp._phase_one
    lp._phase_one = lambda columns, rhs: answer
    try:
        return getattr(lp, solver)(*args)
    finally:
        lp._phase_one = original


@pytest.mark.parametrize("solver, args, answer, part", FORGED_PHASE_ONE)
def test_forged_phase_one_answers_raise(solver, args, answer, part):
    with pytest.raises(RegulartriError, match=f"{part} failed exact recheck"):
        forged_solve(solver, args, answer)


def test_lp_rechecks_survive_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_lp import FORGED_PHASE_ONE, forged_solve\n"
        "for solver, args, answer, _ in FORGED_PHASE_ONE:\n"
        "    try:\n"
        "        forged_solve(solver, args, answer)\n"
        "    except RegulartriError as e:\n"
        "        print(e)\n"
    )
    assert lines == [f"{part} failed exact recheck" for *_, part in FORGED_PHASE_ONE]


# -- the integer phase 1 against the Fraction tableau it replaced -----------


def fraction_phase_one(columns, rhs):
    """Reference phase 1: the same simplex, pivoting a `Fraction` tableau.

    Feasibility of {x >= 0 : sum_j x_j * columns[j] = rhs}.  Returns
    (True, x, None) or (False, None, y) with y·columns[j] <= 0 for all j
    and y·rhs > 0.
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


def integer_system(columns, rhs):
    """The system times the lcm of its entries' denominators: int columns
    and an int right-hand side, as `lp._phase_one` takes them."""
    scale = lcm(*(Fraction(v).denominator for v in (*chain(*columns), *rhs)))
    return ([tuple(int(v * scale) for v in col) for col in columns],
            tuple(int(v * scale) for v in rhs))


def assert_same_as_fraction_phase_one(columns, rhs):
    answer = lp._phase_one(columns, rhs)
    assert answer == fraction_phase_one(columns, rhs)
    for part in answer[1:]:
        assert part is None or all(type(v) is Fraction for v in part)
    return answer


def random_phase_one_systems(count, seed=2718):
    """Small systems with zero entries and repeated rows and columns, so that
    ratio tests tie; some with zero rows, a zero right-hand side or
    Fraction entries; feasible ones built from a nonnegative combination.
    `integer_system` scales each to the ints `lp._phase_one` takes."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        k = rng.randint(1, 7)
        frac = rng.random() < 0.3

        def entry():
            v = rng.choice((0, 0, 0, 1, 1, -1, -1, 2, -2, 3, -3))
            return Fraction(v, rng.randint(1, 4)) if frac else v

        columns = [[entry() for _ in range(m)] for _ in range(k)]
        for _ in range(rng.randint(0, 2)):
            columns.append(list(rng.choice(columns)))
        if m > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(m), 2)
            for col in columns:
                col[j] = 2 * col[i]  # a repeated row: its ratios tie
        if rng.random() < 0.2:
            i = rng.randrange(m)
            for col in columns:
                col[i] = 0
        shape = rng.random()
        if shape < 0.15:
            rhs = [0] * m
        elif shape < 0.6:
            coeffs = [rng.choice((0, 0, 1, 2, Fraction(1, 2))) for _ in columns]
            rhs = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(m)]
        else:
            rhs = [entry() for _ in range(m)]
        yield [tuple(col) for col in columns], tuple(rhs)


def test_phase_one_matches_fraction_reference_on_random_systems():
    answers = []
    for columns, rhs in random_phase_one_systems(600):
        # A positive scaling leaves the reference's x and y unchanged.
        scaled = integer_system(columns, rhs)
        assert fraction_phase_one(*scaled) == fraction_phase_one(columns, rhs)
        answers.append(assert_same_as_fraction_phase_one(*scaled))
    feasible = sum(1 for answer in answers if answer[0])
    assert 100 < feasible < len(answers) - 100


def test_phase_one_matches_fraction_reference_on_edge_systems():
    for columns, rhs in (
        ([(0, 0), (0, 0)], (0, 0)),  # all zero
        ([(0, 0)], (0, 1)),  # a zero row against a nonzero right-hand side
        ([(1, 1), (1, 1), (2, 2)], (2, 2)),  # every ratio ties
        ([(Fraction(1, 3), Fraction(-1, 6))], (Fraction(2, 3), Fraction(-1, 3))),
        ([(1,), (-1,)], (0,)),
        ([], (1, 0)),
        ([(1, 0)], (0, 0)),
        ([(), ()], ()),  # no rows
    ):
        scaled = integer_system(columns, rhs)
        assert fraction_phase_one(*scaled) == fraction_phase_one(columns, rhs)
        assert_same_as_fraction_phase_one(*scaled)


def recorded_phase_ones(monkeypatch):
    """Record the arguments of every `lp._phase_one` call."""
    calls = []
    solve = lp._phase_one

    def recording(columns, rhs):
        calls.append((columns, rhs))
        return solve(columns, rhs)

    monkeypatch.setattr(lp, "_phase_one", recording)
    return calls


def test_phase_one_matches_fraction_reference_on_d2d4_prefix(monkeypatch):
    calls = recorded_phase_ones(monkeypatch)
    stats = SearchStats()
    provider = NeighborProvider(GeometricFlipOracle(
        simplex_product(2, 4), SearchMode.REGULAR_ONLY, stats), stats)
    with pytest.raises(ResourceLimitError):
        reverse_search(provider, max_nodes=300)
    monkeypatch.undo()
    assert stats.rays.lps_solved > 0
    assert len(calls) == stats.rays.lps_solved
    for columns, rhs in calls:
        assert_same_as_fraction_phase_one(columns, rhs)


@pytest.mark.parametrize("make", [lambda: simplex_product(2, 2), nested_triangles],
                         ids=["d2d2", "nested"])
def test_phase_one_matches_fraction_reference_on_is_regular(monkeypatch, make):
    config = make()
    triangulations = []
    enumerate_triangulations(config, SearchMode.ALL_FLIPS, baseline=True,
                             visitor=lambda t, g, d: triangulations.append(t))
    calls = recorded_phase_ones(monkeypatch)
    verdicts = [is_regular(config, t).regular for t in triangulations]
    monkeypatch.undo()
    assert len(calls) == len(triangulations)
    answers = [assert_same_as_fraction_phase_one(columns, rhs) for columns, rhs in calls]
    assert [answer[0] for answer in answers] == verdicts
