"""End-to-end acceptance checks, one test (and one printed line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.  Every test enforces its stated wall-clock budget.  The two
long-running product-of-simplices cases only run when RUN_STRETCH=1 is set;
they are expensive by design and not part of the default suite.
"""

from __future__ import annotations

import functools
import io
import os
import random
import time
from fractions import Fraction

import pytest

from regulartri import (
    RayStats,
    RegulartriError,
    SearchMode,
    apply_flip,
    cli,
    cube,
    cube_symmetry_generators,
    enumerate_triangulations,
    expand_group,
    extremal_rays,
    find_flips,
    gkz,
    is_regular,
    naive_extremal_rays,
    nested_triangles,
    new_configuration,
    orbit_count,
    parse_triangulation,
    placing_triangulation,
    regular_flips,
    screen_rays,
    simplex_product,
    simplex_product_symmetry_generators,
    square,
    triangle_with_interior,
)
from regulartri.search import (
    NeighborProvider,
    SearchStats,
    reverse_search,
)

from test_regularity import SPARSE_SYSTEM
from test_search import MockOracle, TargetTrustingProvider

STRETCH = os.environ.get("RUN_STRETCH") == "1"
stretch_only = pytest.mark.skipif(
    not STRETCH, reason="long-running stretch case; set RUN_STRETCH=1 to include"
)

# Verdicts produced while running the criteria, re-verified by criterion 10.
_VERDICTS = []


def _criterion(num, budget=None):
    """Time a criterion body and print exactly one pass/fail line for it."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except Exception:
                elapsed = time.perf_counter() - start
                print(f"criterion {num}: FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                print(f"criterion {num}: FAIL ({elapsed:.2f}s, budget {budget}s)")
                raise AssertionError(
                    f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"
                )
            print(f"criterion {num}: PASS ({elapsed:.2f}s)")

        return run

    return wrap


def _checked_regular(config, t):
    verdict = is_regular(config, t)
    _VERDICTS.append(verdict)
    return verdict


def _verify_verdict(verdict):
    """Criterion-10 re-verification, independent of the solver internals."""
    rows = verdict.rows
    if verdict.regular:
        h = verdict.heights
        assert h is not None
        for r in rows:
            assert sum(Fraction(a) * Fraction(b) for a, b in zip(r, h)) > 0
    else:
        y = verdict.certificate
        assert y is not None
        assert all(c >= 0 for c in y) and any(c > 0 for c in y)
        for j in range(len(rows[0])):
            assert sum(y[i] * rows[i][j] for i in range(len(rows))) == 0


# -- criterion 1: square end-to-end ----------------------------------------


@_criterion(1, budget=1.0)
def test_criterion_01_square_end_to_end(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("points: [[0,0],[1,0],[1,1],[0,1]]\n", encoding="utf-8")
    out = io.StringIO()
    code = cli.main(
        ["enumerate", "--input", str(path), "--regular", "--print"], out=out
    )
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[-1] == "triangulations: 2"
    gkzs = sorted(line.split(" ", 1)[1] for line in lines[:-1])
    assert gkzs == ["(1,2,1,2)", "(2,1,2,1)"]
    flips = find_flips(square(), parse_triangulation("{{0,1,2},{0,2,3}}"))
    assert [f.delta for f in flips] == [(-1, 1, -1, 1)]


# -- criterion 2: sparse screening cascade ----------------------------------


@_criterion(2, budget=1.0)
def test_criterion_02_screening_cascade():
    tagged = [(v, k + 1) for k, v in enumerate(SPARSE_SYSTEM)]
    outcome = screen_rays(tagged)
    first = outcome.events[0]
    assert first.rule == "R1" and first.column == 5 and 6 in first.confirmed
    assert set(outcome.confirmed) >= {1, 2, 4, 6, 7, 8, 10, 11}
    assert {item.ident for item in outcome.deferred} <= {3, 5, 9, 12}
    stats = RayStats()
    assert extremal_rays(tagged, stats) == naive_extremal_rays(tagged)
    assert stats.lps_solved == 0
    assert stats.r1 + stats.r2 + stats.r3 >= 8


# -- criterion 3: oracle set-equality ---------------------------------------


def _random_config(rng):
    while True:
        d = rng.choice((1, 2, 2, 3))
        n = rng.randint(d + 2, 7 if d == 3 else 8)
        pts = set()
        tries = 0
        while len(pts) < n and tries < 200:
            tries += 1
            pts.add(tuple(rng.randint(0, 4) for _ in range(d)))
        if len(pts) < d + 2:
            continue
        try:
            config = new_configuration(sorted(pts))
        except RegulartriError:
            continue
        if config.dim < 1:
            continue
        return config


def _check_oracle_equality(config):
    reachable = set()
    enumerate_triangulations(
        config,
        SearchMode.ALL_FLIPS,
        visitor=lambda t, g, depth: reachable.add(t),
        baseline=True,
    )
    visited = set()
    enumerate_triangulations(
        config,
        SearchMode.REGULAR_ONLY,
        visitor=lambda t, g, depth: visited.add(t),
        verify_increments=True,
    )
    oracle = {t for t in reachable if _checked_regular(config, t).regular}
    assert visited == oracle
    for t in visited:
        for flip in regular_flips(config, t, find_flips(config, t)):
            target = apply_flip(config, t, flip)
            assert _checked_regular(config, target).regular
    return len(visited), len(reachable)


@_criterion(3, budget=300.0)
def test_criterion_03_oracle_set_equality():
    fixtures = (
        square(),
        triangle_with_interior(),
        simplex_product(2, 2),
        cube(3),
        nested_triangles(),
    )
    for config in fixtures:
        _check_oracle_equality(config)
    rng = random.Random(20260814)
    for _ in range(22):
        _check_oracle_equality(_random_config(rng))


# -- criterion 4: 3-cube count and orbits ------------------------------------


@_criterion(4, budget=60.0)
def test_criterion_04_three_cube():
    config = cube(3)
    triangulations = []
    count, _ = enumerate_triangulations(
        config, SearchMode.REGULAR_ONLY, visitor=lambda t, g, d: triangulations.append(t)
    )
    baseline_count, _ = enumerate_triangulations(
        config, SearchMode.REGULAR_ONLY, baseline=True
    )
    assert count == baseline_count == 74
    group = expand_group(config, cube_symmetry_generators(3))
    assert len(group) == 48
    assert orbit_count(triangulations, group) == 6


# -- criteria 5 and 6: product-of-simplices stretch run ----------------------

_STRETCH_RESULT = {}


def _stretch_run():
    if "stats" not in _STRETCH_RESULT:
        config = simplex_product(2, 5)
        count, stats = enumerate_triangulations(config, SearchMode.REGULAR_ONLY)
        _STRETCH_RESULT.update(count=count, stats=stats)
    return _STRETCH_RESULT


@stretch_only
@_criterion(5, budget=7200.0)
def test_criterion_05_product_of_simplices_orbits():
    config = simplex_product(2, 5)
    group = expand_group(config, simplex_product_symmetry_generators(2, 5))
    assert len(group) == 4320
    total, stats = enumerate_triangulations(config, group=group)
    orbits = stats.nodes
    print(
        f"criterion 5: orbits={orbits} triangulations={total} "
        f"flip_lists={stats.cache_misses} lps_solved={stats.rays.lps_solved}"
    )
    assert orbits == 13621


@stretch_only
@_criterion(6)
def test_criterion_06_lp_avoidance():
    lps = _stretch_run()["stats"].rays.lps_solved
    print(f"criterion 6: lps_solved={lps} (target 0, soft bound 100)")
    if lps > 100:
        pytest.xfail(f"lps_solved={lps} exceeds the soft bound of 100")


# -- criterion 7: caching regression -----------------------------------------


@_criterion(7, budget=1.0)
def test_criterion_07_caching_regression():
    def visits(buggy):
        seen = []
        provider_class = TargetTrustingProvider if buggy else NeighborProvider
        provider = provider_class(MockOracle(), SearchStats(), 100)
        reverse_search(provider, visitor=lambda c, g, d: seen.append(c))
        return sorted(seen)

    assert visits(buggy=False) == ["T0", "T1", "T2"]
    assert visits(buggy=True) == ["T0", "T1"]


# -- criterion 8: screening soundness ----------------------------------------


@_criterion(8, budget=120.0)
def test_criterion_08_screening_soundness():
    rng = random.Random(1000003)
    instances = 0
    while instances < 1000:
        d = rng.randint(3, 7)
        w = [rng.randint(1, 3) for _ in range(d)]
        seen_directions = set()
        vectors = []
        target_size = rng.randint(2, 9)
        attempts = 0
        while len(vectors) < target_size and attempts < 200:
            attempts += 1
            v = tuple(
                rng.randint(-4, 4) if rng.random() < 0.45 else 0 for _ in range(d)
            )
            if sum(a * b for a, b in zip(w, v)) <= 0:
                continue
            lead = next(x for x in v if x != 0)
            direction = tuple(Fraction(x, abs(lead)) for x in v)
            if direction in seen_directions:
                continue
            seen_directions.add(direction)
            vectors.append(v)
        if len(vectors) < 2:
            continue
        instances += 1
        tagged = [(v, k) for k, v in enumerate(vectors)]
        assert extremal_rays(tagged) == naive_extremal_rays(tagged)


# -- criterion 9: incremental GKZ exactness -----------------------------------


@_criterion(9)
def test_criterion_09_incremental_gkz():
    fixtures = (
        square(),
        triangle_with_interior(),
        simplex_product(2, 2),
        cube(3),
        nested_triangles(),
    )
    zero_free = 0
    for config in fixtures:
        triangulations = []
        # verify_increments makes the oracle recompute every incremental
        # GKZ during the search and raise on any disagreement.
        enumerate_triangulations(
            config,
            SearchMode.REGULAR_ONLY,
            visitor=lambda t, g, d: triangulations.append(t),
            verify_increments=True,
        )
        zero = tuple(0 for _ in range(config.n))
        for t in triangulations:
            base = gkz(config, t)
            for flip in find_flips(config, t):
                delta = flip.delta
                assert delta != zero
                zero_free += 1
                moved = apply_flip(config, t, flip)
                assert gkz(config, moved) == tuple(
                    a + b for a, b in zip(base, delta)
                )
    assert zero_free > 0


# -- criterion 10: regularity verdict validity --------------------------------


@_criterion(10)
def test_criterion_10_verdict_validity():
    if not _VERDICTS:
        # Standalone run: generate a representative batch directly.
        sq = square()
        nested = nested_triangles()
        _checked_regular(sq, parse_triangulation("{{0,1,2},{0,2,3}}"))
        _checked_regular(sq, parse_triangulation("{{0,1,3},{1,2,3}}"))
        _checked_regular(
            nested,
            parse_triangulation(
                "{{0,1,4},{0,3,4},{1,2,5},{1,4,5},{0,2,3},{2,3,5},{3,4,5}}"
            ),
        )
        box = cube(3)
        _checked_regular(box, placing_triangulation(box))
    assert _VERDICTS
    regular_seen = nonregular_seen = 0
    for verdict in _VERDICTS:
        _verify_verdict(verdict)
        if verdict.regular:
            regular_seen += 1
        else:
            nonregular_seen += 1
    assert regular_seen > 0
    assert nonregular_seen > 0
