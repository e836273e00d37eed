"""Regularity decisions and extremal-ray screening.

The screening path never gets to be its own referee: every outcome in this
file is checked against naive_extremal_rays (one LP per vector, no
shortcuts) or against is_regular on actual flip targets.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from regulartri import (
    DegenerateConfigError,
    DimensionError,
    RayStats,
    RegulartriError,
    ResourceLimitError,
    TaggedVector,
    Triangulation,
    apply_flip,
    cube,
    enumerate_triangulations,
    extremal_rays,
    find_flips,
    is_regular,
    naive_extremal_rays,
    nested_triangles,
    new_configuration,
    nested_triangles_pinwheel,
    parse_triangulation,
    placing_triangulation,
    rank,
    regular_flips,
    regularity_rows,
    screen_rays,
    simplex_product,
    square,
    triangle_with_interior,
)
from regulartri import expand_group, regularity
from regulartri import search
from regulartri.catalog import cube_symmetry_generators
from regulartri.exact import kernel_basis
from regulartri.lp import Feasibility, nonneg_combination, strict_homogeneous
from regulartri.triangulation import facet_incidence
from regulartri.regularity import (
    DeferredCandidate,
    ScreeningEvent,
    ScreeningOutcome,
    _gale_extremal,
    _in_plane_cone,
    _peel,
    _positive_multiple,
)
from regulartri.points import vertex_mask
from regulartri.search import (
    GeometricFlipOracle,
    NeighborProvider,
    SearchMode,
    SearchStats,
    reverse_search,
)

from test_exact import forged_elimination
from test_flips import all_triangulations
from test_search import _discarded_flip, cascade_on_searched_lists, optimized_output

# A sparse 12x18 displacement system whose screening cascade exercises
# every reduction rule; ids are the one-based row numbers.
SPARSE_SYSTEM = (
    (0, 0, 0, 0, 0, 0, 0, 0, -3, 3, 0, 0, 0, 0, 3, -3, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, -1),
    (-1, 0, 0, 0, 1, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, -1, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1),
    (0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1),
    (0, 0, -3, 3, 0, 0, 0, 0, 3, -3, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 1, 0),
    (0, 0, 0, -1, 1, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 1, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0),
)


def _tagged_rows():
    return [TaggedVector(v, k + 1) for k, v in enumerate(SPARSE_SYSTEM)]


def _mask(vec) -> int:
    """The support mask of vec: bit c set when entry c is nonzero."""
    return vertex_mask(c for c, x in enumerate(vec) if x)


def _check_verdict(verdict):
    """Re-verify a regularity verdict from its stored rows, from scratch."""
    rows = verdict.rows
    if verdict.regular:
        h = verdict.heights
        for r in rows:
            assert sum(Fraction(a) * Fraction(b) for a, b in zip(r, h)) > 0
    else:
        y = verdict.certificate
        assert all(c >= 0 for c in y) and any(c > 0 for c in y)
        for j in range(len(rows[0])):
            assert sum(y[i] * rows[i][j] for i in range(len(rows))) == 0


def test_regularity_rows_pins():
    rows = regularity_rows(square(), parse_triangulation("{{0,1,2},{0,2,3}}"))
    assert rows == [(-1, 1, -1, 1)]
    rows = regularity_rows(triangle_with_interior(), parse_triangulation("{{0,1,2}}"))
    assert rows == [(-1, -1, -1, 3)]
    tri = triangle_with_interior()
    # A triangulation using every point of a simplex-like hull: the fine
    # subdivision has three interior facets and no unused point.
    fine = parse_triangulation("{{0,1,3},{0,2,3},{1,2,3}}")
    assert len(regularity_rows(tri, fine)) == 3
    # No interior facets, no unused points: empty system.
    from regulartri import new_configuration

    simplex = new_configuration([(0, 0), (1, 0), (0, 1)])
    assert regularity_rows(simplex, parse_triangulation("{{0,1,2}}")) == []


@pytest.mark.parametrize("simplices, error", (
    # A fold and an unused point on a flat simplex; a flat simplex in no
    # row; too few vertices.
    ([(0, 1, 2), (0, 1, 3)], DegenerateConfigError),
    ([(0, 1, 2), (1, 3, 4)], DegenerateConfigError),
    ([(0, 1)], DimensionError),
))
def test_regularity_rows_refuse_flat_simplices(simplices, error):
    # The rows of a simplex plus a point need the simplex to span.
    config = new_configuration([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    with pytest.raises(error):
        regularity_rows(config, Triangulation(simplices))


def test_is_regular_square():
    sq = square()
    for text in ("{{0,1,2},{0,2,3}}", "{{0,1,3},{1,2,3}}"):
        verdict = is_regular(sq, parse_triangulation(text))
        assert verdict.regular
        _check_verdict(verdict)


def test_is_regular_trivial_simplex():
    verdict = is_regular(triangle_with_interior(), parse_triangulation("{{0,1,2}}"))
    assert verdict.regular
    _check_verdict(verdict)


def test_pinwheel_is_not_regular():
    cfg = nested_triangles()
    verdict = is_regular(cfg, nested_triangles_pinwheel())
    assert not verdict.regular
    assert verdict.certificate is not None
    _check_verdict(verdict)


def test_all_cube_triangulations_are_regular():
    cfg = cube(3)
    t = placing_triangulation(cfg)
    verdict = is_regular(cfg, t)
    assert verdict.regular
    _check_verdict(verdict)
    for f in find_flips(cfg, t):
        v = is_regular(cfg, apply_flip(cfg, t, f))
        assert v.regular
        _check_verdict(v)


def test_screen_rays_two_vector_system():
    # Both vectors of {(1,0),(-1,1)} are rays; screening settles this with
    # no deferral and no LP regardless of which reduction fires first.
    out = screen_rays([((1, 0), "a"), ((-1, 1), "b")])
    assert sorted(out.confirmed) == ["a", "b"]
    assert out.deferred == []
    assert out.r1 + out.r2 == 2
    assert extremal_rays([((1, 0), "a"), ((-1, 1), "b")]) == {"a", "b"}


def test_screen_rays_r2_cancellation():
    # No column has a lone nonzero entry, so the one-positive/one-negative
    # rule leads: confirming both vectors and replacing them by their
    # canceling combination, tagged as a known non-ray.
    vectors = [((1, 1, 0), "a"), ((-1, 0, 1), "b"), ((0, -1, 1), "c")]
    out = screen_rays(vectors)
    assert out.events[0].rule == "R2"
    assert out.events[0].column == 0
    assert sorted(out.confirmed) == ["a", "b", "c"]
    assert out.deferred == []
    assert out.r2 == 3
    assert all(v.ident is None for v in out.residual)
    assert naive_extremal_rays(vectors) == {"a", "b", "c"}


def test_screen_rays_r1_cascade():
    out = screen_rays([((1, 0, 0), "a"), ((0, 1, 1), "b")])
    assert sorted(out.confirmed) == ["a", "b"]
    assert out.r1 == 2
    assert out.deferred == []
    stats = RayStats()
    assert extremal_rays([((1, 0, 0), "a"), ((0, 1, 1), "b")], stats) == {"a", "b"}
    assert stats == RayStats(r1=2)


def test_screen_rays_input_checks():
    with pytest.raises(RegulartriError):
        screen_rays([((0, 0), "a")])
    with pytest.raises(RegulartriError):
        screen_rays([((1, 0), "a"), ((1, 0, 0), "b")])
    assert screen_rays([]).confirmed == []


def test_screening_refuses_non_pointed_cones():
    # Opposite rays cancel to zero during R2, which is exactly the
    # non-pointedness witness the screening precondition rules out.
    with pytest.raises(RegulartriError, match="not pointed"):
        screen_rays([((1, 0), "a"), ((-1, 0), "b")])
    # The displacement cone at a non-regular triangulation need not be
    # pointed, so asking for its regular flips raises rather than lying.
    config = nested_triangles()
    pin = nested_triangles_pinwheel()
    flips = find_flips(config, pin)
    with pytest.raises(RegulartriError, match="not pointed"):
        regular_flips(config, pin, flips)


def test_screen_rays_sparse_fixture():
    out = screen_rays(_tagged_rows())
    first = out.events[0]
    assert first.rule == "R1"
    assert first.column == 5
    assert first.confirmed == (6,)
    confirmed = set(out.confirmed)
    assert confirmed >= {1, 2, 4, 6, 7, 8, 10, 11}
    deferred = {d.ident for d in out.deferred}
    assert deferred <= {3, 5, 9, 12}
    assert confirmed | deferred == set(range(1, 13))
    assert confirmed.isdisjoint(deferred)


def test_extremal_rays_pins():
    ext = extremal_rays([((1, 0), 0), ((0, 1), 1), ((1, 1), 2)])
    assert ext == {0, 1}
    assert extremal_rays([((2, 3), "only")]) == {"only"}


def test_extremal_rays_sparse_fixture_no_lps():
    stats = RayStats()
    ext = extremal_rays(_tagged_rows(), stats)
    assert ext == naive_extremal_rays(_tagged_rows())
    assert stats.lps_solved == 0
    # Every candidate is decided exactly once somewhere.
    decided = (
        stats.r1 + stats.r2 + stats.r3 + stats.scalar_tests + stats.lps_solved
    )
    assert decided >= len(SPARSE_SYSTEM)


def test_extremal_rays_does_not_report_untagged_vectors():
    # Known non-rays never appear in the result even if they are extremal
    # directions of the residual system.
    stats = RayStats()
    ext = extremal_rays([TaggedVector((1, 0), "a"), TaggedVector((0, 1), None)], stats)
    assert ext == {"a"}
    # R1 confirms "a"; the untagged vector is removed without counting.
    assert stats == RayStats(r1=1)


def random_pointed_systems():
    """250 seeded random systems as (vec, ident) lists, skipping those with
    fewer than two vectors.

    Systems drawn inside a halfspace w·v > 0 are pointed by construction;
    positive-multiple duplicates are filtered to meet the precondition.
    """
    rng = random.Random(424242)
    for _ in range(250):
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
        if len(vectors) >= 2:
            yield [(v, k) for k, v in enumerate(vectors)]


def test_screening_matches_naive_oracle_on_random_systems():
    for tagged in random_pointed_systems():
        vectors = [v for v, _ in tagged]
        stats = RayStats()
        assert extremal_rays(tagged, stats) == naive_extremal_rays(tagged)
        decided = (
            stats.r1 + stats.r2 + stats.r3 + stats.scalar_tests + stats.lps_solved
        )
        assert decided >= len(vectors)


def test_regular_flips_square():
    sq = square()
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    flips = find_flips(sq, t)
    assert regular_flips(sq, t, flips) == flips
    assert regular_flips(sq, t, []) == []


def test_regular_flips_matches_target_regularity():
    # The extremal-ray criterion must agree with deciding each target
    # directly; checked on configurations with both outcomes present.
    for cfg in (cube(3), nested_triangles(), triangle_with_interior()):
        t = placing_triangulation(cfg)
        flips = find_flips(cfg, t)
        got = regular_flips(cfg, t, flips)
        want = [
            f for f in flips if is_regular(cfg, apply_flip(cfg, t, f)).regular
        ]
        assert got == want


def reference_rows(config, t):
    """regularity_rows from `corank_one(...)`, oriented positive at the
    apex or unused point, on each fold and each (unused point, simplex)
    pair, kept when the unused point is the only positive one."""

    def oriented(circuit, point):
        return circuit if circuit.coefficient(point) > 0 else circuit.negated()

    def scatter(circuit):
        row = [0] * config.n
        for p, c in zip(circuit.support, circuit.dependence):
            row[p] = c
        return tuple(row)

    rows = []
    for facet, owners in sorted(facet_incidence(t.simplices).items()):
        if len(owners) == 2:
            (_, apex), (_, other) = owners
            rows.append(scatter(oriented(config.corank_one(facet + (apex, other)), apex)))
    used = t.used_points()
    for u in range(config.n):
        if u not in used:
            for s in t.simplices:
                circuit = oriented(config.corank_one(tuple(sorted(s + (u,)))), u)
                if all(c <= 0 for p, c in zip(circuit.support, circuit.dependence)
                       if p != u):
                    rows.append(scatter(circuit))
    return rows


def _d2d3_sample():
    found = []
    enumerate_triangulations(simplex_product(2, 3), visitor=lambda t, g, d: found.append(t))
    return random.Random(20261019).sample(found, 300)


@pytest.mark.parametrize("make, triangulations_of, count", [
    (lambda: cube(3), all_triangulations, 74),
    (lambda: simplex_product(2, 2), all_triangulations, 108),
    (nested_triangles, all_triangulations, 18),
    (lambda: simplex_product(2, 3), lambda config: _d2d3_sample(), 300),
], ids=["cube3", "d2d2", "nested", "d2d3-sample"])
def test_regularity_rows_match_reference(make, triangulations_of, count):
    # Rows, in order, and the verdicts on them: heights and certificates.
    config, reference = make(), make()
    triangulations = triangulations_of(config)
    assert len(triangulations) == count
    outcomes = set()
    for t in triangulations:
        want = reference_rows(reference, t)
        assert regularity_rows(config, t) == want, t
        verdict = is_regular(config, t)
        res = strict_homogeneous(want, dim=config.n)
        assert verdict.rows == tuple(want)
        assert (verdict.regular, verdict.heights, verdict.certificate) == (
            res.feasible, res.witness if res.feasible else None,
            None if res.feasible else res.certificate), t
        outcomes.add(verdict.regular)
    # The nested triangles have non-regular triangulations.
    assert outcomes == ({True, False} if make is nested_triangles else {True})


def _fraction_positive_multiple(u, v) -> bool:
    """The scalar test by Fraction ratios: u = a*v for one a > 0."""
    a = None
    for x, y in zip(u, v):
        if (x == 0) != (y == 0):
            return False
        if y != 0:
            ratio = Fraction(x) / Fraction(y)
            if ratio <= 0 or (a is not None and ratio != a):
                return False
            a = ratio
    return a is not None


def test_positive_multiple_matches_fraction_ratios():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 5)
        v = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 0:  # u = (p/q)*v, p of either sign
            p, q = rng.choice((-3, -1, 1, 2, 3)), rng.choice((1, 2))
            u, v = [p * y for y in v], [q * y for y in v]
        elif kind == 1:  # proportional with one entry disturbed
            u = [2 * y for y in v]
            u[rng.randrange(n)] += rng.choice((-1, 1))
        else:
            u = [rng.randint(-4, 4) for _ in range(n)]
        assert all(type(x) is int for x in u + v)
        want = _fraction_positive_multiple(u, v)
        assert _positive_multiple(u, v) is want, (u, v)
        outcomes.add((kind, want))
    assert {(0, True), (0, False), (1, False), (2, False)} <= outcomes


# -- the rescanning screen as the reference for `screen_rays` ---------------


def rescanning_screen_rays(vectors) -> ScreeningOutcome:
    """`screen_rays` written independently: the positive and negative
    entries of each active column are found by comparing every vector's
    entry with zero after every reduction, where `screen_rays` counts the
    columns of its sign lists.  The same rules in the same order, so every
    field of the outcome must agree with `screen_rays`."""
    system = [v if isinstance(v, TaggedVector) else TaggedVector(tuple(v[0]), v[1])
              for v in vectors]
    if not system:
        return ScreeningOutcome()
    out = ScreeningOutcome()
    active = list(range(len(system[0].vec)))
    while any(v.is_candidate for v in system):
        action = _rescanning_reduction(system, active)
        if action is None:
            break
        rule, col, data = action
        if rule == "R1":
            (i,) = data
            v = system[i]
            if v.is_candidate:
                out.confirmed.append(v.ident)
                out.r1 += 1
                out.events.append(ScreeningEvent("R1", col, confirmed=(v.ident,)))
            else:
                out.events.append(ScreeningEvent("R1", col))
            del system[i]
        elif rule == "R2":
            ip, im = data
            vp, vm = system[ip], system[im]
            confirmed = tuple(v.ident for v in (vp, vm) if v.is_candidate)
            out.confirmed.extend(confirmed)
            out.r2 += len(confirmed)
            out.events.append(ScreeningEvent("R2", col, confirmed=confirmed))
            combo = _rescanning_cancel(vp, vm, col)
            system = [v for k, v in enumerate(system) if k not in (ip, im)]
            system.append(combo)
        elif rule == "R3":
            single, opposite = data
            v1 = system[single]
            confirmed = (v1.ident,) if v1.is_candidate else ()
            out.confirmed.extend(confirmed)
            out.r3 += len(confirmed)
            deferred_ids = _rescanning_defer(system, opposite, out)
            out.events.append(
                ScreeningEvent("R3", col, confirmed=confirmed, deferred=deferred_ids)
            )
            combos = [_rescanning_cancel(v1, system[k], col) for k in opposite]
            drop = set(opposite) | {single}
            system = [v for k, v in enumerate(system) if k not in drop]
            system.extend(combos)
        else:
            deferred_ids = _rescanning_defer(system, data, out)
            out.r4 += 1
            out.events.append(ScreeningEvent("R4", col, deferred=deferred_ids))
            system = [v for k, v in enumerate(system) if k not in set(data)]
    leftovers = [k for k, v in enumerate(system) if v.is_candidate]
    if leftovers:
        deferred_ids = _rescanning_defer(system, leftovers, out)
        out.events.append(ScreeningEvent("fixpoint", -1, deferred=deferred_ids))
    out.residual = tuple(system)
    return out


def _rescanning_defer(system, indices, out):
    idents = []
    for k in indices:
        v = system[k]
        if v.is_candidate:
            others = tuple(w for j, w in enumerate(system) if j != k)
            out.deferred.append(DeferredCandidate(v.ident, v.vec, others))
            idents.append(v.ident)
    return tuple(idents)


def _rescanning_cancel(a, b, col):
    ca, cb = abs(a.vec[col]), abs(b.vec[col])
    return TaggedVector(tuple(ca * y + cb * x for x, y in zip(a.vec, b.vec)), None)


def _rescanning_reduction(system, active):
    r2 = r3c = r3 = r4 = None
    for col in list(active):
        pos = [k for k, v in enumerate(system) if v.vec[col] > 0]
        neg = [k for k, v in enumerate(system) if v.vec[col] < 0]
        np_, nn = len(pos), len(neg)
        if np_ == 0 and nn == 0:
            active.remove(col)
            continue
        if np_ + nn == 1:
            return ("R1", col, (pos + neg)[0:1])
        if np_ == 1 and nn == 1 and r2 is None:
            r2 = ("R2", col, (pos[0], neg[0]))
        elif min(np_, nn) == 1 and max(np_, nn) >= 2:
            single, opposite = (pos[0], neg) if np_ == 1 else (neg[0], pos)
            pick = ("R3", col, (single, tuple(opposite)))
            if system[single].is_candidate:
                r3c = r3c or pick
            else:
                r3 = r3 or pick
        elif (np_ == 0 or nn == 0) and r4 is None:
            r4 = ("R4", col, tuple(pos + neg))
    return r2 or r3c or r3 or r4


def recorded_screens(monkeypatch):
    """Record the input and outcome of every `screen_rays` call, nested
    calls from the deferred stage included, as (vectors, outcome) pairs."""
    calls = []
    screen = regularity.screen_rays

    def recording(vectors):
        vectors = list(vectors)
        outcome = screen(vectors)
        calls.append((vectors, outcome))
        return outcome

    monkeypatch.setattr(regularity, "screen_rays", recording)
    return calls


def recorded_systems(monkeypatch):
    """Record the ray system of every `regular_flips` call the search
    makes, as `regular_flips` builds it: one candidate per flip.  Each
    flip's cached support mask is checked against its displacement."""
    systems = []
    original = search.regular_flips

    def recording(config, t, flips, stats=None):
        assert [f.circuit.support_mask for f in flips] == [
            _mask(f.delta) for f in flips]
        systems.append([TaggedVector(f.delta, k) for k, f in enumerate(flips)])
        return original(config, t, flips, stats)

    monkeypatch.setattr(search, "regular_flips", recording)
    return systems


def assert_same_as_rescanning(calls):
    for vectors, outcome in calls:
        want = rescanning_screen_rays(vectors)
        assert outcome.confirmed == want.confirmed
        assert [(d.ident, d.vec, d.others) for d in outcome.deferred] == [
            (d.ident, d.vec, d.others) for d in want.deferred
        ]
        assert outcome.events == want.events
        assert outcome.residual == want.residual
        assert (outcome.r1, outcome.r2, outcome.r3, outcome.r4) == (
            want.r1, want.r2, want.r3, want.r4
        )


def test_screening_matches_rescanning_reference_on_random_systems(monkeypatch):
    calls = recorded_screens(monkeypatch)
    for tagged in random_pointed_systems():
        extremal_rays(tagged)
    extremal_rays(_tagged_rows())
    # Every column has two entries of each sign: no rule applies at all.
    extremal_rays([((3, -1, -1), 0), ((-1, 3, -1), 1), ((-1, -1, 3), 2),
                   ((2, 2, -1), 3), ((2, -1, 2), 4)])
    assert len(calls) > 250
    assert {e.rule for _, out in calls for e in out.events} == {
        "R1", "R2", "R3", "R4", "fixpoint"}
    assert_same_as_rescanning(calls)


def test_screening_matches_rescanning_reference_on_d2d2(monkeypatch):
    # The search decides its lists on their kernel and never screens them,
    # so every list is screened (and recorded) here.
    calls = recorded_screens(monkeypatch)
    systems = recorded_systems(monkeypatch)
    count, _ = enumerate_triangulations(simplex_product(2, 2))
    for system in systems:
        regularity.screen_rays(system)
    assert count == 108 and len(calls) > 100
    assert_same_as_rescanning(calls)


def test_screening_matches_rescanning_reference_on_d2d4_prefix(monkeypatch):
    # The search decides its lists on their kernel, so the cascade runs
    # here on the lists it built: whole, and through `extremal_rays`, whose
    # first LP and first R4 come within these 300 nodes.
    calls = recorded_screens(monkeypatch)
    systems = recorded_systems(monkeypatch)
    stats = d2d4_prefix()
    assert stats.nodes == 300 and calls == []
    cascade = RayStats()
    for system in systems:
        regularity.screen_rays(system)
        extremal_rays(system, cascade)
    assert cascade.lps_solved > 0 and cascade.r4 > 0
    assert_same_as_rescanning(calls)


def d2d4_prefix():
    """The stats of the first 300 reverse-search nodes on Δ2×Δ4."""
    return search_prefix(simplex_product(2, 4), 300)


def search_prefix(config, nodes, group=None):
    """The stats of the first `nodes` reverse-search nodes on `config`
    (orbits, under a symmetry `group`)."""
    stats = SearchStats()
    provider = NeighborProvider(GeometricFlipOracle(
        config, SearchMode.REGULAR_ONLY, stats), stats)
    with pytest.raises(ResourceLimitError):
        reverse_search(provider, max_nodes=nodes, group=group)
    return stats


# -- the kernel stage's R1 peel against the cascade ---------------------------


def assert_peel_is_the_cascade_prefix(system):
    """Peeling R1 and screening the residual is the full cascade."""
    system = [TaggedVector(tuple(vec), ident) for vec, ident in system]
    full = screen_rays(system)
    peeled, left = _peel([_mask(v.vec) for v in system])
    peeled = [system[k].ident for k in peeled if system[k].is_candidate]
    residual = [system[k] for k in left]
    rest = ScreeningOutcome()
    if any(v.is_candidate for v in residual):
        rest = screen_rays(residual)
        assert rest.residual == full.residual
    assert set(full.confirmed) == set(peeled) | set(rest.confirmed)
    assert len(full.confirmed) == len(peeled) + len(rest.confirmed)
    assert [(d.ident, d.vec, d.others) for d in full.deferred] == [
        (d.ident, d.vec, d.others) for d in rest.deferred]
    assert full.r1 == len(peeled) + rest.r1
    assert (full.r2, full.r3, full.r4) == (rest.r2, rest.r3, rest.r4)
    lead = next((k for k, e in enumerate(full.events) if e.rule != "R1"),
                len(full.events))
    assert full.events[lead:] == rest.events


def assert_peel_is_the_prefix_of_every_screen(monkeypatch, systems):
    """Run `extremal_rays` on `systems` and check the peel against the
    cascade on every system it screens: each of `systems`, and each
    sole-candidate snapshot of the deferred stage.  Returns the number of
    screens checked and the RayStats of the cascade over `systems`."""
    calls = recorded_screens(monkeypatch)
    stats = RayStats()
    for system in systems:
        extremal_rays(system, stats)
    for vectors, _ in calls:
        assert_peel_is_the_cascade_prefix(vectors)
    return len(calls), stats


def test_peel_matches_cascade_on_random_systems(monkeypatch):
    systems = list(random_pointed_systems()) + [_tagged_rows()]
    checked, _ = assert_peel_is_the_prefix_of_every_screen(monkeypatch, systems)
    assert checked > len(systems)


def test_peel_matches_cascade_on_d2d2_and_d2d4_prefix(monkeypatch):
    systems = recorded_systems(monkeypatch)
    count, stats = enumerate_triangulations(simplex_product(2, 2))
    assert count == 108 and len(systems) == stats.cache_misses
    d2d2 = len(systems)
    d2d4_prefix()
    checked, cascade = assert_peel_is_the_prefix_of_every_screen(monkeypatch, systems)
    assert checked > len(systems) > d2d2
    assert cascade.lps_solved and cascade.r4


def test_extremal_rays_neither_peels_nor_takes_a_kernel(monkeypatch):
    # The cascade is the kernel stage's independent reference: it shares
    # neither the peel nor the kernel with it.
    def refuse(*args):
        raise AssertionError("the cascade reached the kernel stage")

    monkeypatch.setattr(regularity, "_peel", refuse)
    monkeypatch.setattr(regularity, "kernel_basis", refuse)
    stats = RayStats()
    for tagged in [_tagged_rows()] + list(random_pointed_systems()):
        assert extremal_rays(tagged, stats) == naive_extremal_rays(tagged)
    assert stats.r4 and stats.scalar_tests and stats.lps_solved
    assert stats.kernel == stats.signed == 0


def test_deferred_candidate_needs_its_own_private_column():
    # (1, 1, 0) is the sum of two snapshot vectors.  R1 removes the third
    # snapshot vector, the candidate has no column of its own, and after
    # two R4 deferrals, the second on an unshrunk snapshot, one LP decides.
    item = DeferredCandidate("v", (1, 1, 0), tuple(
        TaggedVector(vec) for vec in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    stats = RayStats()
    assert regularity._deferred_extremal(item, stats) is False
    assert stats == RayStats(r4=2, lps_solved=1, lp_generators=2, lp_generators_max=2)
    # An empty snapshot leaves the candidate alone, and R1 confirms it.
    stats = RayStats()
    assert regularity._deferred_extremal(DeferredCandidate("v", (1, 1, 0), ()), stats)
    assert stats == RayStats(r1=1)


@pytest.mark.parametrize("ident", ("z", None))
@pytest.mark.parametrize("vec, message", (
    pytest.param((0, 0, 0), "zero vector", id="zero"),
    pytest.param((0, 0, 0, 1), "mixed lengths", id="mixed"),
))
def test_input_checks_run_before_the_peel(vec, ident, message):
    # Every other vector has a private column and R1 would confirm it at
    # once; an untagged bad vector would leave no candidate to screen.
    system = [((1, 0, 0), "a"), ((0, 1, 0), "b"), ((0, 0, 1), "c")]
    for k in range(len(system) + 1):
        with pytest.raises(RegulartriError, match=message):
            extremal_rays(system[:k] + [(vec, ident)] + system[k:])


# -- the kernel stage against the cascade and the naive oracle ----------------


def checked_kernel_stage(monkeypatch):
    """Check every `regular_flips` call the search makes against the
    cascade, `extremal_rays` on the same displacements.  Returns a Counter
    of the `_gale_extremal` calls by (kernel dimension, whether a flip was
    rejected), and the RayStats of the cascade over every list."""
    branches = Counter()
    gale = regularity._gale_extremal

    def recording(basis, vecs, stats):
        extremal = gale(basis, vecs, stats)
        branches[len(basis), len(extremal) < len(vecs)] += 1
        return extremal

    monkeypatch.setattr(regularity, "_gale_extremal", recording)
    return branches, cascade_on_searched_lists(monkeypatch)


def test_kernel_stage_matches_cascade_on_d2d3(monkeypatch):
    branches, _ = checked_kernel_stage(monkeypatch)
    count, stats = enumerate_triangulations(simplex_product(2, 3))
    assert count == stats.cache_misses == 4488
    # Every list has corank at most two, and every flip the peel leaves is
    # extremal.  The other 3 624 lists have corank 0: the peel clears them
    # and they reach no Gale call.
    assert branches == {(1, False): 288, (2, False): 576}


def test_kernel_stage_matches_cascade_on_prefixes(monkeypatch):
    branches, cascade = checked_kernel_stage(monkeypatch)
    for config in (simplex_product(2, 4), simplex_product(3, 3)):
        stats = search_prefix(config, 300)
        assert stats.rays.kernel > 0 and stats.rays.signed > 0
    assert cascade.r2 + cascade.r3 > 0
    # Lists of corank 0 are cleared by the peel before any Gale call.
    assert {dim for dim, _ in branches} == set(range(1, 5))


def test_kernel_stage_rejects_flips_on_cube4_prefix(monkeypatch):
    # cube(4) is the input whose lists of corank one, two and three or more
    # have flips that are not extremal; on its lists the cascade runs LPs
    # and scalar tests as well.
    branches, cascade = checked_kernel_stage(monkeypatch)
    stats = search_prefix(cube(4), 300)
    assert branches[1, True] > 0 and branches[2, True] > 0
    assert sum(n for (dim, rejected), n in branches.items() if dim >= 3 and rejected) > 0
    assert stats.rays.lps_solved > 0 and cascade.lps_solved > 0 and cascade.scalar_tests > 0


def test_cobasis_kernel_equals_full_rows(monkeypatch):
    # Displacements are affine dependences, fixed by their entries at the
    # co-basis points, so the kernel basis the search takes on those rows
    # is the one all nonzero rows give, and it annihilates the whole
    # displacements.
    residuals = []
    gale = regularity._gale_extremal

    def recording(basis, vecs, stats):
        if vecs:
            residuals.append((basis, vecs))
        return gale(basis, vecs, stats)

    monkeypatch.setattr(regularity, "_gale_extremal", recording)
    cube4 = cube(4)
    sizes = []
    for search_lists in (
        lambda: enumerate_triangulations(simplex_product(2, 3)),
        lambda: search_prefix(simplex_product(2, 4), 3000),
        lambda: search_prefix(cube4, 300, expand_group(cube4, cube_symmetry_generators(4))),
    ):
        search_lists()
        sizes.append(len(residuals))
    # Residual lists, running total: 864 on Δ2×Δ3, 1 116 on the Δ2×Δ4
    # prefix and 926 on the cube(4) orbits.
    assert sizes == [864, 1980, 2906]
    dims = set()
    for basis, vecs in residuals:
        assert basis == kernel_basis([row for row in zip(*vecs) if any(row)])
        for lam in basis:
            assert not any(sum(map(mul, lam, column)) for column in zip(*vecs))
        dims.add(len(basis))
    assert dims == {*range(10), 13}


def test_kernel_stage_matches_naive_oracle_on_random_systems():
    checked = set()
    for tagged in random_pointed_systems():
        vecs = [v for v, _ in tagged]
        corank = len(vecs) - rank(vecs)
        stats = RayStats()
        got = regularity._kernel_extremal(vecs, [_mask(v) for v in vecs], corank,
                                          stats)
        assert got == naive_extremal_rays(tagged)
        assert stats.r1 + stats.kernel + stats.signed == len(vecs)
        checked.add((min(corank, 3), len(got) < len(vecs)))
    assert checked == {(c, rejected) for c in (0, 1, 2, 3) for rejected in (False, True)} - {
        (0, True)}


def test_kernel_stage_checks_the_corank():
    # One flip cannot span the tangent space of the secondary polytope, so
    # its kernel, of dimension zero, is not its corank, 1 - 3.
    config, t, _ = _discarded_flip()
    flips = find_flips(config, t)
    with pytest.raises(RegulartriError, match="kernel of dimension 0, not their corank -2"):
        regular_flips(config, t, flips[:1])


def forged_kernel_verdict():
    """`regular_flips` under `forged_elimination` on a nested-triangles list
    that discards a flip, so the peel leaves the kernel stage a residual."""
    config, t, _ = _discarded_flip()
    flips = find_flips(config, t)
    with forged_elimination():
        return regular_flips(config, t, flips)


def test_forged_kernel_trips_the_recheck():
    with pytest.raises(RegulartriError, match="fails its recheck"):
        forged_kernel_verdict()


def test_forged_kernel_trips_the_recheck_under_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_regularity import forged_kernel_verdict\n"
        "try:\n"
        "    forged_kernel_verdict()\n"
        "except RegulartriError as e:\n"
        "    print(e)\n"
    )
    assert lines == ["kernel vector fails its recheck against the matrix"]


@pytest.mark.parametrize("vecs", (
    pytest.param([(1, 0), (-1, 0), (0, 1)], id="corank-1"),
    pytest.param([(1, 0), (-1, 0), (0, 1), (0, -1)], id="corank-2"),
    pytest.param([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)], id="corank-3"),
))
def test_kernel_stage_refuses_non_pointed_cones(vecs):
    # A dependence with nonnegative coefficients, here v0 + v1 = 0.
    corank = len(vecs) - 2
    with pytest.raises(RegulartriError, match="not pointed"):
        regularity._kernel_extremal(vecs, [_mask(v) for v in vecs], corank)


# -- the kernel stage's loops against their rescanning forms ------------------


def rescanning_peel(masks):
    """The R1 peel that rescans every live index each round and stops when
    a round keeps them all: the reference for `_peel`."""
    left = range(len(masks))
    peeled = []
    while left:
        once = twice = 0
        for k in left:
            twice |= once & masks[k]
            once |= masks[k]
        keep = [k for k in left if not masks[k] & ~twice]
        if len(keep) == len(left):
            break
        peeled.extend(k for k in left if masks[k] & ~twice)
        left = keep
    return peeled, list(left)


def test_peel_matches_its_rescanning_form_on_random_masks():
    rng = random.Random(20261020)
    rounds = Counter()
    for _ in range(3000):
        width = rng.randint(1, 12)
        masks = [rng.getrandbits(width) or 1 for _ in range(rng.randint(0, 9))]
        peeled, left = _peel(masks)
        assert (peeled, left) == rescanning_peel(masks)
        rounds[bool(peeled), bool(left)] += 1
    assert len(rounds) == 4


def quadratic_plane_cone(g, others):
    """`_in_plane_cone` testing every pair of generators on opposite sides
    of g: its reference."""
    x, y = g
    if not (x or y):
        return True
    left, right = [], []
    for u, v in others:
        cross = x * v - y * u
        if cross > 0:
            left.append((u, v))
        elif cross < 0:
            right.append((u, v))
        elif x * u + y * v > 0:
            return True
    return any(a * d - b * c > 0 for a, b in right for c, d in left)


def quadratic_plane_extremal(basis):
    """`_gale_extremal` on a 2-row basis, with a normal to each nonzero g
    tested against every g for pointedness and `quadratic_plane_cone`: its
    reference."""
    gs = list(zip(*basis))
    for a, b in gs:
        if not (a or b):
            continue
        for w in ((-b, a), (b, -a)):
            if all(w[0] * x + w[1] * y >= 0 for x, y in gs):
                raise RegulartriError("dependence of one sign: cone is not pointed")
    return [i for i, g in enumerate(gs) if quadratic_plane_cone(g, gs[:i] + gs[i + 1:])]


def random_plane_vectors(rng, count):
    """`count` small integer vectors in Z^2, with zero, parallel and
    opposite ones among them."""
    vectors = []
    for _ in range(count):
        pick = rng.random()
        if vectors and pick < 0.3:
            u, v = rng.choice(vectors)
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            vectors.append((k * u, k * v))
        elif pick < 0.4:
            vectors.append((0, 0))
        else:
            vectors.append((rng.randint(-4, 4), rng.randint(-4, 4)))
    return vectors


def test_in_plane_cone_matches_the_lp():
    rng = random.Random(20261021)
    verdicts = Counter()
    for _ in range(1500):
        g, *others = random_plane_vectors(rng, rng.randint(1, 7))
        got = _in_plane_cone(g, others)
        assert got is nonneg_combination(others, g).feasible
        assert got is quadratic_plane_cone(g, others)
        verdicts[got, any(g)] += 1
    assert len(verdicts) == 3


def test_plane_gale_stage_matches_its_quadratic_form():
    rng = random.Random(20261022)
    outcomes = Counter()
    for _ in range(3000):
        size = rng.randint(2, 9)
        basis = list(zip(*random_plane_vectors(rng, size)))
        try:
            want = quadratic_plane_extremal(basis)
        except RegulartriError as error:
            with pytest.raises(RegulartriError, match=f"^{error}$"):
                _gale_extremal(basis, range(size), RayStats())
            outcomes["raised"] += 1
            continue
        stats = RayStats()
        assert _gale_extremal(basis, range(size), stats) == want
        assert stats == RayStats(kernel=size)
        outcomes["rejects" if len(want) < size else "keeps"] += 1
    assert set(outcomes) == {"raised", "rejects", "keeps"}


def test_lp_calls_match_lps_solved_on_prefixes(monkeypatch):
    # `lps_solved` counts the calls through the name
    # `regularity.nonneg_combination`, the one the benchmark's tracer
    # wraps.  Every LP is asked in the Gale dual of a list of corank three
    # or more: a target with c >= 3 entries, fewer than the n of a
    # displacement.
    targets = []
    solve = regularity.nonneg_combination

    def counting(generators, target):
        targets.append(len(target))
        return solve(generators, target)

    monkeypatch.setattr(regularity, "nonneg_combination", counting)
    for config in (simplex_product(2, 4), cube(4)):
        targets.clear()
        stats = search_prefix(config, 300)
        assert len(targets) == stats.rays.lps_solved > 0
        assert all(3 <= c < config.n for c in targets)


# Five vectors in the plane, corank three, with no column where one of them
# is alone on its side: every one is decided by an LP, and (3, 1) and
# (1, 3) are the extremal ones.
GALE_LP_SYSTEM = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))


def test_gale_lps_decide_a_system_without_signed_singletons():
    stats = RayStats()
    vecs = list(GALE_LP_SYSTEM)
    got = regularity._kernel_extremal(vecs, [_mask(v) for v in vecs], 3, stats)
    assert got == {3, 4} == naive_extremal_rays([(v, k) for k, v in enumerate(vecs)])
    assert stats == RayStats(kernel=5, lps_solved=5, lp_generators=20, lp_generators_max=4)


def forged_gale_rejection(forge):
    """`_kernel_extremal` on GALE_LP_SYSTEM with one input forged.

    "certificate": every LP is answered infeasible, with a certificate that
    separates nothing.  "basis": the first kernel basis vector becomes
    (1, -1, 0, 0, 0), which is not in the kernel; an LP certificate then
    separates the forged Gale vectors, but its combination of the vectors
    does not vanish.
    """
    name, forged = {
        "certificate": ("nonneg_combination", lambda generators, target: Feasibility(
            False, certificate=(Fraction(1),) * len(target))),
        "basis": ("kernel_basis", lambda rows: [
            (1, -1, 0, 0, 0), (1, -2, 0, 1, 0), (-5, 2, 0, 0, 1)]),
    }[forge]
    original = getattr(regularity, name)
    setattr(regularity, name, forged)
    vecs = list(GALE_LP_SYSTEM)
    try:
        return regularity._kernel_extremal(vecs, [_mask(v) for v in vecs], 3)
    finally:
        setattr(regularity, name, original)


@pytest.mark.parametrize("forge", ("certificate", "basis"))
def test_forged_gale_rejection_trips_the_recheck(forge):
    with pytest.raises(RegulartriError, match="fails its recheck on the vectors"):
        forged_gale_rejection(forge)


def test_forged_gale_rejection_trips_the_recheck_under_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_regularity import forged_gale_rejection\n"
        "for forge in ('certificate', 'basis'):\n"
        "    try:\n"
        "        forged_gale_rejection(forge)\n"
        "    except RegulartriError as e:\n"
        "        print(e)\n"
    )
    assert lines == ["Gale rejection fails its recheck on the vectors"] * 2


def test_signed_singletons_confirm_without_lps():
    # Column 0: (1, 0, 1) is the only positive entry; column 2: (0, 1, -1)
    # the only negative one.  The other four are decided in the Gale dual.
    vecs = [(1, 0, 1), (-1, 1, 0), (0, 1, -1), (-1, 2, 1), (-2, 2, 1), (-1, 3, 2)]
    stats = RayStats()
    got = regularity._kernel_extremal(vecs, [_mask(v) for v in vecs],
                                      len(vecs) - rank(vecs), stats)
    assert got == naive_extremal_rays([(v, k) for k, v in enumerate(vecs)])
    assert regularity._signed_singletons(vecs) == {0, 2}
    assert stats.signed == 2 and stats.kernel == len(vecs) - 2
