"""Triangulations: text form, GKZ-vectors, validation, placing."""

from __future__ import annotations

import random
from operator import mul

import pytest

from regulartri import (
    DimensionError,
    InvalidInputError,
    SearchMode,
    Triangulation,
    apply_flip,
    convex_polygon,
    cube,
    enumerate_triangulations,
    find_flips,
    format_triangulation,
    gkz,
    nested_triangles,
    nested_triangles_pinwheel,
    new_configuration,
    parse_triangulation,
    placing_triangulation,
    pulling_triangulation,
    simplex_product,
    square,
    triangle_with_interior,
    validate,
)
from regulartri.triangulation import ValidationResult, _hull, facet_incidence

from test_points import facet_sign


def test_canonical_order_and_equality():
    a = Triangulation([(2, 0, 1), (3, 2, 0)])
    b = Triangulation([(0, 2, 3), (0, 1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.simplices == ((0, 1, 2), (0, 2, 3))
    assert (0, 1, 2) in a and (0, 1, 3) not in a
    assert a.used_points() == frozenset({0, 1, 2, 3})


def test_membership_sorts_the_query():
    t = Triangulation([(2, 1, 0)])
    assert (2, 1, 0) in t and [1, 0, 2] in t and (0, 1, 2) in t
    assert (0, 1, 3) not in t


def test_construction_errors():
    with pytest.raises(InvalidInputError):
        Triangulation([])
    with pytest.raises(InvalidInputError):
        Triangulation([(0, 1, 2), (2, 1, 0)])


def test_format_parse_round_trip():
    t = Triangulation([(0, 1, 2), (0, 2, 3)])
    text = format_triangulation(t)
    assert text == "{{0,1,2},{0,2,3}}"
    assert parse_triangulation(text) == t
    assert t.canonical() == text
    # Whitespace and comments are tolerated, order is normalized.
    assert parse_triangulation(" { {2, 0, 3}, {1, 0, 2} } ") == t
    assert parse_triangulation("# the square\n{{0,1,2},  # first\n {0,2,3}}\n") == t


def test_parse_rejects_malformed_literals():
    bad = [
        "",
        "{}",
        "{{}}",
        "{{0,1,2}",
        "{{0,1,2}},",
        "{0,1,2}",
        "{{0,1,,2}}",
        "{{0,1,2},{1,2,x}}",
        "{{0,{1},2}}",
        "{{0,1,2}}}",
        "{{0,1,2}{0,2,3}}",
        "{{0,1,2},,{0,2,3}}",
        "{{0,1 2},{0,2,3}}",
        "{{0,1,2 3}}",
        "{{-1,0,1}}",
        "{{0,1,\u00b2}}",
    ]
    for text in bad:
        with pytest.raises(InvalidInputError):
            parse_triangulation(text)


def test_gkz_pins():
    sq = square()
    assert gkz(sq, parse_triangulation("{{0,1,2},{0,2,3}}")) == (2, 1, 2, 1)
    assert gkz(sq, parse_triangulation("{{0,1,3},{1,2,3}}")) == (1, 2, 1, 2)
    tri = triangle_with_interior()
    assert gkz(tri, parse_triangulation("{{0,1,2}}")) == (9, 9, 9, 0)
    fine = parse_triangulation("{{0,1,3},{0,2,3},{1,2,3}}")
    assert gkz(tri, fine) == (6, 6, 6, 9)


def test_gkz_entries_sum_to_dim_plus_one_times_volume():
    rng = random.Random(12)
    for cfg in (square(), triangle_with_interior(), cube(3), nested_triangles()):
        t = placing_triangulation(cfg)
        v = gkz(cfg, t)
        assert sum(v) == (cfg.dim + 1) * cfg.total_volume()
        assert all(x >= 0 for x in v)
    del rng


def test_validate_accepts_good_triangulations():
    sq = square()
    assert validate(sq, parse_triangulation("{{0,1,2},{0,2,3}}")).ok
    assert validate(sq, parse_triangulation("{{0,1,3},{1,2,3}}")).ok
    tri = triangle_with_interior()
    assert validate(tri, parse_triangulation("{{0,1,2}}")).ok
    assert validate(nested_triangles(), nested_triangles_pinwheel()).ok


def test_hull_is_built_once_per_configuration(monkeypatch):
    # The hull volume, validate's hull facets and the pulling seed all come
    # from one placing triangulation per configuration.
    import regulartri.triangulation as module

    built = []
    monkeypatch.setattr(module, "placing_triangulation",
                        lambda cfg: built.append(cfg) or placing_triangulation(cfg))
    cfg = cube(3)
    t = pulling_triangulation(cfg)
    for _ in range(3):
        assert validate(cfg, t).ok
    assert cfg.total_volume() == 6
    assert built == [cfg]


def test_validate_reports_total_volume_gap():
    res = validate(square(), parse_triangulation("{{0,1,2}}"))
    assert not res
    assert res.kind == "total-volume"
    assert res.detail == "simplices cover volume 1, hull has volume 2"
    res = validate(
        triangle_with_interior(), parse_triangulation("{{0,1,3},{0,2,3},{0,1,2}}")
    )
    assert not res
    assert res.kind == "total-volume"
    assert res.detail == "simplices cover volume 15, hull has volume 9"


def test_validate_reports_facet_pairing_failures():
    # Two triangles of the square on the same side of their shared facet:
    # right total volume, but they overlap.
    res = validate(square(), parse_triangulation("{{0,1,2},{1,2,3}}"))
    assert not res
    assert res.kind == "facet-pairing"
    assert res.detail == "simplices (0, 1, 2) and (1, 2, 3) overlap across facet (1, 2)"

    grid = new_configuration([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    # A hole next to a double cover: volumes balance, pairing does not.
    res = validate(grid, parse_triangulation("{{0,1,3},{1,3,4},{1,2,4},{1,2,5}}"))
    assert not res
    assert res.kind == "facet-pairing"
    assert res.detail == "interior facet (2, 4) belongs to only one simplex"
    # Three simplices around the facet (1, 4), but the once-used facet
    # (2, 4) comes first.
    res = validate(grid, parse_triangulation("{{0,1,3},{1,3,4},{1,2,4},{1,4,5}}"))
    assert not res
    assert res.kind == "facet-pairing"
    assert res.detail == "interior facet (2, 4) belongs to only one simplex"
    # Three simplices around the facet (1, 3), which comes first.
    res = validate(grid, parse_triangulation("{{0,1,3},{1,3,4},{1,3,5}}"))
    assert not res
    assert res.kind == "facet-pairing"
    assert res.detail == "facet (1, 3) belongs to 3 simplices"


def test_validate_reports_degenerate_simplex():
    line = new_configuration([(0, 0), (1, 0), (2, 0), (0, 1)])
    res = validate(line, parse_triangulation("{{0,1,2},{0,2,3}}"))
    assert not res
    assert res.kind == "degenerate-simplex"
    assert res.detail == "simplex (0, 1, 2) is flat"


def test_validate_checks_vertex_counts():
    with pytest.raises(DimensionError):
        validate(square(), Triangulation([(0, 1)]))
    with pytest.raises(InvalidInputError):
        validate(square(), Triangulation([(0, 1, 9)]))


# -- validate against the facet_sign walk -----------------------------------


def reference_validate(config, t):
    """`validate` with its facets oriented by `facet_sign` determinants,
    the reference for the sides `validate` reads off the circuit index.
    Only for triangulations of the right shape."""
    for s in t.simplices:
        if config.normalized_volume(s) == 0:
            return ValidationResult(False, "degenerate-simplex", f"simplex {s} is flat")
    total = sum(config.normalized_volume(s) for s in t.simplices)
    hull, hull_facets = _hull(config)
    if total != hull:
        return ValidationResult(
            False, "total-volume", f"simplices cover volume {total}, hull has volume {hull}")
    for facet, owners in facet_incidence(t.simplices).items():
        if len(owners) > 2:
            return ValidationResult(
                False, "facet-pairing", f"facet {facet} belongs to {len(owners)} simplices")
        if len(owners) == 2:
            (s0, apex0), (s1, apex1) = owners
            if facet_sign(config, facet, apex0) == facet_sign(config, facet, apex1):
                return ValidationResult(
                    False, "facet-pairing",
                    f"simplices {s0} and {s1} overlap across facet {facet}")
        elif not any(h.issuperset(facet) for h in hull_facets):
            return ValidationResult(
                False, "facet-pairing", f"interior facet {facet} belongs to only one simplex")
    return ValidationResult(True)


def forgeries(config, t):
    """t with one simplex moved across an interior facet: for each facet
    shared by s0 and s1, s0 swaps its apex for the first point strictly on
    s1's side of the facet, s1's apex excepted, where there is one."""
    for facet, owners in facet_incidence(t.simplices).items():
        if len(owners) != 2:
            continue
        (s0, apex0), (s1, apex1) = owners
        far = facet_sign(config, facet, apex1)
        for q in range(config.n):
            if q not in s0 + s1 and facet_sign(config, facet, q) == far:
                moved = tuple(sorted(facet + (q,)))
                if moved not in t.simplices:
                    yield Triangulation([s for s in t.simplices if s != s0] + [moved])
                break


def _check_validate(make):
    """validate against reference_validate, on a fresh configuration, for
    every triangulation of the all-flips baseline and its forgeries; the
    number of forgeries found to overlap across a facet."""
    config = make()
    found = []
    enumerate_triangulations(config, SearchMode.ALL_FLIPS, baseline=True,
                             visitor=lambda t, g, depth: found.append(t))
    reference = make()
    overlaps = 0
    for t in found:
        assert validate(config, t) == reference_validate(reference, t) == ValidationResult(True)
        for forged in forgeries(reference, t):
            want = reference_validate(reference, forged)
            assert validate(config, forged) == want, (config.points, forged)
            overlaps += "overlap" in want.detail
    return overlaps


@pytest.mark.parametrize("make", [
    square, triangle_with_interior, nested_triangles, lambda: convex_polygon(6),
    lambda: cube(3), lambda: simplex_product(2, 2),
], ids=["square", "triangle_with_interior", "nested_triangles", "hexagon", "cube3", "d2d2"])
def test_validate_matches_the_facet_sign_walk(make):
    _check_validate(make)


def test_validate_matches_the_facet_sign_walk_on_random_configurations():
    # Criterion 3's random configurations.
    from test_acceptance import _random_config

    rng = random.Random(20260814)
    overlaps = 0
    for _ in range(22):
        pts = _random_config(rng).points
        overlaps += _check_validate(lambda: new_configuration(pts))
    assert overlaps > 0


def test_placing_square():
    t = placing_triangulation(square())
    assert t == parse_triangulation("{{0,1,2},{0,2,3}}")
    assert validate(square(), t).ok


def test_placing_always_valid():
    rng = random.Random(314)
    produced = 0
    for _ in range(40):
        n = rng.randint(3, 7)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, 4), rng.randint(0, 4)))
        cfg = new_configuration(sorted(pts))
        if cfg.dim != 2:
            continue
        t = placing_triangulation(cfg)
        assert validate(cfg, t).ok
        produced += 1
    assert produced >= 20


def test_placing_skips_interior_points_of_processed_hull():
    # Placing on the triangle with its interior point last keeps the coarse
    # triangulation: the interior point sees no hull facet.
    t = placing_triangulation(triangle_with_interior())
    assert t == parse_triangulation("{{0,1,2}}")


# -- hull facets against the point-by-point boundary test ------------------


def on_boundary(config, facet, apex) -> bool:
    """True when the facet's hyperplane supports the whole configuration:
    no point lies strictly on the side away from the apex.  The reference
    for membership in the facets of `_hull`."""
    side = facet_sign(config, facet, apex)
    for i in range(config.n):
        if i in facet:
            continue
        s = facet_sign(config, facet, i)
        if s != 0 and s != side:
            return False
    return True


def _hull_cases(count, seed):
    """Seeded random configurations of dimensions 1 to 3, some embedded in
    one more coordinate.  Their points lie in a small box, so many fall on
    facets of the hull."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = rng.choice((1, 2, 3))
        top = 4 if d == 1 else 2
        pts = {tuple(rng.randint(0, top) for _ in range(d)) for _ in range(rng.randint(4, 8))}
        if rng.random() < 0.3:
            weights = [rng.randint(-2, 2) for _ in range(d)]
            pts = {p + (sum(map(mul, weights, p)) + 1,) for p in pts}
        if len(pts) >= 2:
            cases.append(new_configuration(sorted(pts)))
    return cases


def test_hull_facets_match_the_boundary_test():
    # Every facet of every simplex, so interior facets (not on the hull)
    # are checked as well as the once-used ones.
    answers = {True: 0, False: 0}
    embedded = crowded = 0
    for cfg in _hull_cases(200, seed=20261019):
        hull = _hull(cfg)[1]
        embedded += cfg.ambient_dim > cfg.dim
        crowded += any(len(h) > cfg.dim for h in hull)
        seeds = (placing_triangulation(cfg), pulling_triangulation(cfg))
        targets = [apply_flip(cfg, t, f) for t in seeds for f in find_flips(cfg, t)]
        for t in seeds + tuple(targets):
            assert validate(cfg, t).ok, (cfg.points, t)
            for facet, owners in facet_incidence(t.simplices).items():
                want = on_boundary(cfg, facet, owners[0][1])
                assert any(h.issuperset(facet) for h in hull) == want, (cfg.points, facet)
                assert want == (len(owners) == 1), (cfg.points, t, facet)
                answers[want] += 1
    assert embedded >= 40 and crowded >= 60 and min(answers.values()) >= 2000
