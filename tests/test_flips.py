"""Flips: discovery, GKZ displacement, application.

The central regression here: every triangulation produced by apply_flip
must itself validate.  A flip rule that only checks the circuit's own
simplices (ignoring their common link) produces broken targets on the
3-cube, which is exactly what these tests would catch.
"""

from __future__ import annotations

import random

import pytest

from regulartri import (
    PointConfiguration,
    RegulartriError,
    StaleFlipError,
    Triangulation,
    apply_flip,
    cube,
    find_flips,
    gkz,
    nested_triangles,
    new_configuration,
    parse_triangulation,
    placing_triangulation,
    square,
    triangle_with_interior,
    validate,
)
from regulartri.flips import _make_flip

from test_search import optimized_output


def test_square_flip_pins():
    sq = square()
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    flips = find_flips(sq, t)
    assert len(flips) == 1
    f = flips[0]
    assert f.circuit.support == (0, 1, 2, 3)
    # Oriented so that the plus side is the one currently triangulated:
    # T contains the joins over {1,3}, and delta is positive there.
    assert f.circuit.plus == (1, 3)
    assert f.circuit.minus == (0, 2)
    assert f.removed == frozenset({(0, 1, 2), (0, 2, 3)})
    assert f.inserted == frozenset({(0, 1, 3), (1, 2, 3)})
    assert f.delta == (-1, 1, -1, 1)
    other = apply_flip(sq, t, f)
    assert other == parse_triangulation("{{0,1,3},{1,2,3}}")
    # The reverse flip exists and has the opposite displacement.
    back = find_flips(sq, other)
    assert len(back) == 1
    assert back[0].delta == (1, -1, 1, -1)
    assert apply_flip(sq, other, back[0]) == t


def test_insertion_flip_pins():
    tri = triangle_with_interior()
    coarse = parse_triangulation("{{0,1,2}}")
    flips = find_flips(tri, coarse)
    assert len(flips) == 1
    f = flips[0]
    assert f.delta == (-3, -3, -3, 9)
    fine = apply_flip(tri, coarse, f)
    assert fine == parse_triangulation("{{0,1,3},{0,2,3},{1,2,3}}")
    back = find_flips(tri, fine)
    assert len(back) == 1
    assert back[0].delta == (3, 3, 3, -9)


def test_simplex_has_no_flips():
    cfg = new_configuration([(0, 0), (1, 0), (0, 1)])
    assert find_flips(cfg, parse_triangulation("{{0,1,2}}")) == []


def test_delta_signs_follow_the_circuit():
    for cfg in (square(), triangle_with_interior(), cube(3), nested_triangles()):
        t = placing_triangulation(cfg)
        for f in find_flips(cfg, t):
            support = set(f.circuit.support)
            plus = set(f.circuit.plus)
            minus = set(f.circuit.minus)
            for i in range(cfg.n):
                if i in plus:
                    assert f.delta[i] > 0
                elif i in minus:
                    assert f.delta[i] < 0
                else:
                    assert f.delta[i] == 0
            assert support == plus | minus


def test_each_circuit_contributes_at_most_one_flip():
    for cfg in (cube(3), nested_triangles()):
        t = placing_triangulation(cfg)
        flips = find_flips(cfg, t)
        supports = [f.circuit.support for f in flips]
        assert len(supports) == len(set(supports))
        assert supports == sorted(supports)


def test_apply_flip_requires_present_simplices():
    sq = square()
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    other = parse_triangulation("{{0,1,3},{1,2,3}}")
    (f,) = find_flips(sq, t)
    with pytest.raises(StaleFlipError):
        apply_flip(sq, other, f)


def test_flip_targets_always_validate():
    # Walk two levels of the flip graph on configurations whose flips need
    # the link condition (circuits with fewer than d+2 points).
    for cfg in (cube(3), nested_triangles(), triangle_with_interior()):
        start = placing_triangulation(cfg)
        frontier = [start]
        seen = {start}
        for _ in range(2):
            new = []
            for t in frontier:
                for f in find_flips(cfg, t):
                    target = apply_flip(cfg, t, f)
                    res = validate(cfg, target)
                    assert res.ok, f"{res.kind}: {res.detail}"
                    if target not in seen:
                        seen.add(target)
                        new.append(target)
            frontier = new
        assert len(seen) > 1


def test_incremental_gkz_matches_recomputation():
    for cfg in (square(), triangle_with_interior(), cube(3), nested_triangles()):
        t = placing_triangulation(cfg)
        base = gkz(cfg, t)
        for f in find_flips(cfg, t):
            assert any(x != 0 for x in f.delta)
            target = apply_flip(cfg, t, f)
            moved = tuple(a + b for a, b in zip(base, f.delta))
            assert moved == gkz(cfg, target)


def test_flips_are_mutual():
    # If f leads from T to T', some flip of T' leads back with delta
    # exactly negated.
    cfg = cube(3)
    t = placing_triangulation(cfg)
    for f in find_flips(cfg, t):
        target = apply_flip(cfg, t, f)
        inverse = [
            g
            for g in find_flips(cfg, target)
            if g.delta == tuple(-x for x in f.delta)
        ]
        assert len(inverse) == 1
        assert apply_flip(cfg, target, inverse[0]) == t


def test_no_two_flips_proportional():
    # Distinct flips of one triangulation never have positively
    # proportional displacements (they span distinct edge directions).
    from fractions import Fraction

    cfg = cube(3)
    t = placing_triangulation(cfg)
    flips = find_flips(cfg, t)
    for i in range(len(flips)):
        for j in range(i + 1, len(flips)):
            a, b = flips[i].delta, flips[j].delta
            ratios = {
                Fraction(x, y) for x, y in zip(a, b) if y != 0
            }
            zeros_match = all((x == 0) == (y == 0) for x, y in zip(a, b))
            assert not (zeros_match and len(ratios) == 1 and ratios.pop() > 0)


def test_random_walks_stay_valid():
    rng = random.Random(909)
    walked = 0
    for _ in range(25):
        n = rng.randint(4, 7)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, 4), rng.randint(0, 4)))
        cfg = new_configuration(sorted(pts))
        if cfg.dim != 2:
            continue
        t = placing_triangulation(cfg)
        base = gkz(cfg, t)
        for _ in range(6):
            flips = find_flips(cfg, t)
            if not flips:
                break
            f = rng.choice(flips)
            t = apply_flip(cfg, t, f)
            base = tuple(a + b for a, b in zip(base, f.delta))
            res = validate(cfg, t)
            assert res.ok, f"{res.kind}: {res.detail}"
            assert base == gkz(cfg, t)
            walked += 1
    assert walked >= 40


def test_upflip_downflip_partition():
    # Every flip is strictly up or strictly down in lex order on GKZ.
    cfg = nested_triangles()
    t = placing_triangulation(cfg)
    base = gkz(cfg, t)
    for f in find_flips(cfg, t):
        target_gkz = tuple(a + b for a, b in zip(base, f.delta))
        assert target_gkz != base


#: Volume functions that break a recheck in `_make_flip`, and its message.
FORGED_VOLUMES = (
    (lambda self, s: 0, "inserted flip simplex is degenerate"),
    # The removed simplex {0,1,2} weighs 5, every other simplex 1.
    (lambda self, s: 5 if 3 not in s else 1, "flip displacement must be positive"),
)


def forged_square_flip(volume):
    """Rebuild the square's flip with `normalized_volume` replaced by `volume`."""
    sq = square()
    circuit = find_flips(sq, parse_triangulation("{{0,1,2},{0,2,3}}"))[0].circuit
    original = PointConfiguration.normalized_volume
    PointConfiguration.normalized_volume = volume
    try:
        return _make_flip(sq, circuit, frozenset({()}))
    finally:
        PointConfiguration.normalized_volume = original


@pytest.mark.parametrize("volume, message", FORGED_VOLUMES)
def test_make_flip_rechecks_raise(volume, message):
    with pytest.raises(RegulartriError, match=message):
        forged_square_flip(volume)


def test_make_flip_rechecks_survive_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_flips import FORGED_VOLUMES, forged_square_flip\n"
        "for volume, _ in FORGED_VOLUMES:\n"
        "    try:\n"
        "        forged_square_flip(volume)\n"
        "    except RegulartriError as e:\n"
        "        print(e)\n"
    )
    assert len(lines) == len(FORGED_VOLUMES)
    for line, (_, message) in zip(lines, FORGED_VOLUMES):
        assert line.startswith(message)
