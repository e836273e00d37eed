"""Flips: discovery, GKZ displacement, application.

The central regression here: every triangulation produced by apply_flip
must itself validate.  A flip rule that only checks the circuit's own
simplices (ignoring their common link) produces broken targets on the
3-cube, which is exactly what these tests would catch.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import re
import tracemalloc
from itertools import combinations
from operator import is_

import pytest

from regulartri import (
    DegenerateConfigError,
    PointConfiguration,
    RegulartriError,
    ResourceLimitError,
    SearchMode,
    StaleFlipError,
    Triangulation,
    apply_flip,
    cube,
    enumerate_triangulations,
    find_flips,
    gkz,
    nested_triangles,
    new_configuration,
    parse_triangulation,
    placing_triangulation,
    reverse_search,
    simplex_product,
    square,
    triangle_with_interior,
    validate,
)
from regulartri import flips as flips_module
from regulartri import search
from regulartri.flips import Flip, _make_flip
from regulartri.points import CircuitSide, CorankOneConfig, mask_bits, vertex_mask
from regulartri.search import GeometricFlipOracle, NeighborProvider, SearchStats

from test_points import _cube_group, check_circuit_table, flat_message, minor_circuit
from test_search import _relabelled, optimized_output


def test_find_flips_refuses_a_flat_simplex():
    # A flat simplex has no circuit index entry: find_flips names it, with
    # no simplex indexed yet or with the other one indexed to step from,
    # and indexes no flat simplex.
    points = [(0, 0), (1, 0), (2, 0), (0, 1)]
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    for indexed in ((), ((0, 2, 3),)):
        config = new_configuration(points)
        config.circuit_entries(indexed)
        with pytest.raises(DegenerateConfigError, match=flat_message((0, 1, 2))):
            find_flips(config, t)
        assert set(config._circuit_index) == set(indexed)


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
    assert f.removed == ((0, 1, 2), (0, 2, 3))
    assert f.inserted == ((0, 1, 3), (1, 2, 3))
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


def test_stale_flip_partly_present_raises():
    # Triangulations that hold some, but not all, of a flip's removed
    # simplices: all-flips members of the nested triangles against the
    # flips of the others.
    cfg = nested_triangles()
    members = []
    enumerate_triangulations(cfg, mode=SearchMode.ALL_FLIPS, baseline=True,
                             visitor=lambda t, g, d: members.append(t))
    cases = 0
    for t in members:
        for f in find_flips(cfg, t):
            for other in members:
                if 0 < sum(s in other for s in f.removed) < len(f.removed):
                    with pytest.raises(StaleFlipError):
                        apply_flip(cfg, other, f)
                    cases += 1
    assert cases == 222


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


#: Minors that break the recheck in `_make_flip`, and its message: the
#: insertion flip of the triangle with an interior point takes its
#: displacement from the minor of {0,1,2} over |λ_3| = 3, so a zero minor
#: and a minor of 10 are both refused.
FORGED_MINORS = tuple(
    (lambda self, key, minor=minor: minor,
     f"flip simplex (0, 1, 2) has volume {minor}, not a positive multiple of "
     "its circuit coefficient 3")
    for minor in (0, 10)
)


def forged_insertion_flip(minor):
    """Rebuild the insertion flip with `PointConfiguration._minor` replaced
    by `minor`."""
    tri = triangle_with_interior()
    (flip,) = find_flips(tri, parse_triangulation("{{0,1,2}}"))
    original = PointConfiguration._minor
    PointConfiguration._minor = minor
    try:
        return _make_flip(tri, flip.side, flip.link)
    finally:
        PointConfiguration._minor = original


@pytest.mark.parametrize("minor, message", FORGED_MINORS, ids=["zero", "indivisible"])
def test_make_flip_rechecks_raise(minor, message):
    with pytest.raises(RegulartriError, match=re.escape(message)):
        forged_insertion_flip(minor)


def test_make_flip_refuses_a_displacement_that_is_not_int():
    # The kernel stage takes the search's displacements with no check of
    # its own: `_make_flip` is where an entry that is not an int is refused.
    sq = square()
    (flip,) = find_flips(sq, parse_triangulation("{{0,1,2},{0,2,3}}"))
    c = flip.circuit
    forged = CircuitSide(CorankOneConfig(
        c.support, tuple(map(float, c.dependence)), c.plus, c.zero, c.minus))
    forged.opposite = flip.side.opposite
    with pytest.raises(RegulartriError, match="must have int entries"):
        _make_flip(sq, forged, flip.link)


def test_make_flip_rechecks_survive_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_flips import FORGED_MINORS, forged_insertion_flip\n"
        "for minor, _ in FORGED_MINORS:\n"
        "    try:\n"
        "        forged_insertion_flip(minor)\n"
        "    except RegulartriError as e:\n"
        "        print(e)\n"
    )
    assert lines == [message for _, message in FORGED_MINORS]


def mirrors_built(make, nodes, monkeypatch):
    """(mirror fields as built, `_make_flip` afresh) for each flip that the
    regular search, or its first `nodes` nodes, builds by `_mirror_flip`,
    and the number of flips it memoises."""
    built = []
    original = flips_module._mirror_flip

    def recording(config, side, link, other):
        flip = original(config, side, link, other)
        fields = [getattr(flip, f.name) for f in dataclasses.fields(Flip)]
        built.append((fields, _make_flip(config, side, link)))
        return flip

    monkeypatch.setattr(flips_module, "_mirror_flip", recording)
    config = make()
    if nodes is None:
        enumerate_triangulations(config)
    else:
        search_prefix(config, nodes)
    monkeypatch.undo()
    return built, len(config.flip_memo)


@pytest.mark.parametrize("make, nodes, flips, mirrors", [
    (lambda: simplex_product(2, 3), None, 1584, 792),
    (lambda: simplex_product(2, 4), 300, 334, 96),
], ids=["d2d3", "d2d4"])
def test_mirror_flips_equal_make_flip(make, nodes, flips, mirrors, monkeypatch):
    # A flip whose opposite is memoised first is built as its mirror (on
    # Δ2×Δ3 every flip is found on both sides), and equals the flip
    # `_make_flip` builds, in every field, the ones equality ignores
    # included.
    built, memoised = mirrors_built(make, nodes, monkeypatch)
    assert (memoised, len(built)) == (flips, mirrors)
    for fields, fresh in built:
        assert fields == [getattr(fresh, f.name) for f in dataclasses.fields(Flip)]
        assert fresh.removed_masks == tuple(map(vertex_mask, fresh.removed))


def test_mirror_flip_refuses_a_displacement_that_is_not_the_negated_one():
    sq = square()
    (flip,) = find_flips(sq, parse_triangulation("{{0,1,2},{0,2,3}}"))
    forged = dataclasses.replace(flip, delta=tuple(2 * x for x in flip.delta))
    with pytest.raises(RegulartriError, match="have displacements"):
        flips_module._mirror_flip(sq, flip.side.opposite, flip.link, forged)


# -- cross-check of the circuit index and the flip memo --------------------


class ReferenceFlips:
    """The flips of a triangulation found from scratch, independently of
    `find_flips`.

    Works on a fresh configuration, so no circuit index, flip memo or cached
    dependence is shared with the code under test.  The reduced circuit of
    every (d+2)-subset is taken once; a triangulation's flip on a circuit is
    the side whose faces Z∖{j} all lie in it with one common link.
    """

    def __init__(self, points):
        self.config = PointConfiguration(points)
        circuits = {}
        for subset in combinations(range(self.config.n), self.config.dim + 2):
            try:
                circuit = self.config.corank_one(subset).reduced()
            except DegenerateConfigError:
                continue
            circuits.setdefault(circuit.support, circuit)
        self.circuits = [circuits[support] for support in sorted(circuits)]

    def __call__(self, t):
        out = []
        for circuit in self.circuits:
            for oriented in (circuit, circuit.negated()):
                links = []
                for q in oriented.plus:
                    face = set(oriented.support) - {q}
                    links.append(frozenset(
                        tuple(v for v in s if v not in face)
                        for s in t.simplices if face <= set(s)
                    ))
                if links[0] and all(link == links[0] for link in links):
                    out.append(reference_flip(self.config, oriented, links[0]))
                    break
        return out


def reference_flip(config, circuit, link):
    def joins(side):
        return tuple(sorted(
            tuple(sorted(set(circuit.support) - {q} | set(tau)))
            for q in side for tau in link
        ))

    removed, inserted = joins(circuit.plus), joins(circuit.minus)
    delta = [0] * config.n
    for simplices, sign in ((removed, -1), (inserted, 1)):
        for s in simplices:
            for v in s:
                delta[v] += sign * config.normalized_volume(s)
    return Flip(circuit, removed, inserted, tuple(delta))


def all_triangulations(config):
    found = []
    enumerate_triangulations(config, SearchMode.ALL_FLIPS, baseline=True,
                             visitor=lambda t, g, d: found.append(t))
    return found


@pytest.mark.parametrize("make, count", [
    (square, 2), (lambda: cube(3), 74), (lambda: simplex_product(2, 2), 108),
    (nested_triangles, 18),
], ids=["square", "cube3", "d2d2", "nested"])
def test_find_flips_matches_reference(make, count):
    # The nested triangles have non-regular triangulations and
    # triangulations that leave inner points unused; their (d+2)-subsets
    # carry zero coefficients.
    config = make()
    reference = ReferenceFlips(config.points)
    triangulations = all_triangulations(config)
    assert len(triangulations) == count
    for t in triangulations:
        assert find_flips(config, t) == reference(t)


def search_prefix(config, size):
    """The first `size` triangulations visited by regular reverse search."""
    stats = SearchStats()
    provider = NeighborProvider(
        GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, stats), stats)
    prefix = []
    with pytest.raises(ResourceLimitError):
        reverse_search(provider, lambda t, g, d: prefix.append(t), max_nodes=size)
    return prefix


def test_find_flips_matches_reference_on_d2d3_prefix():
    config = simplex_product(2, 3)
    prefix = search_prefix(config, 200)
    reference = ReferenceFlips(config.points)
    for t in prefix:
        assert find_flips(config, t) == reference(t)


def test_flip_memo_holds_one_flip_per_distinct_flip():
    config = simplex_product(2, 2)
    assert config.flip_memo == {}
    lists = [find_flips(config, t) for t in all_triangulations(config)]
    distinct = {f for flips in lists for f in flips}
    assert len(config.flip_memo) == len(distinct)
    # An equal flip found again is the memoised object itself.
    by_value = {}
    for flips in lists:
        for f in flips:
            assert by_value.setdefault(f, f) is f


def test_flip_memo_bytes_per_flip():
    # What the flip memo and the mask table free when they are emptied
    # after a search of Δ2×Δ3, per memoised flip.  Flips with frozenset
    # sides of their own simplex tuples, memoised under frozenset links,
    # took 2 134 bytes each under tracemalloc (Python 3.11); flips with
    # sorted tuples of table tuples, under sorted link tuples, take 558.
    config = simplex_product(2, 3)
    tracemalloc.start()
    try:
        enumerate_triangulations(config)
        flips = len(config.flip_memo)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        config.flip_memo.clear()
        config.mask_table.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert flips == 1584
    assert 0 < freed / flips < 2134 / 2


def test_link_masks_under_another_bit_order():
    # A seeded shuffle of Δ2×Δ3's labels, so the vertex masks of faces and
    # simplices see another bit order than in catalog order.
    points = _relabelled(simplex_product(2, 3).points, (), 903)[0].points
    prefix = search_prefix(PointConfiguration(points), 200)
    config = PointConfiguration(points)
    reference = ReferenceFlips(points)
    lists = [find_flips(config, t) for t in prefix]
    for t, flips in zip(prefix, lists):
        assert flips == reference(t)
    distinct = {f for flips in lists for f in flips}
    assert len(config.flip_memo) == len(distinct)


# -- flips derived from a parent's list -------------------------------------


def check_derivations(config, nodes):
    """For every flip f of every node t, the list of apply_flip(t, f) derived
    from t's is the list from scratch: the same objects in the same order."""
    scratch = {}
    for t in nodes:
        flips = find_flips(config, t)
        for f in flips:
            child = apply_flip(config, t, f)
            want = scratch.get(child)
            if want is None:
                want = scratch[child] = find_flips(config, child)
            got = find_flips(config, child, (flips, f))
            assert len(got) == len(want) and all(map(is_, got, want)), (t, f)


@pytest.mark.parametrize("make, count", [
    (square, 2), (triangle_with_interior, 2), (nested_triangles, 18),
    (lambda: cube(3), 74), (lambda: simplex_product(2, 2), 108),
], ids=["square", "interior", "nested", "cube3", "d2d2"])
def test_derived_flips_on_all_flips_graphs(make, count):
    # Every edge of the whole flip graph, with non-regular triangulations
    # and triangulations that leave points unused.
    nodes = all_triangulations(make())
    assert len(nodes) == count
    check_derivations(make(), nodes)


def test_derived_flips_on_d2d3_regular_search():
    nodes = []
    enumerate_triangulations(simplex_product(2, 3), visitor=lambda t, g, d: nodes.append(t))
    assert len(nodes) == 4488
    # Every flip of every regular triangulation, also those leading to a
    # non-regular one.
    check_derivations(simplex_product(2, 3), nodes)


def test_derived_flips_on_d2d4_prefix():
    nodes = search_prefix(simplex_product(2, 4), 300)
    assert len(nodes) == 300
    check_derivations(simplex_product(2, 4), nodes)


def test_regular_search_derives_every_list_after_the_seed(monkeypatch):
    hinted = []
    original = search.find_flips

    def recording(config, t, parent=None):
        hinted.append(parent is not None)
        return original(config, t, parent)

    monkeypatch.setattr(search, "find_flips", recording)
    count, stats = enumerate_triangulations(simplex_product(2, 3))
    assert count == 4488
    assert len(hinted) == stats.cache_misses == 4488
    assert hinted[0] is False and hinted.count(False) == 1


def test_circuit_index_is_lazy_and_shared():
    config = cube(3)
    assert config._circuit_index == {} and config._circuits == {}
    t = placing_triangulation(config)
    pairs = {}
    for s in t.simplices:
        outside = [p for p in range(config.n) if p not in s]
        smask, listed = config.circuit_entry(s)
        assert mask_bits(smask) == s
        assert len(listed) == len(outside)
        for p, (side, _) in zip(outside, listed):
            # The side that a flip removing s removes: p on its plus side,
            # its other points in s.
            assert p in side.circuit.plus
            assert set(side.circuit.support) - set(s) == {p}
            key = tuple(sorted(s + (p,)))
            pair = pairs.setdefault(side.circuit.support, config._circuits[vertex_mask(key)])
            assert config._circuits[vertex_mask(key)] is pair
            assert config._circuits[side.circuit.support_mask] is pair
            assert side in pair and pair[1].circuit == pair[0].circuit.negated()
            assert config.circuit_or_none(key) == minor_circuit(config, key)
            assert [mask_bits(face) for face in side.faces] == [
                tuple(v for v in side.circuit.support if v != q) for q in side.circuit.plus
            ]
            assert all(isinstance(face, int) for face in side.faces)
            assert mask_bits(side.plus_mask) == side.circuit.plus
    assert config.circuit_entry(t.simplices[0]) is config.circuit_entry(t.simplices[0])
    assert len(config._circuit_index) == len(t.simplices)
    assert check_circuit_table(config) == pairs


def test_flip_targets_share_simplices():
    config = cube(3)
    t = placing_triangulation(config)
    for f in find_flips(config, t):
        target = apply_flip(config, t, f)
        assert target == Triangulation(target.simplices)
        kept = {id(s) for s in t.simplices} | {id(s) for s in f.inserted}
        assert all(id(s) in kept for s in target.simplices)


# -- the exchange test, the flip back to the parent, Cramer displacements ----


def searched_lists(config, monkeypatch, nodes=None, group=None):
    """Every (node, hint, list) that `find_flips` returns to the regular
    search, or to its first `nodes` nodes, candidate children included;
    orbits of `group` when it is given."""
    calls = []
    original = search.find_flips

    def recording(config, t, parent=None):
        flips = original(config, t, parent)
        calls.append((t, parent, flips))
        return flips

    monkeypatch.setattr(search, "find_flips", recording)
    if nodes is None:
        enumerate_triangulations(config)
    elif group is None:
        search_prefix(config, nodes)
    else:
        with pytest.raises(ResourceLimitError):
            enumerate_triangulations(config, group=group, max_nodes=nodes)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("make, nodes, lists", [
    (lambda: simplex_product(2, 4), 300, 429),
    (lambda: cube(4), 40, 41),
    (lambda: _relabelled(simplex_product(2, 3).points, (), 2024)[0], 500, 501),
], ids=["d2d4", "cube4", "d2d3-relabelled"])
def test_searched_lists_match_reference(make, nodes, lists, monkeypatch):
    # Derived lists and lists from scratch, each against the reference, and
    # each derived list against a from-scratch call on the same
    # configuration: the same memoised objects.
    config = make()
    reference = ReferenceFlips(config.points)
    calls = searched_lists(config, monkeypatch, nodes)
    assert len(calls) == lists
    assert [parent is None for _, parent, _ in calls].count(True) == 1
    for t, parent, flips in calls:
        assert flips == reference(t)
        if parent is not None:
            scratch = find_flips(config, t)
            assert len(flips) == len(scratch) and all(map(is_, flips, scratch))


def test_derived_flips_on_cube4_prefix():
    nodes = search_prefix(cube(4), 30)
    check_derivations(cube(4), nodes)


def test_derived_lists_hold_the_flip_back(monkeypatch):
    # Every derived list of the Δ2×Δ3 search holds the flip back to its
    # parent: the opposite side of the step's circuit with the same link,
    # the very object a from-scratch call returns.
    config = simplex_product(2, 3)
    calls = searched_lists(config, monkeypatch)
    derived = [(t, parent[1], flips) for t, parent, flips in calls if parent]
    assert len(derived) == 4487
    for t, step, flips in derived:
        (back,) = [f for f in flips if f.circuit.support == step.circuit.support]
        assert (back.removed, back.inserted) == (step.inserted, step.removed)
        assert back.delta == tuple(-x for x in step.delta)
        assert back.side is step.side.opposite and back.link == step.link
        assert config.flip_memo[back.side, back.link] is back
        assert any(f is back for f in find_flips(config, t))


def test_link_tests_on_d2d3(monkeypatch):
    # Side-link tests of the regular search of Δ2×Δ3: 187 224 sides met
    # over all circuits of all simplices, 51 030 tested by the derivation
    # from the parent's list, 9 725 once the exchange test runs first and
    # the flip back to the parent comes without one.
    tests, found = [], []
    original = flips_module._side_link

    def counting(faces, masks):
        link = original(faces, masks)
        tests.append(1)
        found.append(link is not None)
        return link

    monkeypatch.setattr(flips_module, "_side_link", counting)
    count, stats = enumerate_triangulations(simplex_product(2, 3))
    assert count == 4488 and stats.flips_evaluated == 28368
    assert len(tests) == 9725 and sum(found) == 7698


def tuple_exchanges(simplex, p, side):
    """The exchange simplices S − q + p of the side listed for p in the
    circuit index entry of S, for q ≠ p on its plus side, as sorted tuples."""
    return [tuple(sorted(set(simplex) - {q} | {p})) for q in side.circuit.plus if q != p]


@pytest.mark.parametrize("make, nodes, group, steps", [
    (lambda: simplex_product(2, 3), None, None, 351),
    (lambda: simplex_product(2, 4), 300, None, 81),
    (lambda: cube(4), 300, _cube_group, 49),
], ids=["d2d3", "d2d4", "cube4-orbits"])
def test_entries_and_step_memos_match_tuples(make, nodes, group, steps, monkeypatch):
    # Every indexed simplex's pairs hold, for each p outside it, its side
    # and the exchange simplices S − q + p built from tuples, each mask the
    # one int the configuration keeps for it.  Every flip the search
    # derives a list over holds the flip back and the `_scan` of its
    # inserted simplices without the flip back's side, and no other flip
    # holds a step memo.
    config = make()
    calls = searched_lists(config, monkeypatch, nodes, group and group(config))
    for s, (smask, pairs) in config._circuit_index.items():
        assert smask == vertex_mask(s) and config._minors[s]
        outside = [p for p in range(config.n) if p not in s]
        assert len(pairs) == len(outside)
        for p, (side, exchanges) in zip(outside, pairs):
            assert p in side.circuit.plus
            assert list(map(mask_bits, exchanges)) == tuple_exchanges(s, p, side)
            assert all(config._exchange_masks[m] is m for m in exchanges)
    used = {id(parent[1]): parent[1] for _, parent, _ in calls if parent}
    held = [f for f in config.flip_memo.values() if f.step_memo is not None]
    assert len(used) == len(held) == steps
    assert {id(f) for f in held} == set(used)
    for step in held:
        back, scan = step.step_memo
        assert back is config.flip_memo[step.side.opposite, step.link]
        assert list(scan) == flips_module._scan(config, step.inserted, {back.side})


def test_verify_increments_catches_a_step_memo_without_a_side(monkeypatch):
    # Drop from one step memo a side on which its derivation finds a flip:
    # the same search under verify_increments, on the same configuration
    # and so the same memos, then refuses the derived list.
    config = simplex_product(2, 2)
    assert enumerate_triangulations(config, verify_increments=True)[0] == 108
    calls = searched_lists(config, monkeypatch)
    for t, (parent_flips, step), flips in (c for c in calls if c[1]):
        kept = {id(f) for f in parent_flips} | {id(step.step_memo[0])}
        found = [f for f in flips if id(f) not in kept]
        if found:
            break
    back, scan = step.step_memo
    dropped = tuple(pair for pair in scan if pair[0] is not found[0].side)
    assert len(dropped) == len(scan) - 1
    object.__setattr__(step, "step_memo", (back, dropped))
    with pytest.raises(RegulartriError, match="derived flips disagree with find_flips"):
        enumerate_triangulations(config, verify_increments=True)


def test_step_memo_and_entry_pair_bytes():
    # What the step memos and the circuit index entries' pairs free when
    # they are dropped after a search of Δ2×Δ3, per indexed simplex: 852
    # bytes under tracemalloc (Python 3.11).  The exchange masks are the
    # mask table's ints and the sides the circuit table's, so they stay.
    config = simplex_product(2, 3)
    tracemalloc.start()
    try:
        enumerate_triangulations(config)
        steps = [f for f in config.flip_memo.values() if f.step_memo is not None]
        index = config._circuit_index
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for step in steps:
            object.__setattr__(step, "step_memo", None)
        for simplex, (mask, _) in list(index.items()):
            index[simplex] = (mask, ())
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(steps) == 351 and len(index) == 432
    assert 0 < freed / len(index) < 1000


def regular_triangulations(config):
    found = []
    enumerate_triangulations(config, visitor=lambda t, g, d: found.append(t))
    return found


@pytest.mark.parametrize("make, nodes_of, count", [
    (lambda: simplex_product(2, 3), regular_triangulations, 4488),
    (lambda: cube(4), lambda config: search_prefix(config, 60), 60),
    (nested_triangles, all_triangulations, 18),
], ids=["d2d3", "cube4", "nested"])
def test_exchange_test_rejects_no_flip(make, nodes_of, count):
    # A side whose exchange simplices are not all present has no link in
    # the triangulation, for every side of every simplex of every node.
    config = make()
    triangulations = nodes_of(config)
    assert len(triangulations) == count
    rejected = 0
    for t in triangulations:
        masks = [config.circuit_entry(s)[0] for s in t.simplices]
        present = set(masks)
        for s in t.simplices:
            for side, exchanges in config.circuit_entry(s)[1]:
                if not present.issuperset(exchanges):
                    assert flips_module._side_link(side.faces, masks) is None
                    rejected += 1
    assert rejected > count


def test_exchange_simplices_are_masks():
    # The circuit index holds each simplex's mask and sides, no simplex
    # tuple, and the mask rule gives the exchange simplices S − q + p.
    config = simplex_product(2, 3)
    t = placing_triangulation(config)
    for s in t.simplices:
        entry = config.circuit_entry(s)
        assert config.circuit_entry(s) is entry
        outside = [p for p in range(config.n) if p not in s]
        for p, (side, swaps) in zip(outside, entry[1]):
            assert side.opposite.opposite is side
            assert side.opposite.circuit == side.circuit.negated()
            assert all(isinstance(e, int) for e in swaps)
            assert list(map(mask_bits, swaps)) == tuple_exchanges(s, p, side)
    for smask, pairs in config._circuit_index.values():
        assert isinstance(smask, int)
        assert all(isinstance(side, CircuitSide) for side, _ in pairs)
        assert all(config._exchange_masks[m] is m for _, swaps in pairs for m in swaps)
    # No simplex tuple is decoded for an exchange mask: the mask table
    # holds the simplices of the flips alone, each decoded once.
    assert config.mask_table == {}
    flips = find_flips(config, t)
    held = {s for f in flips for s in f.removed + f.inserted}
    assert held
    assert {m: s for m, s in config.mask_table.values()} == {vertex_mask(s): s for s in held}


def test_exchange_masks_match_tuples_on_d2d3():
    # On every simplex of every regular triangulation of Δ2×Δ3, the mask
    # rule's exchange set equals {S − q + p} built from tuples.
    config = simplex_product(2, 3)
    simplices = {s for t in regular_triangulations(config) for s in t.simplices}
    assert len(simplices) == 432
    checked = 0
    for s in sorted(simplices):
        pairs = config.circuit_entry(s)[1]
        outside = [p for p in range(config.n) if p not in s]
        assert len(pairs) == len(outside)
        for p, (side, exchanges) in zip(outside, pairs):
            want = {vertex_mask(e) for e in tuple_exchanges(s, p, side)}
            assert set(exchanges) == want
            checked += len(want)
    # 2 160 sides with one exchange and 432 with two.
    assert checked == 3024
