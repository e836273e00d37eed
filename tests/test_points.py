"""Point configurations: volumes, circuits, affine coordinates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from regulartri import (
    DegenerateConfigError,
    DimensionError,
    InvalidInputError,
    NotCorankOneError,
    RegulartriError,
    convex_polygon,
    cube,
    determinant,
    kernel_vector,
    new_configuration,
    nested_triangles,
    simplex_product,
    square,
    triangle_with_interior,
)
from regulartri import exact
from regulartri.points import CircuitSide, CorankOneConfig, vertex_mask

from test_search import optimized_output
from test_symmetry import affine_coordinates


def test_construction_errors():
    with pytest.raises(InvalidInputError):
        new_configuration([(0, 0)])
    with pytest.raises(InvalidInputError):
        new_configuration([(0, 0), (1, 0), (0, 0)])
    with pytest.raises(InvalidInputError):
        new_configuration([(0, 0), (1, 0, 0)])


def test_non_integer_coordinates_are_refused():
    square_points = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for bad in (1.9, Fraction(3, 2), "1", "a", None, float("nan"), float("inf")):
        points = [square_points[0], (bad, 0)] + square_points[2:]
        with pytest.raises(InvalidInputError, match="coordinate .* is not an integer"):
            new_configuration(points)
    # Values equal to an integer are taken as that integer.
    exact = new_configuration([(0, 0), (1.0, 0), (Fraction(2, 2), True), (0, 1)])
    assert exact.points == square().points
    assert all(type(x) is int for p in exact.points for x in p)


def test_dimension_detection():
    assert square().dim == 2
    assert cube(3).dim == 3
    assert new_configuration([(0,), (1,), (5,)]).dim == 1
    # Collinear points embedded in the plane still have intrinsic dim 1.
    assert new_configuration([(0, 0), (1, 1), (2, 2)]).dim == 1
    # A planar slice of 3-space has intrinsic dim 2.
    plane = [(0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert new_configuration(plane).dim == 2


#: Every catalog configuration, and cube(3) in a 3-space of R^5.
COBASIS_FIXTURES = {
    "square": square,
    "triangle_with_interior": triangle_with_interior,
    "nested_triangles": nested_triangles,
    "polygon6": lambda: convex_polygon(6),
    "cube3": lambda: cube(3),
    "cube4": lambda: cube(4),
    **{f"d2d{k}": (lambda k=k: simplex_product(2, k)) for k in (2, 3, 4, 5)},
    "d3d3": lambda: simplex_product(3, 3),
    "cube3_in_r5": lambda: new_configuration(
        [(x, y, z, x + y, 2 * z - y + 1) for x, y, z in cube(3).points]),
}


@pytest.mark.parametrize("name", sorted(COBASIS_FIXTURES))
def test_cobasis_complements_an_affine_basis(name):
    # The points off the co-basis, `basis`, are affinely independent, read
    # on the input coordinates: an affine dependence zero on the co-basis
    # is zero.
    cfg = COBASIS_FIXTURES[name]()
    cobasis = cfg.cobasis
    assert len(cobasis) == cfg.n - cfg.dim - 1
    assert list(cobasis) == sorted(set(cobasis)) and set(cobasis) <= set(range(cfg.n))
    assert cfg.basis == tuple(i for i in range(cfg.n) if i not in cobasis)
    basis = [(1,) + p for i, p in enumerate(cfg.points) if i not in cobasis]
    assert exact.rank(basis) == cfg.dim + 1
    if name == "cube3_in_r5":
        assert (cfg.dim, cfg.ambient_dim) == (3, 5)


def test_normalized_volume_pins():
    sq = square()
    assert sq.normalized_volume((0, 1, 2)) == 1
    assert sq.normalized_volume((0, 2, 3)) == 1
    tri = triangle_with_interior()
    assert tri.normalized_volume((0, 1, 2)) == 9
    # The interior point splits off smaller cells.
    assert tri.normalized_volume((0, 1, 3)) == 3
    # Degenerate (collinear) triples get volume zero.
    line = new_configuration([(0, 0), (1, 0), (2, 0), (0, 1)])
    assert line.normalized_volume((0, 1, 2)) == 0


def test_normalized_volume_argument_checks():
    sq = square()
    with pytest.raises(DimensionError):
        sq.normalized_volume((0, 1))
    with pytest.raises(InvalidInputError):
        sq.normalized_volume((0, 1, 1))
    with pytest.raises(InvalidInputError):
        sq.normalized_volume((0, 1, 7))


def test_normalized_volume_invariant_under_unimodular_maps():
    rng = random.Random(5)
    base = [(0, 0), (3, 0), (0, 3), (1, 1), (2, 2)]
    cfg = new_configuration(base)
    # Shear (x, y) -> (x + 2y, y) and translate: volumes must not change.
    moved = new_configuration([(x + 2 * y + 5, y - 1) for x, y in base])
    for _ in range(20):
        s = tuple(sorted(rng.sample(range(len(base)), 3)))
        assert cfg.normalized_volume(s) == moved.normalized_volume(s)


def test_corank_one_example():
    # Three collinear points plus one off the line: the dependence lives on
    # the line and the fourth point carries coefficient zero.
    cfg = new_configuration([(0, 0), (2, 0), (1, 0), (0, 1)])
    c = cfg.corank_one((0, 1, 2, 3))
    assert c.support == (0, 1, 2, 3)
    assert c.dependence == (1, 1, -2, 0)
    assert c.plus == (0, 1)
    assert c.zero == (3,)
    assert c.minus == (2,)


def test_corank_one_square():
    cfg = square()
    c = cfg.corank_one((0, 1, 2, 3))
    assert c.dependence == (1, -1, 1, -1)
    assert c.plus == (0, 2)
    assert c.zero == ()
    assert c.minus == (1, 3)


def test_corank_one_dependence_is_exact():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        pts = set()
        while len(pts) < 5:
            pts.add((rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)))
        cfg = new_configuration(sorted(pts))
        if cfg.dim != 3:
            continue
        c = cfg.corank_one((0, 1, 2, 3, 4))
        checked += 1
        assert sum(c.dependence) == 0
        dims = cfg.ambient_dim
        for k in range(dims):
            assert sum(c.dependence[j] * cfg.points[i][k] for j, i in enumerate(c.support)) == 0
        assert set(c.plus) | set(c.zero) | set(c.minus) == set(c.support)
    assert checked >= 50


def test_corank_one_degenerate_subset():
    cfg = new_configuration([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    with pytest.raises(DegenerateConfigError):
        cfg.corank_one((0, 1, 2, 3))
    assert cfg.circuit_or_none((0, 1, 2, 3)) is None
    assert cfg.circuit_or_none((0, 1, 2, 4)) is not None


def test_corank_one_size_check():
    cfg = square()
    with pytest.raises(DimensionError):
        cfg.corank_one((0, 1, 2))


def test_circuit_orientation_helpers():
    cfg = square()
    c = cfg.corank_one((0, 1, 2, 3))
    assert c.coefficient(1) == -1
    flipped = c.negated()
    assert flipped.dependence == (-1, 1, -1, 1)
    assert flipped.plus == (1, 3) and flipped.minus == (0, 2)
    assert flipped.negated().dependence == c.dependence


def test_circuit_reduced_drops_zero_coefficients():
    cfg = new_configuration([(0, 0), (2, 0), (1, 0), (0, 1)])
    c = cfg.corank_one((0, 1, 2, 3)).reduced()
    assert c.support == (0, 1, 2)
    assert c.dependence == (1, 1, -2)
    assert c.zero == ()
    # Already-reduced circuits come back unchanged.
    sq = square().corank_one((0, 1, 2, 3))
    assert sq.reduced() is sq


def test_total_volume_pins():
    assert square().total_volume() == 2
    assert triangle_with_interior().total_volume() == 9
    assert cube(3).total_volume() == 6
    assert nested_triangles().total_volume() == 16


def test_pack_refuses_vectors_outside_the_code():
    sq = square()
    assert sq.code_width == 8
    assert sq.pack((2, 1, 2, 1)) == 0x02010201
    assert sq.unpack(0x02010201) == (2, 1, 2, 1)
    for vec, message in (((0, 0, 0, 256), "outside its 8-bit field"),
                         ((0, -1, 0, 0), "outside its 8-bit field"),
                         ((0, 0, 0), "length 3, not 4")):
        with pytest.raises(RegulartriError, match=message):
            sq.pack(vec)


def test_code_shift_moves_codes_like_vectors():
    sq = square()
    assert sq.code_shift((-1, 1, -1, 1)) == -0x00FF00FF
    assert sq.pack((2, 1, 2, 1)) + sq.code_shift((-1, 1, -1, 1)) == sq.pack((1, 2, 1, 2))
    assert sq.pack((1, 2, 1, 2)) + sq.code_shift((1, -1, 1, -1)) == sq.pack((2, 1, 2, 1))


def test_facet_sign():
    cfg = square()
    # Diagonal 0-2 separates points 1 and 3.
    s1 = cfg.facet_sign((0, 2), 1)
    s3 = cfg.facet_sign((0, 2), 3)
    assert s1 != 0 and s3 != 0 and s1 == -s3
    # A point on the facet's affine hull gets sign zero.
    line = new_configuration([(0, 0), (2, 2), (1, 1), (0, 1)])
    assert line.facet_sign((0, 1), 2) == 0


def test_facet_sign_matches_determinant_in_every_order():
    # facet_sign reads the memoised minor of the sorted indices; it must
    # equal the sign of the determinant of the rows in the order given.
    rng = random.Random(20261019)
    for cfg in (square(), cube(3), simplex_product(2, 3)):
        d = cfg.dim
        for _ in range(40):
            chosen = rng.sample(range(cfg.n), d + 1)
            if rng.random() < 0.25:
                chosen[-1] = rng.choice(chosen[:-1])  # a repeated point
            for order in permutations(chosen):
                facet, point = order[:-1], order[-1]
                det = determinant([cfg.hom[i] for i in order])
                assert cfg.facet_sign(facet, point) == (det > 0) - (det < 0)


def test_affine_coordinates_exact():
    cfg = triangle_with_interior()
    coords = affine_coordinates(cfg, 3, (0, 1, 2))
    assert sum(coords) == 1
    assert coords == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    # Basis points map to unit vectors.
    assert affine_coordinates(cfg, 1, (0, 1, 2)) == (0, 1, 0)
    with pytest.raises(DegenerateConfigError):
        affine_coordinates(new_configuration([(0, 0), (1, 0), (2, 0), (0, 1)]), 3, (0, 1, 2))


# -- circuits by Cramer's rule against kernel_vector -------------------------

#: Configurations whose every (d+2)-subset and simplex is checked; the last
#: two have collinear and coplanar points, so degenerate subsets occur.
CRAMER_FIXTURES = {
    "square": square,
    "cube3": lambda: cube(3),
    "d2d2": lambda: simplex_product(2, 2),
    "d2d3": lambda: simplex_product(2, 3),
    "nested": nested_triangles,
    "collinear": lambda: new_configuration(
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)]
    ),
    "coplanar": lambda: new_configuration(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0),
         (0, 0, 1), (0, 0, 2), (1, 1, 1)]
    ),
}


def _reference_dependence(cfg, key):
    """kernel_vector on the homogenized columns of `key`, or None when it
    finds no one-dimensional kernel."""
    try:
        return kernel_vector(list(zip(*(cfg.hom[i] for i in key))))
    except NotCorankOneError:
        return None


def _agrees(got, want):
    """A circuit_or_none result against a _reference_dependence result."""
    return got is None if want is None else got.dependence == want


def minor_circuit(cfg, key):
    """The circuit of the sorted (d+2)-tuple `key` by Cramer's rule on its
    maximal minors, lambda_i = (-1)^i * minor(key without key[i]), or None
    when every minor is zero.  It reads and fills none of cfg's caches: it
    is the reference that the adjugate paths are compared against."""
    lam = [(-1) ** i * determinant([cfg.hom[p] for p in key[:i] + key[i + 1:]])
           for i in range(len(key))]
    if not any(lam):
        return None
    g = 0
    for c in lam:
        g = gcd(g, c)
    sign = 1 if next(c for c in lam if c) > 0 else -1
    lam = tuple(sign * c // g for c in lam)
    for coords in zip(*(cfg.hom[p] for p in key)):
        assert sum(c * x for c, x in zip(lam, coords)) == 0, key
    return CorankOneConfig(
        key, lam,
        tuple(p for p, c in zip(key, lam) if c > 0),
        tuple(p for p, c in zip(key, lam) if c == 0),
        tuple(p for p, c in zip(key, lam) if c < 0),
    )


@pytest.mark.parametrize("name", sorted(CRAMER_FIXTURES))
def test_circuits_match_kernel_vector(name, monkeypatch):
    # One configuration answers every subset, sharing its caches; fresh
    # ones answer each subset cold, through both entry points.  None of
    # them takes an adjugate by cofactors: flat bases are passed over.
    monkeypatch.setattr(exact, "_cofactors", None)
    make = CRAMER_FIXTURES[name]
    shared = make()
    degenerate = set()
    flat_base = set()
    for key in combinations(range(shared.n), shared.dim + 2):
        want = _reference_dependence(shared, key)
        degenerate.add(want is None)
        if determinant([shared.hom[i] for i in key[:-1]]) == 0:
            # circuit_or_none passes over key[:-1] to the next base.
            flat_base.add(want is None)
        assert _agrees(minor_circuit(shared, key), want), key
        assert _agrees(shared.circuit_or_none(key), want), key
        assert _agrees(make().circuit_or_none(key), want), key
        if want is None:
            with pytest.raises(DegenerateConfigError):
                make().corank_one(key)
        else:
            assert make().corank_one(key).dependence == want, key
    if name in ("collinear", "coplanar"):
        assert degenerate == {True, False}
        # Flat first d+1 points occur both in degenerate keys and in keys
        # whose last point spans.
        assert flat_base == {True, False}


def test_circuits_match_kernel_vector_on_d2d4_sample():
    cfg = simplex_product(2, 4)
    rng = random.Random(20261018)
    for _ in range(3000):
        key = tuple(sorted(rng.sample(range(cfg.n), cfg.dim + 2)))
        assert _agrees(cfg.circuit_or_none(key), _reference_dependence(cfg, key)), key


@pytest.mark.parametrize("name", sorted(CRAMER_FIXTURES))
def test_normalized_volume_is_abs_determinant(name):
    cfg = CRAMER_FIXTURES[name]()
    for simplex in combinations(range(cfg.n), cfg.dim + 1):
        vol = cfg.normalized_volume(simplex)
        assert type(vol) is int
        assert vol == abs(determinant([cfg.hom[i] for i in simplex])), simplex


def test_minors_fill_lazily_and_are_shared(monkeypatch):
    cfg = square()
    assert cfg._minors == {}
    c = cfg.corank_one((0, 1, 2, 3))
    # The circuit came from the adjugate of its base (0, 1, 2), which left
    # the base's determinant and no other minor.
    assert cfg._minors == {(0, 1, 2): determinant([cfg.hom[i] for i in (0, 1, 2)])}
    computed = []
    real = exact.determinant
    monkeypatch.setattr(exact, "determinant", lambda m: computed.append(m) or real(m))
    volumes = [cfg.normalized_volume(s) for s in combinations(range(4), 3)]
    assert volumes == [abs(x) for x in c.dependence[::-1]]
    assert len(cfg._minors) == 4
    # The base's volume read the adjugate's determinant.
    assert len(computed) == 3


def forged_minor_circuit():
    """The square's circuit from an adjugate with one entry off by one."""
    real = exact.adjugate

    def forged(m):
        det, adj = real(m)
        adj[0][0] += 1
        return det, adj

    exact.adjugate = forged
    try:
        return square().circuit_or_none((0, 1, 2, 3))
    finally:
        exact.adjugate = real


def test_forged_minor_raises():
    with pytest.raises(RegulartriError, match="gives no affine dependence"):
        forged_minor_circuit()


def test_forged_minor_check_survives_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_points import forged_minor_circuit\n"
        "try:\n"
        "    forged_minor_circuit()\n"
        "except RegulartriError as e:\n"
        "    print(e)\n"
    )
    assert lines == ["Cramer's rule gives no affine dependence of (0, 1, 2, 3)"]


# -- the circuit index from one adjugate against the minor path --------------


def check_circuit_table(cfg):
    """Every value of cfg's circuit table is a pair of sides or False, every
    support maps to the pair of its own circuit, and every support has one
    pair, whichever keys reach it."""
    pairs = {}
    for key, pair in cfg._circuits.items():
        if pair is False:
            assert len(key) == cfg.dim + 2, key
            continue
        assert type(pair) is tuple and len(pair) == 2, key
        assert all(type(side) is CircuitSide for side in pair), key
        circuit = pair[0].circuit
        assert circuit.zero == () and circuit.dependence[0] > 0, key
        assert pair[1].circuit == circuit.negated(), key
        assert pair[0].opposite is pair[1] and pair[1].opposite is pair[0], key
        for side in pair:
            plus, support = side.circuit.plus, side.circuit.support
            assert side.plus_mask == vertex_mask(plus), key
            assert side.faces == tuple(
                vertex_mask(v for v in support if v != q) for q in plus), key
        assert set(circuit.support) <= set(key), key
        assert cfg._circuits[circuit.support] is pair, key
        assert pairs.setdefault(circuit.support, pair) is pair, key
    return pairs


def _check_sides(make, simplices):
    """The circuit index entry of each simplex, all on one configuration,
    against `minor_circuit`: each (d+2)-set maps to its support's pair of
    sides, and circuit_or_none reads the set's circuit back from that pair."""
    cfg = make()
    checked = 0
    for simplex in simplices:
        smask, pairs = cfg.circuit_entry(simplex)
        assert smask == vertex_mask(simplex)
        sides = iter([side for side, _ in pairs])
        for p in range(cfg.n):
            if p in simplex:
                continue
            key = tuple(sorted(simplex + (p,)))
            want = minor_circuit(cfg, key)
            if want is None:
                assert cfg._circuits[key] is False, key
            else:
                # p is on the plus side of the circuit listed for it, or
                # off the circuit (in a flat simplex), which is then negated.
                circuit = want.reduced()
                pair = cfg._circuits[key]
                assert pair[0].circuit == circuit, key
                side = next(sides)
                assert side is pair[0 if p in circuit.plus else 1], key
            checked += 1
        assert next(sides, None) is None
    # Only the adjugates ran: each left its simplex's determinant, no other minor.
    assert set(cfg._minors) <= set(simplices)
    assert all(cfg._minors[s] == determinant([cfg.hom[i] for i in s]) for s in cfg._minors)
    check_circuit_table(cfg)
    for key in list(cfg._circuits):
        if len(key) == cfg.dim + 2:
            assert cfg.circuit_or_none(key) == minor_circuit(cfg, key), key
    return checked


@pytest.mark.parametrize("name", sorted(CRAMER_FIXTURES))
def test_simplex_sides_match_minor_path(name):
    # Every (d+1)-subset, flat ones included: a flat simplex's adjugate
    # comes from cofactors, and its sets still match the minor path.
    make = CRAMER_FIXTURES[name]
    cfg = make()
    assert _check_sides(make, list(combinations(range(cfg.n), cfg.dim + 1)))


def test_simplex_sides_match_minor_path_on_random_configurations():
    rng = random.Random(20261019)
    for _ in range(60):
        d = rng.choice((1, 2, 3))
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(7)})
        if len(pts) < 2:
            continue
        cfg = new_configuration(pts)
        simplices = list(combinations(range(cfg.n), cfg.dim + 1))
        _check_sides(lambda: new_configuration(pts), simplices)


def test_simplex_sides_match_minor_path_on_d2d4_prefix():
    # Every simplex whose sides the first 300 nodes of the Δ2×Δ4 search met.
    from regulartri import ResourceLimitError, enumerate_triangulations

    cfg = simplex_product(2, 4)
    with pytest.raises(ResourceLimitError):
        enumerate_triangulations(cfg, max_nodes=300)
    simplices = list(cfg._circuit_index)
    assert len(simplices) > 200
    assert _check_sides(lambda: simplex_product(2, 4), simplices) > 1600


def test_forged_adjugate_raises(monkeypatch):
    real = exact.adjugate

    def forged(m):
        det, adj = real(m)
        adj[0][0] += 1
        return det, adj

    monkeypatch.setattr(exact, "adjugate", forged)
    with pytest.raises(RegulartriError, match="gives no affine dependence"):
        square().circuit_entry((0, 1, 2))


def test_circuit_or_none_leaves_no_simplex_tuples():
    # Cold circuit_or_none calls take each set's sides from the adjugate of
    # one base: they fill no circuit index entry, and no simplex tuple
    # reaches the simplex table.
    rng = random.Random(20261019)
    cfg = simplex_product(2, 4)
    found = 0
    for _ in range(3000):
        key = tuple(sorted(rng.sample(range(cfg.n), cfg.dim + 2)))
        found += cfg.circuit_or_none(key) is not None
    assert 0 < found < 3000
    assert cfg._circuit_index == {} and cfg.simplex_table == {}


# -- the circuit index by exchange steps against fresh adjugates -------------


def searched(make, nodes=None, group=None):
    """A configuration after its regular search, the first `nodes` nodes
    of it when given, with `exact.adjugate` counted: (config, calls)."""
    from regulartri import ResourceLimitError, enumerate_triangulations

    config = make()
    group = group and group(config)
    calls = []
    real = exact.adjugate
    exact.adjugate = lambda m: calls.append(m) or real(m)
    try:
        enumerate_triangulations(config, group=group, max_nodes=nodes)
    except ResourceLimitError:
        pass
    finally:
        exact.adjugate = real
    return config, len(calls)


def check_entries_against_adjugates(cfg, make):
    """Every circuit index entry of `cfg` equals the entry a fresh
    configuration builds from an adjugate, with no indexed simplex to step
    from, and every stored minor equals `exact.determinant`.  Returns the
    number of entries."""
    fresh = make()
    for simplex, (smask, pairs) in cfg._circuit_index.items():
        fresh._sources.clear()
        want_mask, want_pairs = fresh.circuit_entry(simplex)
        assert smask == want_mask, simplex
        assert [s.circuit for s, _ in pairs] == [s.circuit for s, _ in want_pairs], simplex
    for key, det in cfg._minors.items():
        assert det == determinant([cfg.hom[i] for i in key]), key
    return len(cfg._circuit_index)


def _cube_group(config):
    from regulartri import cube_symmetry_generators, expand_group

    return expand_group(config, cube_symmetry_generators(4))


@pytest.mark.parametrize("make, nodes, group, entries", [
    (lambda: simplex_product(2, 3), None, None, 432),
    (lambda: simplex_product(2, 4), 300, None, 200),
    (lambda: cube(4), 300, _cube_group, 200),
    (lambda: simplex_product(3, 3), 300, None, 200),
], ids=["d2d3", "d2d4", "cube4-orbits", "d3d3"])
def test_exchange_steps_match_fresh_adjugates(make, nodes, group, entries):
    # One adjugate per search, for its first simplex; every other entry and
    # its minor came by an exchange step, and equals the adjugate's.
    cfg, adjugates = searched(make, nodes, group)
    assert adjugates == 1
    assert check_entries_against_adjugates(cfg, make) >= entries


def test_exchange_steps_match_fresh_adjugates_on_random_configurations():
    # Criterion 3's random configurations: each one's regular search, its
    # all-flips search and the regularity rows of every triangulation that
    # reaches take one adjugate, and some triangulations leave points out.
    from regulartri import SearchMode, enumerate_triangulations, is_regular
    from test_acceptance import _random_config

    rng = random.Random(20260814)
    unused = 0
    for _ in range(22):
        config = _random_config(rng)
        pts = config.points
        cfg, adjugates = searched(lambda: new_configuration(pts))
        found = []
        calls = []
        real = exact.adjugate
        exact.adjugate = lambda m: calls.append(m) or real(m)
        try:
            enumerate_triangulations(cfg, SearchMode.ALL_FLIPS, baseline=True,
                                     visitor=lambda t, g, depth: found.append(t))
            for t in found:
                is_regular(cfg, t)
        finally:
            exact.adjugate = real
        assert adjugates == 1 and calls == []
        unused += sum(len(t.used_points()) < cfg.n for t in found)
        check_entries_against_adjugates(cfg, lambda: new_configuration(pts))
    assert unused > 0


#: A configuration whose circuits are not unimodular: the triangle (0, 1, 2)
#: of determinant 9, its interior point 3 with λ_3 = 3, and a fifth point.
EXCHANGE_POINTS = [(0, 0), (3, 0), (0, 3), (1, 1), (2, 1)]


@pytest.mark.parametrize("forged, message", [
    # 10 is no multiple of λ_3 = 3: the row of point 3 does not divide.
    (10, "the circuit of (0, 1, 2) and 3 does not divide det 10"),
    # 3 is, but the step's quotient at point 4 is not an integer.
    (3, "the exchange step from (0, 1, 2) to (0, 1, 3) does not divide exactly at 4"),
], ids=["row", "step"])
def test_exchange_step_refuses_a_forged_minor(forged, message):
    cfg = new_configuration(EXCHANGE_POINTS)
    cfg.circuit_entry((0, 1, 2))
    cfg._minors[(0, 1, 2)] = forged
    with pytest.raises(RegulartriError, match=message.replace("(", r"\(").replace(")", r"\)")):
        cfg.circuit_entry((0, 1, 3))


def test_exchange_steps_cover_every_simplex_of_a_small_configuration():
    # Every simplex of the configuration, after one that spans, by steps;
    # the flat ones, where no step leads, by their cofactors.
    cfg = new_configuration(EXCHANGE_POINTS + [(3, 3)])
    simplices = list(combinations(range(cfg.n), 3))
    flat = [s for s in simplices if not determinant([cfg.hom[i] for i in s])]
    assert flat
    calls = []
    real = exact.adjugate
    exact.adjugate = lambda m: calls.append(m) or real(m)
    try:
        for s in simplices:
            cfg.circuit_entry(s)
    finally:
        exact.adjugate = real
    # The first simplex and some flat ones: a flat simplex whose sets are
    # all in the table already takes no adjugate.
    rows = [[cfg.hom[i] for i in s] for s in simplices]
    assert calls[0] == rows[0]
    assert 1 < len(calls) and all(m in [rows[simplices.index(s)] for s in flat] for m in calls[1:])
    check_entries_against_adjugates(cfg, lambda: new_configuration(EXCHANGE_POINTS + [(3, 3)]))
