"""Affine symmetries, group closure, canonical forms, orbit counting."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from regulartri import (
    DegenerateConfigError,
    DimensionError,
    InvalidInputError,
    ResourceLimitError,
    canonical_form,
    cube,
    cube_symmetry_generators,
    enumerate_triangulations,
    expand_group,
    gkz,
    group_trie,
    inverse_permutations,
    is_symmetry,
    nested_triangles,
    nested_triangles_pinwheel,
    new_configuration,
    orbit_count,
    orbit_key,
    parse_triangulation,
    placing_triangulation,
    relabel,
    simplex_product,
    simplex_product_symmetry_generators,
    square,
    triangle_with_interior,
)
from regulartri.exact import determinant, greedy_basis

SQUARE_ROTATION = (1, 2, 3, 0)
NESTED_ROTATION = (1, 2, 0, 4, 5, 3)
NESTED_REFLECTION = (0, 2, 1, 3, 5, 4)


def test_is_symmetry():
    sq = square()
    assert is_symmetry(sq, SQUARE_ROTATION)
    assert is_symmetry(sq, (0, 1, 2, 3))
    assert is_symmetry(sq, (1, 0, 3, 2))  # reflection across x = 1/2
    # Swapping just two adjacent corners is not affine.
    assert not is_symmetry(sq, (1, 0, 2, 3))
    with pytest.raises(InvalidInputError):
        is_symmetry(sq, (0, 1, 2, 2))
    cfg = nested_triangles()
    assert is_symmetry(cfg, NESTED_ROTATION)
    assert is_symmetry(cfg, NESTED_REFLECTION)
    # Rotating only the outer triangle breaks the inner one.
    assert not is_symmetry(cfg, (1, 2, 0, 3, 4, 5))


def test_is_symmetry_reads_entries_as_integers():
    # Entries are read as expand_group reads generator entries: an integral
    # float or Fraction is its integer, anything else is refused.
    sq = square()
    assert is_symmetry(sq, (1.0, 2, Fraction(3), 0))
    for bad in ((1.5, 2, 3, 0), (1, 2, 3, Fraction(1, 2)), ("1", 2, 3, 0), (None, 2, 3, 0)):
        with pytest.raises(InvalidInputError, match="permutation entry .* is not an integer"):
            is_symmetry(sq, bad)


def affine_coordinates(config, point_index, basis) -> tuple:
    """Exact affine coordinates of a point in a (d+1)-point basis, by
    Cramer's rule on the configuration's homogenized rows."""
    basis = tuple(basis)
    if len(basis) != config.dim + 1:
        raise DimensionError("basis needs d+1 points")
    denom = determinant([config.hom[i] for i in basis])
    if denom == 0:
        raise DegenerateConfigError("basis points are affinely dependent")
    coords = []
    for k in range(len(basis)):
        rows = [config.hom[i] for i in basis]
        rows[k] = config.hom[point_index]
        coords.append(Fraction(determinant(rows), denom))
    return tuple(coords)


def fraction_is_symmetry(config, perm):
    """is_symmetry as it was computed with `Fraction` affine coordinates,
    for a permutation tuple: the reference for the integer test."""
    basis = greedy_basis(config.hom)
    image_rows = [config.hom[perm[b]] for b in basis]
    for i in range(config.n):
        coords = affine_coordinates(config, i, basis)
        expected = [sum(Fraction(c) * row[k] for c, row in zip(coords, image_rows))
                    for k in range(config.dim + 1)]
        if any(Fraction(x) != e for x, e in zip(config.hom[perm[i]], expected)):
            return False
    return True


@pytest.mark.parametrize("config, generators", [
    (simplex_product(2, 3), simplex_product_symmetry_generators(2, 3)),
    (cube(3), cube_symmetry_generators(3)),
    (nested_triangles(), [NESTED_ROTATION, NESTED_REFLECTION]),
    # A plane in space: the basis determinant is not ±1.
    (new_configuration([(0, 0, 0), (2, 1, 0), (0, 3, 1), (2, 4, 1)]),
     [(1, 0, 3, 2), (2, 3, 0, 1)]),
], ids=["d2d3", "cube3", "nested", "plane"])
def test_integer_symmetry_test_matches_fractions(config, generators):
    # The catalog generators, their products, and seeded shuffles, most of
    # which are not symmetries.
    rng = random.Random(19)
    perms = [tuple(g) for g in generators]
    perms += [tuple(g[h[i]] for i in range(config.n)) for g in perms for h in perms]
    for _ in range(60):
        shuffled = list(range(config.n))
        rng.shuffle(shuffled)
        perms.append(tuple(shuffled))
    verdicts = [is_symmetry(config, perm) for perm in perms]
    assert verdicts == [fraction_is_symmetry(config, perm) for perm in perms]
    assert all(verdicts[:len(generators)]) and not all(verdicts)


def test_expand_group_orders():
    sq = square()
    assert len(expand_group(sq, [])) == 1
    assert len(expand_group(sq, [SQUARE_ROTATION])) == 4
    assert len(expand_group(sq, [SQUARE_ROTATION, (1, 0, 3, 2)])) == 8
    cfg = nested_triangles()
    assert len(expand_group(cfg, [NESTED_ROTATION])) == 3
    assert len(expand_group(cfg, [NESTED_ROTATION, NESTED_REFLECTION])) == 6
    assert len(expand_group(cube(3), cube_symmetry_generators(3))) == 48
    assert (
        len(expand_group(simplex_product(2, 2), simplex_product_symmetry_generators(2, 2)))
        == 36
    )
    assert (
        len(expand_group(simplex_product(2, 5), simplex_product_symmetry_generators(2, 5)))
        == 4320
    )


def test_expand_group_is_closed():
    cfg = cube(3)
    group = expand_group(cfg, cube_symmetry_generators(3))
    elements = set(group)
    rng = random.Random(7)
    for _ in range(100):
        a = rng.choice(group)
        b = rng.choice(group)
        composed = tuple(a[i] for i in b)
        assert composed in elements
    identity = tuple(range(cfg.n))
    assert identity in elements


def test_expand_group_input_checks():
    sq = square()
    with pytest.raises(InvalidInputError):
        expand_group(sq, [(0, 1, 2)])
    with pytest.raises(InvalidInputError):
        expand_group(sq, [(1, 0, 2, 3)])
    with pytest.raises(ResourceLimitError):
        expand_group(sq, [SQUARE_ROTATION], cap=3)
    # Generator entries are never rounded to the square's rotation.
    for bad in ((1.2, 2.9, 3, 0), (1, 2, 3, Fraction(1, 2)), ("1", 2, 3, 0), ("a", 2, 3, 0)):
        with pytest.raises(InvalidInputError, match="generator entry .* is not an integer"):
            expand_group(sq, [bad])
    assert expand_group(sq, [(1.0, 2, Fraction(3), 0)]) == expand_group(sq, [SQUARE_ROTATION])
    # A negative cap is invalid input with or without generators, before
    # any generator is checked.
    for gens in ([], [SQUARE_ROTATION], [(0, 1, 2)]):
        with pytest.raises(InvalidInputError, match="cap must be nonnegative"):
            expand_group(sq, gens, cap=-1)
        for cap in (3.5, "4"):
            with pytest.raises(InvalidInputError, match="cap .* is not an integer"):
                expand_group(sq, gens, cap=cap)
    assert len(expand_group(sq, [SQUARE_ROTATION], cap=4)) == 4
    # The identity alone exceeds a cap of 0 and fits a cap of 1.
    with pytest.raises(ResourceLimitError, match="exceeded cap of 0 elements"):
        expand_group(sq, [], cap=0)
    assert expand_group(sq, [], cap=1) == (tuple(range(sq.n)),)


def test_orbit_count_input_checks():
    sq = square()
    group = expand_group(sq, [SQUARE_ROTATION])
    ts = [parse_triangulation("{{0,1,2},{0,2,3}}"), parse_triangulation("{{0,1,3},{1,2,3}}")]
    consumed = []

    def stream():
        for t in ts:
            consumed.append(t)
            yield t

    with pytest.raises(InvalidInputError, match="must be nonnegative"):
        orbit_count(stream(), group, max_size=-1)
    with pytest.raises(InvalidInputError, match="orbit set bound 0.5 is not an integer"):
        orbit_count(stream(), group, max_size=0.5)
    assert consumed == []
    assert orbit_count(ts, group, max_size=1) == 1
    with pytest.raises(ResourceLimitError):
        orbit_count(ts, expand_group(sq, []), max_size=1)


def test_relabel():
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    assert relabel(t, SQUARE_ROTATION) == parse_triangulation("{{1,2,3},{1,3,0}}")


def test_canonical_form_constant_on_orbits():
    cfg = nested_triangles()
    group = expand_group(cfg, [NESTED_ROTATION, NESTED_REFLECTION])
    t = placing_triangulation(cfg)
    form = canonical_form(t, group)
    for perm in group:
        assert canonical_form(relabel(t, perm), group) == form
    # The canonical form is a member of the orbit, and the lex-least one.
    images = [relabel(t, p) for p in group]
    assert form in images
    assert form.simplices == min(image.simplices for image in images)
    # Idempotence: canonicalizing the canonical member changes nothing.
    assert canonical_form(form, group) == form


def test_square_triangulations_form_one_orbit():
    sq = square()
    group = expand_group(sq, [SQUARE_ROTATION])
    ts = []
    enumerate_triangulations(sq, visitor=lambda c, g, d: ts.append(c))
    assert len(ts) == 2
    assert orbit_count(ts, group) == 1
    # Without the rotation the diagonals are genuinely different.
    assert orbit_count(ts, expand_group(sq, [])) == 2


def test_nested_triangles_orbit_counts():
    cfg = nested_triangles()
    c3 = expand_group(cfg, [NESTED_ROTATION])
    s3 = expand_group(cfg, [NESTED_ROTATION, NESTED_REFLECTION])
    regular = []
    enumerate_triangulations(cfg, visitor=lambda c, g, d: regular.append(c))
    assert len(regular) == 16
    assert orbit_count(regular, c3) == 6
    assert orbit_count(regular, s3) == 4
    # The pinwheel is rotation-invariant but chiral: its reflection is a
    # distinct triangulation, so its orbit has size 2 under the full group.
    pin = nested_triangles_pinwheel()
    assert relabel(pin, NESTED_ROTATION) == pin
    images = {relabel(pin, p).canonical() for p in s3}
    assert len(images) == 2


def test_orbit_sizes_divide_group_order():
    cfg = cube(3)
    group = expand_group(cfg, cube_symmetry_generators(3))
    ts = []
    enumerate_triangulations(cfg, visitor=lambda c, g, d: ts.append(c))
    by_form = {}
    for t in ts:
        by_form.setdefault(canonical_form(t, group), set()).add(t)
    assert len(by_form) == 6
    for members in by_form.values():
        assert len(group) % len(members) == 0
    assert sum(len(m) for m in by_form.values()) == 74


def test_gkz_is_equivariant_under_symmetries():
    cfg = nested_triangles()
    group = expand_group(cfg, [NESTED_ROTATION, NESTED_REFLECTION])
    rng = random.Random(55)
    ts = []
    enumerate_triangulations(cfg, visitor=lambda c, g, d: ts.append(c))
    for _ in range(30):
        t = rng.choice(ts)
        perm = rng.choice(group)
        base = gkz(cfg, t)
        moved = gkz(cfg, relabel(t, perm))
        for i in range(cfg.n):
            assert moved[perm[i]] == base[i]


def test_orbit_count_accepts_triangulations():
    sq = square()
    group = expand_group(sq, [SQUARE_ROTATION])
    a = parse_triangulation("{{0,1,2},{0,2,3}}")
    b = parse_triangulation("{{0,1,3},{1,2,3}}")
    assert orbit_count([a, b], group) == 1
    assert orbit_count([a, b], group, max_size=5) == 1
    with pytest.raises(ResourceLimitError):
        bigger = triangle_with_interior()
        trivial = expand_group(bigger, [])
        seen = []
        enumerate_triangulations(bigger, visitor=lambda c, g, d: seen.append(c))
        orbit_count(seen, trivial, max_size=1)


def test_orbit_key_against_relabelling():
    cfg = cube(3)
    group = expand_group(cfg, cube_symmetry_generators(3))
    assert all(tuple(g[i] for i in inv) == tuple(range(cfg.n))
               for g, inv in zip(group, inverse_permutations(group)))
    trie = group_trie(group)
    ts = []
    enumerate_triangulations(cfg, visitor=lambda c, g, d: ts.append(c))
    for t in ts:
        key, perm, stabiliser = orbit_key(gkz(cfg, t), group, trie)
        images = [relabel(t, p) for p in group]
        assert key == max(gkz(cfg, image) for image in images)
        assert gkz(cfg, relabel(t, perm)) == key
        assert stabiliser == sum(1 for image in images if image == t)
        assert len(set(images)) * stabiliser == len(group)


def list_orbit_key(node_gkz, group, inverses=None):
    """Reference for `orbit_key`: all |G| images of the vector in one pass.

    Returns the lex-max image, the first group element reaching it and the
    number of elements reaching it.  `inverses`, when given, are the
    group's `inverse_permutations`, computed once by a caller that keys
    many vectors.
    """
    pick = node_gkz.__getitem__
    if inverses is None:
        inverses = inverse_permutations(group)
    images = [tuple(map(pick, inv)) for inv in inverses]
    best = max(images)
    return best, group[images.index(best)], images.count(best)


def _product_group(m, n):
    return expand_group(simplex_product(m, n), simplex_product_symmetry_generators(m, n))


@pytest.mark.parametrize("make_group, samples", (
    pytest.param(lambda: expand_group(cube(3), cube_symmetry_generators(3)), 2000,
                 id="cube3-48"),
    pytest.param(lambda: _product_group(2, 2), 2000, id="d2d2-36"),
    pytest.param(lambda: _product_group(2, 3), 2000, id="d2d3-144"),
    pytest.param(lambda: _product_group(2, 4), 2000, id="d2d4-720"),
    pytest.param(lambda: _product_group(2, 5), 300, id="d2d5-4320"),
))
def test_orbit_key_matches_list_key_on_random_vectors(make_group, samples):
    group = make_group()
    trie = group_trie(group)
    inverses = inverse_permutations(group)
    degree = len(group[0])
    rng = random.Random(len(group))
    stabilisers = set()
    for k in range(samples):
        # Four values make ties, and so branching walks, common; every
        # other vector has negative entries.
        low = -2 if k % 2 else 0
        vec = tuple(rng.randrange(low, low + 4) for _ in range(degree))
        key = orbit_key(vec, group, trie)
        assert key == list_orbit_key(vec, group, inverses)
        stabilisers.add(key[2])
    assert len(stabilisers) > 1
    # A constant vector is fixed by all of G: every element finishes the
    # walk tied, and the lowest index wins.
    for value in (-3, 0, 7):
        vec = (value,) * degree
        assert orbit_key(vec, group, trie) == list_orbit_key(vec, group, inverses) == (
            vec, group[0], len(group))


@pytest.mark.parametrize("group", (
    pytest.param(((0, 1, 2),), id="trivial"),
    pytest.param(((0, 1, 2), (1, 0, 2)), id="swap"),
    pytest.param(expand_group(cube(3), cube_symmetry_generators(3)), id="cube3-48"),
    pytest.param(_product_group(2, 3), id="d2d3-144"),
))
def test_group_trie_ends_each_branch_at_its_element(group):
    root, inverses = group_trie(group)
    assert inverses == inverse_permutations(group)
    shared = Counter(inverse[:depth] for inverse in inverses
                     for depth in range(len(inverse) + 1))
    reached = []

    def walk(node, prefix):
        for point, child in node.items():
            path = prefix + (point,)
            if isinstance(child, dict):
                # A node below the root stands for a prefix two or more elements share.
                assert shared[path] > 1
                walk(child, path)
            else:
                # The parent's prefix is shared, so this is the first depth
                # where the element's prefix is its own.
                assert inverses[child][:len(path)] == path
                assert shared[path] == 1
                reached.append(child)

    walk(root, ())
    assert sorted(reached) == list(range(len(group)))


def test_orbit_key_on_trivial_and_swap_groups():
    trivial = ((0, 1, 2),)
    swap = ((0, 1, 2), (1, 0, 2))
    for group in (trivial, swap):
        trie = group_trie(group)
        for vec in itertools.product(range(3), repeat=3):
            assert orbit_key(vec, group, trie) == list_orbit_key(vec, group)
    assert orbit_key((4, 1, 0), trivial, group_trie(trivial)) == ((4, 1, 0), (0, 1, 2), 1)
    assert orbit_key((0, 1, 5), swap, group_trie(swap)) == ((1, 0, 5), (1, 0, 2), 1)
    assert orbit_key((1, 1, 0), swap, group_trie(swap)) == ((1, 1, 0), (0, 1, 2), 2)


def test_empty_group_is_invalid_input():
    sq = square()
    t = placing_triangulation(sq)
    with pytest.raises(InvalidInputError, match="group is empty"):
        group_trie(())
    with pytest.raises(InvalidInputError, match="group is empty"):
        orbit_key(gkz(sq, t), (), {})
    with pytest.raises(InvalidInputError, match="group is empty"):
        canonical_form(t, ())
    with pytest.raises(InvalidInputError, match="group is empty"):
        orbit_count([t], [])


def test_group_trie_refuses_a_repeated_element():
    # A repeated element would count twice toward every stabiliser.
    with pytest.raises(InvalidInputError, match="repeats an element"):
        group_trie(((0, 1, 2), (1, 0, 2), (0, 1, 2)))


def test_group_trie_refuses_a_group_without_identity_or_inverses():
    # Every element's inverse is read off the trie's inverses: the identity
    # and each g with g⁻¹ in the group are among them.
    with pytest.raises(InvalidInputError, match="lacks the identity"):
        group_trie(((1, 0, 2),))
    with pytest.raises(InvalidInputError, match=r"lacks the inverse of \(1, 2, 0\)"):
        group_trie(((0, 1, 2), (1, 2, 0)))
    cycle = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert sorted(group_trie(cycle)[1]) == sorted(cycle)


def test_orbit_key_rejects_vectors_of_the_wrong_length():
    cycle = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    trie = group_trie(cycle)
    assert orbit_key((1, 2, 3), cycle, trie) == ((3, 1, 2), (1, 2, 0), 1)
    for vec in ((1, 2, 3, 99), (1, 2)):
        with pytest.raises(DimensionError, match="length"):
            orbit_key(vec, cycle, trie)
