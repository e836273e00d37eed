"""Reverse search, baseline DFS, and the neighbour cache.

Includes the three-node mock graph that pins down why cached neighbour lists
must hold verdicts about flips: trusting cached *target* regularity
(TargetTrustingProvider below) silently drops the bottom triangulation from
the search tree.
"""

from __future__ import annotations

import gc
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from operator import mul
from pathlib import Path
from typing import NamedTuple

import pytest

from regulartri import (
    InvalidInputError,
    RayStats,
    RegulartriError,
    ResourceLimitError,
    SearchMode,
    Triangulation,
    canonical_form,
    convex_polygon,
    cube,
    cube_symmetry_generators,
    enumerate_triangulations,
    expand_group,
    extremal_rays,
    find_flips,
    gkz,
    group_trie,
    inverse_permutations,
    is_regular,
    nested_triangles,
    new_configuration,
    orbit_count,
    orbit_key,
    parse_triangulation,
    placing_triangulation,
    pulling_triangulation,
    regular_flips,
    relabel,
    simplex_product,
    simplex_product_symmetry_generators,
    square,
    triangle_with_interior,
    validate,
)
from regulartri import search
from regulartri.search import (
    GeometricFlipOracle,
    NeighborList,
    NeighborProvider,
    SearchStats,
    baseline_dfs,
    find_root,
    predecessor,
    reverse_search,
)

from test_symmetry import list_orbit_key

STRETCH = os.environ.get("RUN_STRETCH") == "1"


def _provider(config, mode=SearchMode.REGULAR_ONLY, capacity=40000):
    stats = SearchStats()
    oracle = GeometricFlipOracle(config, mode, stats, verify_increments=True)
    return NeighborProvider(oracle, stats, capacity), stats


class PairFlip(NamedTuple):
    """An edge of a hand-built graph: its change of GKZ code and its target."""

    shift: int
    target: object


class PairOracle:
    """Serves a hand-built graph, given as `pairs(t)`, a node's valid
    (target, target_gkz) pairs, through the oracle protocol: each pair is a
    kept `PairFlip` of the node's list.  Its codec packs GKZ-vectors of
    LENGTH entries in 0..255 into one byte each, the first most significant."""

    LENGTH = 2

    def pack(self, vec):
        return int.from_bytes(bytes(vec), "big")

    def unpack(self, code):
        return tuple(code.to_bytes(self.LENGTH, "big"))

    def neighbors(self, t, t_code, parent=None):
        flips = tuple(PairFlip(self.pack(g) - t_code, tgt) for tgt, g in self.pairs(t))
        return NeighborList(flips, len(flips))

    def target(self, t, flip):
        return flip.target


def entry(oracle, node, node_code, entries, k):
    """Entry k of the node's neighbour list as (target, target_code)."""
    flip = entries.flips[k]
    return oracle.target(node, flip), node_code + flip.shift


def gkz_code(config, t):
    """The GKZ code of a triangulation of the configuration."""
    return config.pack(gkz(config, t))


class MockOracle(PairOracle):
    """Three triangulations; the direct edge between top and bottom is a
    non-regular flip, and it is the bottom node's lex-largest upflip."""

    GKZ = {"T0": (3, 0), "T1": (2, 0), "T2": (1, 0)}
    EDGES = {
        "T0": [("f01", "T1"), ("f02", "T2")],
        "T1": [("f10", "T0"), ("f12", "T2")],
        "T2": [("f20", "T0"), ("f21", "T1")],
    }

    def __init__(self, bad=("f02", "f20")):
        self.bad = set(bad)

    def gkz(self, t):
        return self.GKZ[t]

    def pairs(self, t):
        return [(tgt, self.GKZ[tgt]) for f, tgt in self.EDGES[t] if f not in self.bad]

    def seed(self):
        return "T0"


class TargetTrustingProvider(NeighborProvider):
    """A deliberately broken provider over a MockOracle: a flip counts as
    valid whenever its *target* is known regular from an earlier expansion,
    in place of the per-flip verdict.  Every mock node is regular, so a
    target is known once any expanded node has a flip to it.  The verdicts
    are frozen into the node's cached list at first expansion, so a wrong
    trust-based verdict sticks."""

    def __init__(self, oracle, stats, cache_capacity=40000):
        super().__init__(_TargetTrustingOracle(oracle), stats, cache_capacity)


class _TargetTrustingOracle(PairOracle):
    def __init__(self, mock):
        self.mock = mock
        self.gkz = mock.gkz
        self.seed = mock.seed
        self.known_regular = set()

    def pairs(self, t):
        kept = []
        for f, target in self.mock.EDGES[t]:
            if target in self.known_regular or f not in self.mock.bad:
                kept.append((target, self.mock.GKZ[target]))
            self.known_regular.add(target)
        return kept


def _run_mock(buggy, bad=("f02", "f20")):
    stats = SearchStats()
    provider_class = TargetTrustingProvider if buggy else NeighborProvider
    provider = provider_class(MockOracle(bad), stats, 100)
    seen = []
    reverse_search(provider, visitor=lambda c, g, d: seen.append(c))
    return sorted(seen)


def test_mock_graph_correct_cache_visits_everything():
    assert _run_mock(buggy=False) == ["T0", "T1", "T2"]


def test_mock_graph_target_regularity_cache_loses_a_node():
    assert _run_mock(buggy=True) == ["T0", "T1"]


def test_mock_graph_agrees_when_all_flips_are_regular():
    assert _run_mock(buggy=False, bad=()) == ["T0", "T1", "T2"]
    assert _run_mock(buggy=True, bad=()) == ["T0", "T1", "T2"]


class SharedGkzOracle(MockOracle):
    """The mock graph with two distinct neighbors of T0 on one GKZ-vector."""

    GKZ = {"T0": (3, 0), "T1": (2, 0), "T2": (2, 0)}


@pytest.mark.parametrize("traversal", (reverse_search, baseline_dfs))
@pytest.mark.parametrize("capacity", (0, None), ids=("uncached", "default"))
def test_shared_gkz_vectors_raise(traversal, capacity):
    # The provider checks each list as the oracle makes it, so both
    # traversals raise, with or without the cache.
    sizes = {} if capacity is None else {"cache_capacity": capacity}
    provider = NeighborProvider(SharedGkzOracle(bad=()), SearchStats(), **sizes)
    with pytest.raises(RegulartriError, match="share a GKZ-vector"):
        traversal(provider)


def test_increment_check_raises():
    sq = square()
    oracle = GeometricFlipOracle(sq, SearchMode.REGULAR_ONLY, SearchStats(), True)
    with pytest.raises(RegulartriError, match="incremental GKZ"):
        oracle.neighbors(placing_triangulation(sq), sq.pack((0, 0, 0, 0)))


def forged_target_neighbors():
    """The square's neighbours under `verify_increments`, with `apply_flip`
    returning a target whose simplex (0,1,3) is stored as (3,1,0): its
    GKZ-vector is right, its simplices are not canonical."""
    original = search.apply_flip

    def forged(config, t, flip):
        target = original(config, t, flip)
        return Triangulation._from_canonical(
            s[::-1] if s == (0, 1, 3) else s for s in target.simplices)

    sq = square()
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    search.apply_flip = forged
    try:
        oracle = GeometricFlipOracle(sq, SearchMode.REGULAR_ONLY, SearchStats(), True)
        return oracle.neighbors(t, gkz_code(sq, t))
    finally:
        search.apply_flip = original


def test_target_check_raises():
    with pytest.raises(RegulartriError, match="canonical construction"):
        forged_target_neighbors()


def test_target_check_survives_optimize_flag():
    lines = optimized_output(
        "from regulartri import RegulartriError\n"
        "from test_search import forged_target_neighbors\n"
        "try:\n"
        "    forged_target_neighbors()\n"
        "except RegulartriError as e:\n"
        "    print(e)\n"
    )
    assert lines == ["flip target differs from its canonical construction"]


def forged_derivation_neighbors():
    """A child's neighbours under `verify_increments`, given its parent's
    list, with a derived `find_flips` that drops the flips it keeps from the
    parent's."""
    original = search.find_flips

    def forged(config, t, parent=None):
        flips = original(config, t, parent)
        if parent is None:
            return flips
        return [f for f in flips if f not in parent[0]]

    config = cube(3)
    oracle = GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, SearchStats(), True)
    t = placing_triangulation(config)
    t_code = gkz_code(config, t)
    entries = oracle.neighbors(t, t_code)
    search.find_flips = forged
    try:
        return oracle.neighbors(*entry(oracle, t, t_code, entries, 0), (entries, 0))
    finally:
        search.find_flips = original


def test_derivation_check_raises():
    with pytest.raises(RegulartriError, match="derived flips disagree with find_flips"):
        forged_derivation_neighbors()


def optimized_output(code):
    """Standard output lines of `code` run under `python -O`.

    `src/` and `tests/` are importable; the run fails if assertions are on.
    """
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "assert False, 'assertions are on'\n" + code],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_exactness_checks_survive_optimize_flag():
    code = (
        "from regulartri import RegulartriError, SearchMode, placing_triangulation, square\n"
        "from regulartri.search import GeometricFlipOracle, NeighborProvider, SearchStats\n"
        "from regulartri.search import reverse_search\n"
        "from test_search import SharedGkzOracle, forged_derivation_neighbors\n"
    )
    checks = (
        "reverse_search(NeighborProvider(SharedGkzOracle(bad=()), SearchStats()))",
        "GeometricFlipOracle(square(), SearchMode.REGULAR_ONLY, SearchStats(), True)"
        ".neighbors(placing_triangulation(square()), square().pack((0, 0, 0, 0)))",
        "forged_derivation_neighbors()",
    )
    for check in checks:
        code += f"try:\n    {check}\nexcept RegulartriError as e:\n    print(e)\n"
    assert optimized_output(code) == [
        "distinct neighbors share a GKZ-vector",
        "incremental GKZ update disagrees with recomputation",
        "derived flips disagree with find_flips",
    ]


def test_predecessor_square():
    sq = square()
    provider, _ = _provider(sq)
    low = parse_triangulation("{{0,1,3},{1,2,3}}")
    high = parse_triangulation("{{0,1,2},{0,2,3}}")
    pred = predecessor(provider, low, gkz_code(sq, low))
    assert pred is not None
    assert entry(provider.oracle, low, gkz_code(sq, low), *pred) == (high, sq.pack((2, 1, 2, 1)))
    assert predecessor(provider, high, gkz_code(sq, high)) is None


def test_predecessor_isolated_simplex():
    from regulartri import new_configuration

    cfg = new_configuration([(0, 0), (1, 0), (0, 1)])
    provider, _ = _provider(cfg)
    t = parse_triangulation("{{0,1,2}}")
    assert predecessor(provider, t, gkz_code(cfg, t)) is None


def test_find_root_pins():
    sq = square()
    provider, _ = _provider(sq)
    root, root_code, entries = find_root(provider, placing_triangulation(sq))
    assert sq.unpack(root_code) == (2, 1, 2, 1)
    # The walk hands back the sink's own list, the one the cache holds.
    assert entries.up is None and entries is provider.neighbors(root, root_code)
    tri = triangle_with_interior()
    provider, _ = _provider(tri)
    root, root_code, _ = find_root(provider, placing_triangulation(tri))
    assert root == parse_triangulation("{{0,1,2}}")
    assert tri.unpack(root_code) == (9, 9, 9, 0)


def test_find_root_is_seed_independent():
    for cfg in (square(), triangle_with_interior(), nested_triangles()):
        provider, _ = _provider(cfg)
        members = []
        reverse_search(provider, visitor=lambda t, g, d: members.append(t))
        roots = set()
        for t in members:
            fresh, _ = _provider(cfg)
            root, _gkz, _ = find_root(fresh, t)
            roots.add(root)
        assert len(roots) == 1


def _pulling_inputs(rng, count):
    """Seeded small configurations, points in shuffled order: dimensions 1
    to 3 on a small grid (so interior points and points on faces occur),
    some lower-dimensional in their ambient space, some embedded in one
    more coordinate."""
    configs = []
    while len(configs) < count:
        d = rng.choice((1, 2, 2, 3))
        n = rng.randint(d + 1, 6 if d == 3 else 8)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(0, 3 if d > 1 else 9) for _ in range(d)))
        pts = list(pts)
        if rng.random() < 0.3:
            pts = [p + (sum(p) - 2 * p[0] + 1,) for p in pts]
        rng.shuffle(pts)
        configs.append(new_configuration(pts))
    return configs


def _walk(config, seed, mode=SearchMode.REGULAR_ONLY):
    """find_root from the seed: (root, number of lists built)."""
    provider, stats = _provider(config, mode)
    return find_root(provider, seed)[0], stats.cache_misses


PULLING_CATALOG = (
    square, triangle_with_interior, nested_triangles, lambda: cube(3), lambda: cube(4),
    *(lambda d=d: simplex_product(2, d) for d in (2, 3, 4, 5)), lambda: simplex_product(3, 3),
)


@pytest.mark.parametrize("make", PULLING_CATALOG, ids=(
    "square", "triangle_with_interior", "nested_triangles", "cube3", "cube4",
    "d2d2", "d2d3", "d2d4", "d2d5", "d3d3"))
def test_pulling_seed_is_the_root(make):
    # The walk from the placing seed is the independent reference.
    config = make()
    t = pulling_triangulation(config)
    assert validate(config, t)
    verdict = is_regular(config, t)
    assert verdict.regular
    assert all(sum(map(mul, row, verdict.heights)) > 0 for row in verdict.rows)
    assert _walk(config, placing_triangulation(config))[0] == t
    for mode in SearchMode:
        assert _walk(config, t, mode) == (t, 1)
    oracle = GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, SearchStats())
    assert oracle.seed() == t


def test_pulling_seed_is_the_root_on_random_configurations():
    dims = set()
    for config in _pulling_inputs(random.Random(20261019), 320):
        dims.add((config.dim, config.ambient_dim))
        t = pulling_triangulation(config)
        assert validate(config, t)
        verdict = is_regular(config, t)
        assert verdict.regular
        assert all(sum(map(mul, row, verdict.heights)) > 0 for row in verdict.rows)
        assert _walk(config, placing_triangulation(config))[0] == t
        for mode in SearchMode:
            assert _walk(config, t, mode) == (t, 1)
    assert {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)} <= dims


def test_all_flips_counts_agree_from_both_seeds():
    for config in _pulling_inputs(random.Random(7), 110):
        counts = []
        for seed in (placing_triangulation, pulling_triangulation):
            provider, _ = _provider(config, SearchMode.ALL_FLIPS)
            provider.oracle.seed = lambda: seed(config)
            counts.append(reverse_search(provider))
        assert counts[0] == counts[1]


def test_reverse_search_counts():
    for cfg, want in (
        (square(), 2),
        (triangle_with_interior(), 2),
        (nested_triangles(), 16),
        (cube(3), 74),
    ):
        count, stats = enumerate_triangulations(cfg)
        assert count == want
        assert stats.nodes == want


# Two families whose counts are known in closed form, so the search is
# checked against mathematics rather than another run of itself.  Every
# triangulation in them is regular, so the all-flips DFS finds the same
# count, and every neighbour list has corank 0 (the flips of a node span
# the tangent space of a simple secondary polytope), so the R1 peel
# decides each list alone.


def assert_closed_form_count(config, want):
    count, stats = enumerate_triangulations(config)
    assert count == want
    assert stats.rays.r1 == stats.flips_evaluated
    assert stats.rays.lps_solved == stats.rays.kernel == 0
    assert enumerate_triangulations(config, SearchMode.ALL_FLIPS, baseline=True)[0] == want


@pytest.mark.parametrize("n", (6, 8, 10))
def test_convex_polygon_counts_are_catalan_numbers(n):
    config = convex_polygon(n)
    assert config.points == tuple((i, i * i) for i in range(n))
    assert_closed_form_count(config, math.comb(2 * (n - 2), n - 2) // (n - 1))


@pytest.mark.parametrize("n", (-1, 0, 1, 2))
def test_convex_polygon_needs_three_vertices(n):
    with pytest.raises(InvalidInputError, match="at least 3 vertices"):
        convex_polygon(n)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_prism_over_a_simplex_counts_are_factorials(n):
    assert_closed_form_count(simplex_product(1, n), math.factorial(n + 1))


def test_lattice_hexagon_orbits_under_its_dihedral_group():
    # The lattice hexagon has a dihedral symmetry group of order 12: the
    # rotation and a reflection of its six vertices.  Its 14 = Catalan(4)
    # triangulations fall into 3 orbits: 6 zigzags, 6 fans and 2 triangles
    # with three ears.
    config = new_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    generators = [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]
    group = expand_group(config, generators)
    assert len(group) == 12
    assert_closed_form_count(config, 14)
    members = []
    enumerate_triangulations(config, visitor=lambda t, g, d: members.append(t))
    representatives = []
    orbits, total, _ = _orbit_search(
        config, generators, visitor=lambda t, g, d: representatives.append(g))
    assert (orbits, total) == (3, 14) and orbit_count(members, group) == 3
    # Orbit sizes |G|/|Stab| from the orbit keys, and from the members.
    trie = group_trie(group)
    sizes = [len(group) // orbit_key(g, group, trie)[2] for g in representatives]
    assert sorted(sizes) == sorted(Counter(
        canonical_form(t, group) for t in members).values()) == [2, 6, 6]
    assert sum(sizes) == 14


def test_codes_round_trip_and_order_as_gkz_vectors():
    config = simplex_product(2, 3)
    vectors = []
    enumerate_triangulations(config, visitor=lambda t, g, d: vectors.append(g))
    assert config.code_width == 8
    codes = [config.pack(g) for g in vectors]
    assert [config.unpack(c) for c in codes] == vectors
    assert [config.unpack(c) for c in sorted(codes)] == sorted(vectors)


def test_wide_code_fields_on_a_scaled_cube():
    # Scaling by 7 makes the total volume 6 * 7**3 = 2 058, past one byte.
    config = new_configuration([tuple(7 * x for x in p) for p in cube(3).points])
    assert (config.total_volume(), config.code_width) == (2058, 16)
    assert enumerate_triangulations(config, verify_increments=True)[0] == 74
    assert _orbit_search(config, cube_symmetry_generators(3))[:2] == (6, 74)


def test_forged_shift_fails_the_increment_check():
    config = cube(3)
    enumerate_triangulations(config)
    flip = next(iter(config.flip_memo.values()))
    object.__setattr__(flip, "shift", flip.shift + 1)
    with pytest.raises(RegulartriError, match="incremental GKZ"):
        enumerate_triangulations(config, verify_increments=True)


def test_reverse_search_matches_baseline():
    for cfg in (square(), triangle_with_interior(), nested_triangles()):
        seen = set()
        count, _ = enumerate_triangulations(
            cfg, visitor=lambda c, g, d: seen.add(c)
        )
        assert count == len(seen)
        base = set()
        bcount, _ = enumerate_triangulations(
            cfg, baseline=True, visitor=lambda c, g, d: base.add(c)
        )
        assert bcount == len(base)
        assert seen == base


def test_visitor_sees_each_node_once_with_depths():
    log = []
    count, _ = enumerate_triangulations(
        nested_triangles(), visitor=lambda c, g, d: log.append((c, g, d))
    )
    canon = [c for c, _, _ in log]
    assert len(canon) == count == len(set(canon))
    depths = [d for _, _, d in log]
    assert depths[0] == 0
    assert all(d >= 0 for d in depths)
    # GKZ values reported to the visitor are the exact vectors.
    cfg = nested_triangles()
    for t, g, _ in log:
        assert g == gkz(cfg, t)


def test_predecessor_chains_reach_root():
    cfg = nested_triangles()
    provider, _ = _provider(cfg)
    members = []
    reverse_search(provider, visitor=lambda t, g, d: members.append(t))
    root = members[0]
    root_code = gkz_code(cfg, root)
    for node in members:
        node_code = gkz_code(cfg, node)
        hops = 0
        while True:
            up = predecessor(provider, node, node_code)
            if up is None:
                break
            up_node, up_code = entry(provider.oracle, node, node_code, *up)
            assert up_code > node_code
            node, node_code = up_node, up_code
            hops += 1
            assert hops <= len(members)
        assert node == root
        assert node_code == root_code


def test_cache_transparency():
    reference = None
    for capacity in (0, 3, 40000):
        seen = set()
        count, stats = enumerate_triangulations(
            nested_triangles(),
            cache_capacity=capacity,
            visitor=lambda c, g, d: seen.add(c),
        )
        assert count == 16
        if reference is None:
            reference = seen
        assert seen == reference
        if capacity == 0:
            assert stats.cache_hits == 0
    # A warm cache does get hits at full capacity.
    _, stats = enumerate_triangulations(nested_triangles(), cache_capacity=40000)
    assert stats.cache_hits > 0


class RecordingOracle(PairOracle):
    """Every node has one neighbour, except "a", which has none; the nodes
    whose neighbours were computed are recorded in order."""

    LENGTH = 1

    def __init__(self):
        self.computed = []

    def pairs(self, node):
        self.computed.append(node)
        return [] if node == "a" else [(node + "'", (0,))]


def test_flip_cache_lru_eviction():
    stats = SearchStats()
    oracle = RecordingOracle()
    provider = NeighborProvider(oracle, stats, 2)
    lists = [provider.neighbors(node, 1) for node in "abacacb"]
    # "c" evicts "b", the least recently used; "a"'s empty list is cached too.
    assert oracle.computed == ["a", "b", "c", "b"]
    assert (stats.cache_hits, stats.cache_misses) == (3, 4)
    assert lists[3] is lists[5]
    assert (lists[3].kept, entry(oracle, "c", 1, lists[3], 0)) == (1, ("c'", 0))
    assert list(provider.cache) == ["c", "b"]
    stats = SearchStats()
    oracle = RecordingOracle()
    disabled = NeighborProvider(oracle, stats, 0)
    for node in "aabb":
        disabled.neighbors(node, 1)
    assert oracle.computed == ["a", "a", "b", "b"]
    assert (stats.cache_hits, stats.cache_misses, len(disabled.cache)) == (0, 4, 0)
    with pytest.raises(InvalidInputError, match="cache capacity must be nonnegative, got -1"):
        NeighborProvider(RecordingOracle(), SearchStats(), -1)


def test_cached_lists_hold_no_targets():
    # A list holds the configuration's memoised flips and two small ints:
    # no triangulation, not even its node, and no GKZ-vector.
    config = simplex_product(2, 2)
    provider, _ = _provider(config)
    reverse_search(provider)
    memo = set(map(id, config.flip_memo.values()))
    assert len(provider.cache) == 108
    for entries in provider.cache.values():
        held = gc.get_referents(entries)
        assert not [x for x in held if isinstance(x, Triangulation)]
        assert [id(x) for x in held if isinstance(x, tuple)] == [id(entries.flips)]
        assert all(id(flip) in memo for flip in entries.flips)


def test_cache_bytes_per_list():
    # What the cache frees when it is emptied after a search of Δ2×Δ2, per
    # list.  Lists that held every kept target and its GKZ-vector took
    # 1 626 bytes each under tracemalloc (Python 3.11); compact lists take
    # under half of that: 520 bytes while they held their node's GKZ-vector,
    # 393 without it.
    stats = SearchStats()
    provider = NeighborProvider(
        GeometricFlipOracle(simplex_product(2, 2), SearchMode.REGULAR_ONLY, stats), stats)
    tracemalloc.start()
    try:
        reverse_search(provider)
        lists = len(provider.cache)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        provider.cache.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert lists == 108
    assert 0 < freed / lists < 1626 / 2


def test_flips_and_nodes_share_one_tuple_per_simplex():
    # After a search of Δ2×Δ3, every simplex that a memoised flip or a
    # visited node holds is the configuration's table tuple for it: at most
    # 432 tuples (every simplex of Δ2×Δ3) for the 13 536 simplices of the
    # 1 584 flips.
    config = simplex_product(2, 3)
    stats = SearchStats()
    provider = NeighborProvider(
        GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, stats), stats)
    nodes = []
    assert reverse_search(provider, lambda t, g, d: nodes.append(t)) == 4488
    table = {s: s for _, s in config.mask_table.values()}
    flips = config.flip_memo.values()
    assert len(flips) == 1584 and len(table) <= 432
    assert sum(len(f.removed) + len(f.inserted) for f in flips) == 13536
    for flip in flips:
        assert all(table[s] is s for s in flip.removed + flip.inserted)
    assert len(provider.cache) == 4488
    for node in nodes:
        assert all(table[s] is s for s in node.simplices)


@pytest.mark.parametrize("options, hits, misses, flips, rays", (
    pytest.param({}, 9697, 4488, 28368, RayStats(r1=23328, kernel=5040), id="default"),
    pytest.param({"cache_capacity": 0}, 0, 14185, 90726,
                 RayStats(r1=71142, kernel=19584), id="uncached"),
    pytest.param({"verify_increments": True}, 9697, 4488, 28368,
                 RayStats(r1=23328, kernel=5040), id="verified"),
))
def test_search_counters_on_triangle_times_tetrahedron(options, hits, misses, flips, rays):
    count, stats = enumerate_triangulations(simplex_product(2, 3), **options)
    assert (count, stats.nodes) == (4488, 4488)
    assert (stats.cache_hits, stats.cache_misses, stats.flips_evaluated) == (hits, misses, flips)
    assert stats.rays == rays


def test_reverse_search_matches_baseline_on_triangle_times_tetrahedron():
    config = simplex_product(2, 3)
    seen, base = set(), set()
    enumerate_triangulations(config, visitor=lambda t, g, d: seen.add(t))
    enumerate_triangulations(config, baseline=True, visitor=lambda t, g, d: base.add(t))
    assert len(seen) == 4488
    assert seen == base


def test_targets_are_built_for_taken_entries_only(monkeypatch):
    # A target is built only when a traversal takes its entry: reverse
    # search takes the root walk's upflips (none from the pulling seed),
    # then looks each lower neighbour of each node up by its GKZ-vector,
    # and builds it only when its list is not cached or it is a child: at
    # most once per edge of the flip graph, from its upper end.
    calls = []
    original = search.apply_flip

    def counting(config, t, flip):
        calls.append(flip)
        return original(config, t, flip)

    monkeypatch.setattr(search, "apply_flip", counting)
    count, stats = enumerate_triangulations(nested_triangles())
    # 16 flip lists of 54 flips, six of which screening discards: 48 kept
    # entries, two per edge, so 24 edges.  Targets are built for the 15
    # candidates whose list is missing and for 3 children found on a hit.
    assert (count, stats.cache_misses, stats.flips_evaluated) == (16, 16, 54)
    assert len(calls) == 18
    assert all(flip.delta < (0,) * 6 for flip in calls)
    calls.clear()
    # cube(3): 304 flips, all regular, so 152 edges, of which 83 are
    # built; the root walk takes no step from the pulling seed.
    count, stats = enumerate_triangulations(cube(3))
    assert (count, stats.flips_evaluated, stats.cache_misses) == (74, 304, 74)
    assert len(calls) == 83
    assert all(flip.delta < (0,) * 8 for flip in calls)
    calls.clear()
    # The baseline takes every entry of every node it pops.
    count, stats = enumerate_triangulations(
        nested_triangles(), mode=SearchMode.ALL_FLIPS, baseline=True)
    assert count == 18
    assert len(calls) == stats.flips_evaluated > 54


def _discarded_flip():
    """A regular triangulation of the nested triangles and one of its flips
    that screening discards."""
    config = nested_triangles()
    members = []
    enumerate_triangulations(config, visitor=lambda t, g, d: members.append(t))
    for t in members:
        flips = find_flips(config, t)
        kept = regular_flips(config, t, flips)
        for flip in flips:
            if flip not in kept:
                return config, t, flip
    raise AssertionError("no flip is discarded")


@pytest.mark.parametrize("forgery, message", (
    pytest.param("source", "incremental GKZ", id="increment"),
    pytest.param("reversed", "canonical construction", id="target"),
))
def test_verify_increments_checks_discarded_flips(forgery, message, monkeypatch):
    config, t, discarded = _discarded_flip()
    original = search.apply_flip

    def forged(cfg, tri, flip):
        target = original(cfg, tri, flip)
        if flip != discarded:
            return target
        if forgery == "source":
            return tri  # a valid triangulation, not this flip's target
        first = target.simplices[0]
        return Triangulation._from_canonical(
            s[::-1] if s == first else s for s in target.simplices)

    monkeypatch.setattr(search, "apply_flip", forged)
    unchecked = GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, SearchStats())
    assert unchecked.neighbors(t, gkz_code(config, t)).kept < len(find_flips(config, t))
    checked = GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, SearchStats(), True)
    with pytest.raises(RegulartriError, match=message):
        checked.neighbors(t, gkz_code(config, t))


def test_stats_conservation():
    class CountingProvider(NeighborProvider):
        requests = 0

        def neighbors(self, *args):
            CountingProvider.requests += 1
            return super().neighbors(*args)

    CountingProvider.requests = 0
    stats = SearchStats()
    oracle = GeometricFlipOracle(cube(3), SearchMode.REGULAR_ONLY, stats)
    provider = CountingProvider(oracle, stats, 40000)
    count = reverse_search(provider)
    assert count == 74
    assert stats.cache_hits + stats.cache_misses == CountingProvider.requests
    assert stats.rays.lps_solved <= stats.flips_evaluated
    decided = (
        stats.rays.r1
        + stats.rays.r2
        + stats.rays.r3
        + stats.rays.kernel
        + stats.rays.scalar_tests
        + stats.rays.lps_solved
    )
    assert decided >= stats.flips_evaluated


def test_reverse_search_returns_this_calls_count():
    provider, stats = _provider(cube(3))
    assert reverse_search(provider) == 74
    assert reverse_search(provider) == 74
    assert stats.nodes == 148


def test_baseline_dfs_resource_limit():
    provider, _ = _provider(cube(3), mode=SearchMode.ALL_FLIPS)
    with pytest.raises(ResourceLimitError):
        baseline_dfs(provider, max_nodes=5)


def test_all_flips_baseline_on_nested_triangles():
    # Two of the eighteen flip-reachable triangulations are non-regular.
    all_count, _ = enumerate_triangulations(
        nested_triangles(), mode=SearchMode.ALL_FLIPS, baseline=True
    )
    regular_count, _ = enumerate_triangulations(nested_triangles())
    assert all_count == 18
    assert regular_count == 16


def test_cache_keys_are_gkz_vectors_in_regular_mode_only():
    # The two non-regular triangulations of the nested triangles share a
    # GKZ-vector, so in all-flips mode a list keyed by it would serve both
    # (a search so keyed counts 16), and so would a list keyed by a node
    # not yet built.  In regular mode the GKZ-vector is the key.
    config = nested_triangles()
    members = []
    enumerate_triangulations(config, SearchMode.ALL_FLIPS, baseline=True,
                             visitor=lambda t, g, d: members.append(t))
    shared = [t for t in members if gkz(config, t) == (9, 9, 9, 7, 7, 7)]
    assert len(shared) == 2 and not any(is_regular(config, t).regular for t in shared)
    for options in ({}, {"baseline": True}, {"cache_capacity": 0}):
        assert enumerate_triangulations(config, SearchMode.ALL_FLIPS, **options)[0] == 18
    assert enumerate_triangulations(config)[0] == 16
    for mode, key_type in ((SearchMode.REGULAR_ONLY, int),
                           (SearchMode.ALL_FLIPS, Triangulation)):
        provider, _ = _provider(config, mode)
        visited = []
        reverse_search(provider, lambda t, g, d: visited.append((t, g)))
        assert all(type(key) is key_type for key in provider.cache)
        keys = {config.pack(g) for _, g in visited} if key_type is int else {t for t, _ in visited}
        assert set(provider.cache) == keys


class HitCheckingProvider(NeighborProvider):
    """A provider that rebuilds every candidate child whose list a lookup
    found in the cache, and checks that list against the candidate's own:
    `find_flips` from scratch, in the same order, the same verdicts and the
    same GKZ-vector."""

    checked = 0

    def neighbors(self, node, node_code, parent=None, build=None):
        hits = self.stats.cache_hits
        entries = super().neighbors(node, node_code, parent, build)
        if build is not None and self.stats.cache_hits > hits:
            config = self.oracle.config
            candidate = build()
            assert gkz_code(config, candidate) == node_code
            fresh = GeometricFlipOracle(config, self.oracle.mode, SearchStats())
            own = fresh.neighbors(candidate, node_code)
            assert (own.flips, own.kept) == (entries.flips, entries.kept)
            flips = find_flips(config, candidate)
            assert sorted(entries.flips, key=lambda f: f.circuit.support) == flips
            self.checked += 1
        return entries


@pytest.mark.parametrize("d, generators, budget, count", (
    pytest.param(3, None, None, 4488, id="d2d3"),
    pytest.param(4, None, 3000, None, id="d2d4-prefix"),
    pytest.param(4, simplex_product_symmetry_generators(2, 4), None, 376200, id="d2d4-orbits"),
))
def test_keyed_hits_hold_the_candidates_own_list(d, generators, budget, count):
    config = simplex_product(2, d)
    group = None if generators is None else expand_group(config, generators)
    stats = SearchStats()
    provider = HitCheckingProvider(
        GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, stats), stats)
    if budget is None:
        assert reverse_search(provider, group=group) == count
    else:
        with pytest.raises(ResourceLimitError):
            reverse_search(provider, max_nodes=budget, group=group)
    # Every hit was a candidate's: the root walk hands back the root's list.
    assert provider.checked == stats.cache_hits > 0


# -- orbit-level reverse search ---------------------------------------------

NESTED_ROTATION = (1, 2, 0, 4, 5, 3)
NESTED_REFLECTION = (0, 2, 1, 3, 5, 4)

#: (configuration, generators, triangulations, orbits)
ORBIT_FIXTURES = (
    pytest.param(square, [(1, 2, 3, 0)], 2, 1, id="square-C4"),
    pytest.param(lambda: cube(3), cube_symmetry_generators(3), 74, 6, id="cube3-48"),
    pytest.param(lambda: cube(3), [], 74, 74, id="cube3-trivial"),
    pytest.param(lambda: simplex_product(2, 2), simplex_product_symmetry_generators(2, 2),
                 108, 5, id="d2d2-36"),
    pytest.param(nested_triangles, [NESTED_ROTATION], 16, 6, id="nested-C3"),
    pytest.param(nested_triangles, [NESTED_ROTATION, NESTED_REFLECTION], 16, 4,
                 id="nested-S3"),
    pytest.param(nested_triangles, [], 16, 16, id="nested-trivial"),
)


def _orbit_search(config, generators, capacity=40000, visitor=None, max_nodes=None):
    group = expand_group(config, generators)
    provider, stats = _provider(config, capacity=capacity)
    total = reverse_search(provider, visitor, max_nodes, group)
    return stats.nodes, total, stats


@pytest.mark.parametrize("make, generators, count, orbits", ORBIT_FIXTURES)
def test_orbit_search_agrees_with_full_search(make, generators, count, orbits):
    config = make()
    group = expand_group(config, generators)
    members = []
    full, _ = enumerate_triangulations(config, visitor=lambda t, g, d: members.append(t))
    assert full == count
    # Orbits counted two ways, and orbit sizes summing to the full count.
    assert (orbits, count) == _orbit_search(config, generators)[:2]
    assert orbit_count(members, group) == orbits


@pytest.mark.parametrize("make, generators, count, orbits", ORBIT_FIXTURES)
def test_orbit_search_visits_each_representative_once(make, generators, count, orbits):
    config = make()
    group = expand_group(config, generators)
    trie = group_trie(group)
    log = []
    for capacity in (0, 40000):
        log.clear()
        found, _, stats = _orbit_search(
            config, generators, capacity, lambda t, g, d: log.append((t, g, d))
        )
        assert found == stats.nodes == len(log) == orbits
        assert log[0][2] == 0
        keys = set()
        for t, g, _ in log:
            assert g == gkz(config, t)
            # Each visited node is the lex-max member of its orbit.
            assert orbit_key(g, group, trie)[0] == g
            keys.add(g)
        assert len(keys) == orbits


@pytest.mark.parametrize("make, generators, count, orbits", ORBIT_FIXTURES)
def test_orbit_search_keys_match_the_list_key(make, generators, count, orbits, monkeypatch):
    config = make()
    group = expand_group(config, generators)
    keys = []

    def checked_key(node_gkz, key_group, trie):
        key = orbit_key(node_gkz, key_group, trie)
        assert key == list_orbit_key(node_gkz, key_group)
        keys.append(node_gkz)
        return key

    monkeypatch.setattr(search, "orbit_key", checked_key)
    for capacity in (0, 40000):
        keys.clear()
        assert _orbit_search(config, generators, capacity)[:2] == (orbits, count)
        # The root, every lower neighbour of a representative, and the
        # predecessors of the candidate children were all keyed.
        assert len(keys) > orbits


def test_d2d4_orbit_search_keys_match_the_list_key(monkeypatch):
    # Every vector keyed in the Δ2×Δ4 orbit search gets the list key's
    # (image, perm, stabiliser) triple, ties among ended trie branches
    # included.  A vector keyed again is checked once.
    config = simplex_product(2, 4)
    group = expand_group(config, simplex_product_symmetry_generators(2, 4))
    inverses = inverse_permutations(group)
    keys = {}

    def checked_key(node_gkz, key_group, trie):
        key = orbit_key(node_gkz, key_group, trie)
        if node_gkz not in keys:
            assert key == list_orbit_key(node_gkz, key_group, inverses)
            keys[node_gkz] = key
        return key

    monkeypatch.setattr(search, "orbit_key", checked_key)
    total, stats = enumerate_triangulations(config, group=group)
    assert (stats.nodes, total) == (530, 376200)
    assert len(keys) > stats.nodes
    assert max(stabiliser for _, _, stabiliser in keys.values()) > 1


@pytest.mark.parametrize("d, orbits, relabels, derived, lists", [
    (3, 35, 14, 20, 35), (4, 530, 298, 279, 530),
], ids=["d2d3", "d2d4"])
def test_orbit_search_relabels_moved_children_only(d, orbits, relabels, derived, lists,
                                                   monkeypatch):
    # A candidate child that is its own representative is the target
    # itself, so its flips are derived from the node's list; only the
    # others are relabelled, and only when their list is not cached or they
    # are children (94 and 2 247 relabellings when every candidate was,
    # 42 and 972 when every moved one was).
    perms, hinted = [], []
    original_relabel, original_find = GeometricFlipOracle.relabel, search.find_flips

    def counting_relabel(oracle, t, perm):
        perms.append(perm)
        return original_relabel(oracle, t, perm)

    def recording(config, t, parent=None):
        hinted.append(parent is not None)
        return original_find(config, t, parent)

    monkeypatch.setattr(GeometricFlipOracle, "relabel", counting_relabel)
    monkeypatch.setattr(search, "find_flips", recording)
    config = simplex_product(2, d)
    group = expand_group(config, simplex_product_symmetry_generators(2, d))
    _, stats = enumerate_triangulations(config, group=group)
    assert stats.nodes == orbits
    assert tuple(range(config.n)) not in perms
    assert (len(perms), sum(hinted), len(hinted)) == (relabels, derived, lists)


def test_relabelled_children_hold_table_tuples(monkeypatch):
    # The orbit search of Δ2×Δ4 relabels 298 candidates; each is the
    # relabelled target, on the configuration's simplex tuples.
    children = []
    original = GeometricFlipOracle.relabel

    def recording(oracle, t, perm):
        child = original(oracle, t, perm)
        assert child == relabel(t, perm)
        children.append(child)
        return child

    monkeypatch.setattr(GeometricFlipOracle, "relabel", recording)
    config = simplex_product(2, 4)
    group = expand_group(config, simplex_product_symmetry_generators(2, 4))
    _, stats = enumerate_triangulations(config, group=group)
    assert (stats.nodes, len(children)) == (530, 298)
    table = {s: s for _, s in config.mask_table.values()}
    for child in children:
        assert all(table[s] is s for s in child.simplices)


def test_oracle_relabel_refuses_a_repeated_simplex():
    # A map that is not a permutation can send two simplices to one.
    sq = square()
    oracle = GeometricFlipOracle(sq, SearchMode.REGULAR_ONLY, SearchStats())
    t = parse_triangulation("{{0,1,2},{0,2,3}}")
    assert oracle.relabel(t, (1, 2, 3, 0)) == relabel(t, (1, 2, 3, 0))
    with pytest.raises(InvalidInputError, match="repeated simplex"):
        oracle.relabel(t, (0, 1, 2, 1))


def test_orbit_search_keys_lower_neighbours_only(monkeypatch):
    # A neighbour at or above the node is never keyed: its key, at least
    # its own GKZ-vector, could not be below the node's.  For the same
    # reason a child's predecessor at or above the node is not keyed
    # either: above, its key is above; equal, it is the node itself.
    keyed = []

    def counting(node_gkz, key_group, trie):
        keyed.append(node_gkz)
        return orbit_key(node_gkz, key_group, trie)

    monkeypatch.setattr(search, "orbit_key", counting)
    config = simplex_product(2, 3)
    group = expand_group(config, simplex_product_symmetry_generators(2, 3))
    total, stats = enumerate_triangulations(config, group=group)
    assert total == 4488
    assert stats == SearchStats(nodes=35, flips_evaluated=222, cache_hits=60, cache_misses=35,
                                rays=RayStats(r1=180, kernel=42))
    # 317 calls when every neighbour and predecessor was keyed, 250 when
    # every predecessor was, 197 when a predecessor equal to the node was.
    assert len(keyed) == 164


def _refuse(*args):
    raise AssertionError("a plain search keyed or relabelled")


@pytest.mark.parametrize("make, mode, count", [
    (lambda: simplex_product(2, 3), SearchMode.REGULAR_ONLY, 4488),
    (lambda: cube(3), SearchMode.ALL_FLIPS, 74),
], ids=["d2d3-regular", "cube3-all"])
def test_plain_search_neither_keys_nor_relabels(make, mode, count, monkeypatch):
    # Plain and orbit search share one parent test; without a group it
    # compares the predecessor's GKZ-vector with the node's as it is.
    monkeypatch.setattr(search, "orbit_key", _refuse)
    monkeypatch.setattr(GeometricFlipOracle, "relabel", _refuse)
    assert enumerate_triangulations(make(), mode)[0] == count


class OneWayOracle(MockOracle):
    """Four nodes, where T1 lists T3 but T3 does not list T1 (with
    bad=("f31",)), so T3's predecessor, T2, lies below T1."""

    GKZ = {"T0": (3, 0), "T1": (2, 0), "T2": (1, 0), "T3": (0, 0)}
    EDGES = {
        "T0": [("f01", "T1"), ("f02", "T2")],
        "T1": [("f10", "T0"), ("f13", "T3")],
        "T2": [("f20", "T0"), ("f23", "T3")],
        "T3": [("f31", "T1"), ("f32", "T2")],
    }


def test_plain_search_compares_a_lower_predecessor_unkeyed(monkeypatch):
    # On geometric lists the node is always among its child's neighbours,
    # so a plain search never meets a predecessor below the node; a
    # one-way edge makes one, and it is compared, not keyed.
    monkeypatch.setattr(search, "orbit_key", _refuse)
    provider = NeighborProvider(OneWayOracle(bad=("f31",)), SearchStats())
    seen = []
    assert reverse_search(provider, visitor=lambda c, g, d: seen.append((c, d))) == 4
    assert sorted(seen) == [("T0", 0), ("T1", 1), ("T2", 1), ("T3", 2)]


def test_search_node_budgets():
    config = simplex_product(2, 2)
    generators = simplex_product_symmetry_generators(2, 2)
    for budget in (None, 108, 109):
        assert enumerate_triangulations(config, max_nodes=budget)[0] == 108
        assert enumerate_triangulations(config, max_nodes=budget, baseline=True)[0] == 108
        provider, _ = _provider(config)
        assert reverse_search(provider, max_nodes=budget) == 108
    for budget in (None, 5, 6):
        assert _orbit_search(config, generators, max_nodes=budget)[:2] == (5, 108)
    for budget in (0, 107):
        with pytest.raises(ResourceLimitError, match="reverse search"):
            enumerate_triangulations(config, max_nodes=budget)
        with pytest.raises(ResourceLimitError, match="baseline traversal"):
            enumerate_triangulations(config, max_nodes=budget, baseline=True)
        provider, _ = _provider(config)
        with pytest.raises(ResourceLimitError, match=f"budget of {budget} nodes"):
            reverse_search(provider, max_nodes=budget)
    for budget in (0, 4):
        with pytest.raises(ResourceLimitError, match="orbit search"):
            _orbit_search(config, generators, max_nodes=budget)


def test_zero_budget_builds_no_list():
    # Refused before the root walk, as an empty group is.
    config = simplex_product(2, 3)
    group = expand_group(config, simplex_product_symmetry_generators(2, 3))
    for search_call, kwargs in ((reverse_search, {}), (reverse_search, {"group": group}),
                                (baseline_dfs, {})):
        provider, stats = _provider(config)
        with pytest.raises(ResourceLimitError, match="budget of 0 nodes"):
            search_call(provider, max_nodes=0, **kwargs)
        assert (stats.nodes, stats.cache_misses, stats.flips_evaluated) == (0, 0, 0)


def test_negative_budgets_are_invalid_input():
    # Both are library errors raised before the search does any work.
    config = simplex_product(2, 2)
    # Non-integers are refused too: a budget of 2.5 is never rounded.
    for bad in (-1, 2.5, "3"):
        with pytest.raises(InvalidInputError, match="cache capacity"):
            enumerate_triangulations(config, cache_capacity=bad)
        for baseline in (False, True):
            with pytest.raises(InvalidInputError, match="node budget"):
                enumerate_triangulations(config, max_nodes=bad, baseline=baseline)
        for search_call in (reverse_search, baseline_dfs):
            provider, stats = _provider(config)
            with pytest.raises(InvalidInputError, match="node budget"):
                search_call(provider, max_nodes=bad)
            assert stats.cache_misses == 0 and stats.nodes == 0
    with pytest.raises(InvalidInputError) as err:
        enumerate_triangulations(config, max_nodes=-1)
    assert str(err.value) == "node budget must be nonnegative, got -1"
    with pytest.raises(InvalidInputError) as err:
        enumerate_triangulations(config, max_nodes=2.5)
    assert str(err.value) == "node budget 2.5 is not an integer"


def _relabelled(points, generators, seed):
    """Points relabelled by a seeded shuffle, generators conjugated to match."""
    perm = list(range(len(points)))
    random.Random(seed).shuffle(perm)
    new_points = [None] * len(points)
    for i, p in enumerate(points):
        new_points[perm[i]] = p
    new_generators = []
    for g in generators:
        h = [None] * len(points)
        for i in range(len(points)):
            h[perm[i]] = perm[g[i]]
        new_generators.append(h)
    return new_configuration(new_points), new_generators


@pytest.mark.parametrize("seed", (11, 12))
def test_orbit_search_product_of_triangle_and_tetrahedron(seed):
    base = simplex_product(2, 3)
    config, generators = _relabelled(
        base.points, simplex_product_symmetry_generators(2, 3), seed
    )
    assert len(expand_group(config, generators)) == 144
    orbits, total, stats = _orbit_search(config, generators)
    assert (orbits, total) == (35, 4488)
    assert stats.cache_misses < 100


def cascade_on_searched_lists(monkeypatch):
    """Run the search's lists through the cascade as well.  Returns the
    cascade's RayStats, filled in as the search builds each list; each
    cascade verdict is checked against the search's."""
    cascade = RayStats()
    original = search.regular_flips

    def both(config, t, flips, stats=None):
        kept = original(config, t, flips, stats)
        rays = extremal_rays([(f.delta, k) for k, f in enumerate(flips)], cascade)
        assert kept == [f for k, f in enumerate(flips) if k in rays]
        return kept

    monkeypatch.setattr(search, "regular_flips", both)
    return cascade


def test_orbit_search_product_of_triangle_and_4_simplex(monkeypatch):
    # The search decides every list on its kernel; the cascade, driven on
    # the same lists, runs R2-R4 and LPs of its own.
    cascade = cascade_on_searched_lists(monkeypatch)
    orbits, total, stats = _orbit_search(
        simplex_product(2, 4), simplex_product_symmetry_generators(2, 4)
    )
    assert (orbits, total) == (530, 376200)
    assert stats.rays == RayStats(r1=3165, kernel=1337, signed=86, lps_solved=45,
                                  lp_generators=442, lp_generators_max=11)
    assert cascade == RayStats(r1=3212, r2=769, r3=580, r4=5, lps_solved=27,
                               lp_generators=200, lp_generators_max=11)


def test_orbit_search_product_of_two_tetrahedra_prefix(monkeypatch):
    # On the lists of the first 1 000 orbits of Δ3×Δ3 the cascade reaches
    # the deferred stage's LPs, re-screened snapshots and scalar tests.
    cascade = cascade_on_searched_lists(monkeypatch)
    config = simplex_product(3, 3)
    group = expand_group(config, simplex_product_symmetry_generators(3, 3))
    stats = SearchStats()
    provider = NeighborProvider(GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, stats), stats)
    with pytest.raises(ResourceLimitError, match="budget of 1000 nodes"):
        reverse_search(provider, max_nodes=1000, group=group)
    assert stats == SearchStats(
        nodes=1000, flips_evaluated=24725, cache_hits=2431, cache_misses=2489,
        rays=RayStats(r1=14186, kernel=9121, signed=1418, lps_solved=558,
                      lp_generators=5824, lp_generators_max=14),
    )
    assert cascade == RayStats(r1=14968, r2=5911, r3=3382, r4=85, scalar_tests=4,
                               lps_solved=460, lp_generators=3226, lp_generators_max=14)


@pytest.mark.skipif(not STRETCH, reason="long-running stretch case; set RUN_STRETCH=1 to include")
def test_orbit_search_product_of_two_tetrahedra():
    # Counts published here agree on two labellings; the budgets leave at
    # least ten times the 7 869 orbits and the 20 to 26 s each run takes.
    base = simplex_product(3, 3)
    generators = simplex_product_symmetry_generators(3, 3)
    results = []
    for config, gens in ((base, generators), _relabelled(base.points, generators, 13)):
        group = expand_group(config, gens)
        assert len(group) == 576
        start = time.perf_counter()
        stats = SearchStats()
        provider = NeighborProvider(
            GeometricFlipOracle(config, SearchMode.REGULAR_ONLY, stats), stats
        )
        total = reverse_search(provider, max_nodes=100_000, group=group)
        orbits = stats.nodes
        elapsed = time.perf_counter() - start
        print(f"d3d3: orbits={orbits} triangulations={total} "
              f"lps={stats.rays.lps_solved} ({elapsed:.1f}s)")
        assert elapsed < 600.0
        results.append((orbits, total))
        # The kernel stage's verdicts and counters do not depend on the labels.
        assert stats.rays == RayStats(r1=44016, kernel=29312, signed=5500, lps_solved=2253,
                                      lp_generators=23630, lp_generators_max=16)
    assert results == [(7869, 4494288)] * 2


def test_orbit_search_refuses_all_flips_mode():
    group = expand_group(nested_triangles(), [NESTED_ROTATION])
    provider, _ = _provider(nested_triangles(), mode=SearchMode.ALL_FLIPS)
    with pytest.raises(RegulartriError, match="regular mode"):
        reverse_search(provider, group=group)
    with pytest.raises(RegulartriError, match="regular mode"):
        enumerate_triangulations(nested_triangles(), SearchMode.ALL_FLIPS, group=group)
    with pytest.raises(RegulartriError, match="no symmetry group"):
        enumerate_triangulations(nested_triangles(), baseline=True, group=group)


def test_orbit_search_refuses_an_empty_group():
    # Refused before the root walk: no list is built.
    provider, stats = _provider(simplex_product(2, 3))
    with pytest.raises(InvalidInputError, match="group is empty"):
        reverse_search(provider, group=())
    assert (stats.nodes, stats.cache_misses, stats.flips_evaluated) == (0, 0, 0)
    with pytest.raises(InvalidInputError, match="group is empty"):
        enumerate_triangulations(square(), group=())


def test_orbit_search_refuses_a_group_without_an_inverse():
    # (1, 2, 0, 3, 4, 5, 7, 6) is no symmetry of cube(3), and its inverse is
    # not in the list: the trie refuses it before the root walk.
    group = (tuple(range(8)), (1, 2, 0, 3, 4, 5, 7, 6))
    provider, stats = _provider(cube(3))
    with pytest.raises(InvalidInputError, match="lacks the inverse"):
        reverse_search(provider, group=group)
    assert (stats.nodes, stats.cache_misses, stats.flips_evaluated) == (0, 0, 0)
    with pytest.raises(InvalidInputError, match="lacks the inverse"):
        enumerate_triangulations(cube(3), group=group)


@pytest.mark.parametrize("size, stabiliser", ((3, 2), (5, 2), (7, 6)))
def test_orbit_search_refuses_a_list_that_is_not_a_group(size, stabiliser):
    # The first elements of cube(3)'s group hold the identity and their
    # inverses, so the trie takes them, but they are not closed: some
    # vector's stabiliser has an order that does not divide theirs, and
    # |G|/|Stab| would be floored into a wrong count (46, 59 and 28
    # triangulations in place of 74).
    group = expand_group(cube(3), cube_symmetry_generators(3))[:size]
    group_trie(group)
    with pytest.raises(RegulartriError,
                       match=f"order {stabiliser} does not divide {size}: .* not a group"):
        enumerate_triangulations(cube(3), group=group)


class LoneNodeOracle(MockOracle):
    """One triangulation, no flips, whose GKZ-vector is not lex-max under
    the swap of its two coordinates."""

    GKZ = {"T0": (1, 2)}
    EDGES = {"T0": []}


def test_orbit_search_checks_the_root_key():
    provider = NeighborProvider(LoneNodeOracle(), SearchStats())
    assert reverse_search(provider, group=((0, 1),)) == 1
    assert provider.stats.nodes == 1
    with pytest.raises(RegulartriError, match="representative"):
        reverse_search(provider, group=((0, 1), (1, 0)))
