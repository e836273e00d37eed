"""Reverse search over the flip graph.

The enumeration walks the spanning tree induced by the predecessor map: the
predecessor of a triangulation is its neighbor with lexicographically largest
GKZ-vector, provided that neighbor improves on the triangulation itself (an
"upflip").  The root is the lex-largest vertex of the secondary polytope:
the pulling seed, certified by a root walk that builds its list and finds
no upflip.  Children of a node are exactly the lex-smaller neighbors whose
predecessor is the node, so no visited set is ever needed.

The engine is generic over an oracle, so that the same traversal (and the
same cache semantics) can be driven by the real geometry or by a hand-built
graph in tests:

    gkz(node)                           -> tuple
    pack(gkz) -> int, unpack(code)      -> tuple  (the GKZ codec)
    neighbors(node, node_code, parent)  -> NeighborList  (its node's flips)
    target(node, flip)                  -> node
    seed()                              -> node

and, for a search under a symmetry group, `relabel(node, perm) -> node`.
The search handles every GKZ-vector as its code, one int that orders as
the vector does lexicographically (see `PointConfiguration.pack`), and
each flip carries `shift`, the change of code across it: the target's
code is the source's plus `flip.shift`.  Only `find_root` and
`baseline_dfs` call `gkz`, on their seed, and visitors still receive
GKZ-vectors as tuples, unpacked only when a visitor is given.

A `NeighborList` holds the node's flips with the `kept` mode-valid ones
first, and `up`, the index of the upflip; not the node, nor its code, nor
any entry's target or code.  Entry k has code node_code + flips[k].shift,
so entries compare with each other and with the node as their shifts do
with each other and with zero.  Its target, `target(node, flips[k])`, is
built only when a traversal needs it: a root-walk step, a baseline step,
and in reverse search a candidate child whose list is not cached or that
turns out to be a child.

Nodes are hashable values (`Triangulation` objects for the geometry) and are
the search's identity: visitors receive the node.  A node's list is
memoized in an LRU cache keyed, in regular mode, by the node's GKZ code,
which no other triangulation shares with a regular one, so a candidate
child is looked up before it is built; in all-flips mode, and for an
oracle without a mode, the key is the node itself.  Each list is a
verdict about the node's flips, never about their targets' regularity.
Any cache capacity (including zero) yields the same enumeration; only the
hit counters move.

`parent` is None or a hint (entries, k): a list that `neighbors` returned
for another node, whose k-th target is this node.  The traversals pass it
whenever they query a target they took from a list, and an oracle may use
it or ignore it; the answer must not depend on it.  The geometric oracle
derives a child's flips from its parent's (see `flips.find_flips`).

Given a symmetry group, `reverse_search` is symmetric reverse search (as in
mptopcom): it walks one representative per orbit, the member with the
lex-max GKZ-vector, and recovers the full count as the sum of the orbit
sizes.  `symmetry.orbit_key` runs on the unpacked vector and its key is
packed.  The provider, predecessor, root walk and cache semantics are the
same; the plain search is the case without a group.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidInputError, RegulartriError, ResourceLimitError
from .flips import apply_flip, find_flips
from .points import PointConfiguration, as_count
from .regularity import RayStats, regular_flips
from .symmetry import group_trie, orbit_key
from .triangulation import Triangulation, gkz, pulling_triangulation


DEFAULT_CACHE_CAPACITY = 40000  # neighbour lists kept by a provider


class SearchMode(Enum):
    ALL_FLIPS = "all"
    REGULAR_ONLY = "regular"


@dataclass
class SearchStats:
    nodes: int = 0
    flips_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rays: RayStats = field(default_factory=RayStats)


class GeometricFlipOracle:
    """Oracle backed by an actual point configuration.

    With `verify_increments=True` every derived GKZ code, the node's plus
    a flip's shift, is checked against the packed from-scratch GKZ-vector
    of the flip's target, and every flip target against the triangulation
    the public constructor builds from its simplices (for tests;
    enumeration relies on the exact increment and on `apply_flip`'s
    shared-simplex construction).
    """

    def __init__(self, config: PointConfiguration, mode: SearchMode,
                 stats: SearchStats, verify_increments: bool = False):
        self.config = config
        self.mode = mode
        self.stats = stats
        self.verify_increments = verify_increments
        self.pack, self.unpack = config.pack, config.unpack

    def gkz(self, t: Triangulation):
        return gkz(self.config, t)

    def neighbors(self, t: Triangulation, t_code, parent=None):
        """The node's flips in `find_flips` order, the mode-valid ones first.

        With a hint (entries, k) from an earlier list, the flips are derived
        from that list's; `verify_increments` compares them with
        `find_flips` from scratch."""
        if parent is None:
            flips = find_flips(self.config, t)
        else:
            entries, k = parent
            flips = find_flips(self.config, t, (entries.flips, entries.flips[k]))
            if self.verify_increments and flips != find_flips(self.config, t):
                raise RegulartriError("derived flips disagree with find_flips")
        self.stats.flips_evaluated += len(flips)
        if self.verify_increments:
            # Screening reads every flip's displacement, so every flip is
            # checked, kept or not.
            for flip in flips:
                self._check(t, t_code, flip)
        kept = flips
        if self.mode is SearchMode.REGULAR_ONLY:
            kept = regular_flips(self.config, t, flips, self.stats.rays)
        if len(kept) < len(flips):
            # `kept` holds flips' own objects, in order: test by identity.
            kept_ids = set(map(id, kept))
            flips = kept + [f for f in flips if id(f) not in kept_ids]
        return NeighborList(tuple(flips), len(kept))

    def target(self, t: Triangulation, flip):
        return apply_flip(self.config, t, flip)

    def relabel(self, t: Triangulation, perm) -> Triangulation:
        """`symmetry.relabel(t, perm)`, built once on the configuration's simplex tuples."""
        child = self._on_table(tuple(sorted([perm[i] for i in s])) for s in t)
        if len(set(child.simplices)) < len(child):
            raise InvalidInputError("repeated simplex")
        return child

    def _check(self, t, t_code, flip):
        target = apply_flip(self.config, t, flip)
        if t_code + flip.shift != self.pack(gkz(self.config, target)):
            raise RegulartriError("incremental GKZ update disagrees with recomputation")
        if target != Triangulation(target.simplices):
            raise RegulartriError("flip target differs from its canonical construction")

    def seed(self) -> Triangulation:
        return self._on_table(pulling_triangulation(self.config))

    def _on_table(self, simplices) -> Triangulation:
        """The triangulation of these sorted simplices, each replaced by its
        `PointConfiguration.simplex` tuple.  Flip targets share the
        simplices of their source and flip, so with the seed and relabelled
        children on the table every node of a search holds table tuples."""
        return Triangulation._from_canonical(map(self.config.simplex, simplices))


class NeighborList:
    """A node's compact neighbour list (see the module docstring): entries
    `flips[:kept]` are the mode-valid flips, the rest were discarded, and
    the provider sets `up`."""

    __slots__ = ("flips", "kept", "up")

    def __init__(self, flips, kept):
        self.flips, self.kept, self.up = flips, kept, None


class NeighborProvider:
    """An oracle's neighbour lists, memoized in an LRU keyed by the node's
    GKZ code in regular mode and by the node otherwise.

    capacity 0 stores nothing; the least recently used entry is evicted
    first, and a negative or non-integer capacity raises InvalidInputError.
    Each list is checked once, on a miss: distinct entries with one shift,
    so on one GKZ-vector, raise RegulartriError, so every list returned,
    cached or not, has distinct ones, and its `up`, the entry of the
    largest positive shift, is set then.  The `parent` hint goes to the
    oracle on a miss only.
    """

    def __init__(self, oracle, stats: SearchStats, cache_capacity: int = DEFAULT_CACHE_CAPACITY):
        self.oracle = oracle
        self.stats = stats
        self.capacity = as_count(cache_capacity, "cache capacity")
        self.cache = OrderedDict()
        self.gkz_keys = getattr(oracle, "mode", None) is SearchMode.REGULAR_ONLY

    def neighbors(self, node, node_code, parent=None, build=None):
        """The node's `NeighborList`, with `up` set.

        `node_code` is the node's GKZ code.  `node` may be None when
        `build()` makes it; it is called only when the key needs the node
        or the list is not cached."""
        if not self.gkz_keys and node is None:
            node = build()
        key = node_code if self.gkz_keys else node
        entries = self.cache.get(key)
        if entries is not None:
            self.cache.move_to_end(key)
            self.stats.cache_hits += 1
            return entries
        self.stats.cache_misses += 1
        if node is None:
            node = build()
        entries = self.oracle.neighbors(node, node_code, parent)
        # Entries compare as their shifts do (see the module docstring).
        shifts = [f.shift for f in entries.flips[:entries.kept]]
        if len(set(shifts)) != len(shifts):
            raise RegulartriError("distinct neighbors share a GKZ-vector")
        top = max(shifts, default=0)
        if top > 0:
            entries.up = shifts.index(top)
        if self.capacity:
            self.cache[key] = entries
            if len(self.cache) > self.capacity:
                self.cache.popitem(last=False)
        return entries


def predecessor(provider: NeighborProvider, node, node_code, parent=None, build=None):
    """The node's lex-largest valid neighbour as an entry (entries, k) of
    its list, if it improves on the node; else None.  It is unique: a
    list's GKZ-vectors differ.  `node_code` is the node's GKZ code,
    `parent` its hint (see the module docstring) and `build` as for
    `NeighborProvider.neighbors`."""
    entries = provider.neighbors(node, node_code, parent, build)
    return None if entries.up is None else (entries, entries.up)


def find_root(provider: NeighborProvider, seed):
    """Walk lex-largest upflips from the seed until a sink is reached; each
    step's list is derived from the one before.  From the pulling seed the
    walk builds one list: no triangulation, regular or not, has a larger
    GKZ-vector, so the seed is the sink in either mode.  Returns the sink,
    its GKZ code and its list."""
    oracle = provider.oracle
    node, code, parent = seed, oracle.pack(oracle.gkz(seed)), None
    while True:
        entries = provider.neighbors(node, code, parent)
        if entries.up is None:
            return node, code, entries
        flip = entries.flips[entries.up]
        parent = (entries, entries.up)
        node, code = oracle.target(node, flip), code + flip.shift


def _count_visit(visited, max_nodes, search):
    """The visit count after one more node; crossing `max_nodes` raises."""
    if max_nodes is not None and visited >= max_nodes:
        raise ResourceLimitError(f"{search} exceeded its budget of {max_nodes} nodes")
    return visited + 1


def _orbit_size(order, stabiliser):
    """|G|/|Stab|, which is whole in a group (Lagrange), else RegulartriError."""
    size, rest = divmod(order, stabiliser)
    if rest:
        raise RegulartriError(f"a stabiliser of order {stabiliser} does not divide "
                              f"{order}: the permutations are not a group")
    return size


def reverse_search(provider: NeighborProvider, visitor=None, max_nodes=None,
                   group=None):
    """Enumerate the predecessor tree rooted at the sink above the seed.

    In regular mode the flip graph is the edge graph of a polytope, every
    upflip walk ends at the unique lex-max vertex, and the tree covers all
    regular triangulations.  In all-flips mode non-regular lex-local-maxima
    may exist, so only the tree of the sink reached from the seed (from
    the pulling seed, the lex-max vertex) is enumerated; use baseline_dfs
    for the full connected component.

    A symmetry `group` (regular mode only: GKZ does not identify
    non-regular triangulations) makes each node stand for its orbit, as its
    lex-max-GKZ member given by `symmetry.orbit_key` over a trie of the
    group's inverse permutations, built once per call, whose branches end
    at their group element.  The parent of a representative C is the
    representative of C's predecessor, whose GKZ-vector is larger; if that
    predecessor is g·R, then g⁻¹·C is a neighbor of R with representative
    C, so R's children are found among its neighbors' representatives.
    `group_trie` refuses a group that is empty, repeats an element or lacks
    the identity or an inverse, and an orbit size |G|/|Stab| that is not
    whole raises; nothing else checks that its elements are symmetries or
    that it is closed: build it with `symmetry.expand_group`.

    Nodes are keyed, compared and shifted as GKZ codes (see the module
    docstring); under a group each candidate's code is unpacked for
    `orbit_key` and its key packed.  The visitor, when given, receives
    (node, gkz, depth) once per node, the GKZ-vector as a tuple, and must
    not mutate search state.  A candidate child is built (and relabelled)
    only when its list, looked up by its GKZ code or packed orbit key, is
    not cached or it is a child.  No visited set exists: memory is the
    stack (at most the tree depth times the degree; each entry holds its
    node's list), the trie and the provider's cache of up to
    `cache_capacity` neighbour lists, which dominates on large inputs.
    `stats.nodes` and `max_nodes` count nodes (orbits, under a group);
    crossing the budget raises ResourceLimitError.  Returns the number of
    triangulations this call enumerated (the sum of |G|/|Stab| under a
    group).  A negative or non-integer `max_nodes` raises InvalidInputError.
    """
    if max_nodes is not None:
        max_nodes = as_count(max_nodes, "node budget")
    oracle = provider.oracle
    mode = getattr(oracle, "mode", None)
    if group is not None and mode is SearchMode.ALL_FLIPS:
        raise RegulartriError("orbit search needs regular mode: GKZ-vectors "
                              "do not identify non-regular triangulations")
    stats = provider.stats
    target, pack, unpack = oracle.target, oracle.pack, oracle.unpack
    search, total = "reverse search", 1
    if group is not None:
        # The trie refuses an empty group before the root walk starts.
        search, order, trie = "orbit search", len(group), group_trie(group)
    # So does the budget: a zero budget builds no list.
    visited = _count_visit(0, max_nodes, search)
    root, root_code, root_entries = find_root(provider, oracle.seed())
    if group is not None:
        root_gkz = unpack(root_code)
        identity = tuple(range(len(root_gkz)))
        key, _, stabiliser = orbit_key(root_gkz, group, trie)
        if key != root_gkz:
            raise RegulartriError("the lex-max root is not its orbit's representative")
        total = _orbit_size(order, stabiliser)
    stats.nodes += 1
    if visitor is not None:
        visitor(root, unpack(root_code), 0)

    def build():
        # The candidate: the entry's target, relabelled to its representative.
        nonlocal child
        child = target(node, flip)
        if perm is not None:
            child = oracle.relabel(child, perm)
        return child

    stack = [(root, root_code, 0, root_entries)]
    while stack:
        node, code, depth, entries = stack.pop()
        seen = set()
        flips = entries.flips
        for k in range(entries.kept):
            flip = flips[k]
            if flip.shift >= 0:
                # Not below the node, nor is its orbit key: never a child.
                continue
            child = perm = None
            ccode = code + flip.shift
            if group is None:
                size = 1
            else:
                key, perm, stabiliser = orbit_key(unpack(ccode), group, trie)
                ccode = pack(key)
                if ccode >= code or ccode in seen:
                    continue
                seen.add(ccode)
                size = _orbit_size(order, stabiliser)
                if perm == identity:
                    perm = None
            # A target that is its own representative derives its flips from
            # the node's list; a relabelled one has no list to derive from.
            hint = (entries, k) if perm is None else None
            pred = predecessor(provider, None, ccode, hint, build)
            if pred is None:
                continue
            centries, up = pred
            # The node is the parent when the predecessor's key (without a
            # group, its code) is the node's code.  That is exact even where
            # GKZ does not identify triangulations: the node is a valid
            # neighbour of the child, and one list's GKZ-vectors are
            # distinct, so no other neighbour has the node's.  Keys are never
            # below their vectors and the node is its own key: key only below.
            pred_code = ccode + centries.flips[up].shift
            if group is not None and pred_code < code:
                pred_code = pack(orbit_key(unpack(pred_code), group, trie)[0])
            if pred_code != code:
                continue
            if child is None:
                child = build()
            visited = _count_visit(visited, max_nodes, search)
            total += size
            stats.nodes += 1
            if visitor is not None:
                visitor(child, unpack(ccode), depth + 1)
            stack.append((child, ccode, depth + 1, centries))
    return total


def baseline_dfs(provider: NeighborProvider, visitor=None, max_nodes=None):
    """Reference traversal: visited-set DFS over the same neighbor relation.

    Exhaustive on the seed's connected component regardless of predecessor
    structure, at the price of remembering every visited triangulation.
    Returns the set of visited nodes.  `max_nodes` bounds memory
    explicitly; crossing it raises ResourceLimitError, and a negative or
    non-integer one raises InvalidInputError.
    """
    if max_nodes is not None:
        max_nodes = as_count(max_nodes, "node budget")
    stats = provider.stats
    oracle = provider.oracle
    seed = oracle.seed()
    seed_gkz = oracle.gkz(seed)
    _count_visit(0, max_nodes, "baseline traversal")
    visited = {seed}
    stats.nodes += 1
    if visitor is not None:
        visitor(seed, seed_gkz, 0)
    stack = [(seed, oracle.pack(seed_gkz), 0, None)]
    while stack:
        node, code, depth, parent = stack.pop()
        entries = provider.neighbors(node, code, parent)
        for k in range(entries.kept):
            flip = entries.flips[k]
            target = oracle.target(node, flip)
            if target in visited:
                continue
            _count_visit(len(visited), max_nodes, "baseline traversal")
            visited.add(target)
            stats.nodes += 1
            tcode = code + flip.shift
            if visitor is not None:
                visitor(target, oracle.unpack(tcode), depth + 1)
            stack.append((target, tcode, depth + 1, (entries, k)))
    return visited


def enumerate_triangulations(
    config: PointConfiguration,
    mode: SearchMode = SearchMode.REGULAR_ONLY,
    visitor=None,
    cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    baseline: bool = False,
    max_nodes=None,
    verify_increments: bool = False,
    group=None,
):
    """Convenience front end tying oracle, cache and traversal together.

    Returns (count, stats).  With `baseline=True` the memory-unbounded DFS
    replaces reverse search (for cross-checks).  `max_nodes` is the node
    budget of either traversal.  A symmetry `group` goes to reverse search,
    so `stats.nodes` counts orbits; the baseline DFS takes none.  Nothing
    checks that the group holds symmetries or is closed: use `expand_group`.
    """
    if group is not None and baseline:
        raise RegulartriError("the baseline traversal takes no symmetry group")
    stats = SearchStats()
    oracle = GeometricFlipOracle(config, mode, stats, verify_increments)
    provider = NeighborProvider(oracle, stats, cache_capacity)
    if baseline:
        visited = baseline_dfs(provider, visitor=visitor, max_nodes=max_nodes)
        return len(visited), stats
    count = reverse_search(provider, visitor=visitor, max_nodes=max_nodes, group=group)
    return count, stats
