"""Affine symmetries of a configuration and orbit counting.

A symmetry is a permutation g of the point labels such that the map
a_i -> a_{g(i)} extends to an affine transformation; such permutations send
triangulations to triangulations and permute GKZ-vector coordinates.  Groups
are given by generators and expanded by breadth-first closure.

Two orbit keys live here.  `orbit_key` gives the lex-largest relabelled
GKZ-vector of a regular triangulation: GKZ is injective on regular
triangulations, so this key is exact, and the number of group elements
reaching it is the stabiliser order.  It walks a trie of the inverse
permutations (`group_trie`) position by position and follows only the
branches that can still reach the maximum, the lex-max-image step of
symmetric reverse search in mptopcom (Jordan, Joswig and Kastner, 2018);
a branch ends where one element owns its prefix.
Reverse search with a group (`search.reverse_search(..., group=G)`) visits
one representative per orbit by this key.
`canonical_form` relabels the simplices themselves and keeps the lex-least
image; it is slower but holds for non-regular triangulations too, and
`orbit_count` uses it to count orbits of an enumerated stream.
"""

from __future__ import annotations

from operator import mul

from . import exact
from .errors import DimensionError, InvalidInputError, ResourceLimitError
from .points import PointConfiguration, as_count, as_integer
from .triangulation import Triangulation

GROUP_ORDER_CAP = 10**6
_EMPTY_GROUP = "the group is empty: it needs at least the identity"


def is_symmetry(config: PointConfiguration, perm) -> bool:
    """Does the label permutation extend to an affine map of the points?

    Entries are read as `expand_group` reads them: a non-integer one
    raises InvalidInputError."""
    return _symmetry_test(config)(perm)


def _symmetry_test(config: PointConfiguration):
    """`is_symmetry` on the configuration, as a function of the permutation.

    By Cramer's rule, the affine coordinates of a point in the affine basis
    B = `config.basis` are integer numerators over D = det(B): the point's
    homogenized row times the adjugate of B's rows, computed once here.
    The map a_i -> a_perm(i) is affine exactly when every image point has
    the same coordinates in the image basis perm(B), which the test checks
    multiplied through by D, in integers.
    """
    hom, basis = config.hom, config.basis
    denom, adj = exact.adjugate([hom[b] for b in basis])
    columns = tuple(zip(*adj))
    numerators = [[sum(map(mul, target, col)) for col in columns] for target in hom]

    def test(perm):
        perm = tuple(as_integer(x, "permutation entry") for x in perm)
        if sorted(perm) != list(range(config.n)):
            raise InvalidInputError(f"not a permutation of 0..{config.n - 1}: {perm}")
        image = [hom[perm[b]] for b in basis]
        for nums, p in zip(numerators, perm):
            for k, x in enumerate(hom[p]):
                if denom * x != sum(c * row[k] for c, row in zip(nums, image)):
                    return False
        return True

    return test


def expand_group(config: PointConfiguration, generators, cap=None):
    """Close the generators under composition (breadth-first).

    Every generator must be an affine symmetry of the configuration.  The
    identity is always included.  Exceeding `cap` elements (GROUP_ORDER_CAP
    when not given) raises ResourceLimitError, and a negative or non-integer
    `cap` raises InvalidInputError.  Elements come back sorted, so group
    equality is plain tuple comparison.
    """
    cap = GROUP_ORDER_CAP if cap is None else as_count(cap, "group order cap")
    is_symmetric = _symmetry_test(config)
    gens = []
    for g in generators:
        g = tuple(as_integer(x, "generator entry") for x in g)
        if len(g) != config.n:
            raise InvalidInputError(
                f"generator has length {len(g)}, expected {config.n}"
            )
        if not is_symmetric(g):
            raise InvalidInputError(f"generator {g} is not a configuration symmetry")
        gens.append(g)
    identity = tuple(range(config.n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            # Each element found is in a frontier, so this sees every size
            # the closure reaches, the identity's alone too.
            if len(elements) > cap:
                raise ResourceLimitError(
                    f"group closure exceeded cap of {cap} elements"
                )
            for g in gens:
                h = tuple(g[i] for i in e)
                if h not in elements:
                    elements.add(h)
                    new.append(h)
        frontier = new
    return tuple(sorted(elements))


def relabel(t: Triangulation, perm) -> Triangulation:
    return Triangulation(tuple(perm[i] for i in s) for s in t.simplices)


def inverse_permutations(group):
    """The inverse of each permutation of the group, in the group's order."""
    return tuple(tuple(sorted(range(len(g)), key=g.__getitem__)) for g in group)


def group_trie(group):
    """The group's inverse permutations as a trie, for `orbit_key`.

    Returns (root, `inverse_permutations(group)`).  Level j branches on
    g⁻¹[j]: a node maps each value to the node below it, or to the group
    index of g where g alone has that prefix, so each branch ends at its
    element.  Build it once per search.  An empty group, or one that
    repeats an element or lacks the identity or an inverse, raises
    InvalidInputError.
    """
    if not group:
        raise InvalidInputError(_EMPTY_GROUP)
    inverses = inverse_permutations(group)
    present = set(inverses)  # g is here exactly when g⁻¹ is in the group
    if tuple(range(len(inverses[0]))) not in present:
        raise InvalidInputError("the group lacks the identity")
    for g in map(tuple, group):
        if g not in present:
            raise InvalidInputError(f"the group lacks the inverse of {g}")

    def branch(members, depth):
        if depth == len(inverses[0]):
            # Only equal elements share a whole inverse.
            raise InvalidInputError("the group repeats an element")
        parts = {}
        for index in members:
            parts.setdefault(inverses[index][depth], []).append(index)
        return {point: part[0] if len(part) == 1 else branch(part, depth + 1)
                for point, part in parts.items()}

    return branch(range(len(group)), 0), inverses


def orbit_key(node_gkz, group, trie):
    """The lex-max GKZ image of a regular triangulation over the group.

    Relabelling by g moves GKZ entry i to position g[i], so the image is
    w[j] = node_gkz[g⁻¹[j]].  The walk goes down `trie` (see `group_trie`)
    one pass per position, keeping the largest entry and the branches that
    reach it, and reads the rest off the inverse once one element is left,
    so it never builds the |G| images.  Returns (image, g, stabiliser
    order): `g` is the reached element with the lowest group index, so
    `relabel(t, g)` is the orbit representative, and the number of
    elements reached is |Stab(t)| because GKZ is injective on regular
    triangulations.  An empty group raises InvalidInputError, and a vector
    whose length is not the degree of the group raises DimensionError.
    """
    if not group:
        raise InvalidInputError(_EMPTY_GROUP)
    if len(node_gkz) != len(group[0]):
        raise DimensionError(
            f"GKZ-vector has length {len(node_gkz)}, "
            f"the group acts on {len(group[0])} points"
        )
    root, inverses = trie
    pick = node_gkz.__getitem__
    level, image = [root], []
    for j in range(len(node_gkz)):
        best = None
        for node in level:
            # An element whose branch has ended reads its entry off its inverse.
            items = node.items() if node.__class__ is dict else ((inverses[node][j], node),)
            for point, child in items:
                value = pick(point)
                if best is None or value > best:
                    best, keep = value, [child]
                elif value == best:
                    keep.append(child)
        image.append(best)
        if len(keep) == 1 and keep[0].__class__ is int:
            image.extend(map(pick, inverses[keep[0]][j + 1:]))
            return tuple(image), group[keep[0]], 1
        level = keep
    return tuple(image), group[min(level)], len(level)


def canonical_form(t: Triangulation, group) -> Triangulation:
    """Lexicographically smallest relabelling of t over the group.

    Constant on orbits, distinct across orbits.  An empty group raises
    InvalidInputError.
    """
    if not group:
        raise InvalidInputError(_EMPTY_GROUP)
    best = None
    for perm in group:
        image = tuple(sorted(tuple(sorted(perm[i] for i in s)) for s in t.simplices))
        if best is None or image < best:
            best = image
    return Triangulation(best)


def orbit_count(stream, group, max_size=None) -> int:
    """Number of orbits among the streamed triangulations.

    Memory grows with the number of distinct orbits; `max_size` bounds it
    explicitly (ResourceLimitError when exceeded, InvalidInputError when
    negative or not an integer).
    """
    if max_size is not None:
        max_size = as_count(max_size, "orbit set bound")
    forms = set()
    for t in stream:
        forms.add(canonical_form(t, group))
        if max_size is not None and len(forms) > max_size:
            raise ResourceLimitError(f"orbit set exceeded {max_size} entries")
    return len(forms)
