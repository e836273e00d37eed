"""Affine symmetries of a configuration and orbit counting.

A symmetry is a permutation g of the point labels such that the map
a_i -> a_{g(i)} extends to an affine transformation; such permutations send
triangulations to triangulations and permute GKZ-vector coordinates.  Groups
are given by generators and expanded by breadth-first closure.  Orbits are
counted after enumeration by canonicalizing every triangulation to the
lexicographically smallest relabelling over the group.
"""

from __future__ import annotations

from fractions import Fraction

from . import exact
from .errors import InvalidInputError, ResourceLimitError
from .points import PointConfiguration
from .triangulation import Triangulation, parse_triangulation

GROUP_ORDER_CAP = 10**6


def is_symmetry(config: PointConfiguration, perm) -> bool:
    """Does the label permutation extend to an affine map of the points?"""
    perm = tuple(perm)
    if sorted(perm) != list(range(config.n)):
        raise InvalidInputError(f"not a permutation of 0..{config.n - 1}: {perm}")
    basis = exact.greedy_basis(config.hom)
    coords = [config.affine_coordinates(i, basis) for i in range(config.n)]
    image_rows = [config.hom[perm[b]] for b in basis]
    for i in range(config.n):
        expected = [
            sum(Fraction(c) * row[k] for c, row in zip(coords[i], image_rows))
            for k in range(config.dim + 1)
        ]
        if any(Fraction(x) != e for x, e in zip(config.hom[perm[i]], expected)):
            return False
    return True


def expand_group(config: PointConfiguration, generators, cap=None):
    """Close the generators under composition (breadth-first).

    Every generator must be an affine symmetry of the configuration.  The
    identity is always included.  Exceeding `cap` elements (GROUP_ORDER_CAP
    when not given) raises ResourceLimitError.  Elements come back sorted,
    so group equality is plain tuple comparison.
    """
    if cap is None:
        cap = GROUP_ORDER_CAP
    gens = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if len(g) != config.n:
            raise InvalidInputError(
                f"generator has length {len(g)}, expected {config.n}"
            )
        if not is_symmetry(config, g):
            raise InvalidInputError(f"generator {g} is not a configuration symmetry")
        gens.append(g)
    identity = tuple(range(config.n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                h = tuple(g[i] for i in e)
                if h not in elements:
                    if len(elements) >= cap:
                        raise ResourceLimitError(
                            f"group closure exceeded cap of {cap} elements"
                        )
                    elements.add(h)
                    new.append(h)
        frontier = new
    return tuple(sorted(elements))


def relabel(t: Triangulation, perm) -> Triangulation:
    return Triangulation(tuple(perm[i] for i in s) for s in t.simplices)


def canonical_form(t: Triangulation, group) -> str:
    """Lexicographically smallest relabelling of t over the group, as the
    canonical text form.  Constant on orbits, distinct across orbits."""
    best = None
    for perm in group:
        image = tuple(sorted(tuple(sorted(perm[i] for i in s)) for s in t.simplices))
        if best is None or image < best:
            best = image
    return Triangulation(best).canonical()


def orbit_count(stream, group, max_size=None) -> int:
    """Number of orbits among the streamed triangulations.

    Accepts Triangulation objects or canonical strings.  Memory grows with
    the number of distinct orbits; `max_size` bounds it explicitly
    (ResourceLimitError when exceeded).
    """
    forms = set()
    for item in stream:
        t = parse_triangulation(item) if isinstance(item, str) else item
        forms.add(canonical_form(t, group))
        if max_size is not None and len(forms) > max_size:
            raise ResourceLimitError(f"orbit set exceeded {max_size} entries")
    return len(forms)
