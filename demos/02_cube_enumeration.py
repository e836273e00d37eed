"""
Enumerating the 3-cube's triangulations
=======================================

Reverse search walks the flip graph without storing a visited set: every
triangulation names a canonical predecessor, the predecessor relation forms
a tree rooted at the lexicographically largest GKZ vector, and the search
just traverses that tree.  The cube's 74 regular triangulations fall into
6 classes under its 48 symmetries.
"""

from regulartri import (
    SearchMode,
    cube,
    cube_symmetry_generators,
    enumerate_triangulations,
    expand_group,
    orbit_count,
)

config = cube(3)
print("points:", config.n, "dim:", config.dim)

# collect every visited triangulation
triangulations = []
count, stats = enumerate_triangulations(
    config,
    SearchMode.REGULAR_ONLY,
    visitor=lambda t, gkz_vec, depth: triangulations.append(t),
)
print("regular triangulations:", count)

# cross-check against the plain visited-set DFS over the same flip graph
baseline, _ = enumerate_triangulations(
    config, SearchMode.REGULAR_ONLY, baseline=True
)
print("baseline agrees:", baseline == count)

# the full symmetry group comes from a few generators (coordinate swaps
# and reflections), closed under composition
group = expand_group(config, cube_symmetry_generators(3))
print("symmetry group order:", len(group))
print("orbits:", orbit_count(triangulations, group))

# the search decided every flip by the extremal-ray screening rules alone
print("flips evaluated:", stats.flips_evaluated)
print("simplex LPs solved:", stats.rays.lps_solved)
