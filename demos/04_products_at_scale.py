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

import time

from regulartri import (
    enumerate_triangulations,
    expand_group,
    simplex_product,
    simplex_product_symmetry_generators,
)

for m, n in ((2, 2), (2, 3), (2, 4)):
    config = simplex_product(m, n)
    group = expand_group(config, simplex_product_symmetry_generators(m, n))

    start = time.perf_counter()
    # With a group, reverse search visits one node per orbit.
    count, stats = enumerate_triangulations(config, group=group)
    orbits = stats.nodes
    elapsed = time.perf_counter() - start
    print(
        f"product {m}x{n}: points={config.n} dim={config.dim} "
        f"group={len(group)}"
    )
    print(
        f"  regular triangulations={count} orbits={orbits} "
        f"flip lists built={stats.cache_misses} lps={stats.rays.lps_solved} "
        f"({elapsed:.1f}s)"
    )

# 2x5 (4320 symmetries, 13 621 orbits) runs the same loop in about 35 s and
# 400 MB; it is stretch criterion 5 of tests/test_acceptance.py
