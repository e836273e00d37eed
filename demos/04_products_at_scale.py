"""
Products of simplices at scale
==============================

Triangulations of a product of two simplices grow quickly: a triangle times
a triangle already has 108, a triangle times a tetrahedron 4488.  Reverse
search keeps memory flat while counting them, and symmetry reduction by the
product of the two vertex-permutation groups shrinks the report to orbits.
"""

import time

from regulartri import (
    SearchMode,
    canonical_form,
    enumerate_triangulations,
    expand_group,
    simplex_product,
    simplex_product_symmetry_generators,
)

for m, n in ((2, 2), (2, 3)):
    config = simplex_product(m, n)
    group = expand_group(config, simplex_product_symmetry_generators(m, n))
    forms = set()

    def visit(t, gkz_vec, depth):
        forms.add(canonical_form(t, group))

    start = time.perf_counter()
    count, stats = enumerate_triangulations(
        config, SearchMode.REGULAR_ONLY, visitor=visit
    )
    elapsed = time.perf_counter() - start
    print(
        f"product {m}x{n}: points={config.n} dim={config.dim} "
        f"group={len(group)}"
    )
    print(
        f"  regular triangulations={count} orbits={len(forms)} "
        f"flips={stats.flips_evaluated} lps={stats.rays.lps_solved} "
        f"({elapsed:.1f}s)"
    )

# the same two calls keep working on bigger products (2x4 finishes in
# under an hour with ~376k triangulations in 530 orbits); the flat memory
# profile of reverse search is what makes that feasible in pure Python
