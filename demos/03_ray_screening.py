"""
Deciding flips by extremal-ray screening
========================================

Whether a flip leads to another *regular* triangulation is a polyhedral
question: the flip's GKZ displacement must span an extremal ray of the cone
generated by all the displacements at the current triangulation.  Solving
one exact LP per flip would settle it, but simple sparsity rules confirm
almost every ray without any LP.
"""

from regulartri import (
    RayStats,
    apply_flip,
    extremal_rays,
    find_flips,
    is_regular,
    naive_extremal_rays,
    nested_triangles,
    parse_triangulation,
    screen_rays,
)

# a configuration of two nested triangles, triangulated so that the
# screening trace below shows several different rules firing
config = nested_triangles()
t = parse_triangulation("{{0,1,3},{0,2,3},{1,2,4},{1,3,4},{2,3,5},{2,4,5},{3,4,5}}")
flips = find_flips(config, t)
print("triangulation:", t)
print("flips:", len(flips))

# the screening input: one tagged displacement vector per flip
tagged = [(flip.delta, k) for k, flip in enumerate(flips)]
for vec, k in tagged:
    print(f"  v{k}: {vec}")

# phase 1 — sparsity screening; each event reports which rule fired on
# which column and what it confirmed or deferred
outcome = screen_rays(tagged)
for event in outcome.events:
    print(
        f"rule {event.rule} on column {event.column}: "
        f"confirmed {list(event.confirmed)} deferred {list(event.deferred)}"
    )
print("confirmed extremal by screening:", sorted(outcome.confirmed))
print("deferred to closer inspection:", [d.ident for d in outcome.deferred])

# phase 2 — the full decision; each deferred candidate goes through the
# cascade again on its snapshot, down to a scalar comparison or, only if the
# snapshot stops shrinking, an exact simplex LP
stats = RayStats()
extremal = extremal_rays(tagged, stats)
print("extremal rays:", sorted(extremal))
print(
    f"rule hits: r1={stats.r1} r2={stats.r2} r3={stats.r3} r4={stats.r4} "
    f"scalar_tests={stats.scalar_tests} lps_solved={stats.lps_solved}"
)

# the lazy way, for comparison: one exact LP per vector, no shortcuts
print("naive LP oracle agrees:", naive_extremal_rays(tagged) == extremal)

# the verdict is geometric, not bookkeeping: the one rejected displacement
# is the flip into a non-regular triangulation (no height vector induces
# it), while the accepted ones all land on regular neighbors
for vec, k in tagged:
    target = apply_flip(config, t, flips[k])
    verdict = is_regular(config, target)
    print(f"flip v{k}: extremal={k in extremal} target regular={verdict.regular}")
