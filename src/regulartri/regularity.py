"""Regularity of triangulations and extremal rays of flip-displacement cones.

Two layers live here.  The first is classical: a triangulation is regular
exactly when a strict homogeneous system built from its interior-facet folds
(plus lifting rows for unused points) is feasible, which `is_regular` decides
by exact LP with witness heights or a Farkas certificate.

The second layer is the cheap path that makes enumeration fast.  The flip
displacements of a regular triangulation generate a pointed cone, and a flip
leads to a regular neighbor exactly when its displacement spans an extremal
ray of that cone.  Extremality of sparse vectors can usually be decided
without any LP by scanning columns:

* a column with a single nonzero entry confirms that vector as a ray and
  removes it from further consideration (R1);
* a column with one positive and one negative entry confirms both vectors
  and replaces them by their canceling positive combination, which is by
  construction not a ray (R2);
* a column with a singleton on one side and several entries on the other
  confirms the singleton; the opposite-side vectors are set aside to be
  decided against a snapshot of the current system, and replaced by their
  canceling combinations (R3);
* a one-sided column with two or more entries lets the zero-side subsystem
  be solved on its own; the nonzero-side vectors are set aside as in R3
  (R4).

A deferred vector is decided afterwards by the same cascade, run on its
snapshot with the other vectors untagged.  It is extremal once confirmed;
against a single other vector extremality is a scalar-multiple test; and
when the cascade defers it again without shrinking the snapshot, one small
LP runs against the snapshot.

`screen_rays` keeps its system as a plain list, in the order the rules are
defined on, and reads each column's counts off one list of signs per vector.
`extremal_rays` screens whole systems: the reference that the kernel stage
below, which the search runs instead, is checked against.

`regular_flips` knows more: the displacements at a regular triangulation
span the tangent space of the secondary polytope, of dimension n - d - 1, so
a list of m flips has a kernel of dimension c = m - (n - d - 1), its corank.
It first runs R1 to its unique fixpoint on support masks alone (bit c set
when entry c is nonzero): fold the live masks into the columns hit once and
hit twice or more, peel every vector with a column hit only by itself, and
repeat until nothing peels; that alone decides four in five Δ2×Δ3 flip
lists.  A peeled vector takes part in no dependence, so the flips the peel
leaves are decided on one integer kernel basis of their displacements, their
Gale dual, whatever c is: by Farkas' lemma v_i is extremal exactly when g_i,
its entries of the basis, lies in the cone of the other g_j.  For c = 0
every flip is extremal; for c = 1 a flip is not exactly when its coefficient
is the only one of its sign; for c = 2 integer cross products decide, in
one pass per g: the cone is not pointed when no g_j lies strictly on one
side of the line through a nonzero g, and g_i is in the cone when it is
zero, a positive multiple of a g_j, or between the nearest g_j on each
side, less than a half-turn apart.  For c >= 3 a flip alone on one side
of some column is extremal with no LP (the confirming half of R2 and R3),
as is one whose g_i is zero or a positive multiple of another g_j; each
other flip takes one LP with c rows instead of n, and a rejection is
rechecked on the displacements.
A dependence of one sign (the cone is not pointed) raises, as does a kernel
whose dimension is not c.  Displacements are affine dependences of the
points, which are fixed by their n - d - 1 entries outside an affine basis
(`PointConfiguration.cobasis`); the kernel is taken on those rows alone.  It
is the kernel of all n rows, and so is its reduced-echelon basis, so every
verdict is the same.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

from .errors import DegenerateConfigError, RegulartriError
from .exact import _kernel_basis, int_rows
from .lp import _integer_multiple, nonneg_combination, strict_homogeneous
from .points import PointConfiguration
from .triangulation import Triangulation, facet_incidence


# -- strict regularity system -------------------------------------------


def regularity_rows(config: PointConfiguration, t: Triangulation) -> list:
    """Rows r with: T regular  <=>  some h satisfies r·h > 0 for all rows.

    One row per interior facet (the fold of the two adjacent simplices,
    signed so both apexes carry positive coefficients) and one row per
    (unused point, containing simplex) pair (signed so the unused point
    carries a positive coefficient: the point must be lifted strictly above
    the simplex's hyperplane).  A simplex that does not span raises
    DegenerateConfigError.
    """
    # Every row is the circuit of a simplex s plus a point p ∉ s: the side
    # that circuit_entry(s) lists for p, at p less the vertices of s below
    # p, as s spans and no set of it is degenerate.
    for s in t.simplices:
        if not config.normalized_volume(s):
            raise DegenerateConfigError(f"points {s} do not span the affine hull")
    rows = []
    for facet, owners in sorted(facet_incidence(t.simplices).items()):
        if len(owners) != 2:
            continue
        (s, apex), (_, other) = owners
        side = config.circuit_entry(s)[1][other - bisect_left(s, other)]
        if apex not in side.circuit.plus:
            side = side.opposite
        rows.append(_scatter(config.n, side.circuit))
    used = t.used_points()
    for u in range(config.n):
        if u in used:
            continue
        for s in t.simplices:
            circuit = config.circuit_entry(s)[1][u - bisect_left(s, u)].circuit
            if circuit.plus == (u,):
                rows.append(_scatter(config.n, circuit))
    return rows


def _scatter(n, circuit):
    row = [0] * n
    for p, c in zip(circuit.support, circuit.dependence):
        row[p] = c
    return tuple(row)


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    heights: tuple = None
    certificate: tuple = None
    rows: tuple = ()

    def __bool__(self):
        return self.regular


def is_regular(config: PointConfiguration, t: Triangulation) -> RegularityVerdict:
    """Decide regularity; carries exact heights or a Farkas certificate.

    The witness satisfies every row with slack >= 1 (any positive slack can
    be rescaled to this); the certificate is a nonnegative nonzero
    combination of the rows summing to zero.
    """
    rows = regularity_rows(config, t)
    res = strict_homogeneous(rows, dim=config.n)
    if res.feasible:
        return RegularityVerdict(True, heights=res.witness, rows=tuple(rows))
    return RegularityVerdict(False, certificate=res.certificate, rows=tuple(rows))


# -- sparse ray screening -------------------------------------------------


class TaggedVector(NamedTuple):
    """A system vector: `ident` is the candidate id, or None for vectors
    known to be positive combinations of others (never rays)."""

    vec: tuple
    ident: object = None

    @property
    def is_candidate(self):
        return self.ident is not None


@dataclass(frozen=True)
class DeferredCandidate:
    """A candidate postponed to the LP/scalar stage, together with the rest
    of the system exactly as it stood when the candidate was set aside."""

    ident: object
    vec: tuple
    others: tuple  # TaggedVector entries, excluding this candidate


@dataclass(frozen=True)
class ScreeningEvent:
    rule: str
    column: int
    confirmed: tuple = ()
    deferred: tuple = ()


@dataclass
class ScreeningOutcome:
    confirmed: list = field(default_factory=list)
    deferred: list = field(default_factory=list)
    residual: tuple = ()
    events: list = field(default_factory=list)
    r1: int = 0  # candidates confirmed per rule
    r2: int = 0
    r3: int = 0
    r4: int = 0  # rule-4 applications (it only defers)


def _tagged(vectors) -> list:
    """The ray system as TaggedVectors, from TaggedVectors or (vector, ident)
    pairs."""
    return [TaggedVector(tuple(vec), ident) for vec, ident in vectors]


def screen_rays(vectors) -> ScreeningOutcome:
    """Run the column reductions to a fixpoint.

    `vectors` is an iterable of TaggedVector (or (vec, ident) pairs).  The
    vectors must generate a pointed cone and no two may be positive scalar
    multiples unless one is tagged as a known non-ray.  Candidates end up
    either confirmed (extremal, no LP needed) or deferred with a snapshot;
    the partition is exact, screening never misclassifies.

    Scheduling is deterministic: rules are tried in the order R1, R2,
    R3-with-candidate-singleton, R3, R4, each scanning nonempty columns in
    ascending order, restarting after every applied reduction.  Screening
    stops as soon as no candidates remain in the system, since reductions
    among known non-rays cannot decide anything further.

    The system is a plain list: the live vectors in input order, with
    cancellations appended, and beside it the signs of each vector's
    entries, whose columns give each rule its counts.  A snapshot is the list without the
    deferred vector.
    """
    system = _tagged(vectors)
    out = ScreeningOutcome()
    if not system:
        return out
    _check_system(((v.vec, any(v.vec)) for v in system), len(system[0].vec))
    signs = [_signs(v.vec) for v in system]

    while any(v.ident is not None for v in system):
        action = _find_reduction(system, signs)
        if action is None:
            break
        rule, col, single, others = action
        if rule == "R4":
            confirm, defer = (), others
        elif rule == "R3":
            confirm, defer = (single,), others
        else:  # R1 and R2 confirm every vector they touch
            confirm, defer = (single,) + others, ()
        confirmed = tuple(system[k].ident for k in confirm
                          if system[k].ident is not None)
        out.confirmed.extend(confirmed)
        if rule == "R1":
            out.r1 += len(confirmed)
        elif rule == "R2":
            out.r2 += len(confirmed)
        elif rule == "R3":
            out.r3 += len(confirmed)
        else:
            out.r4 += 1
        deferred = _defer(system, defer, out)
        out.events.append(ScreeningEvent(rule, col, confirmed, deferred))
        # R2 and R3 replace the pair or the opposite side by its
        # cancellations with the singleton.
        combos = [] if single is None else [
            _cancel(system[single], system[k], col) for k in others]
        drop = {single, *others}
        keep = [k for k in range(len(system)) if k not in drop]
        system = [system[k] for k in keep] + combos
        signs = [signs[k] for k in keep] + [_signs(v.vec) for v in combos]

    # Whatever candidates survive an irreducible system go to the LP stage.
    leftovers = [k for k, v in enumerate(system) if v.ident is not None]
    if leftovers:
        deferred = _defer(system, leftovers, out)
        out.events.append(ScreeningEvent("fixpoint", -1, deferred=deferred))
    out.residual = tuple(system)
    return out


def _signs(vec) -> list:
    return [(x > 0) - (x < 0) for x in vec]


def _defer(system, indices, out):
    idents = []
    for k in indices:
        v = system[k]
        if v.ident is not None:
            others = tuple(system[:k] + system[k + 1:])
            out.deferred.append(DeferredCandidate(v.ident, v.vec, others))
            idents.append(v.ident)
    return tuple(idents)


def _cancel(a: TaggedVector, b: TaggedVector, col: int) -> TaggedVector:
    """The positive combination of a and b that vanishes in `col`.

    a and b carry opposite signs there, so |a[col]|·b + |b[col]|·a kills the
    column; the result is tagged as a known non-ray.
    """
    ca, cb = abs(a.vec[col]), abs(b.vec[col])
    vec = tuple(ca * y + cb * x for x, y in zip(a.vec, b.vec))
    if all(x == 0 for x in vec):
        raise RegulartriError("cancellation produced zero: cone is not pointed")
    return TaggedVector(vec, None)


def _find_reduction(system, signs):
    """Pick the next reduction: (rule, column, single, others) or None at
    fixpoint.

    Every column is scanned in ascending order; an empty one is skipped.
    `single` is the vector alone on its side of the column (None for R4)
    and `others`, ascending, the vectors on the other side (for R1 none,
    for R4 every nonzero one).
    """
    r2 = r3c = r3 = r4 = None
    for col, column in enumerate(zip(*signs)):
        np_, nn = column.count(1), column.count(-1)
        if np_ + nn == 1:
            return "R1", col, column.index(np_ - nn), ()
        if np_ == 1 and nn == 1:
            if r2 is None:
                r2 = "R2", col, column.index(1), (column.index(-1),)
        elif np_ == 1 or nn == 1:
            side = 1 if np_ == 1 else -1
            single = column.index(side)
            if system[single].ident is not None:
                if r3c is None:
                    r3c = "R3", col, single, _where(column, -side)
            elif r3 is None:
                r3 = "R3", col, single, _where(column, -side)
        elif (np_ == 0) != (nn == 0) and r4 is None:
            r4 = "R4", col, None, _where(column, 1 if np_ else -1)
    return r2 or r3c or r3 or r4


def _where(column, sign) -> tuple:
    return tuple(k for k, s in enumerate(column) if s == sign)


# -- extremal-ray classification ------------------------------------------


@dataclass
class RayStats:
    """Counters for one extremal-ray computation (or accumulated)."""

    r1: int = 0
    r2: int = 0
    r3: int = 0
    r4: int = 0
    kernel: int = 0  # flips decided on the kernel of their displacements
    signed: int = 0  # flips confirmed as alone on one side of a column
    scalar_tests: int = 0
    lps_solved: int = 0
    lp_generators: int = 0  # generators over all LPs, and the most in one
    lp_generators_max: int = 0


def extremal_rays(vectors, stats: RayStats = None) -> set:
    """Idents of the vectors spanning extremal rays of the generated cone.

    `vectors` as in screen_rays, screened whole; each deferred candidate is
    decided against its snapshot by _deferred_extremal.
    """
    if stats is None:
        stats = RayStats()
    outcome = screen_rays(vectors)
    _accumulate(stats, outcome)
    extremal = set(outcome.confirmed)
    for item in outcome.deferred:
        if _deferred_extremal(item, stats):
            extremal.add(item.ident)
    return extremal


def _check_system(pairs, ncols):
    """RegulartriError unless each (vector, nonzero) pair, in order, has a
    vector of length ncols and a true `nonzero`, such as its support mask."""
    for vec, nonzero in pairs:
        if len(vec) != ncols:
            raise RegulartriError("ray system vectors of mixed lengths")
        if not nonzero:
            raise RegulartriError("zero vector in ray system")


def _peel(masks):
    """R1 to its fixpoint on support masks: (peeled, left), as indices.

    A vector with a column that no other live vector touches is a ray; it
    is removed, which can only free more columns.  Each round peels every
    such vector at once, until no column is private.  Whatever the order of
    removals, the peeled set is the same, so `left`, in ascending order,
    indexes the system the cascade reaches when R1 first stops applying.
    """
    live = list(enumerate(masks))
    peeled = []
    while live:
        once = twice = 0
        for _, mask in live:
            twice |= once & mask
            once |= mask
        private = once & ~twice
        if not private:
            break
        kept = []
        for item in live:
            if item[1] & private:
                peeled.append(item[0])
            else:
                kept.append(item)
        live = kept
    return peeled, [k for k, _ in live]


def _accumulate(stats, outcome):
    stats.r1 += outcome.r1
    stats.r2 += outcome.r2
    stats.r3 += outcome.r3
    stats.r4 += outcome.r4


def _deferred_extremal(item: DeferredCandidate, stats: RayStats) -> bool:
    """Decide one deferred candidate against its snapshot system.

    The candidate, alone among untagged snapshot vectors, is screened again
    until it is confirmed, or its snapshot is a single vector, where
    extremality is the positive-scalar-multiple test, or the snapshot stops
    shrinking, where one exact LP decides: is the candidate in the cone of
    the snapshot?  Each screen after the first runs on a strictly smaller
    snapshot, so the loop ends.  (An empty snapshot leaves the candidate
    alone, and R1 confirms it.)
    """
    bound = None
    while True:
        vec, others = item.vec, item.others
        if len(others) == 1:
            stats.scalar_tests += 1
            return not _positive_multiple(others[0].vec, vec)
        if bound is not None and len(others) >= bound:
            return not _counted_lp([w.vec for w in others], vec, stats).feasible
        outcome = screen_rays([(vec, item.ident)] + [(w.vec, None) for w in others])
        _accumulate(stats, outcome)
        if outcome.confirmed:
            return True
        bound = len(others)
        (item,) = outcome.deferred


def _counted_lp(others, vec, stats):
    """`nonneg_combination(others, vec)`, counted in `stats`: every LP of the screening."""
    stats.lps_solved += 1
    stats.lp_generators += len(others)
    stats.lp_generators_max = max(stats.lp_generators_max, len(others))
    return nonneg_combination(others, vec)


def _positive_multiple(u, v) -> bool:
    """True when u = a*v for some a > 0 (exact).

    Compares every nonzero pair (x, y) with the first one (x0, y0) by
    cross-multiplication: x/y = x0/y0 exactly when x*y0 = x0*y.
    """
    first = None
    for x, y in zip(u, v):
        if (x == 0) != (y == 0):
            return False
        if y != 0:
            if (x > 0) != (y > 0):
                return False
            if first is None:
                first = (x, y)
            elif x * first[1] != first[0] * y:
                return False
    return first is not None


def naive_extremal_rays(vectors) -> set:
    """Reference classification: one LP per vector against all the others.

    Used as the independent oracle for the screening path; no reductions,
    no shortcuts.
    """
    tagged = _tagged(vectors)
    out = set()
    for k, v in enumerate(tagged):
        others = [w.vec for j, w in enumerate(tagged) if j != k]
        if v.is_candidate and not nonneg_combination(others, v.vec).feasible:
            out.add(v.ident)
    return out


def regular_flips(config: PointConfiguration, t: Triangulation, flips, stats=None):
    """The flips of a regular triangulation leading to regular neighbors.

    A flip qualifies exactly when its GKZ displacement spans an extremal ray
    of the cone generated by all displacements at t.  A displacement is
    nonzero exactly on its circuit's points, so its support mask is the
    circuit's.  `flips._make_flip` checks that, and that it has n int
    entries, once per flip, so the list goes to the kernel stage
    (_kernel_stage) with no check of its own; the kernel vectors are still
    rechecked.  Every list is decided there, whatever its corank, with its
    kernel taken at the co-basis points (see the module docstring).  A list
    whose flips are all kept is returned as it is.
    """
    if not flips:
        return []
    keep = _kernel_stage([f.delta for f in flips],
                         [f.circuit.support_mask for f in flips],
                         len(flips) - len(config.cobasis), stats, config.cobasis)
    if len(keep) == len(flips):
        return flips
    return [f for k, f in enumerate(flips) if k in keep]


def _kernel_extremal(vecs, masks, corank, stats=None, coords=None) -> set:
    """Positions of the extremal vectors of a nonempty system, from their
    support masks and the system's corank, the dimension of its kernel.

    R1 is peeled on the masks and the vectors left are decided on one
    kernel basis, by _gale_extremal; RegulartriError when that kernel does
    not have the dimension `corank`.  The basis is taken on the nonzero
    rows at `coords` (every coordinate by default), where a combination of
    the vectors may vanish only if it is zero, so it is that of all rows.
    A system the peel clears has kernel dimension 0 and is returned without
    a kernel stage, after the same corank check.  The system is checked
    first: _check_system on the vectors and their masks, and int entries.
    """
    _check_system(zip(vecs, masks), len(vecs[0]))
    int_rows(vecs, "ray system")
    return _kernel_stage(vecs, masks, corank, stats, coords)


def _kernel_stage(vecs, masks, corank, stats=None, coords=None) -> set:
    """_kernel_extremal on a system known to be valid, such as the
    displacements that `flips._make_flip` checks: nonempty vectors of one
    length with int entries, each nonzero, with its support mask."""
    if stats is None:
        stats = RayStats()
    peeled, left = _peel(masks)
    stats.r1 += len(peeled)
    keep = set(peeled)
    basis = []
    if left:
        columns = [vecs[k] for k in left]
        if coords is None:
            coords = range(len(vecs[0]))
        rows = ([v[c] for v in columns] for c in coords)
        basis = _kernel_basis([row for row in rows if any(row)])
        keep.update(left[i] for i in _gale_extremal(basis, columns, stats))
    if len(basis) != corank:
        raise RegulartriError(
            f"flip displacements have a kernel of dimension {len(basis)}, "
            f"not their corank {corank}")
    return keep


def _gale_extremal(basis, vecs, stats) -> list:
    """Positions i of the extremal vectors v_i among `vecs`, from a basis
    of their kernel, their Gale dual.

    With g_i the i-th entries of the basis vectors, v_i is in the cone of
    the other v_j exactly when some w has g_i·w > 0 and g_j·w <= 0 for the
    other j (Farkas), that is when g_i is not in the cone of the other
    g_j.  A w with every g_j·w >= 0 gives a nonnegative dependence: the
    cone is not pointed, RegulartriError.  Kernels of dimension three or
    more go to _cone_extremal.
    """
    size = len(vecs)
    if len(basis) > 2:
        return _cone_extremal(basis, vecs, stats)
    stats.kernel += size
    if not basis:
        return range(size)
    if len(basis) == 1:
        (lam,) = basis
        pos = sum(x > 0 for x in lam)
        neg = sum(x < 0 for x in lam)
        if not (pos and neg):
            raise RegulartriError("dependence of one sign: cone is not pointed")
        return [i for i, x in enumerate(lam)
                if not (x > 0 and pos == 1 or x < 0 and neg == 1)]
    gs = list(zip(*basis))
    for a, b in gs:
        # The cone is a half-plane or less exactly when the line through a
        # nonzero g bounds it; its pass ends once g_j lie on both sides.
        if not (a or b):
            continue
        sides = 0
        for x, y in gs:
            cross = a * y - b * x
            if cross:
                sides |= 1 if cross > 0 else 2
                if sides == 3:
                    break
        else:
            raise RegulartriError("dependence of one sign: cone is not pointed")
    return [i for i, g in enumerate(gs) if _in_plane_cone(g, gs[:i] + gs[i + 1:])]


def _cone_extremal(basis, vecs, stats) -> list:
    """_gale_extremal for a kernel of dimension c >= 3.

    A basis vector of one sign raises.  A vector alone on one side of some
    column is extremal (_signed_singletons).  For each other v_i, g_i lies
    in the cone of the other g_j when it is zero or a positive multiple of
    one of them; otherwise one exact LP in Z^c decides.  An LP's Farkas
    certificate y gives the kernel vector lam_j = g_j·y, positive at i and
    at most zero elsewhere; it is checked on the vectors themselves
    (_check_rejection) before v_i is rejected.
    """
    for lam in basis:
        if min(lam) >= 0 or max(lam) <= 0:
            raise RegulartriError("dependence of one sign: cone is not pointed")
    sure = _signed_singletons(vecs)
    stats.signed += len(sure)
    stats.kernel += len(vecs) - len(sure)
    gs = list(zip(*basis))
    extremal = []
    for i, g in enumerate(gs):
        if i in sure or not any(g):
            extremal.append(i)
            continue
        others = [h for j, h in enumerate(gs) if j != i and any(h)]
        if any(_positive_multiple(h, g) for h in others):
            extremal.append(i)
            continue
        res = _counted_lp(others, g, stats)
        if res.feasible:
            extremal.append(i)
        else:
            _check_rejection(res.certificate, gs, vecs, i)
    return extremal


def _signed_singletons(vecs) -> set:
    """Positions of the vectors alone on one side of some column: the only
    one positive there, or the only one negative.  ±e_col is then positive
    on that vector and at most zero on every other, so it is extremal."""
    sure = set()
    for column in zip(*vecs):
        for side in ([i for i, x in enumerate(column) if x > 0],
                     [i for i, x in enumerate(column) if x < 0]):
            if len(side) == 1:
                sure.update(side)
    return sure


def _check_rejection(certificate, gs, vecs, i):
    """RegulartriError unless `certificate`, scaled to integers y, gives a
    kernel vector lam_j = g_j·y with lam_i > 0, lam_j <= 0 for j != i and
    sum_j lam_j v_j = 0, computed on the vectors in integers: then v_i is a
    nonnegative combination of the other v_j, so not extremal."""
    (y,) = _integer_multiple((certificate,))
    lam = [sum(map(mul, y, g)) for g in gs]
    total = [sum(map(mul, lam, column)) for column in zip(*vecs)]
    if lam[i] <= 0 or any(x > 0 for j, x in enumerate(lam) if j != i) or any(total):
        raise RegulartriError("Gale rejection fails its recheck on the vectors")


def _in_plane_cone(g, others) -> bool:
    """True when g in Z^2 is a nonnegative combination of `others`.

    By Carathéodory two generators suffice: g is zero, or a positive
    multiple of one, or between one strictly to its right and one strictly
    to its left less than a half-turn apart.  The pair nearest to g on each
    side spans the least angle, so it alone is tested: one pass of integer
    cross products.
    """
    x, y = g
    if not (x or y):
        return True
    left = right = None
    for u, v in others:
        cross = x * v - y * u
        # Nearer to g: clockwise of `left`, counterclockwise of `right`.
        if cross > 0:
            if left is None or u * left[1] - v * left[0] > 0:
                left = u, v
        elif cross < 0:
            if right is None or right[0] * v - right[1] * u > 0:
                right = u, v
        elif x * u + y * v > 0:
            return True
    return bool(left and right and right[0] * left[1] - right[1] * left[0] > 0)
