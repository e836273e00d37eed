"""Flips between triangulations, driven by corank-one subconfigurations.

Candidate circuits come from the sets S ∪ {p} for a maximal simplex S and an
extra point p: such a set always carries a unique affine dependence, whose
nonzero part is a circuit Z with Radon sides Z₊, Z₋.  The flip supported on
Z exists when the faces Z∖{j} of one side are all faces of the triangulation
and share one link L; it replaces the joins (Z∖{j}) ∪ τ (τ ∈ L) of the
present side by the joins of the opposite side.  When Z spans the full
dimension the faces are maximal simplices, L = {∅}, and the condition
reduces to one side's simplices all being present.

The GKZ displacement of a flip is gkz(T′) − gkz(T): positive exactly on the
removed side of the circuit, negative exactly on the inserted side, zero
elsewhere.  It is never the zero vector, and no two distinct flips of the
same triangulation have positively proportional displacements.  It comes
from the circuit's dependence λ by Cramer's rule: for a link simplex τ the
signed maximal minors of Z ∪ τ form a dependence of those d+2 points, so
they are a multiple c_τ·λ of the primitive one, and vol((Z∖{j}) ∪ τ) =
|λ_j|·c_τ.  Summing the volumes of the simplices at each point gives
δ = (Σ_τ c_τ)·λ, so `_displacement` reads one memoised minor per link
simplex and rechecks that each c_τ is a positive integer.

No exact arithmetic runs per triangulation.  A flip that removes a simplex S
removes the side of the circuit of S ∪ {p} that has p on it, for some p ∉ S.
So `find_flips` reads, for each maximal simplex S, the configuration's
circuit index: S's vertex mask and, for each p, that one side with its
faces and its exchange simplices' masks, computed once per simplex and
shared per circuit support.  It tests each side it meets once, on integer
bitmasks, in which bit v stands for vertex v.  First the exchange test: S
is a coface of Z∖{p}, so a flip on the side would remove S = (Z∖{p}) ∪ τ
and with it each exchange simplex S − q + p = (Z∖{q}) ∪ τ, for q ≠ p on
the plus side; if one of them is not in the triangulation the side has no
flip, exactly.  The entry holds each S − q + p as the mask of S ∪ {p}
without bit q, and the test looks them up in the set of the
triangulation's masks.  A side that passes gets the link test: the cofaces
of a face are the simplices whose vertex mask contains the face's, and the
link of the face in a coface is the coface's vertex mask minus the face's.
So a link is a set of ints and no vertex tuple is built per coface.  A flip
depends only on its circuit side and link, so the `Flip` for each (side,
link) pair is built once per configuration and memoised in
`PointConfiguration.flip_memo`, keyed by the side and the sorted tuple of
the link's masks.  On a memo miss, a flip whose opposite, on the other side
of its circuit with the same link, is memoised is built as its mirror: the
two sets of simplices swapped and the displacement and shift negated
(`_mirror_flip`).  Any other has its simplices decoded from their masks
(`_make_flip`).  `_displacement`'s rechecks run on every `Flip` object that
exists, a mirror's on its own side.  The memo grows with the number of
distinct flips of the triangulations visited (1 584 for all of Δ2×Δ3's
4 488, 792 of them mirrors), not with the number of times they are found
(28 368).

A flip's removed and inserted simplices are sorted tuples of the tuples in
`PointConfiguration.simplex_table`, so all flips share one tuple per
simplex (432 for Δ2×Δ3, against 13 536 simplex slots in its 1 584 flips),
and a mirror shares its two tuples of simplices with its opposite.

A flip changes the flips of a triangulation only near the flipped region,
so `find_flips` derives the list of T′ = apply_flip(P, flip) from P's when
it is given P's: it keeps P's flips whose removed simplices avoid
`flip.removed`, compared as vertex masks, takes the flip back to P, on the
opposite side of the same circuit with the same link, from the memo, and
tests only the other sides of the inserted simplices (see `find_flips` for
why that is exact).  The flip back and those sides, each with its exchange
masks, depend on the step alone, so they are found once, on the step's
first use, and kept on the `Flip`: the sides come as the (side, exchanges)
pairs of the inserted simplices' entries, so a pair is shared by the
circuit index and every step that inserts its simplex.  On the regular
search of Δ2×Δ3, 351 flips serve as steps, and their memos hold 4 643
sides of 422 simplices.  Dropped after that search, the memos and the
2 592 pairs of the 432 indexed simplices free 0.37 MB under tracemalloc
(Python 3.11), 0.07 MB of it the memos'.  The 4 487 derivations and the
seed's list meet 46 543 sides, with no circuit index lookup in a
derivation; the exchange test rejects 36 818 of them, so 9 725 link tests
remain, and 7 698 of them find a flip.

`apply_flip` keeps the source simplices that the flip does not remove, adds
the inserted ones and sorts the result, sharing the simplex tuples of the
source triangulation and the flip: a target of a node whose simplices are
table tuples has table tuples too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, attrgetter, itemgetter

from .errors import RegulartriError, StaleFlipError
from .points import CircuitSide, CorankOneConfig, PointConfiguration, vertex_mask
from .triangulation import GkzVector, Triangulation


@dataclass(frozen=True, slots=True)
class Flip:
    """A flip out of a specific triangulation.

    The circuit is reduced (no zero coefficients) and oriented so that
    `circuit.plus` indexes the side whose joined simplices are currently
    present (and will be removed).  `removed` and `inserted` are sorted
    tuples of simplices, each a `PointConfiguration.simplex` tuple.  A
    memoised flip also keeps its `CircuitSide`, its link as the sorted
    tuple of the link simplices' vertex masks, its key in `flip_memo`, its
    `shift`, `PointConfiguration.code_shift(delta)`: the target's code is
    the source's plus `shift`, and `shift` has the sign of `delta`'s first
    nonzero entry; `removed_masks`, the vertex masks of `removed` in order;
    and, once it has been a step of `find_flips`, its `step_memo`.
    Equality ignores all five.
    """

    circuit: CorankOneConfig
    removed: tuple
    inserted: tuple
    delta: GkzVector
    side: CircuitSide = field(default=None, compare=False)
    link: tuple = field(default=None, compare=False)
    shift: int = field(default=None, compare=False)
    removed_masks: tuple = field(default=None, compare=False)
    step_memo: tuple = field(default=None, compare=False)

    def __repr__(self):
        return f"Flip(Z={self.circuit.support}, delta={self.delta})"


_support = attrgetter("circuit.support")


def find_flips(config: PointConfiguration, t: Triangulation, parent=None) -> list:
    """All flips supported on the triangulation, in deterministic order.

    From scratch it tests the circuit sides of every simplex (see
    `PointConfiguration.circuit_entry`), each side once; a circuit
    contributes at most one flip.  A side whose exchange simplices, listed
    with it, are not all in the triangulation has no flip in it (see the
    module docstring) and gets no link test.

    `parent`, when given, is a pair (parent_flips, flip): `parent_flips`
    holds the `find_flips` list of a triangulation P, in any order, and
    `apply_flip(P, flip)` is `t`.  The list is then derived from P's, and
    it is the same list, of the same memoised `Flip` objects in the same
    order:

    - P's flips whose removed simplices avoid `flip.removed` are kept;
    - the flip back to P, on the opposite side of `flip`'s circuit with the
      same link, is taken from the memo without a test;
    - only the other sides of the simplices in `flip.inserted` are tested;
    - the result is sorted by support, as from scratch.

    The flip back and the sides to test, each with its exchange simplices,
    depend on `flip` alone: they are found on its first use as a step and
    kept on it (`_step_memo`).

    This is exact.  A face's cofaces change only if the face lies in a
    removed or an inserted simplex.  Both sets triangulate the same region,
    the joins of conv Z with the link, and a triangulation is a complex, so
    a face of P inside the region lies in some removed simplex and a face
    of `t` inside it in some inserted simplex.  Hence a flip of P keeps its
    link exactly when its removed simplices avoid `flip.removed`, and every
    other flip of `t` removes some inserted simplex i: its circuit Z lies
    in i ∪ {j} for a point j, so Z is in the circuit index of i.  No kept
    flip is found twice: had a side of i been a kept flip's, i would be one
    of its removed simplices, all of which are P's.
    """
    if parent is None:
        out = []
        scan = _scan(config, t.simplices, set())
    else:
        parent_flips, step = parent
        back, scan = step.step_memo or _step_memo(config, step)
        # Simplices are told apart by their vertex masks, ints.
        gone = frozenset(step.removed_masks)
        out = [f for f in parent_flips if gone.isdisjoint(f.removed_masks)]
        out.append(back)
    # Every simplex of t has its circuit index entry by now: the scan made
    # it, or P's list and the step's scan did.
    index = config._circuit_index
    masks = [index[s][0] for s in t.simplices]
    present = set(masks)
    for side, exchanges in scan:
        if not present.issuperset(exchanges):
            continue
        link = _side_link(side.faces, masks)
        if link is not None:
            out.append(_memo_flip(config, side, tuple(sorted(link))))
    out.sort(key=_support)
    return out


def _scan(config, simplices, seen) -> list:
    """The (side, exchanges) pairs of the circuit index entries of the
    simplices, each side once and none in `seen`, which gains them all.
    A side listed by several simplices keeps the first one's exchange
    simplices: the test is exact on either."""
    out = []
    for _, pairs in config.circuit_entries(simplices):
        for pair in pairs:
            if pair[0] not in seen:
                seen.add(pair[0])
                out.append(pair)
    return out


def _step_memo(config, step) -> tuple:
    """`step.step_memo`, computed and set on its first use: the flip back
    and the `_scan` of the inserted simplices without the flip back's side."""
    scan = tuple(_scan(config, step.inserted, {step.side.opposite}))
    # The flip back removes the inserted simplices, whose entries have just
    # left their minors: its displacement reads them, not a determinant.
    step_memo = (_memo_flip(config, step.side.opposite, step.link), scan)
    # A memo, not a value: Flip equality ignores the field.
    object.__setattr__(step, "step_memo", step_memo)
    return step_memo


def _memo_flip(config, side, link):
    """The memoised `Flip` on the side with the link (sorted link masks):
    the mirror of the memoised flip on the opposite side with the same link
    when there is one, else a new one."""
    memo = config.flip_memo
    flip = memo.get((side, link))
    if flip is None:
        other = memo.get((side.opposite, link))
        flip = memo[side, link] = (_make_flip(config, side, link) if other is None
                                   else _mirror_flip(config, side, link, other))
    return flip


def _side_link(faces, masks):
    """The common link of a circuit side's faces, or None.

    `faces` holds the vertex masks of the faces Z∖{j} and `masks` the vertex
    mask of each simplex.  Returns the link as a set of vertex masks, one
    per coface, when every face is a face of the triangulation and all
    their links agree; None otherwise.
    """
    link = None
    for face in faces:
        # A coface's mask minus the face's is its link simplex's mask.
        cofaces = {m ^ face for m in masks if m & face == face}
        if link is None:
            if not cofaces:
                return None
            link = cofaces
        elif cofaces != link:
            return None
    return link


def _make_flip(config: PointConfiguration, side: CircuitSide, link: tuple) -> Flip:
    """The flip on the circuit side with the link, the sorted tuple of its
    simplices' vertex masks.  Each removed or inserted simplex is the join
    face | τ of a face of its side's and a link mask, decoded once per
    simplex (`PointConfiguration.mask_simplex`).  The displacement comes
    from `_displacement`, and its `shift` is computed here too."""
    decode = config.mask_simplex

    def joins(faces):
        return sorted([decode(face | tau) for face in faces for tau in link],
                      key=itemgetter(1))

    delta = _displacement(config, side, link)
    removed = joins(side.faces)
    return Flip(side.circuit, tuple(s for _, s in removed),
                tuple(s for _, s in joins(side.opposite.faces)), delta,
                side, link, config.code_shift(delta), tuple(m for m, _ in removed))


def _mirror_flip(config, side, link, other) -> Flip:
    """`_make_flip(config, side, link)` from `other`, the memoised flip on
    the opposite side with the same link: the same two sets of simplices
    swapped, and the negated displacement and shift.  The displacement is
    still read and checked on this side's own minors by `_displacement`,
    and it must be other's negated."""
    delta = _displacement(config, side, link)
    if any(map(add, delta, other.delta)):
        raise RegulartriError(
            f"the flips on the two sides of circuit {side.circuit.support} with "
            f"one link have displacements {delta} and {other.delta}"
        )
    keep = config.mask_simplex
    return Flip(side.circuit, other.inserted, other.removed, delta, side, link,
                -other.shift, tuple(keep(vertex_mask(s))[0] for s in other.inserted))


def _displacement(config, side, link) -> tuple:
    """The displacement (Σ_τ c_τ)·λ of the flip on the side with the link,
    where c_τ is the volume of (Z∖{q}) ∪ τ over |λ_q| for the first q on
    the plus side, read from the memoised minors.  Each c_τ must be a
    positive integer.  The displacement is built with n entries and checked
    here, once per memoised flip, to have int entries, nonzero exactly on
    the support, so the kernel stage of `regularity.regular_flips` takes it
    with no check of its own."""
    circuit = side.circuit
    decode = config.mask_simplex
    lam = circuit.coefficient(circuit.plus[0])
    scale = 0
    for tau in link:
        simplex = decode(side.faces[0] | tau)[1]
        vol = abs(config._minor(simplex))
        c, rest = divmod(vol, lam)
        if c <= 0 or rest:
            raise RegulartriError(
                f"flip simplex {simplex} has volume {vol}, not a positive "
                f"multiple of its circuit coefficient {lam}"
            )
        scale += c
    delta = [0] * config.n
    for p, x in zip(circuit.support, circuit.dependence):
        delta[p] = scale * x
    if not (
        all(type(x) is int for x in delta)
        and all(delta[p] > 0 for p in circuit.plus)
        and all(delta[p] < 0 for p in circuit.minus)
        and sum(1 for x in delta if x != 0) == len(circuit.support)
    ):
        raise RegulartriError(
            "flip displacement must have int entries, positive on the removed "
            "side, negative on the inserted side, zero elsewhere"
        )
    return tuple(delta)


def apply_flip(config: PointConfiguration, t: Triangulation, flip: Flip) -> Triangulation:
    """The triangulation on the far side of the flip.

    Raises StaleFlipError when the flip's removed simplices are not all
    present, i.e. the flip belongs to a different triangulation.
    """
    removed = flip.removed
    kept = [s for s in t.simplices if s not in removed]
    if len(t.simplices) - len(kept) < len(removed):
        raise StaleFlipError(
            f"flip on circuit {flip.circuit.support} does not apply here"
        )
    kept.extend(flip.inserted)
    return Triangulation._from_canonical(kept)
