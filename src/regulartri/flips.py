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
same triangulation have positively proportional displacements.

No exact arithmetic runs per triangulation.  A flip that removes a
simplex S removes the side of the circuit of S ∪ {p} that has p on it, for
some p ∉ S.  So `find_flips` reads, for each maximal simplex S, the
configuration's circuit index (for each p that one side with its faces,
computed once per simplex and shared per circuit support), and tests each
side it meets once, on integer bitmasks: the simplices containing a face
are the AND of the triangulation's vertex-to-simplex masks, and the link of
the face in a coface is the coface's vertex mask minus the face's.  So a
link is a set of ints and no vertex tuple is built per coface.  A flip
depends only on its circuit side and link, so the `Flip` for each (side,
link) pair is built once per configuration and memoised in
`PointConfiguration.flip_memo`, keyed by the side and the sorted tuple of
the link's masks; the link's vertex tuples are decoded on a memo miss only,
and `_make_flip`'s volume and sign checks run on every `Flip` object that
exists.  The memo grows with the number of distinct flips of the
triangulations visited (1 584 for all of Δ2×Δ3's 4 488), not with the
number of times they are found (28 368).

A flip's removed and inserted simplices are sorted tuples of the tuples in
`PointConfiguration.simplex_table`, so all flips share one tuple per
simplex (432 for Δ2×Δ3, against 13 536 simplex slots in its 1 584 flips).

A flip changes the flips of a triangulation only near the flipped region,
so `find_flips` derives the list of T′ = apply_flip(P, flip) from P's when
it is given P's: it keeps P's flips whose removed simplices avoid
`flip.removed` and tests only the sides of the inserted simplices (see
`find_flips` for why that is exact).  On the regular search of Δ2×Δ3 the
side-link tests fall from 187 224 (every circuit of every simplex, both
sides) to 51 037.

`apply_flip` keeps the source simplices that the flip does not remove, adds
the inserted ones and sorts the result, sharing the simplex tuples of the
source triangulation and the flip: a target of a node whose simplices are
table tuples has table tuples too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import RegulartriError, StaleFlipError
from .points import CorankOneConfig, PointConfiguration, mask_bits
from .triangulation import GkzVector, Triangulation


@dataclass(frozen=True, slots=True)
class Flip:
    """A flip out of a specific triangulation.

    The circuit is reduced (no zero coefficients) and oriented so that
    `circuit.plus` indexes the side whose joined simplices are currently
    present (and will be removed).  `removed` and `inserted` are sorted
    tuples of simplices, each a `PointConfiguration.simplex` tuple.
    """

    circuit: CorankOneConfig
    removed: tuple
    inserted: tuple
    delta: GkzVector

    def __repr__(self):
        return f"Flip(Z={self.circuit.support}, delta={self.delta})"


def find_flips(config: PointConfiguration, t: Triangulation, parent=None) -> list:
    """All flips supported on the triangulation, in deterministic order.

    From scratch it tests the circuit sides of every simplex (see
    `PointConfiguration.simplex_sides`), each side once; a circuit
    contributes at most one flip.

    `parent`, when given, is a pair (parent_flips, flip): `parent_flips`
    holds the `find_flips` list of a triangulation P, in any order, and
    `apply_flip(P, flip)` is `t`.  The list is then derived from P's, and
    it is the same list, of the same memoised `Flip` objects in the same
    order:

    - P's flips whose removed simplices avoid `flip.removed` are kept;
    - only the sides of the simplices in `flip.inserted` are tested;
    - the result is sorted by support, as from scratch.

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
    simplices = t.simplices
    # by_vertex[v] has bit k set when simplex k contains v; masks[k] has bit
    # v set for each vertex v of simplex k.
    by_vertex = [0] * config.n
    masks = []
    for k, s in enumerate(simplices):
        bit = 1 << k
        mask = 0
        for v in s:
            by_vertex[v] |= bit
            mask |= 1 << v
        masks.append(mask)
    if parent is None:
        out, scan = [], simplices
    else:
        parent_flips, step = parent
        gone = frozenset(step.removed)
        out = [f for f in parent_flips if gone.isdisjoint(f.removed)]
        scan = step.inserted
    memo = config.flip_memo
    tested = set()
    for s in scan:
        for side in config.simplex_sides(s):
            if side in tested:
                continue
            tested.add(side)
            link = _side_link(side.faces, masks, by_vertex)
            if link is not None:
                sorted_link = tuple(sorted(link))
                flip = memo.get((side, sorted_link))
                if flip is None:
                    tuples = tuple(map(mask_bits, sorted_link))
                    flip = _make_flip(config, side.circuit, tuples)
                    memo[side, sorted_link] = flip
                out.append(flip)
    out.sort(key=lambda f: f.circuit.support)
    return out


def _side_link(faces, masks, by_vertex):
    """The common link of a circuit side's faces, or None.

    `faces` holds (tuple, vertex mask) pairs for the faces Z∖{j}, `masks`
    the vertex mask of each simplex and `by_vertex` the mask of the
    simplices containing each vertex.  Returns the link as a frozenset of
    vertex masks, one per coface, when every face is a face of the
    triangulation and all their links agree; None otherwise.
    """
    (face, face_mask), rest = faces[0], faces[1:]
    cofaces = reduce(and_, map(by_vertex.__getitem__, face))
    if not cofaces:
        return None
    keep = ~face_mask
    link = []
    while cofaces:
        low = cofaces & -cofaces
        link.append(masks[low.bit_length() - 1] & keep)
        cofaces ^= low
    link = frozenset(link)
    # The links of distinct cofaces of one face are distinct, so another
    # face has the same link when it has as many cofaces, each with a link
    # in the first face's.
    size = len(link)
    for face, face_mask in rest:
        cofaces = reduce(and_, map(by_vertex.__getitem__, face))
        if cofaces.bit_count() != size:
            return None
        keep = ~face_mask
        while cofaces:
            low = cofaces & -cofaces
            if masks[low.bit_length() - 1] & keep not in link:
                return None
            cofaces ^= low
    return link


def _without(support, q):
    i = support.index(q)
    return support[:i] + support[i + 1 :]


def _make_flip(config: PointConfiguration, circuit: CorankOneConfig, link) -> Flip:
    """The flip on the circuit side with the link, an iterable of vertex
    tuples: its simplices are the configuration's table tuples."""
    removed = []
    inserted = []
    delta = [0] * config.n
    simplex_of = config.simplex
    for q in circuit.plus:
        face = _without(circuit.support, q)
        for tau in link:
            simplex = simplex_of(tuple(sorted(face + tau)))
            removed.append(simplex)
            vol = config.normalized_volume(simplex)
            for v in simplex:
                delta[v] -= vol
    for q in circuit.minus:
        face = _without(circuit.support, q)
        for tau in link:
            simplex = simplex_of(tuple(sorted(face + tau)))
            inserted.append(simplex)
            vol = config.normalized_volume(simplex)
            if vol <= 0:
                raise RegulartriError("inserted flip simplex is degenerate")
            for v in simplex:
                delta[v] += vol
    flip = Flip(
        circuit=circuit,
        removed=tuple(sorted(removed)),
        inserted=tuple(sorted(inserted)),
        delta=tuple(delta),
    )
    if not (
        all(flip.delta[q] > 0 for q in circuit.plus)
        and all(flip.delta[q] < 0 for q in circuit.minus)
        and sum(1 for x in flip.delta if x != 0) == len(circuit.support)
    ):
        raise RegulartriError(
            "flip displacement must be positive on the removed side, negative on "
            "the inserted side, zero elsewhere"
        )
    return flip


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
