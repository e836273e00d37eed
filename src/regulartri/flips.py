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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RegulartriError, StaleFlipError
from .points import CorankOneConfig, PointConfiguration
from .triangulation import GkzVector, Triangulation


@dataclass(frozen=True)
class Flip:
    """A flip out of a specific triangulation.

    The circuit is reduced (no zero coefficients) and oriented so that
    `circuit.plus` indexes the side whose joined simplices are currently
    present (and will be removed).
    """

    circuit: CorankOneConfig
    removed: frozenset
    inserted: frozenset
    delta: GkzVector

    def __repr__(self):
        return f"Flip(Z={self.circuit.support}, delta={self.delta})"


def find_flips(config: PointConfiguration, t: Triangulation) -> list:
    """All flips supported on the triangulation, in deterministic order.

    Each circuit is examined once (distinct candidate sets S ∪ {p} reducing
    to the same circuit are deduplicated) and contributes at most one flip.
    """
    simplices = t.simplices
    by_vertex = {v: set() for v in range(config.n)}
    for k, s in enumerate(simplices):
        for v in s:
            by_vertex[v].add(k)
    seen_sets = set()
    seen_circuits = set()
    out = []
    for s in simplices:
        s_set = set(s)
        for p in range(config.n):
            if p in s_set:
                continue
            j = tuple(sorted(s + (p,)))
            if j in seen_sets:
                continue
            seen_sets.add(j)
            full = config.circuit_or_none(j)
            if full is None:
                continue
            circuit = full.reduced()
            if circuit.support in seen_circuits:
                continue
            seen_circuits.add(circuit.support)
            flip = _try_flip(config, circuit, simplices, by_vertex)
            if flip is not None:
                out.append(flip)
    out.sort(key=lambda f: f.circuit.support)
    return out


def _side_link(side, support, simplices, by_vertex):
    """The common link of the faces {Z∖{j} : j ∈ side}, or None.

    Returns a frozenset of sorted vertex tuples when every face is a face of
    the triangulation and all their links agree; None otherwise.
    """
    common = None
    for q in side:
        face = _without(support, q)
        cofaces = set.intersection(*(by_vertex[v] for v in face))
        if not cofaces:
            return None
        face_set = set(face)
        link = frozenset(
            tuple(v for v in simplices[k] if v not in face_set) for k in cofaces
        )
        if common is None:
            common = link
        elif link != common:
            return None
    return common


def _try_flip(config, circuit, simplices, by_vertex):
    link = _side_link(circuit.plus, circuit.support, simplices, by_vertex)
    if link is None:
        circuit = circuit.negated()
        link = _side_link(circuit.plus, circuit.support, simplices, by_vertex)
        if link is None:
            return None
    return _make_flip(config, circuit, link)


def _without(support, q):
    i = support.index(q)
    return support[:i] + support[i + 1 :]


def _make_flip(config: PointConfiguration, circuit: CorankOneConfig, link) -> Flip:
    removed = []
    inserted = []
    delta = [0] * config.n
    for q in circuit.plus:
        face = _without(circuit.support, q)
        for tau in link:
            simplex = tuple(sorted(face + tau))
            removed.append(simplex)
            vol = config.normalized_volume(simplex)
            for v in simplex:
                delta[v] -= vol
    for q in circuit.minus:
        face = _without(circuit.support, q)
        for tau in link:
            simplex = tuple(sorted(face + tau))
            inserted.append(simplex)
            vol = config.normalized_volume(simplex)
            if vol <= 0:
                raise RegulartriError("inserted flip simplex is degenerate")
            for v in simplex:
                delta[v] += vol
    flip = Flip(
        circuit=circuit,
        removed=frozenset(removed),
        inserted=frozenset(inserted),
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
    tset = t.as_set()
    if not flip.removed <= tset:
        raise StaleFlipError(
            f"flip on circuit {flip.circuit.support} does not apply here"
        )
    return Triangulation((tset - flip.removed) | flip.inserted)
