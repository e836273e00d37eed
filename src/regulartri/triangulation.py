"""Triangulations of a point configuration and their GKZ-vectors.

A triangulation is stored canonically: every simplex is an ascending tuple of
point indices, and the simplices themselves are sorted lexicographically.
Triangulations hash and compare by that ordering, so they serve directly as
set members and cache keys.  The canonical text form `{{0,1,2},{0,2,3}}` is a
bit-exact rendering of the same ordering, used only for output and as the
CLI interchange format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, InvalidInputError, ParseError
from .points import PointConfiguration

#: A simplex is an ascending tuple of d+1 point indices.
Simplex = tuple

#: GKZ-vectors are integer tuples of length n, one entry per point.
GkzVector = tuple


class Triangulation:
    """An immutable set of maximal simplices, held as the sorted tuple
    `simplices` alone: equality, hashing and membership all read it."""

    __slots__ = ("simplices", "_hash")

    def __init__(self, simplices):
        simps = tuple(sorted(tuple(sorted(s)) for s in simplices))
        if not simps:
            raise InvalidInputError("a triangulation needs at least one simplex")
        if len(set(simps)) != len(simps):
            raise InvalidInputError("repeated simplex")
        self.simplices = simps
        self._hash = hash(simps)

    @classmethod
    def _from_canonical(cls, simplices) -> "Triangulation":
        """Internal constructor from distinct ascending tuples, not empty.

        Used for flip targets, whose simplices come from a triangulation and
        a flip that are canonical already: only the order of the simplices
        is computed, and their tuples are shared, not copied.
        """
        t = object.__new__(cls)
        t.simplices = tuple(sorted(simplices))
        t._hash = hash(t.simplices)
        return t

    def __contains__(self, simplex):
        return tuple(sorted(simplex)) in self.simplices

    def __iter__(self):
        return iter(self.simplices)

    def __len__(self):
        return len(self.simplices)

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.simplices == other.simplices

    def __hash__(self):
        return self._hash

    def used_points(self) -> frozenset:
        return frozenset(i for s in self.simplices for i in s)

    def canonical(self) -> str:
        return format_triangulation(self)

    def __repr__(self):
        return f"Triangulation({self.canonical()})"


def format_triangulation(t: Triangulation) -> str:
    inner = ",".join("{" + ",".join(str(i) for i in s) + "}" for s in t.simplices)
    return "{" + inner + "}"


def parse_triangulation(text: str) -> Triangulation:
    """Parse the canonical `{{i,j,...},{...}}` form with the Scanner of CLI
    input files: blanks may stand between tokens, and a syntax error is an
    InvalidInputError that gives its line and column."""
    sc = Scanner(text)

    def index():
        if sc.skip_blank() == "-":
            sc.error("point indices are nonnegative")
        return sc.parse_int()

    try:
        simplices = sc.parse_list(lambda: sc.parse_list(index, "{}"), "{}")
        if sc.skip_blank():
            sc.error(f"expected end of input, found {sc.found()}")
    except ParseError as e:
        raise InvalidInputError(str(e)) from None
    if not all(simplices):
        raise InvalidInputError("empty simplex in triangulation literal")
    return Triangulation(simplices)


class Scanner:
    """Reads the bracket lists of triangulation literals and CLI input files.
    Blanks (whitespace and `#` comments) may stand between tokens; each reader
    skips them first, so a ParseError gives the position of the bad token."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str):
        raise ParseError(self.line, self.col, message)

    def peek(self) -> str:
        """The next character, or "" at the end of the text."""
        return self.text[self.pos : self.pos + 1]

    def found(self) -> str:
        return repr(self.peek()) if self.peek() else "end of input"

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_blank(self) -> str:
        """Skip whitespace and comments; the next character, as peek()."""
        while True:
            ch = self.peek()
            if ch == "#":
                while self.peek() not in ("", "\n"):
                    self.advance()
            elif ch.isspace():
                self.advance()
            else:
                return ch

    def expect(self, ch: str):
        if self.skip_blank() != ch:
            self.error(f"expected {ch!r}, found {self.found()}")
        self.advance()

    def parse_int(self) -> int:
        # isdecimal, not isdigit: int() refuses digits such as '²'.
        digits = self.advance() if self.skip_blank() == "-" else ""
        if not self.peek().isdecimal():
            self.error(f"expected an integer, found {self.found()}")
        while self.peek().isdecimal():
            digits += self.advance()
        if self.peek() == ".":
            self.error("floating point numbers are not supported; use integers")
        return int(digits)

    def parse_list(self, item, brackets: str) -> list:
        """A comma-separated list of what `item()` reads, enclosed in the two
        characters of `brackets`, such as "[]"."""
        opening, closing = brackets
        self.expect(opening)
        out = []
        if self.skip_blank() != closing:
            out.append(item())
            while self.skip_blank() == ",":
                self.advance()
                out.append(item())
        self.expect(closing)
        return out


# -- GKZ-vectors -------------------------------------------------------


def gkz(config: PointConfiguration, t: Triangulation) -> GkzVector:
    """GKZ-vector: entry i sums the volumes of the simplices containing i."""
    out = [0] * config.n
    for s in t.simplices:
        v = config.normalized_volume(s)
        for i in s:
            out[i] += v
    return tuple(out)


def facet_incidence(simplices) -> dict:
    """Map each facet (a simplex minus one vertex) to the (simplex, apex)
    pairs of the simplices containing it, in iteration order."""
    incidence = {}
    for s in simplices:
        for k in range(len(s)):
            incidence.setdefault(s[:k] + s[k + 1 :], []).append((s, s[k]))
    return incidence


# -- validation --------------------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    kind: str = ""
    detail: str = ""

    def __bool__(self):
        return self.ok


def validate(config: PointConfiguration, t: Triangulation) -> ValidationResult:
    """Check the triangulation invariants, reporting the first violation.

    Checks, in order: simplex shape (vertex count, index range, positive
    volume), total volume against the hull volume, and facet pairing (every
    interior facet shared by exactly two simplices lying on opposite sides;
    every once-used facet inside a hull facet, as its d independent points
    span a supporting hyperplane exactly when they lie in one).  The sides
    are read off the circuit index, as in `placing_triangulation`: the
    apexes of s0 and s1 lie strictly on opposite sides of their common
    facet exactly when s0's apex is on the plus side of the circuit that
    s0's entry lists for s1's apex.
    """
    d = config.dim
    for s in t.simplices:
        if len(s) != d + 1:
            raise DimensionError(f"simplex {s} has {len(s)} vertices, expected {d + 1}")
        config._check_range(s)
        if len(set(s)) != len(s):
            raise InvalidInputError(f"repeated vertex in simplex {s}")
    for s in t.simplices:
        if config.normalized_volume(s) == 0:
            return ValidationResult(False, "degenerate-simplex", f"simplex {s} is flat")

    total = sum(config.normalized_volume(s) for s in t.simplices)
    hull, hull_facets = _hull(config)
    if total != hull:
        return ValidationResult(
            False,
            "total-volume",
            f"simplices cover volume {total}, hull has volume {hull}",
        )

    # The entries, built together: at most one of them is bridged to.
    config.circuit_entries(t.simplices)
    for facet, owners in facet_incidence(t.simplices).items():
        if len(owners) > 2:
            return ValidationResult(
                False,
                "facet-pairing",
                f"facet {facet} belongs to {len(owners)} simplices",
            )
        if len(owners) == 2:
            (s0, apex0), (s1, apex1) = owners
            if not config.entry_side(s0, apex1).plus_mask >> apex0 & 1:
                return ValidationResult(
                    False,
                    "facet-pairing",
                    f"simplices {s0} and {s1} overlap across facet {facet}",
                )
        elif not any(h.issuperset(facet) for h in hull_facets):
            return ValidationResult(
                False,
                "facet-pairing",
                f"interior facet {facet} belongs to only one simplex",
            )
    return ValidationResult(True)


# -- placing and pulling constructions ---------------------------------


def _hull(config: PointConfiguration) -> tuple:
    """(normalized volume, facets) of the convex hull, both from one placing
    triangulation and kept on the configuration.  Each facet is the
    frozenset of the points on its hyperplane: the hyperplanes of the
    placing triangulation's boundary facets, one per hull facet.  A point
    p outside the simplex s that owns the boundary facet s − v lies on its
    hyperplane exactly when the circuit of s ∪ {p}, read off s's circuit
    index entry, misses v (see `placing_triangulation`)."""
    if config._hull is None:
        t = placing_triangulation(config)
        hyperplanes = []
        for facet, owners in facet_incidence(t.simplices).items():
            if len(owners) == 1 and not any(h.issuperset(facet) for h in hyperplanes):
                (s, v), = owners
                hyperplanes.append(frozenset(facet).union(
                    p for p in range(config.n) if p not in s
                    and not config.entry_side(s, p).circuit.support_mask >> v & 1))
        volume = sum(config.normalized_volume(s) for s in t.simplices)
        config._hull = (volume, tuple(hyperplanes))
    return config._hull


def placing_triangulation(config: PointConfiguration) -> Triangulation:
    """Triangulation obtained by placing the points in input order.

    The first d+1 affinely independent points (`config.basis`) span the
    seed simplex; every later point that falls outside the current hull is
    joined to the facets it sees (strictly positive side only — points on a
    facet hyperplane do not see it).  Points inside the current hull are
    skipped, so the result need not use every point.  Placing
    triangulations are regular.

    Sides are read off the circuit index (`PointConfiguration.entry_side`):
    for the dependence λ of s ∪ {p} and an affine h zero on the facet
    s − v, λ_p·h(p) = −λ_v·h(v), so p sees the facet exactly when v is on
    p's side of the circuit listed for p, and lies on its hyperplane
    exactly when λ_v = 0.  Each placed simplex is one exchange step from
    the one it cones from, so the construction takes one adjugate at most.
    """
    simplices = {config.basis}
    placed = set(config.basis)
    for p in range(config.n):
        if p in placed:
            continue
        placed.add(p)
        visible = []
        for facet, owners in facet_incidence(simplices).items():
            if len(owners) != 1:
                continue
            (s, v), = owners
            if config.entry_side(s, p).plus_mask >> v & 1:
                visible.append(facet)
        for facet in visible:
            simplices.add(tuple(sorted(facet + (p,))))
    return Triangulation(simplices)


def pulling_triangulation(config: PointConfiguration) -> Triangulation:
    """Triangulation obtained by pulling the points in input order.

    Each face of the hull, from the hull itself down, is coned from its
    first point over the pulled facets of the face that miss that point.
    The facets of the hull are those of `_hull`, and the facets of a face
    are its inclusion-maximal proper intersections with them.  Pulling
    triangulations are regular, and this one has the lex-largest
    GKZ-vector (De Loera, Rambau and Santos, Triangulations, 2010).
    """
    hyperplanes = _hull(config)[1]
    memo = {}

    def pull(face):
        if face not in memo:
            cuts = {face & h for h in hyperplanes} - {face, frozenset()}
            apex = min(face)
            memo[face] = [(apex,) + s for g in cuts
                          if apex not in g and not any(g < c for c in cuts)
                          for s in pull(g)] or [(apex,)]
        return memo[face]

    return Triangulation(pull(frozenset(range(config.n))))
