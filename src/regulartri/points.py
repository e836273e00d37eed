"""Integer point configurations and their circuits.

A `PointConfiguration` fixes, once, an exact affine coordinatization of the
input points: the homogenized point matrix (a leading 1, then the ambient
coordinates) is restricted to a greedily chosen set of d+1 linearly
independent columns, where d is the affine dimension.  All volumes, circuit
dependences, and orientation tests downstream are determinants of integer
submatrices of that projected matrix, so they are exact, and they agree with
the lattice-normalized volume (|det|, i.e. d! times Euclidean volume) whenever
the configuration is full-dimensional in its own ambient space.  For
lower-dimensional configurations all quantities are scaled by one global
positive constant, which no sign test or comparison in the library can see.

A simplex's normalized volume is the absolute determinant of its
homogenized rows (a signed maximal minor: the chirotope, up to that
constant).  Circuits come from adjugates by Cramer's rule: for d+1 points B
with rows M and a further point p, hom(p)·adj(M) on B and -det(M) on p is
a dependence of B ∪ {p}, zero exactly when those d+2 points do not span.
The circuit index takes every set S ∪ {p} of a simplex S from one adjugate
of S's rows, and `circuit_or_none` takes its one set the same way; they
fill the one table of circuits: each such set and each circuit support map
to the support's pair of `CircuitSide`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

from . import exact
from .errors import (
    DegenerateConfigError,
    DimensionError,
    InvalidInputError,
    RegulartriError,
)


def as_integer(value, what):
    """`value` as an int, never rounded: InvalidInputError unless `value`
    equals an integer (1.0 is taken, 1.9, Fraction(3, 2) and "1" are not)."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise InvalidInputError(f"{what} {value!r} is not an integer")
    return number


def as_count(value, what):
    """`value` as a nonnegative int: as_integer's InvalidInputError, or
    "`what` must be nonnegative, got `value`" when it is negative."""
    number = as_integer(value, what)
    if number < 0:
        raise InvalidInputError(f"{what} must be nonnegative, got {value}")
    return number


@dataclass(frozen=True)
class CorankOneConfig:
    """A (d+2)-point subconfiguration with a unique affine dependence.

    `support` holds the point indices in ascending order and `dependence`
    the matching primitive integer coefficients lambda with sum(lambda) = 0
    and first nonzero entry positive.  `plus`, `zero`, `minus` split the
    support by the sign of lambda (the Radon partition).
    """

    support: tuple
    dependence: tuple
    plus: tuple
    zero: tuple
    minus: tuple

    def coefficient(self, point: int):
        return self.dependence[self.support.index(point)]

    @cached_property
    def support_mask(self) -> int:
        """`vertex_mask` of the support."""
        return vertex_mask(self.support)

    def negated(self) -> "CorankOneConfig":
        return CorankOneConfig(
            support=self.support,
            dependence=tuple(-x for x in self.dependence),
            plus=self.minus,
            zero=self.zero,
            minus=self.plus,
        )

    def reduced(self) -> "CorankOneConfig":
        """The circuit proper: support restricted to nonzero coefficients.

        A (d+2)-point subconfiguration may carry zero coefficients (points
        affinely independent from the true circuit); the reduced form is the
        minimal dependent set, canonically signed since dropping zeros keeps
        the first nonzero entry first.
        """
        if not self.zero:
            return self
        pairs = [(p, c) for p, c in zip(self.support, self.dependence) if c != 0]
        support = tuple(p for p, _ in pairs)
        dependence = tuple(c for _, c in pairs)
        return CorankOneConfig(support, dependence, self.plus, (), self.minus)


def _circuit(support, dependence) -> CorankOneConfig:
    """The CorankOneConfig of a dependence on the points of `support`."""
    pairs = list(zip(support, dependence))
    return CorankOneConfig(
        support,
        dependence,
        tuple(v for v, c in pairs if c > 0),
        tuple(v for v, c in pairs if c == 0),
        tuple(v for v, c in pairs if c < 0),
    )


class CircuitSide:
    """One orientation of a reduced circuit, with the faces of its plus side.

    `circuit.plus` is the side whose joins a flip on this orientation
    removes, and `plus_mask` its vertex mask, with bit v set for each vertex
    v; `faces` holds, for each j in that side, the vertex mask of the face
    Z∖{j}.  `opposite` is the other orientation of the same circuit.  Sides
    compare by identity: the circuit index creates each one once per
    configuration.
    """

    __slots__ = ("circuit", "plus_mask", "faces", "opposite")

    def __init__(self, circuit: CorankOneConfig):
        self.circuit = circuit
        self.plus_mask = vertex_mask(circuit.plus)
        self.faces = tuple(circuit.support_mask ^ (1 << q) for q in circuit.plus)


def vertex_mask(vertices) -> int:
    """The int with bit v set for each vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_bits(mask) -> tuple:
    """The set bits of a mask, ascending: the inverse of `vertex_mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class PointConfiguration:
    """A labelled configuration of distinct integer points.

    Points keep their input order; every triangulation, flip and GKZ-vector
    refers to them by index.  `basis` holds, ascending, the d + 1 points of
    the affine basis `exact.greedy_basis` picks from the homogenized rows,
    and `cobasis` the n - d - 1 others: an affine dependence zero on the
    co-basis is zero.

    Exact results are memoised per configuration, each filled on first use
    (construction computes none of them):

    - signed minors: the determinant of the homogenized rows of a sorted
      (d+1)-tuple.  A normalized volume is |minor|.  Each adjugate taken
      for a circuit leaves its determinant here too, `circuit_or_none`
      tests its bases here and `facet_sign` reads its orientations here, so
      volumes, circuits, hulls and placings share each determinant;
    - the circuit index (`circuit_entry`): for a simplex S, its vertex mask
      and the reduced circuit of each set S ∪ {p}, oriented with p on its
      plus side (`flips.find_flips` computes its exchange simplices from
      the two masks).  The dependences come from one `exact.adjugate` of
      S's rows, which leaves det(S) among the minors;
    - the circuit table, filled by the circuit index and `circuit_or_none`:
      each (d+2)-set met maps to the `CircuitSide` pair of its reduced
      circuit (the first side with its first coefficient positive), or to
      False when its points do not span, and each support maps to its one
      pair;
    - `flip_memo`: the `flips.Flip` built for a (circuit side, link) pair,
      filled by `flips.find_flips`; the link is the sorted tuple of its
      simplices' vertex masks (see `vertex_mask`).  A flip's circuit,
      removed side and link determine its removed and inserted simplices
      and its displacement, so the memo holds one entry per distinct flip
      met: its size is the number of distinct flips of the triangulations
      visited, not the number of times they were found.  A flip that
      `find_flips` derives a list over keeps that step's data on itself
      (`flips.Flip.step_memo`);
    - `exchange_memo`: for each simplex such a step inserts, the pairs
      (side, exchange simplex masks) of its circuit index sides, shared by
      every step that inserts it;
    - `simplex_table`: each maximal simplex that flips and search nodes
      hold, as a sorted tuple mapped to itself (see `simplex`).  So one
      tuple stands for a simplex wherever it is kept, and the table grows
      with the number of distinct simplices met, not with the number of
      flips and triangulations that hold them.  `mask_table` maps the
      vertex mask of each simplex a flip holds or an exchange test reads to
      one int for the mask and its table tuple (see `mask_simplex`).

    The search handles GKZ-vectors as codes, one int each (`pack` and
    `unpack`): the entries in fields of `code_width` bits, the first entry
    most significant.  The width is 8·⌈bit_length(V)/8⌉ for the total
    volume V, and every GKZ entry lies in [0, V], so codes order as their
    vectors do lexicographically, and the code across a flip is the
    source's plus the flip's `shift`, its displacement's signed positional
    sum (`code_shift`).  The width is fixed on first use, from the placing
    triangulation's volume.
    """

    def __init__(self, points):
        pts = tuple(tuple(as_integer(x, "coordinate") for x in p) for p in points)
        if len(pts) < 2:
            raise InvalidInputError("need at least two points")
        width = len(pts[0])
        if width == 0:
            raise InvalidInputError("points need at least one coordinate")
        if any(len(p) != width for p in pts):
            raise InvalidInputError("points have mixed ambient dimensions")
        seen = {}
        for i, p in enumerate(pts):
            if p in seen:
                raise InvalidInputError(f"duplicate point at indices {seen[p]} and {i}")
            seen[p] = i
        self.points = pts
        self.n = len(pts)
        self.ambient_dim = width

        full = [(1,) + p for p in pts]
        cols = exact.greedy_basis(list(zip(*full)))
        self.dim = len(cols) - 1
        #: homogenized points in basis coordinates, one integer row per point
        self.hom = tuple(tuple(row[c] for c in cols) for row in full)
        self.basis = tuple(exact.greedy_basis(self.hom))
        self.cobasis = tuple(i for i in range(self.n) if i not in self.basis)

        #: sorted (d+1)-tuple -> signed determinant of its homogenized rows
        self._minors = {}
        #: (d+2)-set or support -> its pair of sides, or False; see above
        self._circuits = {}
        self._circuit_index = {}
        #: (CircuitSide, sorted link masks) -> Flip; see the class docstring
        self.flip_memo = {}
        #: simplex -> its (side, exchange masks) pairs; see the class docstring
        self.exchange_memo = {}
        #: sorted simplex tuple -> the one tuple kept for it; see `simplex`
        self.simplex_table = {}
        #: vertex mask -> (that mask, its `simplex` tuple); see `mask_simplex`
        self.mask_table = {}
        #: (normalized volume, facets) of the hull; see `triangulation._hull`
        self._hull = None

    # -- basic queries ------------------------------------------------

    def normalized_volume(self, simplex) -> int:
        """Normalized volume of the simplex spanned by d+1 point indices.

        Zero exactly when the points are affinely dependent.
        """
        key = tuple(sorted(simplex))
        if len(key) != self.dim + 1:
            raise DimensionError(
                f"simplex needs {self.dim + 1} vertices, got {len(key)}"
            )
        if len(set(key)) != len(key):
            raise InvalidInputError(f"repeated vertex in simplex {key}")
        self._check_range(key)
        return abs(self._minor(key))

    def simplex(self, key) -> tuple:
        """The tuple kept for a simplex, `key` itself on first sight.

        `key` must be a sorted tuple of point indices.  Flips and search
        nodes take their simplices from here, so equal simplices are one
        object (see the class docstring)."""
        return self.simplex_table.setdefault(key, key)

    def mask_simplex(self, mask) -> tuple:
        """(mask, simplex) for the simplex with this vertex mask: the mask
        as the one int kept for it and the `simplex` tuple, decoded once."""
        pair = self.mask_table.get(mask)
        if pair is None:
            pair = self.mask_table[mask] = (mask, self.simplex(mask_bits(mask)))
        return pair

    def _minor(self, key) -> int:
        """Signed determinant of the homogenized rows of a sorted (d+1)-tuple."""
        det = self._minors.get(key)
        if det is None:
            det = exact.determinant([self.hom[i] for i in key])
            self._minors[key] = det
        return det

    def corank_one(self, subset) -> CorankOneConfig:
        """The unique-circuit structure of d+2 points spanning the hull.

        Raises DegenerateConfigError when the subset is not full-dimensional
        (equivalently, when its dependence space is not one-dimensional).
        """
        key = tuple(sorted(subset))
        if len(key) != self.dim + 2:
            raise DimensionError(
                f"corank-one subset needs {self.dim + 2} points, got {len(key)}"
            )
        if len(set(key)) != len(key):
            raise InvalidInputError(f"repeated index in subset {key}")
        self._check_range(key)
        circuit = self.circuit_or_none(key)
        if circuit is None:
            raise DegenerateConfigError(
                f"points {key} do not span the affine hull"
            )
        return circuit

    def circuit_or_none(self, key):
        """corank_one for presorted tuples, returning None when degenerate.

        `key` must be sorted.  Its pair of sides comes by Cramer's rule from
        the adjugate of a base that spans: key without one point, the last
        one first, each tested by its memoised minor.  No circuit index
        entry is filled.  A key that no base spans is degenerate.
        """
        pair = self._circuits.get(key)
        if pair is None:
            for i in reversed(range(len(key))):
                base = key[:i] + key[i + 1:]
                if self._minor(base):
                    det, adj = exact.adjugate([self.hom[v] for v in base])
                    pair = self._circuits[key] = self._cramer(
                        key, key[i], det, tuple(zip(*adj)))
                    break
        if not pair:
            return None
        lam = dict(zip(pair[0].circuit.support, pair[0].circuit.dependence))
        return _circuit(key, tuple(lam.get(v, 0) for v in key))

    def circuit_entry(self, simplex) -> tuple:
        """The simplex's circuit index entry: its vertex mask and its sides.

        The sides are the circuit sides that a flip removing the simplex can
        remove: for each p ∉ simplex, in increasing order, the reduced
        circuit Z of simplex ∪ {p}, as the `CircuitSide` with p on its plus
        side.  A flip that removes the simplex removes it as a join
        (Z∖{q}) ∪ τ with q on the removed side of its circuit Z; then
        q ∉ simplex, Z is the circuit of simplex ∪ {q}, and the flip removes
        the side listed for p = q.  So a flip removes the simplex only if it
        removes one of these sides.  `simplex` must be a sorted tuple of
        point indices.  Degenerate sets contribute nothing.  The two sides
        of a support are created once and shared by every simplex that
        reaches them; the entry is memoised per simplex.
        """
        entry = self._circuit_index.get(simplex)
        if entry is None:
            sides = []
            cols = None
            for p in range(self.n):
                if p in simplex:
                    continue
                key = tuple(sorted(simplex + (p,)))
                pair = self._circuits.get(key)
                if pair is None:
                    if cols is None:
                        det, adj = exact.adjugate([self.hom[i] for i in simplex])
                        self._minors[simplex] = det
                        cols = tuple(zip(*adj))
                    pair = self._circuits[key] = self._cramer(key, p, det, cols)
                if pair is not False:
                    sides.append(pair[0] if p in pair[0].circuit.plus else pair[1])
            entry = self._circuit_index[simplex] = (vertex_mask(simplex), tuple(sides))
        return entry

    def _cramer(self, key, p, det, cols):
        """The pair of sides of the sorted tuple `key`, or False when its
        points do not span, by Cramer's rule from the adjugate columns `cols`
        and determinant `det` of the rows of key without p: hom(p)·adj on
        those points and -det on p.  A new support gets its pair here."""
        lam = [sum(map(mul, self.hom[p], col)) for col in cols]
        lam.insert(key.index(p), -det)
        if not any(lam):
            return False
        lam = exact._primitive(lam)
        for coords in zip(*(self.hom[v] for v in key)):
            if sum(map(mul, lam, coords)):
                raise RegulartriError(
                    f"Cramer's rule gives no affine dependence of {key}"
                )
        support = tuple(v for v, c in zip(key, lam) if c)
        pair = self._circuits.get(support)
        if pair is None:
            circuit = _circuit(support, tuple(c for c in lam if c))
            pair = (CircuitSide(circuit), CircuitSide(circuit.negated()))
            pair[0].opposite, pair[1].opposite = pair[1], pair[0]
            self._circuits[support] = pair
        return pair

    def total_volume(self) -> int:
        """Normalized volume of the convex hull (computed once, by placing)."""
        from .triangulation import _hull

        return _hull(self)[0]

    # -- GKZ codes (see the class docstring) ----------------------------

    @cached_property
    def code_width(self) -> int:
        """Bits per field of a GKZ code: 8·⌈bit_length(V)/8⌉."""
        return -(-self.total_volume().bit_length() // 8) * 8

    # One-byte fields (V < 256, as on Δ2×Δ3 to Δ2×Δ6) go through `bytes`
    # whole: with the per-field path alone, the Δ2×Δ5 orbit search, which
    # unpacks and packs every candidate, runs about 11% slower.

    def pack(self, vec) -> int:
        """The code of a GKZ-vector.  RegulartriError unless it has n
        entries, each in [0, 2^code_width)."""
        size = self.code_width // 8
        if len(vec) != self.n:
            raise RegulartriError(f"GKZ-vector of length {len(vec)}, not {self.n}")
        try:
            data = bytes(vec) if size == 1 else b"".join([x.to_bytes(size, "big") for x in vec])
        except (ValueError, OverflowError):
            raise RegulartriError(
                f"GKZ-vector {tuple(vec)} has an entry outside its "
                f"{self.code_width}-bit field") from None
        return int.from_bytes(data, "big")

    def unpack(self, code) -> tuple:
        """The GKZ-vector of a code: the inverse of `pack`."""
        size = self.code_width // 8
        data = code.to_bytes(self.n * size, "big")
        if size == 1:
            return tuple(data)
        return tuple(int.from_bytes(data[i:i + size], "big")
                     for i in range(0, len(data), size))

    def code_shift(self, delta) -> int:
        """The signed positional sum of a displacement in the code layout:
        the code of `vec + delta` is `pack(vec) + code_shift(delta)`
        whenever both vectors pack."""
        width = self.code_width
        shift = 0
        for x in delta:
            shift = (shift << width) + x
        return shift

    # -- orientation helpers ------------------------------------------

    def facet_sign(self, facet, point: int) -> int:
        """Sign of the oriented hyperplane determinant [facet rows; point row].

        The facet is a tuple of d point indices in a fixed order; two points
        get the same sign exactly when they lie on the same side of the
        facet's affine hull.  The determinant is the memoised minor of the
        sorted indices, times the parity of the sort; a repeated point
        gives 0.
        """
        key = (*facet, point)
        if len(set(key)) < len(key):
            return 0
        det = self._minor(tuple(sorted(key)))
        if sum(a > b for a, b in combinations(key, 2)) % 2:
            det = -det
        return (det > 0) - (det < 0)

    def _check_range(self, indices):
        for i in indices:
            if not 0 <= i < self.n:
                raise InvalidInputError(f"point index {i} out of range 0..{self.n - 1}")

    def __repr__(self):
        return f"PointConfiguration(n={self.n}, dim={self.dim})"


def new_configuration(points) -> PointConfiguration:
    """Build a configuration from an iterable of integer coordinate tuples."""
    return PointConfiguration(points)
