"""Ready-made point configurations used throughout tests and demos."""

from __future__ import annotations

from itertools import product

from .errors import InvalidInputError
from .points import PointConfiguration
from .triangulation import Triangulation


def square() -> PointConfiguration:
    """Unit square, counterclockwise: (0,0),(1,0),(1,1),(0,1)."""
    return PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])


def triangle_with_interior() -> PointConfiguration:
    """A big triangle with one interior lattice point (listed last)."""
    return PointConfiguration([(0, 0), (3, 0), (0, 3), (1, 1)])


def convex_polygon(n: int) -> PointConfiguration:
    """The convex n-gon (i, i²), 0 <= i < n, on a parabola; n >= 3."""
    if n < 3:
        raise InvalidInputError(f"a convex polygon needs at least 3 vertices, got {n}")
    return PointConfiguration([(i, i * i) for i in range(n)])


def cube(d: int = 3) -> PointConfiguration:
    """Vertices of the d-cube in binary counting order."""
    pts = [tuple(reversed(bits)) for bits in product((0, 1), repeat=d)]
    return PointConfiguration(pts)


def cube_symmetry_generators(d: int = 3):
    """Label permutations generating the full cube symmetry group (2^d d!)."""
    n = 1 << d
    gens = [tuple(i ^ 1 for i in range(n))]  # reflect axis 0
    for a in range(d - 1):
        # swap axes a and a+1
        perm = []
        for i in range(n):
            ba = (i >> a) & 1
            bb = (i >> (a + 1)) & 1
            j = i & ~(1 << a) & ~(1 << (a + 1))
            j |= bb << a
            j |= ba << (a + 1)
            perm.append(j)
        gens.append(tuple(perm))
    return gens


def simplex_product(m: int, n: int) -> PointConfiguration:
    """Vertices of the product of an m-simplex and an n-simplex.

    Point (i, j) gets label i*(n+1)+j and coordinates e_i ++ e_j in
    R^{(m+1)+(n+1)}; the affine dimension is m+n.
    """
    pts = []
    for i in range(m + 1):
        for j in range(n + 1):
            p = [0] * (m + 1 + n + 1)
            p[i] = 1
            p[m + 1 + j] = 1
            pts.append(tuple(p))
    return PointConfiguration(pts)


def simplex_product_symmetry_generators(m: int, n: int):
    """Generators of the product of symmetric groups on the two factors."""
    def label(i, j):
        return i * (n + 1) + j

    gens = []
    for cycle in _symmetric_generators(m + 1):
        gens.append(
            tuple(label(cycle[i], j) for i in range(m + 1) for j in range(n + 1))
        )
    for cycle in _symmetric_generators(n + 1):
        gens.append(
            tuple(label(i, cycle[j]) for i in range(m + 1) for j in range(n + 1))
        )
    return gens


def _symmetric_generators(k):
    if k < 2:
        return []
    transposition = list(range(k))
    transposition[0], transposition[1] = 1, 0
    cycle = list(range(1, k)) + [0]
    return [tuple(transposition), tuple(cycle)] if k > 2 else [tuple(transposition)]


def nested_triangles() -> PointConfiguration:
    """A triangle with a smaller triangle inside — the classic source of a
    non-regular triangulation in the plane."""
    return PointConfiguration(
        [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]
    )


def nested_triangles_pinwheel() -> Triangulation:
    """The twisted triangulation of `nested_triangles` that no height
    function lifts convexly: each outer edge is joined to one inner vertex
    in a rotationally consistent way."""
    return Triangulation(
        [
            (0, 1, 4),
            (0, 3, 4),
            (1, 2, 5),
            (1, 4, 5),
            (0, 2, 3),
            (2, 3, 5),
            (3, 4, 5),
        ]
    )
