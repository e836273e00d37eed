"""Exact enumeration of regular triangulations of integer point sets.

The package walks the flip graph by reverse search: each triangulation's
predecessor is its lexicographically largest GKZ upflip neighbor, which
yields a spanning tree of the regular triangulations needing no visited set.
Whether a flip leads to a regular triangulation is decided through the
extremal-ray criterion on flip GKZ displacements: flips with a coordinate of
their own are peeled off, and the rest are decided on their Gale dual, with
one small exact LP in it per flip that signs and cross products leave open.
All arithmetic is exact: integer data in, exact rational answers out.  Every
LP answer carries a witness or certificate that is re-verified before being
returned.
"""

from .errors import (
    DegenerateConfigError,
    DimensionError,
    InvalidInputError,
    NoDependenceError,
    NotCorankOneError,
    RegulartriError,
    ResourceLimitError,
    StaleFlipError,
)
from .catalog import (
    convex_polygon,
    cube,
    cube_symmetry_generators,
    nested_triangles,
    nested_triangles_pinwheel,
    simplex_product,
    simplex_product_symmetry_generators,
    square,
    triangle_with_interior,
)
from .exact import adjugate, determinant, kernel_basis, kernel_vector, rank
from .flips import Flip, apply_flip, find_flips
from .lp import Feasibility, nonneg_combination, strict_homogeneous
from .points import CorankOneConfig, PointConfiguration, new_configuration
from .regularity import (
    RayStats,
    RegularityVerdict,
    ScreeningOutcome,
    TaggedVector,
    extremal_rays,
    is_regular,
    naive_extremal_rays,
    regular_flips,
    regularity_rows,
    screen_rays,
)
from .search import (
    SearchMode,
    SearchStats,
    baseline_dfs,
    enumerate_triangulations,
    find_root,
    predecessor,
    reverse_search,
)
from .symmetry import (
    canonical_form,
    expand_group,
    group_trie,
    inverse_permutations,
    is_symmetry,
    orbit_count,
    orbit_key,
    relabel,
)
from .triangulation import (
    Triangulation,
    ValidationResult,
    format_triangulation,
    gkz,
    parse_triangulation,
    placing_triangulation,
    pulling_triangulation,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CorankOneConfig",
    "DegenerateConfigError",
    "DimensionError",
    "Feasibility",
    "Flip",
    "InvalidInputError",
    "NoDependenceError",
    "NotCorankOneError",
    "PointConfiguration",
    "RayStats",
    "RegularityVerdict",
    "RegulartriError",
    "ResourceLimitError",
    "ScreeningOutcome",
    "SearchMode",
    "SearchStats",
    "StaleFlipError",
    "TaggedVector",
    "Triangulation",
    "ValidationResult",
    "adjugate",
    "apply_flip",
    "baseline_dfs",
    "canonical_form",
    "convex_polygon",
    "cube",
    "cube_symmetry_generators",
    "determinant",
    "enumerate_triangulations",
    "expand_group",
    "extremal_rays",
    "find_flips",
    "find_root",
    "format_triangulation",
    "gkz",
    "group_trie",
    "inverse_permutations",
    "is_regular",
    "is_symmetry",
    "kernel_basis",
    "kernel_vector",
    "naive_extremal_rays",
    "nested_triangles",
    "nested_triangles_pinwheel",
    "new_configuration",
    "nonneg_combination",
    "orbit_count",
    "orbit_key",
    "parse_triangulation",
    "placing_triangulation",
    "predecessor",
    "pulling_triangulation",
    "rank",
    "regular_flips",
    "regularity_rows",
    "relabel",
    "reverse_search",
    "screen_rays",
    "simplex_product",
    "simplex_product_symmetry_generators",
    "square",
    "strict_homogeneous",
    "triangle_with_interior",
    "validate",
]
