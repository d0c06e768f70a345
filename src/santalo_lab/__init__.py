"""Polar bodies, Santalo points, volume products, and shadow systems."""

from .errors import (
    BracketFailure,
    CenterNotInterior,
    DegenerateAt,
    DegenerateInput,
    DegenerateMap,
    EmptySection,
    GeometryError,
    GeometryInconsistent,
    InsufficientGrid,
    OutsideProjection,
    SingularMap,
    TooManyVertices,
)
from .geometry import (
    Hyperplane,
    VPolytope,
    apply_affine,
    centroid,
    convex_hull,
    interior_point,
    section,
    vertex_enumeration,
    volume,
)
from .mahler import (
    CaseLabel,
    DescentMove,
    classify,
    descent_move,
    pyramid_factorization_check,
    simplex_bound,
    verify_descent_monotonicity,
    few_vertex_campaign,
    polygon_minimality_campaign,
)
from .polarity import (
    HalfVolumes,
    PolarBody,
    half_volumes,
    polar,
    volume_product,
)
from .santalo import SantaloResult, balanced_points, santalo_point, santalo_points
from .shadow import (
    ConvexityVerdict,
    ShadowSystem,
    SweepRecord,
    affine_family,
    body_at,
    check_polar_convexity,
    check_volume_convexity,
    steiner_symmetral,
    steiner_system,
    sweep,
)
from .verify import (
    SliceProfile,
    half_volume_inequality_check,
    harmonic_conclusion_check,
    harmonic_hypothesis_check,
    midpoint_bound_check,
    polar_slice_profile,
    slice_profile,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
