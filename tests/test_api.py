"""The package's public names: an export added or removed shows up here."""

import santalo_lab

PUBLIC = [
    "BracketFailure", "CaseLabel", "CenterNotInterior", "ConvexityVerdict",
    "DegenerateAt", "DegenerateInput", "DegenerateMap", "DescentMove",
    "EmptySection", "GeometryError", "GeometryInconsistent", "HalfVolumes",
    "Hyperplane", "InsufficientGrid", "OutsideProjection", "PolarBody",
    "SantaloResult", "ShadowSystem", "SingularMap", "SliceProfile",
    "SweepRecord", "TooManyVertices", "VPolytope",
    "affine_family", "apply_affine", "balanced_points", "body_at", "centroid",
    "check_polar_convexity", "check_volume_convexity", "classify",
    "convex_hull", "descent_move", "errors", "few_vertex_campaign", "geometry",
    "half_volume_inequality_check", "half_volumes", "harmonic_conclusion_check",
    "harmonic_hypothesis_check", "interior_point", "mahler",
    "midpoint_bound_check", "polar", "polar_slice_profile", "polarity",
    "polygon_minimality_campaign", "pyramid_factorization_check", "santalo",
    "santalo_point", "santalo_points", "section", "shadow", "simplex_bound",
    "slice_profile", "steiner_symmetral", "steiner_system", "sweep", "verify",
    "verify_descent_monotonicity", "vertex_enumeration", "volume",
    "volume_product",
]


def test_public_names_are_pinned():
    assert sorted(santalo_lab.__all__) == PUBLIC
