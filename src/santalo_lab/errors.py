"""Exception hierarchy for geometric preconditions and solver failures."""


class GeometryError(Exception):
    """Base class for all geometric failures raised by this package."""


class DegenerateInput(GeometryError):
    """Input point set / polytope is not full-dimensional (or otherwise flat)."""


class DegenerateAt(DegenerateInput):
    """A shadow-system body is lower-dimensional at a specific parameter."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"shadow-system body is degenerate at t={t}")


class EmptySection(GeometryError):
    """Requested hyperplane section lies outside the open coordinate range."""


class OutsideProjection(GeometryError):
    """Chord base point is not in the interior of the body's projection."""


class SingularMap(GeometryError):
    """Affine map has a (numerically) singular linear part."""


class CenterNotInterior(GeometryError):
    """Polarity center does not have positive slack on every facet."""


class BracketFailure(GeometryError):
    """Root bracketing failed: no sign change after endpoint refinement."""


class InsufficientGrid(GeometryError):
    """Convexity check needs at least three equally spaced grid points."""


class DegenerateMap(GeometryError):
    """Affine-family map degenerates (vs+1 <= 0) somewhere on the interval."""


class TooManyVertices(GeometryError):
    """Case classification only covers polytopes with at most d+3 vertices."""


class GeometryInconsistent(GeometryError):
    """A constructed parameter range is empty; upstream tolerance breach."""
