"""Polar bodies about interior points, volume products, half-volumes.

The polar of K about an interior point z is
    K^{*z} = {y : <y, x - z> <= 1 for every x in K},
so for a polytope its vertices are n_F / (b_F - <n_F, z>), one per facet
<n_F, x> <= b_F of K.  As z moves inside K these polars are projective
images of each other, so one boundary triangulation, found by a single Qhull
run per body and cached on it, serves every center: after that first call a
polar is closed-form.  Its H-form is built only when something reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import geometry as geo
from .errors import CenterNotInterior, DegenerateInput, LineMissesBody
from .geometry import VPolytope

# Below this absolute half-volume, a ratio is reported as a tagged divergence.
TAU_VOL = 1e-12


@dataclass
class PolarBody:
    """Polar polytope of `base` about `center`, in the polar's own frame.

    The polarity center is the origin of the polar's coordinates.  The
    polar's moments come from one `geometry.moments` pass: its centroid, and
    its second moment about the origin, int y y^T dy / |K^{*z}|.
    """

    base: VPolytope
    center: np.ndarray
    polar: VPolytope
    polar_volume: float
    polar_centroid: np.ndarray
    polar_second_moment: np.ndarray


@dataclass
class HalfVolumes:
    """Polar volume split by the coordinate hyperplane through the center.

    "Above" (b_plus) means positive coordinate along the split axis in the
    polar's own frame.  `ratio` is b_plus/b_minus; when b_minus falls below
    TAU_VOL the ratio is a tagged divergence (`diverged` set, value +inf).
    """

    b_plus: float
    b_minus: float
    ratio: float = field(init=False)
    diverged: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.b_minus < TAU_VOL:
            self.ratio = math.inf
            self.diverged = True
        else:
            self.ratio = self.b_plus / self.b_minus


def _check_interior(K: VPolytope, z) -> np.ndarray:
    z = geo.as_vector(z)
    slack = K.halfspaces.slack(z)
    if np.min(slack) <= geo.TAU_GEOM * K.scale():
        raise CenterNotInterior("polarity center too close to the boundary")
    return z


def _polar_fan(K: VPolytope) -> np.ndarray:
    """(m, d) facet indices of K triangulating the boundary of every polar.

    Polar vertex F is y_F = n_F / slack_F(z).  The projective map
    y -> y / (1 + <y, z0 - z>) takes K^{*z0} onto K^{*z} and carries a boundary
    triangulation along, so one Qhull of the y_F at the vertex mean z0 serves
    every center; it is cached on K.
    """
    if K._polar_fan is None:
        h = K.halfspaces
        z0 = K.vertices.mean(axis=0)
        try:
            hull = ConvexHull(h.normals / h.slack(z0)[:, None])
        except QhullError as exc:  # cannot happen for valid K, defensive
            raise DegenerateInput(f"polar hull failed: {exc}") from exc
        K._polar_fan = hull.simplices
    return K._polar_fan


def polar(K: VPolytope, z) -> PolarBody:
    """Polar body K^{*z}; requires z strictly interior to K."""
    z = _check_interior(K, z)
    h = K.halfspaces
    body = VPolytope(h.normals / h.slack(z)[:, None], simplices=_polar_fan(K))
    return PolarBody(K, z, body, *geo.moments(body))


def bipolar(pb: PolarBody) -> VPolytope:
    """Polar of the polar about the origin, translated back by the center."""
    inner = polar(pb.polar, np.zeros(pb.polar.dim))
    return geo.translate(inner.polar, pb.center)


def volume_product(K: VPolytope, tol_sant: float | None = None) -> float:
    """Affine invariant |K| * |K^{*S(K)}| with S(K) the Santalo point."""
    from .santalo import TOL_SANT, santalo_point  # late import, module cycle

    res = santalo_point(K, tol_sant=TOL_SANT if tol_sant is None else tol_sant)
    return geo.volume(K) * res.polar_volume


def half_volumes(K: VPolytope, z, axis: int = -1) -> HalfVolumes:
    """B_+ and B_-: polar volume above/below {x_axis = 0} through the center.

    Each half is the hull of that side's polar vertices and the polar's cut
    at height 0 (`geometry.level_cut`), so it is exact, never quadrature.
    """
    pb = polar(K, z)
    axis = range(K.dim)[axis]
    verts = pb.polar.vertices
    heights = verts[:, axis]
    if heights.max() <= TAU_VOL or heights.min() >= -TAU_VOL:
        raise DegenerateInput("polar does not straddle the split hyperplane")
    cut = geo.level_cut(pb.polar, axis, 0.0)
    b_plus = geo.volume(geo.convex_hull(np.vstack([verts[heights > 0], cut]))[0])
    b_minus = geo.volume(geo.convex_hull(np.vstack([verts[heights < 0], cut]))[0])
    return HalfVolumes(b_plus=b_plus, b_minus=b_minus)


@dataclass
class RatioValue:
    """One sample of the half-volume ratio curve; may be a tagged divergence."""

    value: float
    diverged: bool = False


class HalfVolumeRatioCurve:
    """v -> B_+((C,v)) / B_-((C,v)) along an axis-parallel line through K.

    Defined on the open chord (bottom, top); the ratio tends to 0 at the
    bottom endpoint and to +infinity at the top.  Querying at or beyond an
    endpoint yields a tagged divergence, not a number.
    """

    def __init__(self, K: VPolytope, C, axis: int = -1):
        d = K.dim
        self.axis = range(d)[axis]
        self.K = K
        self.C = geo.as_vector(C)
        try:
            self.bottom, self.top = geo.chord(K, self.C, axis=self.axis)
        except geo.OutsideProjection as exc:
            raise LineMissesBody(str(exc)) from exc
        if self.top - self.bottom <= geo.TAU_GEOM * K.scale():
            raise LineMissesBody("line meets the body in a degenerate chord")

    def at(self, v: float) -> RatioValue:
        eps = geo.TAU_GEOM * max(1.0, abs(self.bottom), abs(self.top))
        if v <= self.bottom + eps:
            return RatioValue(0.0, diverged=True)
        if v >= self.top - eps:
            return RatioValue(math.inf, diverged=True)
        hv = half_volumes(self.K, geo.embed_point(self.C, v, self.axis),
                          axis=self.axis)
        return RatioValue(hv.ratio, diverged=hv.diverged)

    def __call__(self, v: float) -> float:
        return self.at(v).value


def half_volume_ratio_curve(K: VPolytope, C, axis: int = -1) -> HalfVolumeRatioCurve:
    return HalfVolumeRatioCurve(K, C, axis=axis)
