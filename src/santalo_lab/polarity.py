"""Polar bodies about interior points, volume products, half-volumes.

The polar of K about an interior point z is
    K^{*z} = {y : <y, x - z> <= 1 for every x in K},
so for a polytope the polar's H-form has one halfspace per vertex of K, and
its vertices correspond to facets of K.  Vertices are obtained by running the
hull machinery in the dual (the origin is always interior to the polar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import geometry as geo
from .errors import CenterNotInterior, DegenerateInput, LineMissesBody
from .geometry import HPolytope, VPolytope

# Below this absolute half-volume, a ratio is reported as a tagged divergence.
TAU_VOL = 1e-12


@dataclass
class PolarBody:
    """Polar polytope of `base` about `center`, in the polar's own frame.

    The polarity center is the origin of the polar's coordinates.
    """

    base: VPolytope
    center: np.ndarray
    polar: VPolytope
    polar_volume: float


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


def polar(K: VPolytope, z) -> PolarBody:
    """Polar body K^{*z}; requires z strictly interior to K."""
    z = _check_interior(K, z)
    dual_pts = K.vertices - z
    try:
        hull = ConvexHull(dual_pts)
    except QhullError as exc:  # cannot happen for valid K, defensive
        raise DegenerateInput(f"polar hull failed: {exc}") from exc
    n = hull.equations[:, :-1]
    c = -hull.equations[:, -1]
    verts = n / c[:, None]
    verts = geo._dedupe_rows(verts, geo.TAU_GEOM * max(1.0, float(np.max(np.abs(verts)))))
    norms = np.linalg.norm(dual_pts, axis=1)
    hform = HPolytope(dual_pts / norms[:, None], 1.0 / norms)
    body = VPolytope(verts, halfspaces=hform)
    return PolarBody(base=K, center=z, polar=body, polar_volume=geo.volume(body))


def bipolar(pb: PolarBody) -> VPolytope:
    """Polar of the polar about the origin, translated back by the center."""
    inner = polar(pb.polar, np.zeros(pb.polar.dim))
    return geo.translate(inner.polar, pb.center)


def volume_product(K: VPolytope, tol_sant: float | None = None) -> float:
    """Affine invariant |K| * |K^{*S(K)}| with S(K) the Santalo point."""
    from .santalo import TOL_SANT, santalo_point  # late import, module cycle

    res = santalo_point(K, tol_sant=TOL_SANT if tol_sant is None else tol_sant)
    return geo.volume(K) * res.polar_volume


def _clip_volume(hform_normals, hform_offsets, clip_normal, interior) -> float:
    """Volume of {A x <= b} cut by <clip_normal, x> <= 0, by vertex enumeration."""
    normals = np.vstack([hform_normals, clip_normal])
    offsets = np.append(hform_offsets, 0.0)
    body = geo.vertex_enumeration(HPolytope(normals, offsets), interior=interior)
    return geo.volume(body)


def half_volumes(K: VPolytope, z, axis: int = -1) -> HalfVolumes:
    """B_+ and B_-: polar volume above/below {x_axis = 0} through the center.

    Computed by clipping the polar polytope exactly, never by quadrature.
    """
    pb = polar(K, z)
    d = K.dim
    axis = range(d)[axis]
    h = pb.polar.halfspaces
    heights = pb.polar.vertices[:, axis]
    top = pb.polar.vertices[int(np.argmax(heights))]
    bot = pb.polar.vertices[int(np.argmin(heights))]
    if heights.max() <= TAU_VOL or heights.min() >= -TAU_VOL:
        raise DegenerateInput("polar does not straddle the split hyperplane")
    e = np.zeros(d)
    e[axis] = 1.0
    # 0 is interior to the polar, so half of an extreme vertex is interior to
    # the corresponding clipped half (LP-free interior points).
    b_plus = _clip_volume(h.normals, h.offsets, -e, 0.5 * top)
    b_minus = _clip_volume(h.normals, h.offsets, e, 0.5 * bot)
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
