"""Polar bodies about interior points, volume products, half-volumes.

The polar of K about an interior point z is
    K^{*z} = {y : <y, x - z> <= 1 for every x in K},
so for a polytope its vertices are n_F / (b_F - <n_F, z>), one per facet
<n_F, x> <= b_F of K.  As z moves inside K these polars are projective
images of each other, so one boundary triangulation, found by a single Qhull
run per body and cached on it, serves every center: after that first call a
polar is closed-form.  Its H-form is built only when something reads it.
The half-volumes split by a coordinate hyperplane through the center are
closed-form too: sums over the same fan of cones from the center, each cut
by the staircase triangulation of `geometry._staircase`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import geometry as geo
from .errors import CenterNotInterior, DegenerateInput
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
    slack: np.ndarray  # base's facet slacks at the center


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


def _check_interior(K: VPolytope, z) -> tuple[np.ndarray, np.ndarray]:
    """z and K's facet slacks at z; raises unless z is strictly interior."""
    z = geo.as_vector(z)
    slack = K.halfspaces.slack(z)
    if np.min(slack) <= geo.TAU_GEOM * K.scale():
        raise CenterNotInterior("polarity center too close to the boundary")
    return z, slack


def _polar_fan(K: VPolytope) -> np.ndarray:
    """(m, d) facet indices of K triangulating the boundary of every polar.

    Polar vertex F is y_F = n_F / slack_F(z).  The projective map
    y -> y / (1 + <y, z0 - z>) takes K^{*z0} onto K^{*z} and carries a boundary
    triangulation along, so one Qhull of the y_F at the vertex mean z0 serves
    every center; it is cached on K.
    """
    if K._polar_fan is None and K.dim == 1:  # each facet is its own simplex
        K._polar_fan = np.array([[0], [1]])
    if K._polar_fan is None:
        h = K.halfspaces
        z0 = K.vertices.mean(axis=0)
        try:
            hull = ConvexHull(h.normals / h.slack(z0)[:, None])
        except QhullError as exc:  # cannot happen for valid K, defensive
            raise DegenerateInput(f"polar hull failed: {exc}") from exc
        K._polar_fan = geo.hull_simplices(hull)
    return K._polar_fan


def polar(K: VPolytope, z) -> PolarBody:
    """Polar body K^{*z}; requires z strictly interior to K."""
    z, slack = _check_interior(K, z)
    body = VPolytope(K.halfspaces.normals / slack[:, None], simplices=_polar_fan(K))
    return PolarBody(K, z, body, *geo.moments(body), slack)


def bipolar(pb: PolarBody) -> VPolytope:
    """Polar of the polar about the origin, translated back by the center."""
    inner = polar(pb.polar, np.zeros(pb.polar.dim))
    return geo.translate(inner.polar, pb.center)


def volume_product(K: VPolytope, tol_sant: float | None = None) -> float:
    """Affine invariant |K| * |K^{*S(K)}| with S(K) the Santalo point."""
    from .santalo import TOL_SANT, santalo_point  # late import, module cycle

    res = santalo_point(K, tol_sant=TOL_SANT if tol_sant is None else tol_sant)
    return geo.volume(K) * res.polar_volume


@functools.cache
def _cut_terms(d: int, p: int) -> np.ndarray:
    """Factor-index table for `_share_above`, one row per simplex.

    A (d-1)-simplex has p vertices v_0..v_{p-1} above a cut and q = d - p at
    or below it; edge v_i v_j crosses the cut at x_ij = s_ij v_i + w_ij v_j.
    The part above is the cone from v_0 over the part above of the facet
    opposite v_0 (recursively) and over the cut face conv{x_ij}, which gets
    the staircase triangulation `geometry._staircase`.  Each simplex's share
    of the whole is a product of one weight per path cell: w at the first
    cell and after a step along j, s after a step along i.  A row indexes
    them in the layout (w_ij, s_ij, 1), row-major.
    """
    q = d - p
    blocks = []
    for k in range(p):
        paths = geo._staircase(p - k, q) + k * q  # rows k..p-1 of the grid
        # A step along i moves q cells; along j, one (q == 1 has no j steps).
        paths[:, 1:] += p * q * (np.diff(paths, axis=1) == q)
        blocks.append(np.column_stack([paths, np.full((len(paths), k), 2 * p * q)]))
    return np.vstack(blocks)


def _share_above(heights: np.ndarray) -> np.ndarray:
    """Share of each (d-1)-simplex where the affine height is positive.

    `heights` is (m, d): row r holds simplex r's vertex heights.  Every term
    is a product of crossing weights in [0, 1], so nothing cancels.
    """
    d = heights.shape[1]
    above = heights > 0
    n_above = above.sum(axis=1)
    share = (n_above == d).astype(float)
    h = np.take_along_axis(heights, np.argsort(~above, axis=1, kind="stable"), axis=1)
    for p in range(1, d):
        rows = n_above == p
        if rows.any():
            hp, hq = h[rows, :p, None], h[rows, None, p:]
            gap = hp - hq
            factors = np.column_stack([(hp / gap).reshape(-1, p * (d - p)),
                                       (-hq / gap).reshape(-1, p * (d - p)),
                                       np.ones(int(rows.sum()))])
            share[rows] = factors[:, _cut_terms(d, p)].prod(axis=2).sum(axis=1)
    return share


def half_volumes(K: VPolytope, z, axis: int = -1) -> HalfVolumes:
    """B_+ and B_-: polar volume above/below {x_axis = 0} through the center.

    The center is the polar's origin and lies on the cut, so each half is
    the union of the cones from it over the parts of the cached boundary
    fan's simplices T on that side: B_+ = sum_T |det Y_T| / d! * share_+(T).
    Exact in closed form, with no hull and no quadrature.
    """
    _, slack = _check_interior(K, z)
    y = K.halfspaces.normals / slack[:, None]
    heights = y[:, range(K.dim)[axis]]
    if heights.max() <= TAU_VOL or heights.min() >= -TAU_VOL:
        raise DegenerateInput("polar does not straddle the split hyperplane")
    fan = _polar_fan(K)
    cones = np.abs(np.linalg.det(y[fan])) / math.factorial(K.dim)
    tops = heights[fan]
    return HalfVolumes(b_plus=float(cones @ _share_above(tops)),
                       b_minus=float(cones @ _share_above(-tops)))
