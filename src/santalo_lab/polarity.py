"""Polar bodies about interior points, volume products, half-volumes.

The polar of K about an interior point z is
    K^{*z} = {y : <y, x - z> <= 1 for every x in K},
so for a polytope its vertices are n_F / (b_F - <n_F, z>), one per facet
<n_F, x> <= b_F of K.  As z moves inside K these polars are projective
images of each other, so one boundary triangulation serves every center:
K's cached `_polar_fan`, pulled from its transposed facet-vertex incidence
(`geometry.pulled`) with no hull, with D_T = |det N_T| / d! per simplex T.
A polar is closed-form: the cone from the center over T has volume
D_T / prod_{F in T} slack_F(z).  A sweep cell's rows share one
pulled fan (`_fans`).  A polar carries its facets, one per vertex of K, in
closed form (`_polar_body`), so reading them runs no hull.
The half-volumes split by a coordinate hyperplane through the center are
closed-form too: sums over the same fan of cones from the center, each cut
by the staircase triangulation of `geometry._staircase`, in an order
cached on K per axis (`_split_plan`), all fetched once by a probe that
moves the center along the axis (`_half_volume_probe`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull  # unused here: perfbench spans polarity.ConvexHull by name

from . import geometry as geo
from .errors import CenterNotInterior, DegenerateInput
from .geometry import VPolytope

# Relative zero of polar heights and half-volumes: times the largest of the kind.
TAU_VOL = 1e-12
# Message of every CenterNotInterior, and a failed sweep row's note.
NOT_INTERIOR = "polarity center too close to the boundary"


@dataclass
class PolarBody:
    """Polar polytope of `base` about `center`, in the polar's own frame.

    The polarity center is the origin of the polar's coordinates.  Its
    volume, centroid and second moment about the origin, int y y^T dy /
    |K^{*z}|, are sums over the cached fan (`_cones`, `geo._fan_moments`).
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
    polar's own frame.
    """

    b_plus: float
    b_minus: float


def _slack(normals, offsets, z) -> np.ndarray:
    """Facet slacks b - <n, z>, one row per center over any leading axes."""
    return offsets - (normals @ z[..., None])[..., 0]


def _check_interior(K: VPolytope, z) -> tuple[np.ndarray, np.ndarray]:
    """z and K's facet slacks at z; raises unless z is strictly interior."""
    z = geo.as_vector(z)
    slack = _slack(K.normals, K.offsets, z)
    if np.min(slack) <= geo.TAU_GEOM * K.scale():
        raise CenterNotInterior(NOT_INTERIOR)
    return z, slack


def _fans(N: np.ndarray, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fan (R, f, d), D_T (R, f)) of a sweep cell's R rows, with unit normals
    N (R, m, d) and facet j the simplex tri[j] on each: one fan pulled from
    the simplices (`geometry.pulled`), and D_T off each row's own normals."""
    fan = geo.pulled((tri[..., None] == np.unique(tri)).any(axis=1).T, N.shape[2])
    return (np.broadcast_to(fan, (len(N), *fan.shape)),
            np.abs(np.linalg.det(N[:, fan])) / math.factorial(N.shape[2]))


def _cones(slack, fan, dets) -> np.ndarray:
    """(R, f) volumes D_T / prod slack_F (`_product`) of the cones from R
    stacked centers over their fans, from slacks (R, m), D_T (R, f) and fans
    (R, f, d) indexing `slack.ravel()`: facet F of row r is r * m + F, so a
    body's cached fan indexes its own row as it is (or its slacks (m,))."""
    return dets / _product(slack.ravel()[fan])


def _product(a: np.ndarray) -> np.ndarray:
    """a.prod(axis=-1) bit for bit, by columns: numpy reduces a short last axis per element."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = out * a[..., k]
    return out


def polar(K: VPolytope, z) -> PolarBody:
    """Polar body K^{*z}; requires z strictly interior to K."""
    z, slack = _check_interior(K, z)
    fan, dets = K._polar_fan
    y = K.normals / slack[:, None]
    volume, centroid, second = geo._fan_moments(
        y[None], _cones(slack[None], fan[None], dets[None]), geo._incidence(fan[None], len(y)))
    return PolarBody(K, z, _polar_body(K, z, y, fan), float(volume[0]), centroid[0], second[0])


def _polar_body(K: VPolytope, z, y, fan) -> VPolytope:
    """K^{*z} in its own frame from its vertices y and boundary fan, with its
    facets {y : <y, v - z> <= 1}, one per vertex v of K and none redundant."""
    return VPolytope(y, (K.vertices - z, np.ones(K.n_vertices)), fan)


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


def _split_plan(K: VPolytope, axis: int) -> tuple:
    """K's cached plan for `_share_above` to cut its polar fan at x_axis = 0.

    Rows 0..m-1 are the fan's simplices with their polar heights, rows
    m..2m-1 the same negated.  Polar vertex F's height n_F[axis] / slack_F
    has the sign of n_F[axis] at every interior center, so which corners
    are above (a zero height on neither side), their stable order, above
    first, and the row groups depend on K and the axis alone.  The plan is
    (1.0 on rows with all d corners above, else 0.0; [(p, rows, corners,
    signs)] for the rows with 0 < p < d corners above).
    """
    plan = K._split_plans.get(axis)
    if plan is None:
        fan = K._polar_fan[0]
        corners = np.concatenate([fan, fan])
        signs = np.repeat([1.0, -1.0], len(fan))[:, None]
        above = signs * K.normals[corners, axis] > 0
        n_above = above.sum(axis=1)
        corners = np.take_along_axis(corners, np.argsort(~above, axis=1, kind="stable"), axis=1)
        groups = [(p, rows, corners[rows], signs[rows]) for p in range(1, K.dim)
                  if len(rows := np.flatnonzero(n_above == p))]
        plan = K._split_plans[axis] = ((n_above == K.dim).astype(float), groups)
    return plan


def _share_above(heights: np.ndarray, plan: tuple) -> np.ndarray:
    """Share of each `_split_plan` row's simplex where its signed polar
    heights, one per facet, are positive.  Every term is a product of
    crossing weights in [0, 1], so nothing cancels."""
    whole, groups = plan
    share = whole.copy()
    for p, rows, corners, signs in groups:
        d = corners.shape[1]
        h = signs * heights[corners]
        hp, hq = h[:, :p, None], h[:, None, p:]
        gap = hp - hq
        factors = np.concatenate([(hp / gap).reshape(-1, p * (d - p)),
                                  (-hq / gap).reshape(-1, p * (d - p)),
                                  np.ones((len(rows), 1))], axis=1)
        share[rows] = _product(factors[:, _cut_terms(d, p)]).sum(axis=1)
    return share


def _half_volume_probe(K: VPolytope, z: np.ndarray, axis: int):
    """v -> (B_+, B_-) of K about z with its `axis` coordinate set to v in
    place; K's facets, cached fan, D_T and split plan are fetched once."""
    normals, offsets, n_axis = K.normals, K.offsets, K.normals[:, axis]
    tau, z = geo.TAU_GEOM * K.scale(), z.copy()
    fan, dets = K._polar_fan
    plan = _split_plan(K, axis)

    def probe(v: float) -> tuple[float, float]:
        z[axis] = v
        slack = _slack(normals, offsets, z)
        if slack.min() <= tau:
            raise CenterNotInterior(NOT_INTERIOR)
        heights = n_axis / slack
        if min(heights.max(), -heights.min()) <= TAU_VOL * np.abs(heights).max():
            raise DegenerateInput("polar does not straddle the split hyperplane")
        cones, share = _cones(slack, fan, dets), _share_above(heights, plan)
        return float(cones @ share[:len(fan)]), float(cones @ share[len(fan):])

    return probe


def half_volumes(K: VPolytope, z, axis: int = -1) -> HalfVolumes:
    """B_+ and B_-: polar volume above/below {x_axis = 0} through the center.

    The center is the polar's origin and lies on the cut, so each half is
    the union of the cones from it over the parts of the cached boundary
    fan's simplices T on that side: B_+ = sum_T |det Y_T| / d! * share_+(T),
    where |det Y_T| / d! = D_T / prod_{F in T} slack_F (`_cones`).
    Exact in closed form, with no hull and no quadrature; one probe.
    """
    z = geo.as_vector(z)
    axis = range(K.dim)[axis]
    return HalfVolumes(*_half_volume_probe(K, z, axis)(z[axis]))
