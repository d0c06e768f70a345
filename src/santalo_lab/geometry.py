"""Dimension-generic polytope substrate: hulls, volumes, sections, chords.

Polytopes are plain immutable value objects over numpy arrays.  A point or
direction ("Vector") is a 1-d float array of length d.  All operations are
pure functions; nothing mutates its arguments.  Double precision throughout;
the exact-rational 2D cross-check oracle lives in the test tree.

Cuts by a coordinate hyperplane share one primitive, the staircase table
`_staircase`, which `section` and `polarity.half_volumes` both read.

Supported dimensions: 1 <= d <= 6 (hull enumeration is delegated to Qhull,
which is reliable at desk scale in this range).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateInput,
    EmptySection,
    GeometryInconsistent,
    OutsideProjection,
    SingularMap,
)

# Coplanarity / facet-slack tolerance for the whole float pipeline.
TAU_GEOM = 1e-9

MAX_DIM = 6

# Vertex-index pairs spanning the edges of a (d-1)-simplex, by d.
_EDGES = {d: np.array(list(itertools.combinations(range(d), 2)))
          for d in range(2, MAX_DIM + 1)}


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("vector must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def _dedupe_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows that coincide with an earlier kept row within `tol` (max-norm)."""
    if len(rows) <= 1:
        return rows
    srt = rows[np.lexsort(rows.T[::-1])]
    # Sorted by the first column, so every row within `tol` of row i lies in
    # the block srt[start[i]:i] right before it.
    start = np.searchsorted(srt[:, 0], srt[:, 0] - tol)
    keep = np.ones(len(srt), dtype=bool)
    for i in np.flatnonzero(start < np.arange(len(srt))):
        block = slice(start[i], i)
        near = np.max(np.abs(srt[block] - srt[i]), axis=1) <= tol
        keep[i] = not np.any(near & keep[block])
    return srt[keep]


def embed_point(C, v: float, axis: int) -> np.ndarray:
    """C, a point or an array of points, with coordinate `v` inserted at `axis`."""
    return np.insert(np.asarray(C, dtype=float), axis, v, axis=-1)


@dataclass(frozen=True)
class Hyperplane:
    """Set {x : <normal, x> = offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_vector(self.normal)
        norm = float(np.linalg.norm(n))
        if norm <= TAU_GEOM:
            raise DegenerateInput("hyperplane normal is (near) zero")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)


class HPolytope:
    """Bounded full-dimensional intersection of halfspaces <n_i, x> <= b_i.

    Normals are stored unit-length; rows are deduplicated within TAU_GEOM.
    """

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.asarray(offsets, dtype=float).ravel()
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("normals and offsets length mismatch")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms <= TAU_GEOM):
            raise DegenerateInput("zero facet normal")
        normals = normals / norms[:, None]
        offsets = offsets / norms
        rows = _dedupe_rows(np.column_stack([normals, offsets]), TAU_GEOM)
        self.normals = rows[:, :-1]
        self.offsets = rows[:, -1]

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_facets(self) -> int:
        return self.normals.shape[0]

    def slack(self, x) -> np.ndarray:
        """Per-facet slack b_i - <n_i, x>; all positive iff x is interior."""
        return self.offsets - self.normals @ as_vector(x)

    def contains(self, x, tol: float = TAU_GEOM) -> bool:
        return bool(np.min(self.slack(x)) >= -tol)


class VPolytope:
    """Convex polytope given by its (pruned) vertex list.

    Use `convex_hull` to build one from raw points; the direct constructor
    trusts its input (internal fast path for affine images, polars, ...).
    Facets, a facet triangulation, the coordinate scale and the polar fan
    with its determinants (see `polarity._polar_fan`) are computed lazily
    and cached; `vertices` never changes.
    """

    def __init__(self, vertices, halfspaces: HPolytope | None = None, simplices=None):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self._halfspaces = halfspaces
        self._simplices = simplices
        self._polar_fan = self._fan_dets = self._scale = None
        if not np.all(np.isfinite(self.vertices)):
            raise DegenerateInput("non-finite vertex coordinates")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def _hull(self):
        """Fill whichever of facets and triangulation is missing (one hull)."""
        _, h, simplices = _hull_of(self.vertices)
        if self._halfspaces is None:
            self._halfspaces = h
        if self._simplices is None:
            self._simplices = simplices

    @property
    def halfspaces(self) -> HPolytope:
        if self._halfspaces is None:
            self._hull()
        return self._halfspaces

    @property
    def facet_simplices(self) -> np.ndarray:
        """(m, d) indices into `vertices`, as given, triangulating the boundary."""
        if self._simplices is None:
            self._hull()
        return self._simplices

    def contains(self, x, tol: float = TAU_GEOM) -> bool:
        return self.halfspaces.contains(x, tol)

    def scale(self) -> float:
        """Coordinate scale of the vertex cloud (for relative tolerances)."""
        if self._scale is None:
            self._scale = float(max(1e-30, np.max(np.abs(self.vertices))))
        return self._scale


def _hull_of(points: np.ndarray):
    """Raw hull: (vertex indices, facet HPolytope, simplices).

    Simplices triangulate the boundary and index into `points` directly.
    """
    d = points.shape[1]
    if d == 1:
        i_lo, i_hi = int(np.argmin(points[:, 0])), int(np.argmax(points[:, 0]))
        lo, hi = float(points[i_lo, 0]), float(points[i_hi, 0])
        if hi - lo <= TAU_GEOM * max(1.0, abs(lo), abs(hi)):
            raise DegenerateInput("1-d point set has no extent")
        h = HPolytope([[1.0], [-1.0]], [hi, -lo])
        return np.array([i_lo, i_hi]), h, np.array([[i_lo], [i_hi]])
    if d > MAX_DIM:
        raise DegenerateInput(f"dimension {d} exceeds supported cap {MAX_DIM}")
    if points.shape[0] < d + 1:
        raise DegenerateInput("need at least d+1 points")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DegenerateInput(f"point set is degenerate: {exc}") from exc
    # Qhull equations are <n, x> + c <= 0 with outward unit normals.
    h = HPolytope(hull.equations[:, :-1], -hull.equations[:, -1])
    return hull.vertices, h, hull_simplices(hull)


def hull_simplices(hull: ConvexHull, min_dim: int = 5) -> np.ndarray:
    """Qhull's boundary triangulation, checked against Qhull's own volume.

    From d = 5 on, Qhull merges coplanar facets exactly ('Qx'), and its
    triangulation of a merged facet can overlap itself.  When the fan of the
    simplices misses `hull.volume` by more than 1e-12 relative, each facet is
    triangulated again: the cone from one of its vertices over the boundary
    triangulation of its own (d-1)-dimensional hull, checked the same way.
    """
    pts = hull.points
    d = pts.shape[1]
    if d < min_dim or _fan_matches(hull, hull.simplices):
        return hull.simplices
    verts = hull.vertices
    tol = 1e-12 * max(1.0, float(np.max(np.abs(pts))))
    facets = {frozenset(verts[np.abs(pts[verts] @ eq[:-1] + eq[-1]) <= tol])
              for eq in hull.equations}
    pieces = []
    for facet in facets:
        idx = np.array(sorted(facet))
        _, _, vt = np.linalg.svd(pts[idx[1:]] - pts[idx[0]])
        sub = ConvexHull((pts[idx] - pts[idx[0]]) @ vt[:d - 1].T)
        ridges = idx[hull_simplices(sub, min_dim=3)]
        ridges = ridges[np.all(ridges != idx[0], axis=1)]
        pieces.append(np.column_stack([np.full(len(ridges), idx[0]), ridges]))
    simplices = np.vstack(pieces)
    if not _fan_matches(hull, simplices):
        raise GeometryInconsistent("boundary triangulation misses the hull volume")
    return simplices


def _fan_matches(hull: ConvexHull, simplices: np.ndarray) -> bool:
    pts = hull.points
    apex = pts[hull.vertices].mean(axis=0)
    fan = np.abs(np.linalg.det(pts[simplices] - apex)).sum() / math.factorial(pts.shape[1])
    return abs(fan - hull.volume) <= 1e-12 * hull.volume


def convex_hull(points) -> tuple[VPolytope, HPolytope]:
    """Convex hull of a point set: pruned vertices and irredundant facets.

    Raises DegenerateInput when the points lie in a lower-dimensional flat.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise DegenerateInput("non-finite input point")
    vert_idx, h, simplices = _hull_of(pts)
    remap = -np.ones(pts.shape[0], dtype=int)
    remap[vert_idx] = np.arange(len(vert_idx))
    return VPolytope(pts[vert_idx], h, remap[simplices]), h


def volume(P: VPolytope) -> float:
    """d-volume by fanning the facet triangulation from the vertex mean."""
    return float(_cones(P)[1].sum()) / math.factorial(P.dim)


def centroid(P: VPolytope) -> np.ndarray:
    """Exact centroid via the same triangulation as `volume`."""
    return moments(P)[1]


def moments(P: VPolytope) -> tuple[float, np.ndarray, np.ndarray]:
    """(volume, centroid, second moment) in one vectorized fan pass.

    The second moment is the normalized inertia about the origin,
    int_P x x^T dx / |P|; every moment is exact for a polytope.
    """
    apex, dets = _cones(P)
    vol, cen, second = _fan_moments((P.vertices - apex)[None], dets[None],
                                    _incidence(P.facet_simplices[None], P.n_vertices))
    c, shift = cen[0], np.outer(apex, cen[0])
    return (float(vol[0]) / math.factorial(P.dim), apex + c,
            second[0] + shift + shift.T + np.outer(apex, apex))


def _cones(P: VPolytope) -> tuple[np.ndarray, np.ndarray]:
    """(apex, dets): the vertex mean and |det| of the cone from it over each
    boundary simplex (d! x its volume)."""
    apex = P.vertices.mean(axis=0)
    dets = np.abs(np.linalg.det(P.vertices[P.facet_simplices] - apex))
    if dets.sum() <= 0.0:
        raise DegenerateInput("polytope has zero volume")
    return apex, dets


def _incidence(fan, n: int) -> np.ndarray:
    """(R, f, n): how often each of n points is a corner of each fan simplex."""
    return (fan[..., None] == np.arange(n)).sum(axis=2, dtype=float)


def _fan_moments(y, cones, incidence):
    """(volume, centroid, second moment about the origin) of stacked fans.

    Row r is a union of the simplices conv(0, y_T) over fan simplices T on
    its points y, with `cones` their volumes and `incidence` from
    `_incidence`.  With w_T a simplex's share of the volume, sigma_T its
    vertex sum and u_F the shares at point F, the centroid is
    sum_T w_T sigma_T / (d+1) = sum_F u_F y_F / (d+1), and the second
    moment (sum_F u_F y_F y_F^T + sum_T w_T sigma_T sigma_T^T) / ((d+1)(d+2)).
    """
    d = y.shape[-1]
    volume = cones.sum(axis=1)
    w = (cones / volume[:, None])[..., None]
    u = incidence.transpose(0, 2, 1) @ w
    sums = incidence @ y
    centroid = (y * u).sum(axis=1) / (d + 1)
    second = ((y * u).transpose(0, 2, 1) @ y
              + (sums * w).transpose(0, 2, 1) @ sums) / ((d + 1) * (d + 2))
    return volume, centroid, second


def interior_point(P: VPolytope | HPolytope) -> np.ndarray:
    """Chebyshev center: the center of the largest inscribed ball (via LP)."""
    h = P.halfspaces if isinstance(P, VPolytope) else P
    d = h.dim
    # Variables (x, r): maximize r s.t. <n_i, x> + r <= b_i (unit normals).
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.column_stack([h.normals, np.ones(h.n_facets)])
    res = linprog(c, A_ub=A, b_ub=h.offsets,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= TAU_GEOM:
        raise DegenerateInput("no interior: Chebyshev LP infeasible or flat")
    return res.x[:-1]


def vertex_enumeration(h: HPolytope) -> VPolytope:
    """Vertices of a bounded H-polytope.

    Runs the hull machinery in the dual: after translating the Chebyshev
    center to the origin and scaling facets to offset one, hull facets of the
    scaled normals correspond one-to-one to vertices of the original body.
    """
    d = h.dim
    interior = interior_point(h)
    b = h.slack(interior)
    if np.min(b) <= TAU_GEOM:
        raise DegenerateInput("interior point has non-positive facet slack")
    if d == 1:
        pos = h.normals[:, 0] > 0
        neg = h.normals[:, 0] < 0
        if not (np.any(pos) and np.any(neg)):
            raise DegenerateInput("1-d H-polytope is unbounded")
        hi = float(np.min(h.offsets[pos] / h.normals[pos, 0]))
        lo = float(np.max(h.offsets[neg] / h.normals[neg, 0]))
        return VPolytope(np.array([[lo], [hi]]))
    dual_pts = h.normals / b[:, None]
    try:
        dual = ConvexHull(dual_pts)
    except QhullError as exc:
        raise DegenerateInput(f"dual hull failed (unbounded or flat?): {exc}") from exc
    n = dual.equations[:, :-1]
    c = -dual.equations[:, -1]
    if np.any(c <= TAU_GEOM):
        raise DegenerateInput("H-polytope appears unbounded")
    verts = n / c[:, None] + interior
    return VPolytope(_dedupe_rows(verts, TAU_GEOM * max(1.0, np.max(np.abs(verts)))))


@functools.cache
def _staircase(p: int, q: int) -> np.ndarray:
    """Staircase triangulation of Delta_{p-1} x Delta_{q-1}, as flat indices.

    One row per monotone lattice path from cell (0, 0) to (p-1, q-1) of the
    p x q grid, listing its p + q - 1 cells i*q + j (a step along i adds q,
    along j adds 1); paths are ordered by the positions of their p - 1 steps
    along i, lexicographically (De Loera, Rambau and Santos, Triangulations,
    6.2).
    """
    paths = [np.cumsum([0] + [q if k in ups else 1 for k in range(p + q - 2)])
             for ups in itertools.combinations(range(p + q - 2), p - 1)]
    return np.array(paths)


def section(P: VPolytope, axis: int, level: float) -> float:
    """(d-1)-volume of the slice {X : (X with coordinate `axis` = level) in P}.

    Each boundary simplex with p vertices at or above the level and q below
    meets it in the hull of its p*q edge crossings x_ij, a projective image
    of Delta_{p-1} x Delta_{q-1} that `_staircase` triangulates.  These
    pieces triangulate the slice's boundary, so its volume is the fan from
    c, the mean of the crossings, in the remaining coordinates:
    sum |det(sigma - c)| / (d-1)!.  A vertex within tolerance of the level
    counts as on it: it is its own crossing.  No hull is run.
    Raises EmptySection unless `level` is strictly inside the open coordinate
    range of `axis` over P.
    """
    d = P.dim
    axis = range(d)[axis]
    heights = P.vertices[:, axis]
    lo, hi = float(heights.min()), float(heights.max())
    margin = TAU_GEOM * max(1.0, abs(lo), abs(hi))
    if not (lo + margin < level < hi - margin):
        raise EmptySection(f"level {level} outside open range ({lo}, {hi})")
    rel = heights - level
    tol = TAU_GEOM * max(1.0, abs(level), float(np.abs(rel).max()))
    rel[np.abs(rel) <= tol] = 0.0
    rest = P.vertices[:, [i for i in range(d) if i != axis]]
    tri = P.facet_simplices
    above = rel[tri] >= 0
    n_above = above.sum(axis=1)
    # Each simplex's vertices reordered: those at or above the level first.
    tri = tri[np.arange(len(tri))[:, None], np.argsort(~above, axis=1, kind="stable")]
    crossings, pieces = [], []
    for p in range(1, d):
        ip, iq = tri[n_above == p, :p, None], tri[n_above == p, None, p:]
        w = (rel[ip] / (rel[ip] - rel[iq]))[..., None]
        x = (rest[ip] + w * (rest[iq] - rest[ip])).reshape(-1, p * (d - p), d - 1)
        crossings.append(x.reshape(-1, d - 1))
        pieces.append(x[:, _staircase(p, d - p)].reshape(-1, d - 1, d - 1))
    c = np.concatenate(crossings).mean(axis=0)
    dets = np.linalg.det(np.concatenate(pieces) - c)
    return float(np.abs(dets).sum()) / math.factorial(d - 1)


def chord(P: VPolytope, X, axis: int = -1) -> tuple[float, float]:
    """Closed interval {x : (X, x) in P} along `axis`, X over the other axes.

    X must lie in the interior of the orthogonal projection of P; boundary
    base points raise OutsideProjection (degenerate chords are excluded).
    """
    d = P.dim
    axis = range(d)[axis]
    X = as_vector(X)
    keep = [i for i in range(d) if i != axis]
    proj, _ = convex_hull(P.vertices[:, keep])
    scale = proj.scale()
    if np.min(proj.halfspaces.slack(X)) <= TAU_GEOM * scale:
        raise OutsideProjection("base point not interior to the projection")
    return _vertical_extent(P, X, axis)


def _vertical_extent(P: VPolytope, X, axis: int) -> tuple[float, float]:
    """Chord endpoints from the H-form; no interiority check (internal)."""
    h = P.halfspaces
    d = P.dim
    keep = [i for i in range(d) if i != axis]
    na = h.normals[:, axis]
    rest = h.offsets - h.normals[:, keep] @ np.asarray(X, dtype=float)
    scale = P.scale()
    pos = na > TAU_GEOM
    neg = na < -TAU_GEOM
    flat = ~(pos | neg)
    if np.any(rest[flat] < -TAU_GEOM * max(1.0, scale)):
        raise OutsideProjection("base point outside an axis-parallel facet")
    hi = float(np.min(rest[pos] / na[pos])) if np.any(pos) else math.inf
    lo = float(np.max(rest[neg] / na[neg])) if np.any(neg) else -math.inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OutsideProjection("chord unbounded; polytope data inconsistent")
    if lo > hi:  # float noise on a near-degenerate chord
        mid = (lo + hi) / 2.0
        lo = hi = mid
    return lo, hi


def apply_affine(P: VPolytope, linear, shift=None) -> VPolytope:
    """Vertex-wise affine image x -> linear @ x + shift (linear invertible)."""
    A = np.asarray(linear, dtype=float)
    d = P.dim
    if A.shape != (d, d):
        raise ValueError("linear part has wrong shape")
    if abs(np.linalg.det(A)) <= 1e-12 * max(1.0, np.linalg.norm(A) ** d):
        raise SingularMap("linear part is (numerically) singular")
    shift = np.zeros(d) if shift is None else as_vector(shift)
    return VPolytope(P.vertices @ A.T + shift)


def translate(P: VPolytope, shift) -> VPolytope:
    return VPolytope(P.vertices + as_vector(shift))


def diameter(P: VPolytope) -> float:
    """Exact vertex-pair diameter (fine at desk scale)."""
    v = P.vertices
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2).max()))


def hyperplane_frame(H: Hyperplane) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal map splitting R^d as (hyperplane coords, signed height).

    Returns (B, n) where B is (d-1, d): p maps to (B @ p, <n, p> - offset).
    B rows complete the unit normal n to an orthonormal basis; the map is an
    isometry on H, so (d-1)-volumes measured in frame coordinates are true.
    """
    n = H.normal
    d = n.shape[0]
    _, _, vt = np.linalg.svd(n.reshape(1, d))
    return vt[1:], n


def to_frame(points, H: Hyperplane) -> np.ndarray:
    """Coordinates (X, xi) of points with the hyperplane at height zero."""
    B, n = hyperplane_frame(H)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.column_stack([pts @ B.T, pts @ n - H.offset])


def from_frame(coords, H: Hyperplane) -> np.ndarray:
    B, n = hyperplane_frame(H)
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return coords[:, :-1] @ B + (coords[:, -1:] + H.offset) * n
