"""Dimension-generic polytope substrate: hulls, volumes, sections, chords.

A polytope is one immutable value type, `VPolytope`, owning its vertices
and facets.  A point or direction ("Vector") is a 1-d float array of length
d.  All operations are pure functions; nothing mutates its arguments.
Double precision throughout; the exact 2D oracle lives in the test tree.

Cuts by a coordinate hyperplane share one primitive, the staircase table
`_staircase`, which `sections` and `polarity.half_volumes` both read.
Boundary fans share one rule, the pulling triangulation `pulled` of a
facet-vertex incidence: every polar fan, and a hull's where Qhull merged
facets.

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

# Coplanarity / facet-slack tolerance, relative to the scale of what it measures.
TAU_GEOM = 1e-9

MAX_DIM = 6
SECTION_PAIRS = 4096  # (level, simplex) pairs per `sections` pass: arrays stay in cache

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
    C = np.asarray(C, dtype=float)
    axis = range(C.shape[-1] + 1)[axis]
    return np.concatenate([C[..., :axis], np.full((*C.shape[:-1], 1), v), C[..., axis:]], axis=-1)


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


def _facet_rows(normals, offsets) -> np.ndarray:
    """Rows [n_i | b_i] of the facets <n_i, x> <= b_i: unit normals, then rows
    deduplicated within TAU_GEOM; a normal ~0 beside the longest raises DegenerateInput."""
    normals, offsets = np.array(normals, dtype=float, ndmin=2), np.ravel(offsets).astype(float)
    if len(normals) != len(offsets):
        raise ValueError("normals and offsets length mismatch")
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= TAU_GEOM * norms.max()):
        raise DegenerateInput("zero facet normal")
    return _dedupe_rows(np.column_stack([normals / norms[:, None], offsets / norms]), TAU_GEOM)


class VPolytope:
    """Convex polytope given by its (pruned) vertex list.

    Use `convex_hull` to build one from raw points; the direct constructor
    trusts its input (finite, with `facets` a raw (normals, offsets) pair:
    the fast path for affine images, polars, ...).  `vertices` is read-only,
    and each fact derived from it is a `functools.cached_property`, which a
    maker that knows the fact seeds: `_facets` and `facet_simplices` (the
    constructor; else both come from one `_hull`), `_rows` and `_config`
    (`mahler.random_polytope`, unit, distinct rows: nothing is deduped),
    `_scale`, `_mean_cones` and `_polar_fan`.  `polarity`'s `_split_plans`
    is the one memo keyed by an argument, the axis.
    """

    def __init__(self, vertices, facets=None, simplices=None):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float)).view()
        self.vertices.flags.writeable = False
        if facets is not None:
            self._facets = facets
        if simplices is not None:
            self.facet_simplices = simplices
        self._split_plans = {}

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    _hull = functools.cached_property(lambda self: _hull_of(self.vertices)[1:])
    _facets = functools.cached_property(lambda self: self._hull[0])
    _rows = functools.cached_property(lambda self: _facet_rows(*self._facets))
    _scale = functools.cached_property(lambda self: float(max(1e-30, np.abs(self.vertices).max())))
    _mean_cones = functools.cached_property(lambda self: _mean_fan(self))
    _polar_fan = functools.cached_property(lambda self: _dual_fan(self))
    normals = property(lambda self: self._rows[:, :-1])
    offsets = property(lambda self: self._rows[:, -1])

    @property
    def n_facets(self) -> int:
        return self.normals.shape[0]

    def slack(self, x) -> np.ndarray:
        """Per-facet slack b_i - <n_i, x>; all positive iff x is interior."""
        return self.offsets - self.normals @ as_vector(x)

    @functools.cached_property
    def facet_simplices(self) -> np.ndarray:
        """(m, d) indices into `vertices`, as given, triangulating the boundary."""
        return self._hull[1]

    def scale(self) -> float:
        """Coordinate scale of the vertex cloud (for relative tolerances)."""
        return self._scale

    @functools.cached_property
    def _config(self):
        """The vertex configuration of `mahler.classify` (`mahler._config_of`)."""
        from .mahler import _config_of  # late import, module cycle
        return _config_of(self.vertices, TAU_GEOM * self.scale())


def _hull_of(points: np.ndarray):
    """Raw hull: (vertex indices, raw facets (normals, offsets), simplices).

    Simplices triangulate the boundary and index into `points` directly.
    """
    d = points.shape[1]
    if d == 1:
        i_lo, i_hi = int(np.argmin(points[:, 0])), int(np.argmax(points[:, 0]))
        lo, hi = float(points[i_lo, 0]), float(points[i_hi, 0])
        if hi - lo <= TAU_GEOM * max(abs(lo), abs(hi)):
            raise DegenerateInput("1-d point set has no extent")
        return np.array([i_lo, i_hi]), ([[1.0], [-1.0]], [hi, -lo]), np.array([[i_lo], [i_hi]])
    if d > MAX_DIM:
        raise DegenerateInput(f"dimension {d} exceeds supported cap {MAX_DIM}")
    if points.shape[0] < d + 1:
        raise DegenerateInput("need at least d+1 points")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DegenerateInput(f"point set is degenerate: {exc}") from exc
    # Qhull equations are <n, x> + c <= 0 with outward unit normals.
    return hull.vertices, (hull.equations[:, :-1], -hull.equations[:, -1]), hull_simplices(hull)


def hull_simplices(hull: ConvexHull) -> np.ndarray:
    """Qhull's boundary triangulation, or, where Qhull merged a facet (its
    simplices are neighbours with one equation) and its triangulation can
    overlap itself, the one `pulled` from the distinct facet planes."""
    eq = hull.equations
    if not (eq[hull.neighbors] == eq[:, None]).all(axis=2).any():
        return hull.simplices
    planes, verts = np.unique(eq, axis=0), hull.vertices
    tol = 1e-12 * float(np.max(np.abs(hull.points)))
    inc = np.abs(planes[:, :-1] @ hull.points[verts].T + planes[:, -1:]) <= tol
    return verts[pulled(inc, hull.points.shape[1])]


def pulled(inc: np.ndarray, d: int) -> np.ndarray:
    """(f, d) vertex indices of the pulling triangulation of a d-polytope's
    boundary, read off its (facets, vertices) incidence alone.

    Pulling (De Loera, Rambau and Santos, Triangulations) cones each face
    from its first vertex over its facets that avoid it, so a chain of faces
    F_0 > ... > F_{d-2}, each a facet of the last avoiding its first vertex,
    gives the simplex (the first vertices of F_0..F_{d-3}, the edge F_{d-2}).
    A face's facets are its largest meets with the polytope's facets.  If
    each vertex is in d facets (a simple polytope), each nonempty meet is
    one.  Else rows and columns inside others (a point on an edge) go first,
    a simplex face is its own triangulation (its simplices come first), and
    the result must be closed.  An incidence that is no polytope's raises
    GeometryInconsistent.
    """
    simple = (inc.sum(axis=0) == d).all()
    if not simple:  # keep the rows and columns in no other: true facets and vertices
        rows, cols = (np.flatnonzero(_maximal(np.ones((1, a.shape[1]), bool), a,
                                              a.sum(axis=1)[None].astype(float))[0])
                      for a in (inc, inc.T))
        inc = inc[rows][:, cols]
    faces = inc[inc.any(axis=1)]
    firsts = np.empty((len(faces), d - 2), dtype=int)  # the first vertices of F_0, F_1, ...
    done = []  # simplex faces, as their own simplices
    for j in range(d - 2):  # faces of dimension d - 1 - j
        if not simple:
            tip = faces.sum(axis=1) == d - j
            done.append(np.column_stack([firsts[tip, :j],
                                         np.nonzero(faces[tip])[1].reshape(-1, d - j)]))
            faces, firsts = faces[~tip], firsts[~tip]
        first = faces.argmax(axis=1)
        meet = (faces.astype(float) @ inc.T) * ~inc.T[first]  # |F & G| for G avoiding first
        if not simple:
            meet[meet < d - 1 - j] = 0  # a facet of F has at least dim F vertices
            meet = _maximal(faces, inc, meet)
        chain, w = np.nonzero(meet)
        faces, firsts = faces[chain] & inc[w], firsts[chain]
        firsts[:, j] = first[chain]
    if (faces.sum(axis=1) != 2).any():
        raise GeometryInconsistent("an edge of the polytope has other than two vertices")
    fan = np.vstack([*done, np.column_stack([firsts, np.nonzero(faces)[1].reshape(-1, 2)])])
    if not simple:  # each ridge of the triangulation in two of its simplices
        ridges = np.sort(fan[:, np.nonzero(~np.eye(d, dtype=bool))[1]].reshape(-1, d - 1), axis=1)
        if (np.unique(ridges @ len(cols) ** np.arange(d - 1), return_counts=True)[1] != 2).any():
            raise GeometryInconsistent("the pulled triangulation is not closed")
        fan = cols[fan]
    return fan


def _maximal(faces: np.ndarray, inc: np.ndarray, meet: np.ndarray) -> np.ndarray:
    """meet (faces, rows of inc) with each nonzero kept only where the meet
    faces[i] & inc[u] of its meet[i, u] points lies in no larger meet of
    face i, nor in an equal one of a lower row u."""
    face, u = np.nonzero(meet)
    inside = (faces[face] & inc[u]).astype(float) @ inc.T == meet[face, u][:, None]
    key = meet[face] * (len(inc) + 1) - np.arange(len(inc))  # larger, then lower row, first
    beaten = (inside & (key > key[np.arange(len(u)), u][:, None])).any(axis=1)
    meet[face[beaten], u[beaten]] = 0
    return meet


def convex_hull(points) -> tuple[VPolytope, np.ndarray]:
    """Convex hull of a point set: Qhull's vertex list and irredundant facets,
    and the index in `points` of each listed point.  The list holds every
    vertex, and can hold a boundary point that is no vertex (the middle of
    an edge) where Qhull keeps it as a corner of its triangulation.

    Raises DegenerateInput when the points lie in a lower-dimensional flat.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():  # the one check: the vertices are some of these points
        raise DegenerateInput("non-finite input point")
    vert_idx, facets, simplices = _hull_of(pts)
    remap = np.empty(len(pts), dtype=int)  # read only at vertices: every simplex corner is one
    remap[vert_idx] = np.arange(len(vert_idx))
    return VPolytope(pts[vert_idx], facets, remap[simplices]), vert_idx


def volume(P: VPolytope) -> float:
    """d-volume by fanning the facet triangulation from the vertex mean."""
    return float(P._mean_cones[1].sum()) / math.factorial(P.dim)


def centroid(P: VPolytope) -> np.ndarray:
    """Exact centroid on the fan of `volume`: its cones' centroids
    apex + sum_{v in T} (v - apex) / (d+1), weighted by their |det|."""
    apex, dets = P._mean_cones
    sums = P.vertices[P.facet_simplices].sum(axis=1) - P.dim * apex
    return apex + dets @ sums / ((P.dim + 1) * dets.sum())


def _mean_fan(P: VPolytope) -> tuple[np.ndarray, np.ndarray]:
    """(apex, dets): the vertex mean and |det| of the cone from it over each
    boundary simplex (d! x its volume); read cached as `P._mean_cones`."""
    apex = P.vertices.mean(axis=0)
    dets = np.abs(np.linalg.det(P.vertices[P.facet_simplices] - apex))
    if dets.sum() <= 0.0:
        raise DegenerateInput("polytope has zero volume")
    return apex, dets


def _dual_fan(P: VPolytope) -> tuple[np.ndarray, np.ndarray]:
    """(fan, D): (m, d) facet indices of P triangulating its polar's boundary
    about every interior point, and D_T = |det N_T| / d!; read cached as
    `P._polar_fan`.  Polar vertex F (n_F / slack_F(z)) is on the polar's facet
    of each vertex of P in F, so the fan is `pulled` from P's incidence, transposed."""
    fan = np.array([[0], [1]]) if P.dim == 1 else pulled(  # 1D: each facet its own simplex
        (np.abs(P.offsets[:, None] - P.normals @ P.vertices.T) <= TAU_GEOM * P.scale()).T, P.dim)
    return fan, np.abs(np.linalg.det(P.normals[fan])) / math.factorial(P.dim)


def _incidence(fan, n: int) -> np.ndarray:
    """(R, f, n): how often each of n points is a corner of each fan simplex (a bincount)."""
    R, f, _ = fan.shape
    slots = (fan + n * np.arange(R * f).reshape(R, f, 1)).ravel()
    return np.bincount(slots, minlength=R * f * n).reshape(R, f, n).astype(float)


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
    yu = y * (incidence.transpose(0, 2, 1) @ w)
    sums = incidence @ y
    centroid = yu.sum(axis=1) / (d + 1)
    second = (yu.transpose(0, 2, 1) @ y
              + (sums * w).transpose(0, 2, 1) @ sums) / ((d + 1) * (d + 2))
    return volume, centroid, second


def interior_point(P: VPolytope) -> np.ndarray:
    """Chebyshev center: the center of the largest inscribed ball (via LP)."""
    return _chebyshev_center(P.normals, P.offsets)


def _chebyshev_center(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """`interior_point` of {x : <n_i, x> <= b_i} from unit facet rows."""
    d = normals.shape[1]
    # Variables (x, r): maximize r s.t. <n_i, x> + r <= b_i (unit normals).
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.column_stack([normals, np.ones(len(normals))])
    res = linprog(c, A_ub=A, b_ub=offsets,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= TAU_GEOM:
        raise DegenerateInput("no interior: Chebyshev LP infeasible or flat")
    return res.x[:-1]


def vertex_enumeration(normals, offsets) -> VPolytope:
    """Vertices of the bounded polytope {x : <n_i, x> <= b_i} (`_facet_rows`).

    Runs the hull machinery in the dual: after translating the Chebyshev
    center to the origin and scaling facets to offset one, hull facets of the
    scaled normals correspond one-to-one to vertices of the original body.
    """
    rows = _facet_rows(normals, offsets)
    normals, offsets = rows[:, :-1], rows[:, -1]
    d = normals.shape[1]
    interior = _chebyshev_center(normals, offsets)
    b = offsets - normals @ interior
    if np.min(b) <= TAU_GEOM:
        raise DegenerateInput("interior point has non-positive facet slack")
    if d == 1:
        pos = normals[:, 0] > 0
        neg = normals[:, 0] < 0
        if not (np.any(pos) and np.any(neg)):
            raise DegenerateInput("1-d H-polytope is unbounded")
        hi = float(np.min(offsets[pos] / normals[pos, 0]))
        lo = float(np.max(offsets[neg] / normals[neg, 0]))
        return VPolytope(np.array([[lo], [hi]]))
    dual_pts = normals / b[:, None]
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


def _open_range(P: VPolytope, axis: int) -> tuple[float, float]:
    """Open interval of the levels strictly inside P's range along `axis`."""
    heights = P.vertices[:, axis]
    lo, hi = float(heights.min()), float(heights.max())
    margin = TAU_GEOM * max(abs(lo), abs(hi))
    return lo + margin, hi - margin


def section(P: VPolytope, axis: int, level: float) -> float:
    """(d-1)-volume of the slice {X : (X with coordinate `axis` = level) in P},
    one level of `sections`; EmptySection unless `level` is in `_open_range`."""
    lo, hi = _open_range(P, range(P.dim)[axis])
    if not lo < level < hi:
        raise EmptySection(f"level {level} outside open range ({lo}, {hi})")
    return float(sections(P, axis, [level])[0])


def sections(P: VPolytope, axis: int, levels) -> np.ndarray:
    """(d-1)-volumes of the slices of P at `levels` along `axis`, in one pass.

    Each boundary simplex with p vertices at or above a level and q below
    meets it in the hull of its p*q edge crossings x_ij, a projective image
    of Delta_{p-1} x Delta_{q-1} that `_staircase` triangulates.  These
    pieces triangulate the slice's boundary, so its volume is the fan from
    c, the mean of the level's crossings (by p, then by simplex), in the
    remaining coordinates: sum |det(sigma - c)| / (d-1)!.  A vertex within
    tolerance of a level counts as on it: it is its own crossing.  Pairs
    (level, simplex) are cut SECTION_PAIRS at a time; means and sums run
    per level.  No hull is run.  Levels must lie in `_open_range`.
    """
    d = P.dim
    axis = range(d)[axis]
    levels = np.asarray(levels, dtype=float)
    tri = P.facet_simplices
    step = max(1, SECTION_PAIRS // len(tri))
    if not 0 < len(levels) <= step:  # no level, or more than one pass
        return np.concatenate([np.zeros(0)] + [sections(P, axis, levels[i:i + step])
                                               for i in range(0, len(levels), step)])
    rel = P.vertices[:, axis] - levels[:, None]
    tol = TAU_GEOM * np.maximum(np.abs(levels), np.abs(rel).max(axis=1))
    rel[np.abs(rel) <= tol[:, None]] = 0.0
    rest = np.delete(P.vertices, axis, axis=1)
    above = rel[:, tri] >= 0
    n_above = above.sum(axis=2)
    # Each simplex's vertices reordered per level: those at or above it first.
    tri = tri[np.arange(len(tri))[:, None], np.argsort(~above, axis=2, kind="stable")]
    crossings, pieces, at, piece_at = [], [], [], []
    for p in range(1, d):
        lv, sx = np.nonzero(n_above == p)
        ip, iq = tri[lv, sx, :p, None], tri[lv, sx, None, p:]
        rp, rq = rel[lv[:, None, None], ip], rel[lv[:, None, None], iq]
        w = (rp / (rp - rq))[..., None]
        x = (rest[ip] + w * (rest[iq] - rest[ip])).reshape(-1, p * (d - p), d - 1)
        stairs = _staircase(p, d - p)
        crossings.append(x.reshape(-1, d - 1))
        pieces.append(x[:, stairs].reshape(-1, d - 1, d - 1))
        at.append(np.repeat(lv, p * (d - p)))
        piece_at.append(np.repeat(lv, len(stairs)))
    # Stable sorts by level keep each level's rows in the order p, simplex.
    at, piece_at = np.concatenate(at), np.concatenate(piece_at)
    crossings = np.split(np.concatenate(crossings)[np.argsort(at, kind="stable")],
                         np.cumsum(np.bincount(at, minlength=len(levels)))[:-1])
    c = np.array([x.mean(axis=0) for x in crossings])
    order = np.argsort(piece_at, kind="stable")
    dets = np.abs(np.linalg.det(np.concatenate(pieces)[order] - c[piece_at[order], None]))
    ends = np.cumsum(np.bincount(piece_at, minlength=len(levels)))[:-1]
    return np.array([part.sum() for part in np.split(dets, ends)]) / math.factorial(d - 1)


def _vertical_extent(P: VPolytope, X, axis: int) -> tuple[float, float]:
    """Chord {x : (X, x) in P} from P's facets; no interiority check (internal)."""
    d = P.dim
    keep = [i for i in range(d) if i != axis]
    na = P.normals[:, axis]
    rest = P.offsets - P.normals[:, keep] @ np.asarray(X, dtype=float)
    pos = na > TAU_GEOM
    neg = na < -TAU_GEOM
    flat = ~(pos | neg)
    if np.any(rest[flat] < -TAU_GEOM * P.scale()):
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
    if abs(np.linalg.det(A)) <= 1e-12 * np.linalg.norm(A) ** d:
        raise SingularMap("linear part is (numerically) singular")
    shift = np.zeros(d) if shift is None else as_vector(shift)
    if not np.isfinite(vertices := P.vertices @ A.T + shift).all():
        raise DegenerateInput("non-finite vertex coordinates")
    return VPolytope(vertices)


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
