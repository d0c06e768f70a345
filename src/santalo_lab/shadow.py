"""Shadow systems: construction, sweeps, and convexity verdicts.

A shadow system moves a finite base point set along a common direction,
each point at its own speed:  K_t = conv{x_i + speed_i * t * direction}.
Sweeping t and measuring |K_t|, |K_t^*| and the Santalo point turns the
convexity statements about t -> |K_t| and t -> 1/|K_t^*| into grid tests.

Every orientation determinant det[1, x_i + speed_i * t * direction] is
affine in t (Shephard, Israel J. Math. 2, 1964), so K_t keeps its boundary
simplices over runs of parameters, its combinatorial cells.  A sweep
stacks every row's points, certifies a cell's simplices on its rows a chunk
at a time and reads their facets, volumes and one polar fan (`polarity._fans`)
off those arrays.  Qhull runs only where a cell starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import polarity as pol
from . import santalo as san
from .errors import (
    DegenerateAt,
    DegenerateInput,
    DegenerateMap,
    InsufficientGrid,
)
from .geometry import Hyperplane, VPolytope

# Midpoint-convexity slack, relative to the largest value on the grid.
TAU_CONV = 1e-7
# Rows per pass of a cell's simplex certificate (`_cell`).
CERTIFY_ROWS = 8


@dataclass
class ShadowSystem:
    """Base point set with per-point speeds along a common unit direction.

    Bodies must be full-dimensional at both interval endpoints and at the
    midpoint (checked at construction, and kept for `body_at`); other
    parameters may still produce degenerate hulls, which sweep records flag
    per row.
    """

    base_points: np.ndarray
    speeds: np.ndarray
    direction: np.ndarray
    interval: tuple[float, float]
    _bodies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.base_points = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        self.speeds = np.asarray(self.speeds, dtype=float).ravel()
        if len(self.speeds) != len(self.base_points):
            raise ValueError("one speed per base point required")
        theta = geo.as_vector(self.direction)
        norm = float(np.linalg.norm(theta))
        if norm <= geo.TAU_GEOM:
            raise DegenerateInput("zero-length shadow direction")
        self.direction = theta / norm
        lo, hi = float(self.interval[0]), float(self.interval[1])
        if not lo < hi:
            raise ValueError("empty parameter interval")
        self.interval = (lo, hi)
        for t in (lo, 0.5 * (lo + hi), hi):
            self._bodies[t] = _body(self, t)  # raises DegenerateAt on flat hulls

    @property
    def dim(self) -> int:
        return self.base_points.shape[1]

    def points_at(self, t) -> np.ndarray:
        """The moved points x_i + speed_i * t * direction, in base-point order;
        stacked (R, n, d) for R parameters t."""
        return self.base_points + np.multiply.outer(np.multiply.outer(t, self.speeds),
                                                    self.direction)

    @property
    def axis(self) -> int:
        """Coordinate axis of the direction; ValueError if the direction is skew."""
        axis = int(np.argmax(np.abs(self.direction)))
        if abs(abs(self.direction[axis]) - 1.0) > 1e-9:
            raise ValueError("half-volume machinery needs an axis-aligned direction")
        return axis


def body_at(system: ShadowSystem, t: float) -> VPolytope:
    """conv{x_i + speed_i * t * direction}; t must lie in the interval."""
    return _body(system, t)[0]


def _body(system: ShadowSystem, t: float):
    """(K_t, the base-point index of each vertex): cached or `convex_hull`'s."""
    t = float(t)
    if t in system._bodies:
        return system._bodies[t]
    lo, hi = system.interval
    span = max(hi - lo, 1.0)
    if not lo - 1e-12 * span <= t <= hi + 1e-12 * span:
        raise ValueError(f"t={t} outside interval [{lo}, {hi}]")
    pts = system.points_at(t)
    try:
        return geo.convex_hull(pts)
    except DegenerateInput as exc:
        raise DegenerateAt(t, f"degenerate hull at t={t}: {exc}") from exc


def _certified(P: np.ndarray, tri: np.ndarray):
    """Which rows of the stacked points P (R, n, d) have the boundary
    simplices `tri`, and their facets there: (ok, c, N, b, s, tau, volume).

    A[r, j] solves <A, p - c[r]> = 1 on the corners p of simplex j, c[r] the
    vertex mean of row r: it is that facet's polar vertex about c[r], the
    facet <N, x> <= b has N = A_j / |A_j|, and c[r]'s slack is s = 1 / |A_j|.
    Row r is certified when its start c[r] and every point off a simplex
    have slack > tau[r] = TAU_GEOM * scale for it, since a closed
    pseudomanifold of strictly supporting simplices is the whole boundary
    and `santalo_stack` needs an interior start; coplanar or non-simplicial
    hulls never pass, nor do two facets that `geometry._facet_rows` would
    merge.  volume[r] is the fan from c[r], as `geometry.volume`.
    """
    m, d = tri.shape
    c = P[:, np.unique(tri)].mean(axis=1)
    M = P[:, tri] - c[:, None, None]
    dets = np.linalg.det(M)
    bad = (dets == 0).any(axis=1)
    M[bad] = np.eye(d)  # solvable; these rows fail
    A = np.linalg.solve(M, np.ones((m, d, 1)))[..., 0]
    norm = np.linalg.norm(A, axis=2)
    slack = (1.0 - (P - c[:, None]) @ A.transpose(0, 2, 1)) / norm[:, None]
    slack[:, tri, np.arange(m)[:, None]] = np.inf
    # Facets within TAU_GEOM of each other have normals at cosine ~1.
    rows = np.concatenate([A, 1.0 + A @ c[..., None]], axis=2) / norm[..., None]
    r, j, k = np.nonzero(rows[..., :-1] @ rows[..., :-1].transpose(0, 2, 1) > 1 - 1e-12)
    bad[r[(j < k) & (np.abs(rows[r, j] - rows[r, k]).max(axis=1) <= geo.TAU_GEOM)]] = True
    s, tau = 1.0 / norm, geo.TAU_GEOM * np.maximum(1e-30, np.abs(P).max(axis=(1, 2)))
    ok = ~bad & (slack.min(axis=(1, 2)) > tau) & (s.min(axis=1) > tau)
    return (ok, c, rows[..., :-1], rows[..., -1], s, tau,
            np.abs(dets).sum(axis=1) / math.factorial(d))


def _cell(P: np.ndarray, tri: np.ndarray):
    """`_certified` on a cell's rows P (R, n, d), CERTIFY_ROWS at a time,
    until a chunk holds a failing row past P[0].  A lone last row joins the
    chunk before it: numpy sums a one-row pass's volume in another order."""
    parts, r = [], 0
    while r < len(P):
        n = CERTIFY_ROWS + (len(P) - r == CERTIFY_ROWS + 1)
        parts.append(_certified(P[r:r + n], tri))
        if not parts[-1][0][r == 0:].all():  # P[0] may fail its own simplices
            break
        r += n
    return [np.concatenate(a) for a in zip(*parts)]


@dataclass
class SweepRecord:
    t: float
    volume: float
    polar_volume: float
    santalo: np.ndarray
    converged: bool
    iterations: int = 0  # Newton steps of the Santalo solve
    residual: float = math.nan  # its normalized polar-centroid residual
    note: str = ""


def sweep(system: ShadowSystem, grid) -> list[SweepRecord]:
    """Measure |K_t|, |K_t^*| and S(K_t) on a sorted grid of parameters.

    Per-row failures are recorded (converged=False, NaNs), never raised, so
    one bad parameter cannot abort a campaign.  The grid is cut into cells:
    a cell opens at a row with the body `body_at` gives there, and its
    boundary simplices are certified on the later rows, CERTIFY_ROWS at
    once (`_cell`) with their vertex means strictly interior; the cell ends
    at the first row where that fails, which opens the next.  A body failing
    on its own simplices is solved as Qhull built it if its vertex mean is
    strictly interior.  A cell's rows are read off its arrays, with no
    polytope per row, one polar fan pulled from its simplices
    (`polarity._fans`) and one `santalo.santalo_stack` call from the means.
    """
    grid = [float(t) for t in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted")
    pts = system.points_at(np.array(grid))
    rows: list = [None] * len(grid)
    stacks, solved = [], []  # solver stacks, and the rows they hold in order
    i = 0
    while i < len(grid):
        try:
            K, idx = _body(system, grid[i])
            tri = idx[K.facet_simplices]
            ok, *cell = _cell(pts[i:], tri)
            # the row after a body failing its own simplices may still carry them
            first = int(not ok[0])
            n = first + int(np.argmin(np.append(ok[first:], False)))
            c, N, b, s, tau, volume = (a[first:n] for a in cell)
            new = [(*san._body_stack(K), np.array([geo.volume(K)]))] if first else []
            if n > first:
                new.append((N, b, *pol._fans(N, tri), tau, c, s, volume))
        except (DegenerateInput, pol.CenterNotInterior) as exc:
            rows[i] = SweepRecord(grid[i], math.nan, math.nan, np.full(system.dim, math.nan),
                                  False, note=str(exc))
            i += 1
            continue
        stacks += new
        solved += range(i, i + n)
        i += n
    if stacks:
        out = san.santalo_stack(*san._joined(stacks))
        volume = np.concatenate([x[-1] for x in stacks])
        for k, i in enumerate(solved):
            rows[i] = SweepRecord(grid[i], float(volume[k]), float(out.polar_volume[k]),
                                  out.point[k], bool(out.converged[k]),
                                  int(out.iterations[k]), float(out.residual[k]))
    return rows


@dataclass
class ConvexityVerdict:
    is_midpoint_convex: bool
    worst_violation: float
    witness_triple: tuple[float, float, float] | None
    excluded: int = 0


@functools.lru_cache(maxsize=16)
def _triples(n: int) -> np.ndarray:
    """Read-only rows (i, (i+j)/2, j) of a grid of n's midpoint triples, in (i, j) order."""
    i, j = np.triu_indices(n, 2)
    triples = np.array([i, (i + j) // 2, j])[:, (j - i) % 2 == 0]
    triples.flags.writeable = False
    return triples


def _midpoint_verdict(ts, values, valid, tol_rel) -> ConvexityVerdict:
    """Verdict over the valid triples of `_triples(n)`; the first worst triple is the witness."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(ts)
    if n < 3:
        raise InsufficientGrid("need at least 3 grid points")
    steps = np.diff(ts)
    if np.max(steps) - np.min(steps) > 1e-9 * (ts[-1] - ts[0]):
        raise InsufficientGrid("grid must be equally spaced")
    valid = np.asarray(valid, dtype=bool)
    scale = float(np.max(np.abs(values[valid]))) if np.any(valid) else 1.0
    i, m, j = _triples(n)
    viol = values[m] - 0.5 * (values[i] + values[j])
    (k,) = np.nonzero(valid[i] & valid[m] & valid[j] & (viol > -math.inf))
    if not len(k):
        raise InsufficientGrid("no valid midpoint triple on the grid")
    k = k[np.argmax(viol[k])]
    return ConvexityVerdict(bool(viol[k] <= tol_rel * scale), float(viol[k]),
                            (float(ts[i[k]]), float(ts[m[k]]), float(ts[j[k]])),
                            excluded=int(np.sum(~valid)))


def check_volume_convexity(records, tol_rel: float = TAU_CONV) -> ConvexityVerdict:
    """Midpoint-convexity verdict for t -> |K_t| over a sweep."""
    ts = [r.t for r in records]
    vols = [r.volume for r in records]
    valid = [math.isfinite(v) for v in vols]
    return _midpoint_verdict(ts, np.nan_to_num(vols), valid, tol_rel)


def check_polar_convexity(records, tol_rel: float = TAU_CONV) -> ConvexityVerdict:
    """Midpoint-convexity verdict for t -> 1/|K_t^*| over a sweep.

    Rows whose Santalo solve did not converge are excluded and counted.
    """
    ts = [r.t for r in records]
    valid = [r.converged and math.isfinite(r.polar_volume) and r.polar_volume > 0
             for r in records]
    inv = [1.0 / r.polar_volume if ok else 0.0 for r, ok in zip(records, valid)]
    return _midpoint_verdict(ts, inv, valid, tol_rel)


def affine_family(K_mid: VPolytope, v: float, V, u: float,
                  interval: tuple[float, float]) -> ShadowSystem:
    """Shadow system whose bodies are exact affine images of K_mid.

    Body at parameter t is A_t(K_mid) with, splitting coordinates as (X, x),
        A_t(X, x) = (X, x + (t - mid)(v x + <V, X> + u)),
    realized by giving the vertex (X, x) the speed v x + <V, X> + u along
    the last coordinate axis.  Requires v s + 1 > 0 over the shifted
    interval, else the map degenerates (DegenerateMap).
    """
    lo, hi = float(interval[0]), float(interval[1])
    mid = 0.5 * (lo + hi)
    d = K_mid.dim
    V = np.zeros(d - 1) if V is None else geo.as_vector(V)
    if V.size != d - 1:
        raise ValueError("V must have dimension d-1")
    for s in (lo - mid, hi - mid):
        if v * s + 1.0 <= geo.TAU_GEOM:
            raise DegenerateMap(f"v*s+1 = {v * s + 1.0} at shifted parameter {s}")
    X = K_mid.vertices[:, :-1]
    x = K_mid.vertices[:, -1]
    speeds = v * x + X @ V + u
    theta = np.zeros(d)
    theta[-1] = 1.0
    base = K_mid.vertices - mid * np.outer(speeds, theta)
    return ShadowSystem(base, speeds, theta, (lo, hi))


# ---------------------------------------------------------------------------
# Steiner symmetrization as a shadow system
# ---------------------------------------------------------------------------

def _segment_crossings_2d(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Intersection points of two 2D segment families (incl. endpoints).

    Segments are (n, 2, 2) endpoint pairs.  All (a, b) pairs are tested in
    one broadcast, skipping near-parallel ones; points come in a-major order.
    """
    p1, q1 = a[:, None, 0], b[None, :, 0]
    r, s = a[:, None, 1] - p1, b[None, :, 1] - q1
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    denom = cross(r, s)
    w = q1 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = cross(w, s) / denom
        uu = cross(w, r) / denom
    inside = lambda x: (x >= -1e-12) & (x <= 1 + 1e-12)
    hit = (np.abs(denom) > tol) & inside(tt) & inside(uu)
    i, j = np.nonzero(hit)
    return p1[i, 0] + tt[i, j, None] * r[i, 0]


def steiner_system(K: VPolytope, H: Hyperplane) -> ShadowSystem:
    """Shadow system interpolating K, its Steiner symmetral, and its mirror.

    The system samples the chords of K orthogonal to H at every projected
    vertex and, in 3D, at every crossing of projected upper and lower edges
    (the breakpoints of the chord-length function): the edges of K's cached
    boundary triangles whose outward normals point up, resp. down, along H's
    normal.  Facet diagonals add crossings only where the chord functions
    are affine, which leaves every K_t unchanged.  Both endpoints of a
    sampled chord get the speed that carries the chord midpoint onto H, so
    every body K_t preserves all chord lengths orthogonal to H:
    K_{-1} = K, K_0 = the Steiner symmetral K_H, K_1 = the mirror image.

    Supported for d = 2 and 3 (the breakpoint overlay is dimension-specific).
    """
    d = K.dim
    if d not in (2, 3):
        raise DegenerateInput("steiner_system supports d = 2 or 3")
    coords = geo.to_frame(K.vertices, H)
    Kf = VPolytope(coords)  # isometric image; heights relative to H
    scale = Kf.scale()
    samples = coords[:, :-1]
    if d == 3:
        tri = Kf.facet_simplices
        p0, p1, p2 = coords[tri].transpose(1, 0, 2)
        normal = np.cross(p1 - p0, p2 - p0)
        normal *= np.sign(np.sum((p0 - coords.mean(axis=0)) * normal, axis=1))[:, None]
        up = normal[:, -1] / np.linalg.norm(normal, axis=1)
        edges = np.sort(tri[:, geo._EDGES[d]], axis=2)
        seg = lambda faces: samples[np.unique(edges[faces].reshape(-1, 2), axis=0)]
        crossings = _segment_crossings_2d(seg(up > geo.TAU_GEOM),
                                          seg(up < -geo.TAU_GEOM),
                                          1e-14 * scale ** 2)
        samples = np.vstack([samples, crossings])
    X_arr = geo._dedupe_rows(samples, 1e-12 * scale)
    base, speeds = [], []
    for X in X_arr:
        lo, hi = geo._vertical_extent(Kf, X, d - 1)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        base.append(np.append(X, half))
        speeds.append(-mid)
        if half > 1e-13 * scale:
            base.append(np.append(X, -half))
            speeds.append(-mid)
    base_world = geo.from_frame(np.array(base), H)
    return ShadowSystem(base_world, np.array(speeds), H.normal, (-1.0, 1.0))


def steiner_symmetral(K: VPolytope, H: Hyperplane) -> VPolytope:
    """The Steiner symmetral K_H (volume-preserving, chords centered on H)."""
    return body_at(steiner_system(K, H), 0.0)


def random_shadow_system(d: int, rng, n_points: int | None = None) -> ShadowSystem:
    """Random system on [-0.5, 0.5]: ball-sampled hull points, N(0, 0.6) speeds."""
    n = n_points or (d + 3)
    theta = np.zeros(d)
    theta[-1] = 1.0
    for _ in range(100):
        raw = rng.normal(size=(n + 2, d))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        raw *= rng.uniform(0.2, 1.0, size=(n + 2, 1))
        try:
            P, _ = geo.convex_hull(raw)
            speeds = rng.normal(scale=0.6, size=P.n_vertices)
            return ShadowSystem(P.vertices, speeds, theta, (-0.5, 0.5))
        except DegenerateInput:
            continue
    raise DegenerateInput("failed to sample a non-degenerate system")
