"""Volume-product bounds for polytopes with few vertices.

The case analysis for polytopes with d+1, d+2 or d+3 vertices (pyramid,
simplicial, double pyramid, skew and parallel apex-pair configurations)
comes with an explicit volume-preserving (or volume-affine) shadow system
per case whose endpoint bodies are strictly simpler.  Sweeping the volume
product along those moves and checking endpoint minimality turns the
few-vertex lower bound into a falsifiable test battery.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import geometry as geo
from . import santalo as san
from . import shadow as sh
from .errors import DegenerateAt, DegenerateInput, GeometryInconsistent, TooManyVertices
from .geometry import Hyperplane, VPolytope

PARALLEL_T_MAX = 1e3  # far end of the parallel move, near its projective limit
SAMPLE_TRIES, POLYGON_TRIES = 2000, 200  # draws before the samplers give up
CAMPAIGN_TOL = 1e-6  # slack on either side of the campaigns' bounds
POLYGON_NEAR, POLYGON_MAX_VERTICES = 1e-4, 12  # the 2D campaign's near band and sizes


def simplex_bound(d: int) -> float:
    """(d+1)^{d+1} / (d!)^2, the conjectured minimum of the volume product."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return (d + 1) ** (d + 1) / math.factorial(d) ** 2


class CaseLabel(Enum):
    SIMPLEX = "SIMPLEX"
    PYRAMID_Ia = "PYRAMID_Ia"
    SIMPLICIAL_Ib = "SIMPLICIAL_Ib"
    PYRAMID_IIa = "PYRAMID_IIa"
    DOUBLE_PYR_IIb1 = "DOUBLE_PYR_IIb1"
    SKEW_IIb2 = "SKEW_IIb2"
    PARALLEL_IIb3 = "PARALLEL_IIb3"
    SIMPLICIAL_IIc = "SIMPLICIAL_IIc"


@dataclass(frozen=True)
class _Config:
    """Vertex configuration backing a classification decision."""

    label: CaseLabel
    margin_ok: bool
    coplanar: tuple[int, ...] = ()
    off: tuple[int, ...] = ()
    hyperplane: Hyperplane | None = None
    xi: tuple[float, float] = (0.0, 0.0)


@functools.lru_cache(maxsize=1)
def _configuration(K: VPolytope) -> _Config:
    """Coplanarity configuration of K's vertices, from all d-subsets at once.

    One stacked SVD of the centered d-subsets gives every candidate
    hyperplane.  A subset whose second-smallest singular value is at most
    1e-7 of its coordinate scale is affinely dependent: it counts no
    vertices and voids the margin.  The plane with the most vertices within
    TAU_GEOM (scaled) wins, the first in lexicographic subset order on a
    tie.  A vertex at distance in (tau, 10 tau] of any independent plane,
    or a skew apex-height gap in that band, voids the margin too.

    Cached for the last body only: VPolytope hashes by identity and never
    changes, so `classify` and `descent_move` on the body `random_polytope`
    just returned reuse its margin check's pass.
    """
    verts = K.vertices
    n, d = verts.shape
    if n < d + 1:
        raise DegenerateInput("fewer than d+1 vertices")
    if n > d + 3:
        raise TooManyVertices(f"{n} vertices exceeds d+3 = {d + 3}")
    scale = K.scale()
    tau_on = geo.TAU_GEOM * max(1.0, scale)
    if n == d + 1:
        return _Config(CaseLabel.SIMPLEX, margin_ok=True)

    points = verts[list(itertools.combinations(range(n), d))]  # (m, d, d)
    centers = points.mean(axis=1)
    _, s, vt = np.linalg.svd(points - centers[:, None, :], full_matrices=True)
    independent = s[:, -2] > 1e-7 * np.maximum(1.0, np.max(np.abs(points), axis=(1, 2)))
    normals = vt[:, -1]
    dist = np.abs(normals @ verts.T - np.einsum("ij,ij->i", normals, centers)[:, None])
    on = (dist <= tau_on) & independent[:, None]
    counts = np.sum(on, axis=1)
    best = int(np.argmax(counts))  # first subset with the most vertices
    best_count = int(counts[best])
    if best_count == 0:
        raise DegenerateInput("all defining subsets are affinely dependent")
    margin_ok = bool(np.all(independent)) and not np.any(
        (dist[independent] > tau_on) & (dist[independent] <= 10 * tau_on))
    best_on = tuple(np.flatnonzero(on[best]))
    off = tuple(i for i in range(n) if i not in best_on)
    normal = normals[best]
    offset = float(normal @ centers[best])

    if n == d + 2:
        if best_count >= d + 1:
            return _Config(CaseLabel.PYRAMID_Ia, margin_ok, coplanar=best_on, off=off,
                           hyperplane=Hyperplane(normal, offset))
        return _Config(CaseLabel.SIMPLICIAL_Ib, margin_ok)

    # n == d + 3
    if best_count >= d + 2:
        return _Config(CaseLabel.PYRAMID_IIa, margin_ok, coplanar=best_on, off=off,
                       hyperplane=Hyperplane(normal, offset))
    if best_count == d:
        return _Config(CaseLabel.SIMPLICIAL_IIc, margin_ok)

    heights = verts[list(off)] @ normal - offset
    if heights[0] * heights[1] < 0:
        # opposite sides: orient so xi_1 < 0 < xi_2
        if heights[0] > 0:
            off = (off[1], off[0])
            heights = heights[::-1]
        label = CaseLabel.DOUBLE_PYR_IIb1
    else:
        if heights[0] < 0:  # flip normal so both heights positive
            normal, offset, heights = -normal, -offset, -heights
        if abs(heights[0] - heights[1]) <= tau_on:
            label = CaseLabel.PARALLEL_IIb3
        else:
            if abs(heights[0] - heights[1]) <= 10 * tau_on:
                margin_ok = False
            if heights[0] > heights[1]:  # order 0 < xi_1 < xi_2
                off = (off[1], off[0])
                heights = heights[::-1]
            label = CaseLabel.SKEW_IIb2
    return _Config(label, margin_ok, coplanar=best_on, off=off,
                   hyperplane=Hyperplane(normal, offset),
                   xi=(float(heights[0]), float(heights[1])))


def classify(K: VPolytope) -> CaseLabel:
    """Vertex-configuration label for a polytope with at most d+3 vertices.

    Reads `_configuration(K)`: one stacked SVD over all d-subsets, the first
    subset with the most vertices on its plane winning a tie.  The config is
    cached for the last body, so classifying a body that `random_polytope`
    just returned costs no second pass.
    """
    return _configuration(K).label


# ---------------------------------------------------------------------------
# Pyramid factorization
# ---------------------------------------------------------------------------

@dataclass
class PyramidReport:
    pi_d: float
    pi_base: float
    factorization_error: float
    santalo_ratio: float
    ratio_error: float
    collinearity_residual: float


def pyramid_factorization_check(F: VPolytope, apex) -> PyramidReport:
    """Compare the pyramid's volume product with its base-times-factor form.

    The base F is a (d-1)-polytope in its own coordinates and is embedded in
    the hyperplane x_d = 0; the apex must lie off that hyperplane.  Also
    measures the location of the pyramid's Santalo point on the segment from
    the base's Santalo point to the apex (the distance ratio is d+1).
    """
    apex = geo.as_vector(apex)
    d = F.dim + 1
    if apex.size != d:
        raise ValueError("apex dimension mismatch")
    if abs(apex[-1]) <= geo.TAU_GEOM * max(1.0, F.scale()):
        raise DegenerateInput("apex lies in the base hyperplane")
    K, _ = geo.convex_hull(np.vstack([geo.embed_point(F.vertices, 0.0, F.dim), apex]))
    res_K, res_F = san.santalo_point(K), san.santalo_point(F)
    pi_d = geo.volume(K) * res_K.polar_volume
    pi_base = geo.volume(F) * res_F.polar_volume
    predicted = (d + 1) ** (d + 1) / d ** (d + 2) * pi_base
    z0 = geo.embed_point(res_F.point, 0.0, F.dim)
    sk = res_K.point
    seg = apex - z0
    seg_len = float(np.linalg.norm(seg))
    u = seg / seg_len
    proj = float((sk - z0) @ u)
    perp = float(np.linalg.norm(sk - z0 - proj * u))
    ratio = seg_len / proj if proj > 0 else math.inf
    return PyramidReport(
        pi_d=pi_d,
        pi_base=pi_base,
        factorization_error=abs(pi_d - predicted) / predicted,
        santalo_ratio=ratio,
        ratio_error=abs(ratio - (d + 1)) / (d + 1),
        collinearity_residual=perp / seg_len,
    )


# ---------------------------------------------------------------------------
# Descent moves
# ---------------------------------------------------------------------------

@dataclass
class DescentMove:
    system: sh.ShadowSystem
    label: CaseLabel
    volume_behavior: str = "constant"  # or "affine"
    expected_slope: float = 0.0


def _slide_move(K: VPolytope, label: CaseLabel) -> DescentMove:
    """Simplicial cases: slide vertex 0 in its volume-level hyperplane until it
    reaches a non-adjacent facet hyperplane; endpoints are pyramids or simplices."""
    verts = K.vertices
    d = K.dim
    x0 = verts[0]
    rest = verts[1:]
    scale = K.scale()
    R, _ = geo.convex_hull(rest)
    # Near x0 (outside R) |conv(R u {y})| is |R| plus the cones from y over the
    # simplices of R's boundary that y sees.  Its gradient sums area x outward
    # unit normal / d over them: cone volume from c x polar vertex A about c.
    c = R.vertices.mean(axis=0)
    corners = R.vertices[R.facet_simplices] - c
    A = np.linalg.solve(corners, np.ones((*corners.shape[:2], 1)))[..., 0]
    seen = A @ (x0 - c) > 1.0
    grad = np.abs(np.linalg.det(corners[seen])) @ A[seen] / math.factorial(d)
    gn = np.linalg.norm(grad)
    if gn <= 1e-12:
        raise GeometryInconsistent("volume gradient vanished at the vertex")
    grad /= gn
    # deterministic direction in the level hyperplane of the volume gradient
    candidates = [np.eye(d)[i] for i in range(d)] + [x0 - rest.mean(axis=0)]
    best, best_norm = None, 0.0
    for c in candidates:
        p = c - (c @ grad) * grad
        npn = float(np.linalg.norm(p))
        if npn > best_norm:
            best, best_norm = p, npn
    if best_norm <= 1e-9 * max(1.0, scale):
        raise GeometryInconsistent("no direction available in the level plane")
    v = best / best_norm
    # Slide until the moving vertex first crosses any facet hyperplane of
    # conv(rest): the volume stays constant exactly while the vertex keeps
    # its side of every such hyperplane.
    along = R.normals @ v
    dist = R.offsets - R.normals @ x0
    moving = np.abs(along) > 1e-12
    if np.any(np.abs(dist) <= geo.TAU_GEOM * max(1.0, scale)):
        raise GeometryInconsistent("vertex already on a non-adjacent facet plane")
    times = dist[moving] / along[moving]
    pos_t = times[times > 0]
    neg_t = times[times < 0]
    if pos_t.size == 0 or neg_t.size == 0:
        raise GeometryInconsistent("slide never reaches a facet hyperplane")
    tau2 = float(np.min(pos_t))
    tau1 = float(np.max(neg_t))
    speeds = np.zeros(len(verts))
    speeds[0] = 1.0
    system = sh.ShadowSystem(verts.copy(), speeds, v, (tau1, tau2))
    return DescentMove(system, label)


def _apex_line_move(K: VPolytope, cfg: _Config, speed1: float, speed2: float,
                    interval: tuple[float, float], **law) -> DescentMove:
    """Apex pair cfg.off = (i1, i2) along the unit vector of x_i2 - x_i1 at speeds
    (speed1, speed2) * |x_i2 - x_i1|; `law` is a non-constant volume law."""
    i1, i2 = cfg.off
    v = K.vertices[i2] - K.vertices[i1]
    vn = float(np.linalg.norm(v))
    speeds = np.zeros(K.n_vertices)
    speeds[i1], speeds[i2] = speed1 * vn, speed2 * vn
    return DescentMove(sh.ShadowSystem(K.vertices.copy(), speeds, v / vn, interval),
                       cfg.label, **law)


def _double_pyramid_move(K: VPolytope, cfg: _Config) -> DescentMove:
    """Apex segment shifted along its line at speeds (1, 1); endpoint bodies are
    pyramids over the fixed base."""
    xi1, xi2 = cfg.xi  # xi1 < 0 < xi2
    tau1 = -xi2 / (xi2 - xi1)
    tau2 = -xi1 / (xi2 - xi1)
    if not tau1 < 0 < tau2:
        raise GeometryInconsistent("double-pyramid range does not straddle 0")
    return _apex_line_move(K, cfg, 1.0, 1.0, (tau1, tau2))


def _skew_move(K: VPolytope, cfg: _Config) -> DescentMove:
    """Apex pair slides along its joint line at speeds (1, V1/V2); at one end the
    lower apex lands in the base plane, at the other the apexes merge."""
    i1, i2 = cfg.off
    coords = geo.to_frame(K.vertices, cfg.hyperplane)
    xi1, xi2 = cfg.xi  # 0 < xi1 < xi2
    X = coords[:, :-1]
    F_idx = list(cfg.coplanar)
    X1, X2 = X[i1], X[i2]
    tau1 = -xi1 / (xi2 - xi1)
    X0 = X1 + tau1 * (X2 - X1)  # base-plane intersection of the apex line
    F_hull, _ = geo.convex_hull(X[F_idx])
    G_hull, _ = geo.convex_hull(np.vstack([X[F_idx], X0]))
    V2 = geo.volume(G_hull)
    V1 = V2 - geo.volume(F_hull)
    if V1 <= 0 or V2 - V1 <= 0:
        raise GeometryInconsistent("degenerate base areas in the skew move")
    return _apex_line_move(K, cfg, 1.0, V1 / V2, (tau1, V2 / (V2 - V1)))


def _parallel_move(K: VPolytope, cfg: _Config) -> DescentMove:
    """Single apex stretches along the line parallel to the base plane, speeds
    (0, 1); t=-1 merges the apexes (pyramid), large t approximates the
    projective pyramid limit.  The volume is affine in t."""
    i1, i2 = cfg.off
    coords = geo.to_frame(K.vertices, cfg.hyperplane)
    xi = cfg.xi[0]
    d = K.dim
    X = coords[:, :-1]
    F_idx = list(cfg.coplanar)
    vn = float(np.linalg.norm(K.vertices[i2] - K.vertices[i1]))
    w = (X[i2] - X[i1]) / np.linalg.norm(X[i2] - X[i1])
    # (d-2)-volume of the base's shadow orthogonal to the apex line
    _, _, vt = np.linalg.svd(w.reshape(1, -1))
    proj = X[F_idx] @ vt[1:].T
    if d == 3:
        pl = float(proj.max() - proj.min())
    else:
        pl_hull, _ = geo.convex_hull(proj)
        pl = geo.volume(pl_hull)
    slope = xi * vn * pl / (d * (d - 1))
    return _apex_line_move(K, cfg, 0.0, 1.0, (-1.0, PARALLEL_T_MAX),
                           volume_behavior="affine", expected_slope=slope)


def descent_move(K: VPolytope) -> DescentMove:
    """The volume-preserving (or volume-affine) move for a non-pyramid case."""
    cfg = _configuration(K)
    label = cfg.label
    if label in (CaseLabel.SIMPLEX, CaseLabel.PYRAMID_Ia, CaseLabel.PYRAMID_IIa):
        raise ValueError(f"{label} has no descent move; pyramids factorize "
                         "and the simplex is terminal")
    if label in (CaseLabel.SIMPLICIAL_Ib, CaseLabel.SIMPLICIAL_IIc):
        return _slide_move(K, label)
    if label == CaseLabel.DOUBLE_PYR_IIb1:
        return _double_pyramid_move(K, cfg)
    if label == CaseLabel.SKEW_IIb2:
        return _skew_move(K, cfg)
    return _parallel_move(K, cfg)


@dataclass
class MonotonicityReport:
    ts: np.ndarray
    volume_products: np.ndarray
    volumes: np.ndarray
    endpoint_minimal: bool
    volume_behavior_ok: bool
    inverse_polar_convex: bool
    worst_interior_drop: float


def verify_descent_monotonicity(move: DescentMove, n_grid: int = 33) -> MonotonicityReport:
    """Sweep the volume product over the move's range; check endpoint minimality.

    For volume-affine moves additionally checks the concave/convex quotient
    structure: |K_t| affine (within 1e-9 relative) and 1/|K_t^*| midpoint
    convex, which together forbid an interior strict minimum.  Measured by
    one `shadow.sweep`; a row it records as failed raises DegenerateAt.
    """
    ts = np.linspace(*move.system.interval, n_grid)
    rows = sh.sweep(move.system, ts)
    for r in rows:
        if r.note:
            raise DegenerateAt(r.t, r.note)
    vols = np.array([r.volume for r in rows])
    pis = vols * np.array([r.polar_volume for r in rows])
    scale = float(np.max(pis))
    endpoint_min = min(pis[0], pis[-1])
    worst_drop = float(endpoint_min - np.min(pis[1:-1]))
    endpoint_minimal = worst_drop <= sh.TAU_CONV * scale

    if move.volume_behavior == "constant":
        dev = (np.max(vols) - np.min(vols)) / np.max(vols)
        volume_ok = dev <= 1e-9
    else:
        secant = vols[0] + (vols[-1] - vols[0]) * (ts - ts[0]) / (ts[-1] - ts[0])
        volume_ok = bool(np.max(np.abs(vols - secant)) <= 1e-9 * np.max(vols))

    inverse_convex = sh.check_polar_convexity(rows).is_midpoint_convex
    return MonotonicityReport(ts, pis, vols, endpoint_minimal,
                              volume_ok, inverse_convex, worst_drop)


# ---------------------------------------------------------------------------
# Randomized campaigns
# ---------------------------------------------------------------------------

def _ball_points(rng, n: int, d: int) -> np.ndarray:
    x = rng.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    r = rng.uniform(size=(n, 1)) ** (1.0 / d)
    return x * r


def random_polytope(d: int, k: int, rng) -> VPolytope:
    """k-vertex polytope from i.i.d. unit-ball points.

    Rejection-sampled until all k points are vertices and the classification
    margins are decisive (no near-coplanarity inside the ambiguous band).
    The margin check leaves the body's config in `_configuration`'s cache.
    """
    for _ in range(SAMPLE_TRIES):
        pts = _ball_points(rng, k, d)
        try:
            P, _ = geo.convex_hull(pts)
        except DegenerateInput:
            continue
        if P.n_vertices != k:
            continue
        if k <= d + 3:
            try:
                cfg = _configuration(P)
            except DegenerateInput:
                continue
            if not cfg.margin_ok:
                continue
        return P
    raise DegenerateInput(f"could not sample a clean {k}-vertex polytope in d={d}")


@dataclass
class CampaignReport:
    seed: int
    d: int
    k: int
    trials: int
    min_vp: float
    argmin_vertices: list
    violations: list = field(default_factory=list)
    excluded: int = 0
    bound: float = 0.0
    label_counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _unit_ball_volume(d: int) -> float:
    """omega_d; the Blaschke-Santalo bound on the volume product is omega_d**2."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _vp_with_condition(K: VPolytope) -> tuple[float, float]:
    res = san.santalo_point(K)
    pb = res.polar
    R = float(np.max(np.linalg.norm(pb.polar.vertices - pb.polar_centroid, axis=1)))
    ball = _unit_ball_volume(K.dim) * R ** K.dim
    return geo.volume(K) * res.polar_volume, ball / res.polar_volume


def _campaign(report: CampaignReport, draw, tol: float, progress,
              near: float | None = None) -> CampaignReport:
    """The trial loop of both campaigns; `draw()` gives (body, label).

    Every trial counts in `label_counts`.  Trials whose polar is conditioned
    worse than 1e8 are `excluded`; the others set the minimum and are
    violations `below-bound` (under the bound - tol), `above-santalo-bound`
    (over omega_d**2 + tol) and, when `near` is given,
    `near-minimal-non-simplex`.  `progress(done, report)` runs every 100th.
    """
    for i in range(report.trials):
        K, label = draw()
        report.label_counts[label] = report.label_counts.get(label, 0) + 1
        vp, cond = _vp_with_condition(K)
        if cond > 1e8:
            report.excluded += 1
        else:
            if vp < report.min_vp:
                report.min_vp, report.argmin_vertices = vp, K.vertices.tolist()
            kinds = {"below-bound": vp < report.bound - tol,
                     "near-minimal-non-simplex": (near is not None and K.n_vertices > K.dim + 1
                                                  and vp <= report.bound + near),
                     "above-santalo-bound": vp > _unit_ball_volume(K.dim) ** 2 + tol}
            report.violations += [{"trial": i, "vp": vp, "kind": kind,
                                   "vertices": K.vertices.tolist()}
                                  for kind, hit in kinds.items() if hit]
        if progress is not None and (i + 1) % 100 == 0:
            progress(i + 1, report)
    return report


def few_vertex_campaign(d: int, k: int, trials: int, seed: int = 0,
                        tol: float = CAMPAIGN_TOL, progress=None) -> CampaignReport:
    """Campaign of `trials` clean k-vertex polytopes, labelled by `classify`,
    against simplex_bound(d); `_campaign` says what the report records."""
    if d not in (2, 3, 4):
        raise ValueError("campaigns cover d in {2, 3, 4}")
    if k <= d:
        raise ValueError(f"a {d}-polytope needs more than {d} vertices, got k = {k}")
    if k > d + 3:
        raise TooManyVertices("campaign vertex count exceeds d+3")
    rng = np.random.default_rng(seed)

    def draw():
        K = random_polytope(d, k, rng)
        return K, classify(K).value

    report = CampaignReport(seed, d, k, trials, math.inf, [], bound=simplex_bound(d))
    return _campaign(report, draw, tol, progress)


def polygon_minimality_campaign(trials: int, seed: int = 0) -> CampaignReport:
    """2D campaign of `trials` polygons with 3..POLYGON_MAX_VERTICES vertices,
    labelled `n=<vertices>`, against 27/4 (`_campaign`); a non-triangle
    within POLYGON_NEAR of 27/4 is a violation too."""
    rng = np.random.default_rng(seed)

    def draw():
        k = 3 + int(rng.integers(0, POLYGON_MAX_VERTICES - 2))
        K = random_polytope(2, k, rng) if k <= 5 else _random_polygon(rng, k)
        return K, f"n={K.n_vertices}"

    report = CampaignReport(seed, 2, 0, trials, math.inf, [], bound=simplex_bound(2))
    return _campaign(report, draw, CAMPAIGN_TOL, None, near=POLYGON_NEAR)


def _random_polygon(rng, k: int) -> VPolytope:
    """Exactly-k-vertex convex polygon from angle-sorted closed edge vectors."""
    for _ in range(POLYGON_TRIES):
        ang = rng.uniform(0.0, 2 * math.pi, size=k)
        lens = rng.uniform(0.3, 1.0, size=k)
        edges = lens[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        edges -= edges.mean(axis=0)  # close the polygon
        order = np.argsort(np.arctan2(edges[:, 1], edges[:, 0]))
        verts = np.cumsum(edges[order], axis=0)
        try:
            P, _ = geo.convex_hull(verts)
        except DegenerateInput:
            continue
        if P.n_vertices == k:
            return P
    raise DegenerateInput(f"could not sample a {k}-gon")


def regular_polygon(n: int) -> VPolytope:
    """The regular n-gon inscribed in the unit circle."""
    ang = 2 * math.pi * np.arange(n) / n
    P, _ = geo.convex_hull(np.column_stack([np.cos(ang), np.sin(ang)]))
    return P
