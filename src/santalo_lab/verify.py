"""Functional-inequality checks on slice profiles of polar bodies.

The machinery here reconstructs, on concrete polytopes, the inequality
chain behind the midpoint convexity of 1/|K_t^*|:

  hypothesis:   f(2zy/(z+y)) >= g(y)^{z/(z+y)} h(z)^{y/(z+y)}  for y, z > 0
  conclusion:   1/int f  <=  (1/int g + 1/int h) / 2
  half-volume:  1/B_+(mid) <= (1/B_+(s) + 1/B_+(t)) / 2   (same for B_-)
  midpoint:     1/|K_mid^*| <= (1/|K_s^*| + 1/|K_t^*|) / 2

A slice profile of a d-polytope is a polynomial of degree d-1 between
consecutive vertex heights (Curry and Schoenberg), so d exact section
volumes per piece fix it: profiles are exact piecewise polynomials, their
values and integrals carry only rounding error.  Section volumes and the
extreme faces' volumes are sums over the body's boundary triangulation, so
once a polar's fan is cached its profile runs no hull; one `geo.sections`
call cuts its nodes.  Polar profiles cover only the half x >= 0 that the
checks read.  A profile evaluates all points at once, each on its piece's
gathered row.  The hypothesis grid is walked in blocks of BLOCK_ROWS values
of y.  Half-volumes are exact sums of cones from the polarity center over
the polar's cached boundary fan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import polarity as pol
from . import santalo as san
from . import shadow as sh
from .errors import NotInCone
from .geometry import VPolytope

N_PROFILE_SAMPLES = 257
BLOCK_ROWS = 32  # y rows per pass of the hypothesis grid: each temporary stays in cache
TOL_EXACT = 1e-9  # pass slack of the exact checks: half-volumes, midpoint bound, cone


def _lobatto(n: int) -> np.ndarray:
    """The n+1 Chebyshev-Lobatto points of [0, 1], increasing."""
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))


@dataclass
class SliceProfile:
    """Piecewise-polynomial profile x -> (d-1)-volume of a slice.

    Piece i is the polynomial of degree `degree` through (xs, ys) at the
    nodes xs[i*degree : (i+1)*degree + 1]; neighbouring pieces share their
    end node, and the profile is 0 outside [xs[0], xs[-1]].  Degree 1 is
    piecewise-linear data; above it, a piece's nodes must be its
    Chebyshev-Lobatto points, on which its polynomial is fitted.
    """

    xs: np.ndarray
    ys: np.ndarray
    support: tuple[float, float]
    degree: int = 1

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if np.any(self.ys < 0):
            raise ValueError("profile values must be non-negative")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("nodes must be strictly increasing")
        n = self.degree
        if len(self.xs) < 2 or (len(self.xs) - 1) % n:
            raise ValueError("need a whole number of pieces of `degree` + 1 nodes")
        self._knots = self.xs[::n]
        # Row i: piece i's coefficients of t^0..t^n, t = (x - knot_i) / width_i.
        nodes = n * np.arange(len(self._knots) - 1)[:, None] + np.arange(n + 1)
        self._coef = np.linalg.solve(np.vander(_lobatto(n), increasing=True),
                                     self.ys[nodes].T).T
        self._rows = np.column_stack([self._knots[:-1], np.diff(self._knots), self._coef])

    def __call__(self, x):
        """Value of the piece containing x, 0 outside: x's piece is the count
        of interior knots at or below it, and Horner reads the piece's row
        (knot, width, coefficients) gathered by one `take`."""
        x = np.asarray(x, dtype=float)
        knots = self._knots
        piece = np.zeros(x.shape, dtype=np.intp)
        for knot in knots[1:-1]:
            piece += x >= knot
        row = self._rows.take(piece, axis=0)
        # clipped, a point outside (NaN stays NaN) keeps t finite
        t = (x.clip(knots[0], knots[-1]) - row[..., 0]) / row[..., 1]
        value = row[..., -1]
        for k in range(self.degree + 1, 1, -1):
            value = value * t + row[..., k]
        return np.where((x >= knots[0]) & (x <= knots[-1]), value, 0.0)[()]

    def integral(self) -> float:
        """Exact integral, each piece's polynomial integrated term by term.

        On Chebyshev-Lobatto nodes this is Clenshaw-Curtis quadrature.
        """
        moments = 1.0 / np.arange(1, self.degree + 2)
        return float(np.diff(self._knots) @ (self._coef @ moments))


def _extreme_face_volume(P: VPolytope, axis: int, top: bool) -> float:
    """(d-1)-volume of P's boundary simplices in the extreme plane (0 if none)."""
    heights = P.vertices[:, axis]
    level = heights.max() if top else heights.min()
    on = np.abs(heights - level) <= geo.TAU_GEOM * P.scale()
    flat = P.facet_simplices[np.all(on[P.facet_simplices], axis=1)]
    pts = np.delete(P.vertices, axis, axis=1)[flat]
    edges = pts[:, 1:] - pts[:, :1]
    return float(np.abs(np.linalg.det(edges)).sum()) / math.factorial(P.dim - 1)


def _sample(P: VPolytope, axis: int, start: float | None = None) -> SliceProfile:
    """Exact profile of P from height `start` (default: its lowest) up.

    The knots are `start` and the vertex heights above it; each piece
    between consecutive knots gets its d Chebyshev-Lobatto nodes, cut in
    one `geo.sections` call, or at the extreme heights P's face there.
    """
    heights = P.vertices[:, axis]
    lo, hi = float(heights.min()), float(heights.max())
    start = lo if start is None else start
    knots = np.unique(np.append(heights[heights > start], start))
    degree = P.dim - 1
    xs = np.append((knots[:-1, None] + np.diff(knots)[:, None]
                    * _lobatto(degree)[:-1]).ravel(), hi)
    low, high = geo._open_range(P, axis)
    inside = (low < xs) & (xs < high)
    ys = np.empty(len(xs))
    ys[inside] = geo.sections(P, axis, xs[inside])
    ys[~inside] = [_extreme_face_volume(P, axis, top=(x > 0.5 * (lo + hi)))
                   for x in xs[~inside]]
    return SliceProfile(xs, ys, (start, hi), degree)


def slice_profile(P: VPolytope, axis: int = -1) -> SliceProfile:
    """Exact slice-volume profile of P along a coordinate axis."""
    return _sample(P, range(P.dim)[axis])


def polar_slice_profile(pb: pol.PolarBody, axis: int = -1) -> SliceProfile:
    """Slice profile of the polar body `pb.polar` along `axis`, on x >= 0.

    The profile of `slice_profile` restricted to the half x >= 0 that the
    harmonic checks read, with a knot at 0; the support is (0, top).  The
    polar always straddles 0: the facet normals of K positively span R^d.
    """
    P = pb.polar
    return _sample(P, range(P.dim)[axis], 0.0)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: bool
    status: str                 # "pass" | "violation"
    worst_slack: float
    witness: tuple = ()
    details: dict = field(default_factory=dict)


def _check_grid(p: SliceProfile, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """p's nodes and `n_samples` uniform heights over its support, kept where
    the height and p are positive, with p's values there."""
    xs = np.union1d(p.xs, np.linspace(*p.support, n_samples))
    vals = p(xs)
    keep = (xs > 0) & (vals > 0)
    return xs[keep], vals[keep]


def harmonic_hypothesis_check(f: SliceProfile, g: SliceProfile, h: SliceProfile,
                              n_samples: int = N_PROFILE_SAMPLES) -> CheckReport:
    """Check f(2zy/(z+y)) >= g(y)^{z/(z+y)} h(z)^{y/(z+y)} on grid pairs.

    y runs over g's grid and z over h's: a profile's nodes plus `n_samples`
    uniform heights over its support, BLOCK_ROWS values of y at a time.
    Slack / max f passes at >= -1e-7; the witness is np.argmin's on the grid.
    """
    ys, g_ys = _check_grid(g, n_samples)
    zs, h_zs = _check_grid(h, n_samples)
    if len(ys) == 0 or len(zs) == 0:
        raise ValueError("no positive grid pairs with positive profile values")
    Z, Z2, H = zs[None, :], 2.0 * zs[None, :], h_zs[None, :]
    top = float(np.max(f.ys))
    worst = None
    for r in range(0, len(ys), BLOCK_ROWS):
        Y = ys[r:r + BLOCK_ROWS, None]
        S = Z + Y
        lam = Z / S
        slack = (f(Z2 * Y / S) - g_ys[r:r + BLOCK_ROWS, None] ** lam * H ** (1.0 - lam)) / top
        k = int(np.argmin(slack))
        # Row-major first minimum over the blocks; a NaN, as argmin reads it, wins.
        if worst is None or not (slack.flat[k] >= worst[0] or math.isnan(worst[0])):
            worst = (float(slack.flat[k]), r + k // len(zs), k % len(zs))
    status = "pass" if worst[0] >= -1e-7 else "violation"
    return CheckReport(status == "pass", status, worst[0],
                       witness=(float(ys[worst[1]]), float(zs[worst[2]])),
                       details={"n_pairs": len(ys) * len(zs)})


def harmonic_conclusion_check(f: SliceProfile, g: SliceProfile, h: SliceProfile) -> CheckReport:
    """Check 1/int f <= (1/int g + 1/int h)/2 with the exact integrals.

    The margin (rhs - lhs)/rhs passes at >= -1e-6; `equality` is |margin| <= 1e-6.
    """
    If, Ig, Ih = f.integral(), g.integral(), h.integral()
    lhs = 1.0 / If
    rhs = 0.5 * (1.0 / Ig + 1.0 / Ih)
    margin = (rhs - lhs) / rhs
    status = "pass" if margin >= -1e-6 else "violation"
    return CheckReport(status == "pass", status, float(margin),
                       details={"integrals": (If, Ig, Ih),
                                "lhs": lhs, "rhs": rhs,
                                "equality": bool(abs(margin) <= 1e-6)})


def _harmonic_slack(a: float, m: float, b: float) -> float:
    """Slack of 1/m <= (1/a + 1/b) / 2, relative to 1/m."""
    return (0.5 * (1 / a + 1 / b) - 1 / m) * m


def half_volume_inequality_check(K_s: VPolytope, K_m: VPolytope, K_t: VPolytope,
                                 z_s, z_t, axis: int) -> CheckReport:
    """Exact check of the harmonic half-volume inequality.

    K_s, K_m and K_t are a shadow system's bodies at s, (s+t)/2 and t along
    the coordinate axis `axis`.  Verifies 1/B_+(mid) <= (1/B_+(s) + 1/B_+(t))/2
    and the B_- analogue at centers z_s, z_t and their midpoint (for K_m);
    slack >= -TOL_EXACT relative.
    """
    z_s, z_t = geo.as_vector(z_s), geo.as_vector(z_t)
    hv_s = pol.half_volumes(K_s, z_s, axis=axis)
    hv_t = pol.half_volumes(K_t, z_t, axis=axis)
    hv_m = pol.half_volumes(K_m, 0.5 * (z_s + z_t), axis=axis)
    worst = float(min(_harmonic_slack(hv_s.b_plus, hv_m.b_plus, hv_t.b_plus),
                      _harmonic_slack(hv_s.b_minus, hv_m.b_minus, hv_t.b_minus)))
    status = "pass" if worst >= -TOL_EXACT else "violation"
    return CheckReport(status == "pass", status, worst,
                       details={"b_plus": (hv_s.b_plus, hv_m.b_plus, hv_t.b_plus),
                                "b_minus": (hv_s.b_minus, hv_m.b_minus, hv_t.b_minus)})


@dataclass
class MidpointBoundReport:
    hypothesis: CheckReport
    conclusion: CheckReport
    half_volume: CheckReport
    midpoint_slack: float
    santalo_slack: float
    passed: bool
    balanced: tuple[float, float] = (0.0, 0.0)


def midpoint_bound_check(system: sh.ShadowSystem, s: float, t: float,
                         n_samples: int = N_PROFILE_SAMPLES) -> MidpointBoundReport:
    """Reconstruct the full midpoint-convexity chain on one system instance.

    Builds the bodies K_s, K_mid and K_t once (s < t, else ValueError),
    solves their Santalo points in one stacked call, balances the half-volume
    ratios at the mid body's height, then checks: the slice-profile
    hypothesis, its integrated conclusion, the exact half-volume inequality,
    and finally the midpoint bound 1/|K_mid^*| <= (1/|K_s^*| + 1/|K_t^*|)/2
    through the solved polar volumes.  Any broken link localizes a geometry
    bug.  `n_samples` is the number of uniform heights in the hypothesis
    check's grids.
    """
    if not s < t:
        raise ValueError("need s < t")
    axis = system.axis
    K_s = sh.body_at(system, s)
    K_t = sh.body_at(system, t)
    K_m = sh.body_at(system, 0.5 * (s + t))
    res_s, res_m, res_t = san.santalo_points([K_s, K_m, K_t])
    C = np.delete(res_m.point, axis)
    a = float(res_m.point[axis])
    a_s, a_t = san.balanced_points(K_s, K_m, K_t, a, C, axis)

    G_s = geo.embed_point(C, a_s, axis)
    G_t = geo.embed_point(C, a_t, axis)
    pb_s = pol.polar(K_s, G_s)
    pb_t = pol.polar(K_t, G_t)
    prof_g = polar_slice_profile(pb_s, axis=axis)
    prof_h = polar_slice_profile(pb_t, axis=axis)
    prof_f = polar_slice_profile(res_m.polar, axis=axis)
    hyp = harmonic_hypothesis_check(prof_f, prof_g, prof_h, n_samples)
    conc = harmonic_conclusion_check(prof_f, prof_g, prof_h)
    half = half_volume_inequality_check(K_s, K_m, K_t, G_s, G_t, axis)

    mid_slack = _harmonic_slack(pb_s.polar_volume, res_m.polar_volume, pb_t.polar_volume)
    sant_slack = _harmonic_slack(res_s.polar_volume, res_m.polar_volume, res_t.polar_volume)
    passed = (hyp.passed and conc.passed and half.passed
              and mid_slack >= -TOL_EXACT and sant_slack >= -TOL_EXACT)
    return MidpointBoundReport(hyp, conc, half, float(mid_slack),
                               float(sant_slack), passed, (a_s, a_t))


def equality_family(template, B: float,
                    C: float) -> tuple[SliceProfile, SliceProfile, SliceProfile]:
    """Equality-case triple g(Bx) = h(Cx) = f(2BCx/(B+C)) from one template.

    The template is any callable on [0, 1], sampled at 513 uniform points
    to degree-1 profile data of unit integral; the returned profiles make
    the harmonic conclusion an equality up to rounding.
    """
    xs = np.linspace(0.0, 1.0, 513)
    ys = np.array([template(x) for x in xs])
    ys = ys / np.trapezoid(ys, xs)
    M = 2.0 * B * C / (B + C)
    g = SliceProfile(B * xs, ys, (0.0, B))
    h = SliceProfile(C * xs, ys, (0.0, C))
    f = SliceProfile(M * xs, ys, (0.0, M))
    return f, g, h


# ---------------------------------------------------------------------------
# Extreme-ray decomposition of the concave cone
# ---------------------------------------------------------------------------

def in_cone(f: SliceProfile) -> bool:
    """Degree-1 f is concave and vanishes at both ends of its nodes."""
    scale = max(1.0, float(np.max(f.ys)))
    if f.ys[0] > TOL_EXACT * scale or f.ys[-1] > TOL_EXACT * scale:
        return False
    slopes = np.diff(f.ys) / np.diff(f.xs)
    return bool(np.all(np.diff(slopes) <= 10 * TOL_EXACT * scale / (f.xs[-1] - f.xs[0])))


def extreme_ray_decompose(f: SliceProfile, a: float) -> tuple[SliceProfile, SliceProfile]:
    """Split degree-1 f = g + h inside the cone, g affine past the breakpoint a.

    Works on the interval rescaled to [0, 1]:
        g(x) = f(x) - x (f(a) + (1-a) f'_L(a))   on [0, a],
        g(x) = (1 - x)(f(a) - a f'_L(a))          on [a, 1],
    and h = f - g, both on f's nodes with a added.  For f already spanning
    an extreme ray the pieces are proportional to f (the decomposition
    degenerates).
    """
    if not in_cone(f):
        raise NotInCone("f is not a concave endpoint-vanishing function")
    alpha, beta = f.xs[0], f.xs[-1]
    if not alpha < a < beta:
        raise NotInCone("breakpoint must be interior to the support")
    xs = np.union1d(f.xs, a)
    ys = f(xs)
    i = int(np.searchsorted(xs, a))  # xs[i] == a
    slope = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])  # f'_L(a)
    u = (xs - alpha) / (beta - alpha)
    g_ys = np.where(xs <= a, ys - u * (ys[i] + (beta - a) * slope),
                    (1 - u) * (ys[i] - (a - alpha) * slope))
    # 0 <= g <= f on the cone; on an extreme ray one piece is 0 up to rounding.
    g_ys = np.clip(g_ys, 0.0, ys)
    return SliceProfile(xs, g_ys, f.support), SliceProfile(xs, ys - g_ys, f.support)
