"""Functional-inequality checks on slice profiles of polar bodies.

The machinery here reconstructs, on concrete polytopes, the inequality
chain behind the midpoint convexity of 1/|K_t^*|:

  hypothesis:   f(2zy/(z+y)) >= g(y)^{z/(z+y)} h(z)^{y/(z+y)}  for y, z > 0
  conclusion:   1/int f  <=  (1/int g + 1/int h) / 2
  half-volume:  1/B_+(mid) <= (1/B_+(s) + 1/B_+(t)) / 2   (same for B_-)
  midpoint:     1/|K_mid^*| <= (1/|K_s^*| + 1/|K_t^*|) / 2

Profiles are sampled with exact section volumes (augmented by the polar's
vertex heights, so 2D profiles are exact piecewise-linear data); only the
two integrals of the conclusion use quadrature.  Half-volumes are exact
polytope clips, never quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import polarity as pol
from . import santalo as san
from . import shadow as sh
from .errors import EmptySection
from .geometry import VPolytope

N_PROFILE_SAMPLES = 257


@dataclass
class SliceProfile:
    """Sampled one-dimensional profile x -> (d-1)-volume of a slice.

    `mid_ys`, when present, holds exact values at the midpoints of
    consecutive `xs`; profiles without it are piecewise-linear data.
    """

    xs: np.ndarray
    ys: np.ndarray
    support: tuple[float, float]
    mid_ys: np.ndarray | None = None

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if np.any(self.ys < 0):
            raise ValueError("profile values must be non-negative")

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys, left=0.0, right=0.0)

    def integral(self) -> float:
        return float(np.trapezoid(self.ys, self.xs))

    def _mids(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid midpoints and the profile's values there."""
        mids = 0.5 * (self.xs[:-1] + self.xs[1:])
        return mids, self(mids) if self.mid_ys is None else self.mid_ys

    def refined_integral(self) -> tuple[float, float]:
        """(integral on midpoint-doubled grid, relative change vs base grid).

        Without exact midpoint values the change is zero by construction:
        the profile is already exact piecewise-linear data.
        """
        mids, vals = self._mids()
        xs2 = np.empty(2 * len(self.xs) - 1)
        ys2 = np.empty_like(xs2)
        xs2[0::2], xs2[1::2] = self.xs, mids
        ys2[0::2], ys2[1::2] = self.ys, vals
        i2 = float(np.trapezoid(ys2, xs2))
        i1 = self.integral()
        return i2, abs(i2 - i1) / max(abs(i2), 1e-300)

    def interpolation_defect(self) -> float:
        """Max |exact - interpolated| at grid midpoints (0 without mid_ys)."""
        mids, vals = self._mids()
        return float(np.max(np.abs(vals - self(mids)))) if len(mids) else 0.0


def _extreme_face_volume(P: VPolytope, axis: int, top: bool) -> float:
    """(d-1)-volume of the face at the extreme height (0 for a point/edge)."""
    heights = P.vertices[:, axis]
    level = heights.max() if top else heights.min()
    on = np.abs(heights - level) <= 1e-9 * max(1.0, P.scale())
    pts = P.vertices[on][:, [i for i in range(P.dim) if i != axis]]
    if len(pts) < P.dim:
        return 0.0
    if P.dim == 2:
        return float(pts.max() - pts.min())
    try:
        face, _ = geo.convex_hull(pts)
    except geo.DegenerateInput:
        return 0.0
    return geo.volume(face)


def _sample(P: VPolytope, axis: int, n_samples: int, extra=()) -> SliceProfile:
    """Exact profile of P on `n_samples` uniform heights, every vertex height
    and `extra`; each grid point and each grid midpoint is evaluated once."""
    heights = P.vertices[:, axis]
    lo, hi = float(heights.min()), float(heights.max())

    def evaluate(x: float) -> float:
        if x <= lo or x >= hi:
            if x < lo or x > hi:
                return 0.0
            return _extreme_face_volume(P, axis, top=(x >= hi))
        try:
            return geo.volume(geo.section(P, axis, x))
        except EmptySection:
            return _extreme_face_volume(P, axis, top=(x > 0.5 * (lo + hi)))

    xs = np.unique(np.concatenate([np.linspace(lo, hi, n_samples), heights, extra]))
    mids = 0.5 * (xs[:-1] + xs[1:])
    return SliceProfile(xs, np.array([evaluate(x) for x in xs]), (lo, hi),
                        np.array([evaluate(x) for x in mids]))


def slice_profile(P: VPolytope, axis: int = -1,
                  n_samples: int = N_PROFILE_SAMPLES) -> SliceProfile:
    """Exact-sampled slice-volume profile of P along a coordinate axis.

    The grid is `n_samples` uniform heights augmented with every vertex
    height (the breakpoints of the profile), so 2D profiles interpolate
    exactly and 3D profiles are piecewise-quadratic between samples.
    """
    return _sample(P, range(P.dim)[axis], n_samples)


def positive_part(profile: SliceProfile) -> SliceProfile:
    """Restriction to x >= 0 (the grid is assumed to contain 0)."""
    keep = profile.xs >= 0
    mid_ys = None if profile.mid_ys is None else profile.mid_ys[keep[:-1]]
    return SliceProfile(profile.xs[keep], profile.ys[keep],
                        (0.0, profile.support[1]), mid_ys)


def polar_slice_profile(K: VPolytope, center, axis: int = -1,
                        n_samples: int = N_PROFILE_SAMPLES) -> SliceProfile:
    """Slice profile of the polar body K^{*center} along `axis`.

    The grid of `slice_profile` with height 0 added.
    """
    P = pol.polar(K, center).polar
    prof = _sample(P, range(P.dim)[axis], n_samples, [0.0])
    if not prof.support[0] < 0 < prof.support[1]:
        raise EmptySection("polar does not straddle zero height")
    return prof


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: bool
    status: str                 # "pass" | "inconclusive" | "violation"
    worst_slack: float
    witness: tuple = ()
    details: dict = field(default_factory=dict)


def harmonic_hypothesis_check(f: SliceProfile, g: SliceProfile, h: SliceProfile,
                              grid=None, tol: float = 1e-7) -> CheckReport:
    """Check f(2zy/(z+y)) >= g(y)^{z/(z+y)} h(z)^{y/(z+y)} on grid pairs.

    Slack is normalized by max f.  Negative slacks smaller in magnitude than
    the interpolation-error estimate are classified inconclusive.
    """
    ys = np.asarray(grid, dtype=float) if grid is not None else g.xs
    zs = np.asarray(grid, dtype=float) if grid is not None else h.xs
    ys = ys[(ys > 0) & (g(ys) > 0)]
    zs = zs[(zs > 0) & (h(zs) > 0)]
    if len(ys) == 0 or len(zs) == 0:
        raise ValueError("no positive grid pairs with positive profile values")
    Y, Z = np.meshgrid(ys, zs, indexing="ij")
    lam = Z / (Z + Y)
    m = 2.0 * Z * Y / (Z + Y)
    lhs = f(m)
    rhs = g(Y) ** lam * h(Z) ** (1.0 - lam)
    scale = float(np.max(f.ys))
    slack = (lhs - rhs) / scale
    worst = float(np.min(slack))
    i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    err = f.interpolation_defect() / scale
    if worst >= -tol:
        status = "pass"
    elif abs(worst) <= err:
        status = "inconclusive"
    else:
        status = "violation"
    return CheckReport(status == "pass", status, worst,
                       witness=(float(Y[i, j]), float(Z[i, j])),
                       details={"n_pairs": int(slack.size),
                                "interp_error": err})


def harmonic_conclusion_check(f: SliceProfile, g: SliceProfile, h: SliceProfile,
                              tol: float = 1e-6) -> CheckReport:
    """Check 1/int f <= (1/int g + 1/int h)/2 with trapezoid integration.

    The tolerance is relative and is widened by the integration-error
    estimate obtained from midpoint-refined grids.
    """
    If, ef = f.refined_integral()
    Ig, eg = g.refined_integral()
    Ih, eh = h.refined_integral()
    lhs = 1.0 / If
    rhs = 0.5 * (1.0 / Ig + 1.0 / Ih)
    err = ef + eg + eh
    margin = (rhs - lhs) / rhs
    allowed = tol + err
    if margin >= -allowed:
        status = "pass" if margin >= 0 else "inconclusive"
    else:
        status = "violation"
    return CheckReport(status != "violation", status, float(margin),
                       details={"integrals": (If, Ig, Ih),
                                "lhs": lhs, "rhs": rhs,
                                "integration_error": err,
                                "equality": bool(abs(margin) <= allowed)})


def half_volume_inequality_check(system: sh.ShadowSystem, s: float, t: float,
                                 a_s: float, a_t: float, C,
                                 tol: float = 1e-9) -> CheckReport:
    """Exact-clip check of the harmonic half-volume inequality.

    Verifies 1/B_+(mid) <= (1/B_+(s) + 1/B_+(t))/2 and the B_- analogue at
    centers (C, a_s), (C, a_t) and their midpoint; slack >= -tol relative.
    """
    C = geo.as_vector(C)
    axis = san._system_axis(system)
    K_s = sh.body_at(system, s)
    K_t = sh.body_at(system, t)
    K_m = sh.body_at(system, 0.5 * (s + t))
    a_m = 0.5 * (a_s + a_t)
    hv_s = pol.half_volumes(K_s, geo.embed_point(C, a_s, axis), axis=axis)
    hv_t = pol.half_volumes(K_t, geo.embed_point(C, a_t, axis), axis=axis)
    hv_m = pol.half_volumes(K_m, geo.embed_point(C, a_m, axis), axis=axis)
    slack_plus = 0.5 * (1 / hv_s.b_plus + 1 / hv_t.b_plus) - 1 / hv_m.b_plus
    slack_minus = 0.5 * (1 / hv_s.b_minus + 1 / hv_t.b_minus) - 1 / hv_m.b_minus
    rel_plus = slack_plus * hv_m.b_plus
    rel_minus = slack_minus * hv_m.b_minus
    worst = float(min(rel_plus, rel_minus))
    status = "pass" if worst >= -tol else "violation"
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
                         n_samples: int = N_PROFILE_SAMPLES,
                         tol: float = 1e-9) -> MidpointBoundReport:
    """Reconstruct the full midpoint-convexity chain on one system instance.

    Solves the mid-body Santalo point, balances the half-volume ratios at
    its height, then checks: the slice-profile hypothesis, its integrated
    conclusion, the exact half-volume inequality, and finally the midpoint
    bound 1/|K_mid^*| <= (1/|K_s^*| + 1/|K_t^*|)/2 through the solved polar
    volumes.  Any broken link localizes a geometry bug.
    """
    axis = san._system_axis(system)
    K_s = sh.body_at(system, s)
    K_t = sh.body_at(system, t)
    K_m = sh.body_at(system, 0.5 * (s + t))
    res_m = san.santalo_point(K_m)
    C = np.delete(res_m.point, axis)
    a = float(res_m.point[axis])
    a_s, a_t = san.balanced_points(system, s, t, a, C)

    G_s = geo.embed_point(C, a_s, axis)
    G_t = geo.embed_point(C, a_t, axis)
    prof_g = polar_slice_profile(K_s, G_s, axis=axis, n_samples=n_samples)
    prof_h = polar_slice_profile(K_t, G_t, axis=axis, n_samples=n_samples)
    prof_f = polar_slice_profile(K_m, res_m.point, axis=axis, n_samples=n_samples)
    hyp = harmonic_hypothesis_check(positive_part(prof_f), positive_part(prof_g),
                                    positive_part(prof_h))
    conc = harmonic_conclusion_check(positive_part(prof_f), positive_part(prof_g),
                                     positive_part(prof_h))
    half = half_volume_inequality_check(system, s, t, a_s, a_t, C)

    pv_s_G = pol.polar(K_s, G_s).polar_volume
    pv_t_G = pol.polar(K_t, G_t).polar_volume
    res_s = san.santalo_point(K_s)
    res_t = san.santalo_point(K_t)
    mid_slack = (0.5 * (1 / pv_s_G + 1 / pv_t_G) - 1 / res_m.polar_volume) \
        * res_m.polar_volume
    sant_slack = (0.5 * (1 / res_s.polar_volume + 1 / res_t.polar_volume)
                  - 1 / res_m.polar_volume) * res_m.polar_volume
    passed = (hyp.status != "violation" and conc.status != "violation"
              and half.passed and mid_slack >= -tol and sant_slack >= -tol)
    return MidpointBoundReport(hyp, conc, half, float(mid_slack),
                               float(sant_slack), passed, (a_s, a_t))


def equality_family(template, B: float, C: float,
                    n: int = 513) -> tuple[SliceProfile, SliceProfile, SliceProfile]:
    """Equality-case triple g(Bx) = h(Cx) = f(2BCx/(B+C)) from one template.

    The template is any callable on [0, 1] with unit integral (sampled to
    piecewise-linear data here); the returned profiles make the harmonic
    conclusion an equality up to quadrature error.
    """
    xs = np.linspace(0.0, 1.0, n)
    ys = np.array([template(x) for x in xs])
    ys = ys / np.trapezoid(ys, xs)
    M = 2.0 * B * C / (B + C)
    g = SliceProfile(B * xs, ys, (0.0, B))
    h = SliceProfile(C * xs, ys, (0.0, C))
    f = SliceProfile(M * xs, ys, (0.0, M))
    return f, g, h
