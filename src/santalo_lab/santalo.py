"""Santalo point solver and the balanced points of the half-volume ratio.

The Santalo point S(K) is the unique interior minimizer of z -> |K^{*z}|;
it is characterized by the polar's centroid sitting at the polarity origin.
The objective's gradient is (d+1) int_{K^{*z}} y dy and its Hessian is
(d+1)(d+2) int_{K^{*z}} y y^T dy, both moments of the polar.  The solver is
damped Newton from the vertex mean, with Armijo backtracking and a step cap
that keeps the iterate well inside the body, where the objective is finite.
Newton steps are affine-invariant, so no preconditioning is needed.
`santalo_points` runs it on a stack of bodies at once, each row on its own
steps, so a sweep's rows share every numpy call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import geometry as geo
from . import polarity as pol
from .errors import BracketFailure
from .geometry import VPolytope

TOL_SANT = 1e-8
MAX_ITERATIONS = 500


@dataclass
class SantaloResult:
    point: np.ndarray
    polar_volume: float
    centroid_residual: float
    iterations: int
    converged: bool
    polar: pol.PolarBody  # the polar about `point`, from the last iterate


def santalo_point(K: VPolytope, tol_sant: float = TOL_SANT,
                  max_iterations: int = MAX_ITERATIONS,
                  start=None) -> SantaloResult:
    """Minimize z -> |K^{*z}| over the interior of K by damped Newton.

    Starts at `start` when it is strictly interior, else at the vertex mean;
    a stack of one for `santalo_points`.
    """
    return santalo_points([K], None if start is None else [start],
                          tol_sant, max_iterations)[0]


def santalo_points(bodies, starts=None, tol_sant: float = TOL_SANT,
                   max_iterations: int = MAX_ITERATIONS) -> list[SantaloResult]:
    """Santalo points of bodies of one dimension, in one stacked Newton pass.

    Row r starts at starts[r] if given and strictly interior, else at the
    vertex mean (CenterNotInterior if that is not), and steps on its own
    until its residual is at most `tol_sant`, or non-converged at the
    iteration cap or a stalled line search.  Trials evaluate only the polar
    volume.  Rows are padded by repeating facet 0 and by zero-volume fan
    simplices, which keep each row's slacks, step cap and moments.
    """
    d = bodies[0].dim
    hs = [K.halfspaces for K in bodies]
    N = _padded([h.normals for h in hs], repeat_first=True)
    b = _padded([h.offsets for h in hs], repeat_first=True)
    tau = geo.TAU_GEOM * np.array([K.scale() for K in bodies])
    mean = np.array([K.vertices.mean(axis=0) for K in bodies])
    z = mean.copy() if starts is None else np.array(
        [c if x is None else geo.as_vector(x) for c, x in zip(mean, starts)])
    s = pol._slack(N, b, z)
    if starts is not None:  # a start too close to the boundary: the mean
        redo = (s.min(axis=1) <= tau) & (z != mean).any(axis=1)
        z[redo] = mean[redo]
        s[redo] = pol._slack(N[redo], b[redo], z[redo])
    if np.any(s.min(axis=1) <= tau):
        raise pol.CenterNotInterior("polarity center too close to the boundary")
    fans = [pol._polar_fan(K, z[r], s[r, :h.n_facets])
            for r, (K, h) in enumerate(zip(bodies, hs))]
    fan = _padded([F for F, _ in fans], repeat_first=False)
    dets = _padded([D for _, D in fans], repeat_first=False)
    incidence = geo._incidence(fan, N.shape[1])
    at = lambda fan: fan + N.shape[1] * np.arange(len(fan))[:, None, None]  # for `_cones`

    def measure(slack):
        """Polar vertices, moments and residuals about the working rows' centers."""
        y = N / slack[..., None]
        vol, cen, second = geo._fan_moments(y, pol._cones(slack, corners, dets), incidence)
        sq = (y * y).sum(axis=-1)  # the diameter from the Gram matrix
        gaps = sq[:, :, None] + sq[:, None] - 2 * y @ y.transpose(0, 2, 1)
        return y, vol, cen, second, np.sqrt((cen * cen).sum(axis=1) / gaps.max(axis=(1, 2)))

    corners = at(fan)
    y, vol, cen, second, res = measure(s)
    body = np.arange(len(bodies))  # the body of each working row
    iterations = np.zeros(len(bodies), dtype=int)
    stalled = np.zeros(len(bodies), dtype=bool)
    results = [None] * len(bodies)
    while True:
        done = (res <= tol_sant) | (iterations == max_iterations) | stalled
        if done.any():
            for r in np.flatnonzero(done):
                K, h, (F, _) = bodies[body[r]], hs[body[r]], fans[body[r]]
                pb = pol.PolarBody(K, z[r], VPolytope(y[r, :h.n_facets], simplices=F),
                                   float(vol[r]), cen[r], second[r])
                results[body[r]] = SantaloResult(z[r], pb.polar_volume, float(res[r]),
                                                 int(iterations[r]), bool(res[r] <= tol_sant), pb)
            if done.all():
                return results
            # only the rows that go on stay in the stack
            N, b, tau, fan, dets, incidence, body, iterations, z, s, y, vol, cen, second, res = (
                a[~done] for a in (N, b, tau, fan, dets, incidence, body, iterations,
                                   z, s, y, vol, cen, second, res))
            corners = at(fan)
        iterations += 1
        # Newton step -H^{-1} grad with grad = (d+1) f c, H = (d+1)(d+2) f M.
        step = np.linalg.solve(second, cen[..., None])[..., 0] / -(d + 2)
        slope = (d + 1) * vol * (cen * step).sum(axis=1)
        # Armijo cannot see a decrease this small through f's rounding noise.
        tiny = slope >= -1e-12 * vol
        # Cap the step so the iterate keeps facet slack >= 0.1 x current min.
        room = s - 0.1 * s.min(axis=1, keepdims=True)
        t = 1.0 / np.maximum(1.0, ((N @ step[..., None])[..., 0] / room).max(axis=1))
        searching, armijo = np.ones(len(z), dtype=bool), 1e-4 * slope
        for _ in range(60):
            z_try = z + t[:, None] * step
            s_try = pol._slack(N, b, z_try)
            inside = searching & (s_try.min(axis=1) > tau)  # else halve
            s_try = np.where(inside[:, None], s_try, s)
            trial = pol._cones(s_try, corners, dets).sum(axis=1)
            ok = inside & (trial <= vol + t * armijo)  # Armijo
            if tiny.any() and (late := inside & ~ok & tiny).any():
                ok |= late & (measure(s_try)[-1] < res)  # it lowers the residual
            z[ok], s[ok] = z_try[ok], s_try[ok]
            searching &= ~ok
            if not searching.any():
                break
            t[searching] *= 0.5
        stalled = searching  # line search exhausted: the residual is the verdict
        y, vol, cen, second, res = measure(s)  # stalled rows: as they were


def _padded(arrays, repeat_first: bool) -> np.ndarray:
    """One stack of arrays, each padded to the longest with its row 0 or 0s."""
    if len(arrays) == 1:
        return arrays[0][None]
    sizes = np.array([len(a) for a in arrays])
    start = np.cumsum(sizes) - sizes
    flat = np.concatenate(arrays + [np.zeros_like(arrays[0][:1])])
    cols = np.arange(sizes.max())
    fill = start[:, None] if repeat_first else len(flat) - 1
    return flat[np.where(cols < sizes[:, None], start[:, None] + cols, fill)]


def _log_ratio(K: VPolytope, C, v: float, axis: int) -> float:
    hv = pol.half_volumes(K, geo.embed_point(C, v, axis), axis=axis)
    if hv.diverged or hv.b_plus < pol.TAU_VOL:
        raise BracketFailure("half volume underflow at an interior probe")
    return math.log(hv.b_plus) - math.log(hv.b_minus)


def balanced_points(K_s: VPolytope, K_m: VPolytope, K_t: VPolytope, a: float,
                    C, axis: int) -> tuple[float, float]:
    """Heights (a_s, a_t) with (a_s+a_t)/2 = a and equal half-volume ratios.

    K_s, K_m and K_t are a shadow system's bodies at s, (s+t)/2 and t along
    the coordinate axis `axis`; (C, a) must be strictly inside K_m.
    Found by Brent's method on rho(v) = log lambda_s(v) - log lambda_t(2a - v)
    over a sign-change bracket inside its open definition interval; rho is
    negative at the left end and positive at the right end, so a sign change
    is guaranteed.  Brent's method keeps the bracket and does not assume
    monotonicity.  Raises BracketFailure when no sign change is found after
    endpoint refinement (upstream tolerance breach).
    """
    C = geo.as_vector(C)
    # The three bodies share their projection along the axis, so one
    # interiority check (through K_m's chord) covers all of them.
    alpha_m, beta_m = geo.chord(K_m, C, axis=axis)
    alpha_s, beta_s = geo._vertical_extent(K_s, C, axis)
    alpha_t, beta_t = geo._vertical_extent(K_t, C, axis)
    span = max(beta_m - alpha_m, geo.TAU_GEOM)
    if not (alpha_m + geo.TAU_GEOM * span < a < beta_m - geo.TAU_GEOM * span):
        raise ValueError("a must be strictly inside the mid-body chord")
    lo = max(alpha_s, 2 * a - beta_t)
    hi = min(beta_s, 2 * a - alpha_t)
    if hi - lo <= geo.TAU_GEOM * span:
        raise BracketFailure("empty definition interval for rho")

    @functools.cache  # brentq re-evaluates the bracket ends first
    def rho(v: float) -> float:
        return (_log_ratio(K_s, C, v, axis)
                - _log_ratio(K_t, C, 2 * a - v, axis))

    width = hi - lo
    v_lo = v_hi = None
    delta = 1e-3
    while delta > 1e-13:
        lo_probe, hi_probe = lo + delta * width, hi - delta * width
        try:
            r_lo, r_hi = rho(lo_probe), rho(hi_probe)
        except BracketFailure:
            delta *= 10
            if delta >= 0.5:
                raise
            continue
        if r_lo < 0 < r_hi:
            v_lo, v_hi = lo_probe, hi_probe
            break
        if r_lo >= 0 and r_hi > 0 or r_lo < 0 and r_hi <= 0:
            delta *= 0.1
            continue
        raise BracketFailure("rho has inverted signs at the interval ends")
    if v_lo is None:
        raise BracketFailure("no sign change after endpoint refinement")

    xtol = 1e-15 * max(1.0, abs(v_lo), abs(v_hi))
    v = brentq(rho, v_lo, v_hi, xtol=xtol, disp=False)
    return v, 2 * a - v

