"""Santalo point solver and the balanced points of the half-volume ratio.

The Santalo point S(K) is the unique interior minimizer of z -> |K^{*z}|;
it is characterized by the polar's centroid sitting at the polarity origin.
The objective's gradient is (d+1) int_{K^{*z}} y dy and its Hessian is
(d+1)(d+2) int_{K^{*z}} y y^T dy, both moments of the polar.  The solver is
damped Newton from the vertex mean, with Armijo backtracking and a step cap
that keeps the iterate well inside the body, where the objective is finite.
Newton steps are affine-invariant, so no preconditioning is needed.
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

    Starts at `start` when it is strictly interior (warm starts in sweeps),
    else at the vertex mean.  Returns the last iterate with a non-converged
    flag when the iteration cap is reached or the line search stalls.
    """
    h = K.halfspaces
    z = None if start is None else geo.as_vector(start)
    if z is None or np.min(h.slack(z)) <= geo.TAU_GEOM * K.scale():
        z = K.vertices.mean(axis=0)
    pb = pol.polar(K, z)
    iterations = 0
    while True:
        f, c, M = pb.polar_volume, pb.polar_centroid, pb.polar_second_moment
        res = _residual(pb)
        if res <= tol_sant or iterations == max_iterations:
            break
        iterations += 1
        # Newton step -H^{-1} grad with grad = (d+1) f c, H = (d+1)(d+2) f M.
        direction = -np.linalg.solve(M, c) / (K.dim + 2)
        slope = (K.dim + 1) * f * float(c @ direction)
        # Armijo cannot see a decrease this small through f's rounding noise.
        flat = -slope <= 1e-12 * f
        # Cap the step so the iterate keeps facet slack >= 0.1 x current min.
        along = h.normals @ direction
        with np.errstate(divide="ignore"):
            caps = (pb.slack - 0.1 * np.min(pb.slack)) / along
        t = min(1.0, float(np.min(caps[along > 0], initial=math.inf)))
        for _ in range(60):
            try:
                pb_new = pol.polar(K, z + t * direction)
            except pol.CenterNotInterior:
                t *= 0.5
                continue
            if (pb_new.polar_volume <= f + 1e-4 * t * slope  # Armijo
                    or flat and _residual(pb_new) < res):
                break
            t *= 0.5
        else:
            # Line search exhausted: the centroid residual is the verdict.
            break
        z, pb = z + t * direction, pb_new
    return SantaloResult(z, pb.polar_volume, res, iterations, res <= tol_sant, pb)


def _residual(pb: pol.PolarBody) -> float:
    """Polar-centroid norm normalized by the polar diameter (scale-free)."""
    return float(np.linalg.norm(pb.polar_centroid)) / geo.diameter(pb.polar)


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

