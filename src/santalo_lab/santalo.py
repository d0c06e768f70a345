"""Santalo point solver and the balanced points of the half-volume ratio.

The Santalo point S(K) is the unique interior minimizer of z -> |K^{*z}|;
it is characterized by the polar's centroid sitting at the polarity origin.
The solver is damped Newton on f(z) = log |K^{*z}|, the universal barrier of
K (Nesterov and Nemirovski 1994, sec. 2.5), from the vertex mean or a given
start (a campaign trial starts at the centroid).  f is self-concordant with
constant 2 (Lee and Yue, arXiv:1809.03011), so the steps need no line search
and the affine-invariant Newton decrement is the stopping test (Nesterov,
Introductory Lectures, 2004, sec. 4.1.5).  `santalo_stack` runs it on
stacked arrays of facets, fans and starts, the rows on one step count, so a
sweep's rows share every numpy call; `santalo_points` fills them from bodies.
Balanced points take one half-volume probe per end body
(`polarity._half_volume_probe`).
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

    Starts at `start`, else at the vertex mean, which must be strictly
    interior (CenterNotInterior); a stack of one for `santalo_points`.
    """
    return santalo_points([K], [start], tol_sant, max_iterations)[0]


def santalo_points(bodies, starts=None, tol_sant: float = TOL_SANT,
                   max_iterations: int = MAX_ITERATIONS) -> list[SantaloResult]:
    """Santalo points of bodies of one dimension, in one `santalo_stack` call.

    Row r starts at starts[r] if given, else at the vertex mean; a start
    that is not strictly interior raises CenterNotInterior.
    """
    stacks = [_body_stack(K, None if starts is None else starts[r])
              for r, K in enumerate(bodies)]
    out = santalo_stack(*_joined(stacks), tol_sant, max_iterations)
    return [SantaloResult(out.point[r], float(out.polar_volume[r]), float(out.residual[r]),
                          int(out.iterations[r]), bool(out.converged[r]),
                          pol.PolarBody(K, out.point[r],
                                        pol._polar_body(K, out.point[r],
                                                        out.y[r, :K.n_facets], fan[0]),
                                        float(out.polar_volume[r]), out.centroid[r],
                                        out.second[r]))
            for r, (K, (_, _, fan, *_)) in enumerate(zip(bodies, stacks))]


def _body_stack(K: VPolytope, start=None) -> tuple:
    """K as a solver stack of one row (N, b, fan, D, tau, z, s), from `start`
    or else from the vertex mean, which must be strictly interior, as for
    `polarity.polar` (CenterNotInterior)."""
    z, s = pol._check_interior(K, K.vertices.mean(axis=0) if start is None else start)
    fan, D = K._polar_fan
    return (K.normals[None], K.offsets[None], fan[None], D[None],
            geo.TAU_GEOM * np.array([K.scale()]), z[None], s[None])


def _joined(stacks) -> list:
    """Solver stacks (N, b, fan, D, tau, z, s) as one: rows padded to the
    most facets by repeating facet 0 and to the largest fan by zero-volume
    simplices, which keep each row's slacks, steps and moments."""
    if len(stacks) == 1:
        return stacks[0][:7]
    return [_padded([x[k] for x in stacks], repeat_first=k not in (2, 3)) for k in range(7)]


@dataclass
class StackSolve:
    """Row r of a `santalo_stack` pass: its last iterate, the polar there
    (vertices y, padded like the normals; volume, centroid, second moment),
    residual and Newton steps."""

    point: np.ndarray
    y: np.ndarray
    polar_volume: np.ndarray
    centroid: np.ndarray
    second: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def santalo_stack(N, b, fan, D, tau, z, s, tol_sant: float = TOL_SANT,
                  max_iterations: int = MAX_ITERATIONS) -> StackSolve:
    """Damped Newton on f = log |K^{*z}|, on stacked rows.

    Row r is the polytope {x : N[r] x <= b[r]} with its polar fan fan[r]
    (facet indices) and D_T = D[r] (`VPolytope._polar_fan`), started at z[r]
    with facet slacks s[r] > tau[r] (`_body_stack` checks).  grad f = (d+1) c
    and the Hessian is (d+1)(d+2) M - (d+1)^2 c c^T, from the polar's
    centroid c and second moment M.  A row takes the Newton step whole while
    its decrement lambda <= 2/3, else times 1 / (1 + lambda); f falls by at
    least lambda^2 + lambda + log(1 - lambda) or lambda - log(1 + lambda).
    The rows step together; a row retires, with the step count, once lambda
    <= tol_sant, or non-converged at its last interior iterate: at the cap,
    or on rounding, when a step would leave the interior (a slack at most
    tau[r]) or a lambda below 1/3 did not fall (lambda' <= (lambda / (1 -
    lambda))^2), and leaves the stack.  Its residual |c| / diam K^{*z} <=
    sqrt((d+2)/(d+1)) lambda is for the record.
    """
    R, d = z.shape
    z = z.copy()  # no result aliases a caller's start
    body, out = np.arange(R), None  # the row of each working row; the result arrays
    incidence = geo._incidence(fan, N.shape[1])
    at = lambda fan: fan + N.shape[1] * np.arange(len(fan))[:, None, None]  # for `_cones`

    def measure(slack):
        """Polar vertices and moments about the working rows' centers."""
        y = N / slack[..., None]
        return (y, *geo._fan_moments(y, pol._cones(slack, corners, D), incidence))

    corners = at(fan)
    y, vol, cen, second = measure(s)
    k, last = 0, np.full(R, np.inf)  # the common step count; each row's last lambda
    while True:
        # the Newton step -Hess^{-1} grad of f, with the (d+1)s cancelled
        step = np.linalg.solve((d + 2) * second - (d + 1) * cen[:, :, None] * cen[:, None],
                               -cen[..., None])[..., 0]
        lam = np.sqrt((d + 1) * -(cen * step).sum(axis=1))
        z_next = z + step / np.where(lam > 2 / 3, 1 + lam, 1.0)[:, None]
        s_next = pol._slack(N, b, z_next)
        done = ((lam <= tol_sant) | (k == max_iterations) | ((last < 1 / 3) & (lam >= last))
                | ~(s_next.min(axis=1) > tau))  # not `<=`: a NaN slack leaves too
        if done.any():
            now = (z, y, vol, cen, second, np.full(len(z), k), lam <= tol_sant)
            if out is None and done.all():  # every row at once: these arrays are the result
                out = now
                break
            out = out or [np.empty((R, *a.shape[1:]), a.dtype) for a in now]
            for a, a_now in zip(out, now):
                a[body[done]] = a_now[done]
            if done.all():
                break
            # only the rows that go on stay in the stack
            N, b, tau, fan, D, incidence, body, z_next, s_next, lam = (
                a[~done] for a in (N, b, tau, fan, D, incidence, body, z_next, s_next, lam))
            corners = at(fan)
        k, last, z = k + 1, lam, z_next
        y, vol, cen, second = measure(s_next)
    y, cen = out[1], out[3]
    sq = (y * y).sum(axis=-1)  # the residual |c| / diam, the diameter from the Gram matrix
    gaps = sq[:, :, None] + sq[:, None] - 2 * y @ y.transpose(0, 2, 1)
    res = np.sqrt((cen ** 2).sum(axis=1) / gaps.max(axis=(1, 2)))
    return StackSolve(*out[:5], res, *out[5:])


def _padded(stacks, repeat_first: bool) -> np.ndarray:
    """Stacks (R_i, m_i, ...) joined along their rows, each padded to the
    largest m_i by repeating its column 0, or with 0s (1-d stacks as given)."""
    m = max(a.shape[1:2] for a in stacks)
    pad = lambda a: np.repeat(a[:, :1] if repeat_first else np.zeros_like(a[:, :1]),
                              m[0] - a.shape[1], axis=1)
    return np.concatenate([np.concatenate([a, pad(a)], axis=1) if a.shape[1:2] < m else a
                           for a in stacks])


def _log_ratio_probe(K: VPolytope, C, axis: int):
    """v -> log(B_+ / B_-) of K about (C, v), on one `polarity._half_volume_probe`."""
    probe = pol._half_volume_probe(K, geo.embed_point(C, 0.0, axis), axis)

    def log_ratio(v: float) -> float:
        b_plus, b_minus = probe(v)
        if min(b_plus, b_minus) < pol.TAU_VOL * (b_plus + b_minus):
            raise BracketFailure("half volume underflow at an interior probe")
        return math.log(b_plus) - math.log(b_minus)

    return log_ratio


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
    # The three bodies share their projection along the axis; C is interior
    # to it when K_m's chord there has length and no axis-parallel facet (wall) holds C.
    alpha_m, beta_m = geo._vertical_extent(K_m, C, axis)
    walls = K_m.slack(geo.embed_point(C, 0.0, axis))[np.abs(K_m.normals[:, axis]) <= geo.TAU_GEOM]
    if min([beta_m - alpha_m, *walls]) <= geo.TAU_GEOM * K_m.scale():
        raise geo.OutsideProjection("base point not interior to the projection")
    alpha_s, beta_s = geo._vertical_extent(K_s, C, axis)
    alpha_t, beta_t = geo._vertical_extent(K_t, C, axis)
    span = beta_m - alpha_m
    if not (alpha_m + geo.TAU_GEOM * span < a < beta_m - geo.TAU_GEOM * span):
        raise ValueError("a must be strictly inside the mid-body chord")
    lo = max(alpha_s, 2 * a - beta_t)
    hi = min(beta_s, 2 * a - alpha_t)
    if hi - lo <= geo.TAU_GEOM * span:
        raise BracketFailure("empty definition interval for rho")

    ratio_s, ratio_t = _log_ratio_probe(K_s, C, axis), _log_ratio_probe(K_t, C, axis)

    @functools.cache  # brentq re-evaluates the bracket ends first
    def rho(v: float) -> float:
        return ratio_s(v) - ratio_t(2 * a - v)

    width = hi - lo
    # delta grows on underflow, shrinks on same-sign ends, never turns back
    delta, step = 1e-3, None
    while delta > 1e-13:
        lo_probe, hi_probe = lo + delta * width, hi - delta * width
        try:
            r_lo, r_hi = rho(lo_probe), rho(hi_probe)
        except BracketFailure:
            if step == 0.1:
                break
            delta, step = delta * 10, 10
            if delta >= 0.5:
                raise
            continue
        if r_lo < 0 < r_hi:
            xtol = 1e-15 * max(abs(lo_probe), abs(hi_probe))
            v = brentq(rho, lo_probe, hi_probe, xtol=xtol, disp=False)
            return v, 2 * a - v
        if r_lo >= 0 and r_hi > 0 or r_lo < 0 and r_hi <= 0:
            if step == 10:
                break
            delta, step = delta * 0.1, 0.1
            continue
        raise BracketFailure("rho has inverted signs at the interval ends")
    raise BracketFailure("no sign change after endpoint refinement")

