"""Santalo point solver and the balanced points of the half-volume ratio.

The Santalo point S(K) is the unique interior minimizer of z -> |K^{*z}|;
it is characterized by the polar's centroid sitting at the polarity origin.
The objective's gradient is (d+1) int_{K^{*z}} y dy and its Hessian is
(d+1)(d+2) int_{K^{*z}} y y^T dy, both moments of the polar.  The solver is
damped Newton from the vertex mean, with Armijo backtracking and a step cap
that keeps the iterate well inside the body, where the objective is finite.
Newton steps are affine-invariant, so no preconditioning is needed.
`santalo_stack` runs it on stacked arrays of facets, fans and starts, each
row on its own steps, so a sweep's rows share every numpy call;
`santalo_points` fills them from bodies.  Balanced points take one
half-volume probe per end body (`polarity._half_volume_probe`).
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
    """Santalo points of bodies of one dimension, in one `santalo_stack` call.

    Row r starts at starts[r] if given and strictly interior, else at the
    vertex mean (CenterNotInterior if that is not).
    """
    stacks = [_body_stack(K, None if starts is None else starts[r])
              for r, K in enumerate(bodies)]
    out = santalo_stack(*_joined(stacks), tol_sant, max_iterations)
    if any(out.note):
        raise pol.CenterNotInterior(pol.NOT_INTERIOR)
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
    if it is strictly interior, else from the vertex mean; no fan is built
    when that is not interior either."""
    N, b, tau = K.normals[None], K.offsets[None], geo.TAU_GEOM * np.array([K.scale()])
    mean = K.vertices.mean(axis=0)[None]
    z = mean if start is None else geo.as_vector(start)[None]
    s = pol._slack(N, b, z)
    if start is not None and s.min() <= tau[0]:  # too close to the boundary
        z, s = mean, pol._slack(N, b, mean)
    fan, D = (pol._polar_fan(K, z[0], s[0]) if s.min() > tau[0] else
              (np.zeros((1, K.dim), dtype=int), np.zeros(1)))
    return N, b, fan[None], D[None], tau, z, s


def _joined(stacks) -> list:
    """Solver stacks (N, b, fan, D, tau, z, s) as one: rows padded to the
    most facets by repeating facet 0 and to the largest fan by zero-volume
    simplices, which keep each row's slacks, step cap and moments."""
    if len(stacks) == 1:
        return stacks[0][:7]
    return [_padded([x[k] for x in stacks], repeat_first=k not in (2, 3)) for k in range(7)]


@dataclass
class StackSolve:
    """Row r of a `santalo_stack` pass: its last iterate, the polar there
    (vertices y, padded like the normals; volume, centroid, second moment),
    residual and Newton steps.  A row that was not solved keeps its start
    and NaNs, and note[r] says why."""

    point: np.ndarray
    y: np.ndarray
    polar_volume: np.ndarray
    centroid: np.ndarray
    second: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    note: list


def santalo_stack(N, b, fan, D, tau, z, s, tol_sant: float = TOL_SANT,
                  max_iterations: int = MAX_ITERATIONS) -> StackSolve:
    """Damped Newton on stacked rows, each on its own steps.

    Row r is the polytope {x : N[r] x <= b[r]} with its polar fan fan[r]
    (facet indices) and D_T = D[r] (`polarity._polar_fan`), started at z[r],
    where its facet slacks are s[r].  It steps until its residual is at most
    `tol_sant`, or is non-converged at the iteration cap or a stalled line
    search; trials evaluate only the polar volume.  A row whose start has a
    slack at most tau[r] is not solved: it fails with a note, and never
    raises, so one bad row cannot cost the others their solve.
    """
    R, d = z.shape
    interior = s.min(axis=1) > tau
    note = ["" if ok else pol.NOT_INTERIOR for ok in interior]
    body = np.flatnonzero(interior)  # the row of each working row
    out = None if len(body) == R else _unsolved(z, N.shape[1], note)  # else made when needed
    if not len(body):
        return out
    z, s = z[body], s[body]  # copies: the iterates move in place
    if len(body) < R:
        N, b, fan, D, tau = (a[body] for a in (N, b, fan, D, tau))
    incidence = geo._incidence(fan, N.shape[1])
    at = lambda fan: fan + N.shape[1] * np.arange(len(fan))[:, None, None]  # for `_cones`

    def measure(slack):
        """Polar vertices, moments and residuals about the working rows' centers."""
        y = N / slack[..., None]
        vol, cen, second = geo._fan_moments(y, pol._cones(slack, corners, D), incidence)
        sq = (y * y).sum(axis=-1)  # the diameter from the Gram matrix
        gaps = sq[:, :, None] + sq[:, None] - 2 * y @ y.transpose(0, 2, 1)
        return y, vol, cen, second, np.sqrt((cen * cen).sum(axis=1) / gaps.max(axis=(1, 2)))

    corners = at(fan)
    y, vol, cen, second, res = measure(s)
    iterations = np.zeros(len(z), dtype=int)
    stalled = np.zeros(len(z), dtype=bool)
    while True:
        done = (res <= tol_sant) | (iterations == max_iterations) | stalled
        if done.any():
            if out is None and done.all():  # every row at once: these arrays are the result
                return StackSolve(z, y, vol, cen, second, res, iterations, res <= tol_sant, note)
            if out is None:
                out = _unsolved(z, N.shape[1], note)
            rows = body[done]
            for name, a in (("point", z), ("y", y), ("polar_volume", vol), ("centroid", cen),
                            ("second", second), ("residual", res), ("iterations", iterations)):
                getattr(out, name)[rows] = a[done]
            out.converged[rows] = res[done] <= tol_sant
            if done.all():
                return out
            # only the rows that go on stay in the stack
            N, b, tau, fan, D, incidence, body, iterations, z, s, y, vol, cen, second, res = (
                a[~done] for a in (N, b, tau, fan, D, incidence, body, iterations,
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
            trial = pol._cones(s_try, corners, D).sum(axis=1)
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


def _unsolved(z, n_facets: int, note: list) -> StackSolve:
    """A `santalo_stack` result whose rows keep their starts z, with NaNs."""
    R, d = z.shape
    nan = lambda *shape: np.full((R, *shape), math.nan)
    return StackSolve(z.copy(), nan(n_facets, d), nan(), nan(d), nan(d, d), nan(),
                      np.zeros(R, dtype=int), np.zeros(R, dtype=bool), note)


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
            xtol = 1e-15 * max(1.0, abs(lo_probe), abs(hi_probe))
            v = brentq(rho, lo_probe, hi_probe, xtol=xtol, disp=False)
            return v, 2 * a - v
        if r_lo >= 0 and r_hi > 0 or r_lo < 0 and r_hi <= 0:
            if step == 10:
                break
            delta, step = delta * 0.1, 0.1
            continue
        raise BracketFailure("rho has inverted signs at the interval ends")
    raise BracketFailure("no sign change after endpoint refinement")

