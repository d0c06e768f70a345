"""Concave functions vanishing at their ends, as degree-1 slice profiles.

The equality family of the harmonic conclusion and the extreme-ray
decomposition of the cone of concave endpoint-vanishing functions: the
functional-inequality tests and acceptance criterion 9 build their
profiles here.  `in_cone` compares function values with the absolute
slack TOL_EXACT * max(1, max f), so a zero profile is in the cone.
"""

from __future__ import annotations

import numpy as np

from santalo_lab.errors import GeometryError
from santalo_lab.verify import TOL_EXACT, SliceProfile


class NotInCone(GeometryError):
    """Function fails the concave/endpoint conditions of the decomposition cone."""


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
