import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from santalo_lab import geometry as geo
from santalo_lab import mahler
from santalo_lab import polarity as pol
from santalo_lab.errors import BracketFailure, DegenerateInput, OutsideProjection


def random_body(rng, d, extra=4):
    """Full-dimensional random polytope from normal points."""
    pts = rng.normal(size=(d + extra, d))
    P, _ = geo.convex_hull(pts)
    return P


def simplex(d):
    P, _ = geo.convex_hull(np.vstack([np.zeros(d), np.eye(d)]))
    return P


def set_equal(A, B, tol=1e-8):
    """Two polytopes describe the same set (mutual facet containment)."""
    v1 = max(max(-B.slack(v).min(), 0.0) for v in A.vertices)
    v2 = max(max(-A.slack(v).min(), 0.0) for v in B.vertices)
    return max(v1, v2) <= tol


def vertices_match(P, expected, tol=1e-9):
    """Vertex sets coincide as point sets within tol."""
    exp = np.atleast_2d(np.asarray(expected, dtype=float))
    if P.n_vertices != len(exp):
        return False
    d = np.linalg.norm(P.vertices[:, None, :] - exp[None, :, :], axis=2)
    return bool(d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol)


def eager_facets(normals, offsets):
    """(normals, offsets) by the formula facets were built with at
    construction, before a body built its rows on first read: unit normals,
    then rows deduplicated within TAU_GEOM.  The reference the lazy rows
    must match."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.asarray(offsets, dtype=float).ravel()
    norms = np.linalg.norm(normals, axis=1)
    rows = geo._dedupe_rows(np.column_stack([normals / norms[:, None], offsets / norms]),
                            geo.TAU_GEOM)
    return rows[:, :-1], rows[:, -1]


def moments(P):
    """(volume, centroid, second moment about the origin) of P in one
    vectorized pass over the fan of `geometry.volume`: the second moment is
    int_P x x^T dx / |P|, and every moment is exact for a polytope.  The
    reference for the lean `geometry.centroid`."""
    apex, dets = geo._mean_fan(P)
    vol, cen, second = geo._fan_moments((P.vertices - apex)[None], dets[None],
                                        geo._incidence(P.facet_simplices[None], P.n_vertices))
    c, shift = cen[0], np.outer(apex, cen[0])
    return (float(vol[0]) / math.factorial(P.dim), apex + c,
            second[0] + shift + shift.T + np.outer(apex, apex))


def hform_section(P, axis, level):
    """Reference section: vertex enumeration of P's sliced H-form."""
    keep = [i for i in range(P.dim) if i != axis]
    A = P.normals[:, keep]
    b = P.offsets - P.normals[:, axis] * level
    sliced = np.linalg.norm(A, axis=1) > geo.TAU_GEOM
    return geo.vertex_enumeration(A[sliced], b[sliced])


def chord(P, X, axis=-1):
    """Closed interval {x : (X, x) in P} along `axis`, X over the other axes.

    X must lie in the interior of the orthogonal projection of P, checked
    on the projection's own hull; boundary base points raise
    OutsideProjection (degenerate chords are excluded).  The reference for
    `geometry._vertical_extent`, which skips that check.
    """
    d = P.dim
    axis = range(d)[axis]
    X = geo.as_vector(X)
    keep = [i for i in range(d) if i != axis]
    proj, _ = geo.convex_hull(P.vertices[:, keep])
    if np.min(proj.slack(X)) <= geo.TAU_GEOM * proj.scale():
        raise OutsideProjection("base point not interior to the projection")
    return geo._vertical_extent(P, X, axis)


# An 8-vertex 5D body with 15 facets, one of 6 vertices; Qhull merges facets
# of its hull and of its polar's.  It is the sweep row at t = 46.48 (grid
# point 14 of 17) of the skew descent move of the upper descent endpoint of
# the 17th `mahler.random_polytope(5, 8, default_rng(1))` body.
MERGED_5D = [
    [-0.35838238976098635, -0.6353198273576411, 0.3146879817493106,
     0.33171794997955295, -0.14758459019365652],
    [25.419297111321754, -8.415402383493834, 5.856424217427727,
     -16.952314173950597, 36.474129741507525],
    [-0.09374966233942243, -0.7527208443929748, -0.094062400996985,
     0.5194052242458341, -0.10520814177913658],
    [25.50357110111367, -8.442880254698627, 5.876909124675451,
     -17.007500054265257, 36.59510571285583],
    [-0.044398494110940344, 0.7244044489783011, -0.5584476737266248,
     -0.12136250874083676, 0.016566749430137855],
    [0.39583359060899903, 0.5140951417172162, -0.20095678270001133,
     -0.34147469885764326, -0.5160945526409714],
    [0.1520336492411158, -0.01604355357242796, -0.0822829627579105,
     -0.011967111915222792, -0.3077789592464695],
    [-0.6829394354824684, 0.3397344449580536, 0.13224644297308932,
     0.037701851016241114, -0.40503825684729833],
]


def fan_bodies():
    ang = 2 * math.pi * np.arange(6) / 6
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    octahedron = np.vstack([np.eye(3), -np.eye(3)])  # polar has square facets
    hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
    cross5 = np.vstack([np.eye(5), -np.eye(5)])  # polar: the 5-cube, merged facets
    segment, random6 = [[-0.4], [1.3]], np.random.default_rng(6).normal(size=(16, 6))
    bodies = [geo.convex_hull(pts)[0] for pts in (cube, octahedron, hexagon)]
    return bodies + [simplex(4), mahler.random_polytope(3, 6, np.random.default_rng(5))] + [
        geo.convex_hull(pts)[0] for pts in (segment, cross5, random6)]


def one_call_half_volumes(K, z, axis):
    """(B_+, B_-) of K about z by the one-call formula that `half_volumes`
    used before its probe: check the center, fetch the cached fan and split
    plan, build each group's factors with `column_stack` and `np.split` the
    shares.  The reference the probe must match bit for bit."""
    z, slack = pol._check_interior(K, z)
    axis = range(K.dim)[axis]
    heights = K.normals[:, axis] / slack
    if min(heights.max(), -heights.min()) <= pol.TAU_VOL * np.abs(heights).max():
        raise DegenerateInput("polar does not straddle the split hyperplane")
    fan, dets = K._polar_fan
    cones = pol._cones(slack[None], fan[None], dets[None])[0]
    whole, groups = pol._split_plan(K, axis)
    share = whole.copy()
    for p, rows, corners, signs in groups:
        d = corners.shape[1]
        h = signs * heights[corners]
        hp, hq = h[:, :p, None], h[:, None, p:]
        gap = hp - hq
        factors = np.column_stack([(hp / gap).reshape(-1, p * (d - p)),
                                   (-hq / gap).reshape(-1, p * (d - p)),
                                   np.ones(len(rows))])
        share[rows] = factors[:, pol._cut_terms(d, p)].prod(axis=2).sum(axis=1)
    plus, minus = np.split(share, 2)
    return float(cones @ plus), float(cones @ minus)


def one_call_log_ratio(K, C, v, axis):
    """log(B_+ / B_-) at the center C with v inserted at `axis`, one
    `one_call_half_volumes` per height: the route `balanced_points` took
    before its probes."""
    b_plus, b_minus = one_call_half_volumes(K, np.insert(C, axis, v), axis)
    if min(b_plus, b_minus) < pol.TAU_VOL * (b_plus + b_minus):
        raise BracketFailure("half volume underflow at an interior probe")
    return math.log(b_plus) - math.log(b_minus)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def qhull_calls(monkeypatch):
    """Arguments of every Qhull run, in polarity and in geometry."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ConvexHull(*args, **kwargs)

    monkeypatch.setattr(pol, "ConvexHull", counting)
    monkeypatch.setattr(geo, "ConvexHull", counting)
    return calls


@pytest.fixture
def slack_centers(monkeypatch):
    """Every center passed to `polarity._slack`, one row each, in call order."""
    centers = []
    slack = pol._slack
    monkeypatch.setattr(pol, "_slack", lambda n, b, z: centers.extend(
        np.array(z, ndmin=2)) or slack(n, b, z))
    return centers
