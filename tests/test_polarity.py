import itertools
import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay, HalfspaceIntersection

import rational_oracle as oracle
from conftest import (MERGED_5D, fan_bodies, hform_section, one_call_half_volumes, random_body,
                      set_equal, simplex, vertices_match)
from santalo_lab import geometry as geo
from santalo_lab import mahler
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab import verify as ver
from santalo_lab.errors import CenterNotInterior, GeometryInconsistent
from santalo_lab.geometry import Hyperplane


class TestPolar:
    def test_square_gives_diamond(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        pb = pol.polar(Sq, [0, 0])
        assert vertices_match(pb.polar, [[1, 0], [-1, 0], [0, 1], [0, -1]])
        assert pb.polar_volume == pytest.approx(2.0, rel=1e-12)

    def test_one_halfspace_per_vertex(self, rng):
        K = random_body(rng, 3)
        pb = pol.polar(K, geo.interior_point(K))
        assert pb.polar.n_facets == K.n_vertices

    def test_simplex_centroid_matches_simplex_bound(self):
        for d in (2, 3, 4):
            S = simplex(d)
            pb = pol.polar(S, geo.centroid(S))
            bound = (d + 1) ** (d + 1) / math.factorial(d) ** 2
            assert geo.volume(S) * pb.polar_volume == pytest.approx(bound, rel=1e-10)

    def test_volume_blows_up_toward_boundary(self):
        T = simplex(2)
        c = geo.centroid(T)
        facet_mid = np.array([0.5, 0.5])  # midpoint of the hypotenuse
        vols = []
        for lam in (0.0, 0.5, 0.8, 0.95, 0.99):
            z = (1 - lam) * c + lam * facet_mid
            vols.append(pol.polar(T, z).polar_volume)
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_center_not_interior(self):
        T = simplex(2)
        with pytest.raises(CenterNotInterior):
            pol.polar(T, [0.0, 0.0])
        with pytest.raises(CenterNotInterior):
            pol.polar(T, [2.0, 2.0])

    def test_bipolar_recovers_base(self, rng):
        for d in (2, 3):
            for _ in range(10):
                K = random_body(rng, d)
                z = geo.interior_point(K)
                inner = pol.polar(pol.polar(K, z).polar, np.zeros(d))
                back = geo.apply_affine(inner.polar, np.eye(d), z)
                assert set_equal(K, back, tol=1e-7)

    @staticmethod
    def _near_boundary_6d():
        """The random (6,16) body's polar about the point 0.99 of the way
        from its vertex mean to vertex 0."""
        K, _ = geo.convex_hull(np.random.default_rng(6).normal(size=(16, 6)))
        c = K.vertices.mean(axis=0)
        return pol.polar(K, c + 0.99 * (K.vertices[0] - c))

    def test_bipolar_near_the_boundary_in_6d(self, qhull_calls):
        # the polar's 184 vertices come with its facets, one per vertex of K,
        # so the bipolar's fan is pulled from their incidence: no Qhull runs
        pb = self._near_boundary_6d()
        K = pb.base
        assert pb.polar.n_vertices == 184
        qhull_calls.clear()
        inner = pol.polar(pb.polar, np.zeros(6))
        back = geo.apply_affine(inner.polar, np.eye(6), pb.center)
        assert qhull_calls == []
        assert vertices_match(back, K.vertices, tol=1e-12)

    def test_polar_facets_near_the_boundary_in_6d(self, qhull_calls):
        # a polar carries its facets, one per vertex of K, from construction:
        # reading them runs no Qhull, where a hull of its 184 vertices fails
        pb = self._near_boundary_6d()
        qhull_calls.clear()
        assert pb.polar.normals.shape == (16, 6) and pb.polar.n_facets == 16
        assert qhull_calls == []
        # the rows {y : <y, v - z> <= 1}: slack 1 / |v - z| at the origin
        assert np.abs(np.sort(pb.polar.slack(np.zeros(6))) - np.sort(1 / np.linalg.norm(
            pb.base.vertices - pb.center, axis=1))).max() <= 1e-12
        # the Santalo solve's polar carries them too
        assert san.santalo_point(pb.base).polar.polar.n_facets == 16 and qhull_calls == []

    def test_hull_of_polar_vertices_near_the_boundary_in_6d(self):
        # Qhull merges facets of this hull, and its own fan misses the volume
        pb = self._near_boundary_6d()
        assert geo.volume(geo.convex_hull(pb.polar.vertices)[0]) == pytest.approx(
            pb.polar_volume, rel=1e-12)

    def test_inclusion_reversal(self, rng):
        # K subset L about a shared center implies L^* subset K^*
        for _ in range(100):
            d = 2 if rng.uniform() < 0.6 else 3
            L = random_body(rng, d)
            z = geo.interior_point(L)
            inner = geo.VPolytope(z + 0.6 * (L.vertices - z))
            pk = pol.polar(inner, z)
            pl = pol.polar(L, z)
            for v in pl.polar.vertices:
                assert np.min(pk.polar.slack(v)) >= -1e-9

    def test_symmetric_scaling(self, rng):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        for t in (0.5, 2.0, 3.7):
            scaled = geo.apply_affine(Sq, t * np.eye(2))
            v = pol.polar(scaled, [0, 0]).polar_volume
            assert v == pytest.approx(t ** -2 * 2.0, rel=1e-9)


def qhull_polar_moments(K, z):
    """Moments of K^{*z} from two fresh Qhull runs: the dual hull, then a
    Delaunay tiling of its vertices, which no merged facet can overlap.

    In 1D, where Qhull does not run, the polar interval's closed form.
    """
    d = K.dim
    if d == 1:
        lo, hi = 1 / (K.vertices.min() - z[0]), 1 / (K.vertices.max() - z[0])
        return hi - lo, np.array([(lo + hi) / 2]), np.array([[(lo * lo + lo * hi + hi * hi) / 3]])
    dual = ConvexHull(K.vertices - z)
    pts = geo._dedupe_rows(dual.equations[:, :-1] / -dual.equations[:, -1:], 1e-12)
    tiles = pts[Delaunay(pts).simplices]
    vols = np.abs(np.linalg.det(tiles[:, 1:] - tiles[:, :1])) / math.factorial(d)
    sums = tiles.sum(axis=1)
    second = (np.einsum("t,tki,tkj->ij", vols, tiles, tiles)
              + np.einsum("t,ti,tj->ij", vols, sums, sums)) / ((d + 1) * (d + 2))
    return vols.sum(), vols @ sums / (d + 1) / vols.sum(), second / vols.sum()


class TestProducts:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_cones_match_prod(self, d):
        # one body's fan (R = 1) and a stacked pass's (R = 33) over slacks
        # spanning many binades
        rng = np.random.default_rng(d)
        for R, m, f in ((1, 38, 40), (33, 41, 60)):
            slack = np.exp(rng.uniform(-20, 5, size=(R, m)))
            fan = rng.integers(0, m, size=(R, f, d)) + m * np.arange(R)[:, None, None]
            dets = rng.uniform(0.0, 2.0, size=(R, f))
            want = dets / slack.ravel()[fan].prod(axis=-1)
            assert np.array_equal(pol._cones(slack, fan, dets), want)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_share_terms_match_prod(self, d):
        # the crossing-weight products of `_share_above`, every p in 1..d-1
        rng = np.random.default_rng(10 + d)
        for p in range(1, d):
            factors = rng.uniform(0.0, 1.0, size=(50, 2 * p * (d - p) + 1))
            terms = factors[:, pol._cut_terms(d, p)]
            assert np.array_equal(pol._product(terms), terms.prod(axis=-1))


def cube():
    return geo.convex_hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])[0]


def incidence(K):
    """K's (m, n) facet-by-vertex incidence; `VPolytope._polar_fan` pulls from its transpose."""
    return np.abs(K.offsets[:, None] - K.normals @ K.vertices.T) <= geo.TAU_GEOM * K.scale()


FAN_BODY_IDS = ["cube", "octahedron", "hexagon", "4-simplex", "random-3-6", "segment",
                "5-cross", "random-6-16"]


class TestPolarFan:
    @pytest.mark.parametrize("K", fan_bodies(), ids=FAN_BODY_IDS)
    def test_cached_fan_matches_fresh_qhull(self, K):
        # the closed form D_T / prod slack over the fan cached at the
        # vertex mean, at centers off it and then close to a vertex
        mean = K.vertices.mean(axis=0)
        # the 6D body's Delaunay reference takes a second or two per center
        for lam in (0.99,) if K.dim == 6 else (0.35, 0.9, 0.99):
            z = mean + lam * (K.vertices[0] - mean)
            pb = pol.polar(K, z)
            vol, cen, second = qhull_polar_moments(K, z)
            scale = pb.polar.scale()
            assert pb.polar_volume == pytest.approx(vol, rel=1e-12)
            assert np.abs(pb.polar_centroid - cen).max() <= 1e-12 * scale
            assert np.abs(pb.polar_second_moment - second).max() <= 1e-12 * scale ** 2

    def test_redundant_trusted_list_on_first_call(self):
        K = geo.VPolytope([[.2, .2], [0, 0], [1, 0], [0, 1]])
        T, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1]])
        z = [0.3, 0.3]
        assert pol.polar(K, z).polar_volume == pytest.approx(
            pol.polar(T, z).polar_volume, rel=1e-12)

    def test_polars_and_solves_run_no_qhull(self, qhull_calls, rng):
        # both modules count: a lazy re-hull of the polar in geometry too.
        # A simplicial body's fan is pulled from its incidence, and so is a
        # cube's, whose facets are squares
        for K, fresh in ((random_body(rng, 3), random_body(rng, 3)), (cube(), cube())):
            qhull_calls.clear()
            z = K.vertices.mean(axis=0)
            pol.polar(K, z)
            pol.polar(K, 0.8 * z + 0.2 * K.vertices[0])
            san.santalo_point(fresh)
            assert qhull_calls == []

    def test_non_simplicial_polars_run_no_qhull(self, qhull_calls, rng):
        # of `fan_bodies`, the cube has a facet with more than d vertices;
        # a Steiner system's inner rows are not simplicial
        for K in fan_bodies():
            qhull_calls.clear()
            pol.polar(K, K.vertices.mean(axis=0))
            assert qhull_calls == []
        system = sh.steiner_system(random_body(rng, 3), Hyperplane([0.2, -0.3, 1.0], 0.1))
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            K = sh.body_at(system, t)
            qhull_calls.clear()
            z = K.vertices.mean(axis=0) + 0.5 * (K.vertices[0] - K.vertices.mean(axis=0))
            pb = pol.polar(K, z)
            assert qhull_calls == []
            vol, cen, second = qhull_polar_moments(K, z)
            scale = pb.polar.scale()
            assert pb.polar_volume == pytest.approx(vol, rel=1e-12)
            assert np.abs(pb.polar_centroid - cen).max() <= 1e-12 * scale
            assert np.abs(pb.polar_second_moment - second).max() <= 1e-12 * scale ** 2

    def test_one_slack_per_polar(self, slack_centers, rng):
        # every center's facet slacks are computed once, on fresh bodies too:
        # a pulled fan needs none
        centers = slack_centers
        for K in (random_body(rng, 3), cube()):
            centers.clear()
            z = K.vertices.mean(axis=0)
            pol.polar(K, z)
            pol.polar(K, 0.9 * z + 0.1 * K.vertices[0])
            assert len(centers) == 2
        centers.clear()
        # a stacked solve: trials and accepted points share their slacks
        results = san.santalo_points([random_body(rng, 3) for _ in range(3)])
        assert min(r.iterations for r in results) >= 2
        assert len(centers) >= len(results) + sum(r.iterations for r in results)
        assert len(np.unique(centers, axis=0)) == len(centers)

    def test_cuts_hull_only_their_result(self, qhull_calls, rng):
        K = random_body(rng, 3)
        z = K.vertices.mean(axis=0)
        qhull_calls.clear()
        geo.section(K, 2, z[2])
        assert len(qhull_calls) == 0
        pol.polar(K, z)  # caches the fan
        qhull_calls.clear()
        pol.half_volumes(K, z, axis=2)
        assert len(qhull_calls) == 0

    def test_slice_profiles_run_no_qhull(self, qhull_calls):
        # the octahedron's polar is the cube, whose top face is a square
        K, _ = geo.convex_hull(np.vstack([np.eye(3), -np.eye(3)]))
        pb = pol.polar(K, np.zeros(3))  # caches the fan
        qhull_calls.clear()
        prof = ver.polar_slice_profile(pb, axis=2)
        assert len(qhull_calls) == 0
        assert prof.ys[-1] == pytest.approx(4.0, rel=1e-12)


# (d, k, bodies): 200 seeded `random_polytope` bodies at each (d, k), and
# hulls of k normal points where k is negative.
PULLED_SHAPES = [(2, 5, 200), (3, 6, 200), (4, 7, 200), (5, 8, 200),
                 (3, -10, 50), (4, -10, 50), (6, -10, 10)]


class TestPulledFan:
    @pytest.mark.parametrize("d, k, count", PULLED_SHAPES,
                             ids=[f"{d}-{k}" if k > 0 else f"hull-{d}-{-k}"
                                  for d, k, _ in PULLED_SHAPES])
    def test_pulled_fans_match_fresh_qhull(self, d, k, count):
        # the pulled fan of each simplicial body: distinct facets in every
        # simplex, no more simplices than Qhull's fan, and the moments of
        # fresh Qhull runs at three centers
        rng = np.random.default_rng(100 * d - k)
        for i in range(count):
            K = (mahler.random_polytope(d, k, rng) if k > 0 else
                 geo.convex_hull(rng.normal(size=(-k, d)))[0])
            fan, _ = K._polar_fan
            assert np.array_equal(fan, geo.pulled(incidence(K).T, d))
            assert (np.diff(np.sort(fan, axis=1), axis=1) > 0).all()
            mean = K.vertices.mean(axis=0)
            y = K.normals / pol._slack(K.normals, K.offsets, mean)[:, None]
            assert len(fan) <= len(ConvexHull(y).simplices)
            for lam in (0.0, 0.5, 0.9):
                z = mean + lam * (K.vertices[i % K.n_vertices] - mean)
                pb = pol.polar(K, z)
                vol, cen, second = qhull_polar_moments(K, z)
                scale = pb.polar.scale()
                assert pb.polar_volume == pytest.approx(vol, rel=1e-12)
                assert np.abs(pb.polar_centroid - cen).max() <= 1e-12 * scale
                assert np.abs(pb.polar_second_moment - second).max() <= 1e-12 * scale ** 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_ridge_in_one_facet_raises(self, d):
        # without one facet row, the ridges of that facet lie in one facet
        inc = incidence(mahler.random_polytope(d, d + 3, np.random.default_rng(d)))
        assert len(geo.pulled(inc.T, d)) > 0
        with pytest.raises(GeometryInconsistent):
            geo.pulled(inc[1:].T, d)

    def test_cube_without_a_facet_raises(self):
        # a non-simple incidence: without one facet row, the cube's polar
        # fan would be an open half octahedron, and the cube's own boundary
        # would lose the edges of that facet
        inc = incidence(cube())
        assert len(geo.pulled(inc.T, 3)) == 8 and len(geo.pulled(inc, 3)) == 12
        for cut in (inc[1:].T, inc[1:]):
            with pytest.raises(GeometryInconsistent):
                geo.pulled(cut, 3)


def steiner_ends():
    """Both ends (t = -1, 1) of the Steiner system of criterion 7's 17th body,
    as points: Qhull's vertex list of each holds points inside an edge,
    which lie in only two of its facets."""
    rng = np.random.default_rng(20250817)
    for i in range(17):
        d = 2 if i % 2 else 3
        pts = rng.normal(size=(d + 4, d))
        H = Hyperplane(rng.normal(size=d), 0.1 * rng.normal())
    system = sh.steiner_system(geo.convex_hull(pts)[0], H)
    return [system.points_at(t) for t in (-1.0, 1.0)]


def non_simplicial_points(d):
    """Point sets of non-simplicial d-bodies: the cube, the first two hulls
    of 2d points of the grid [-2, 2]^d with a facet of more than d vertices
    and, in 3D, `steiner_ends`."""
    rng = np.random.default_rng(40 + d)
    draws = (rng.integers(-2, 3, size=(2 * d, d)).astype(float) for _ in itertools.count())
    grids = itertools.islice((pts for pts in draws
                              if (incidence(geo.convex_hull(pts)[0]).sum(axis=1) > d).any()), 2)
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    return [cube, *grids] + (steiner_ends() if d == 3 else [])


class TestNonSimplicialBodies:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_hulls_and_pulled_polar_fans_match_qhull(self, d):
        bodies = []
        for pts in non_simplicial_points(d):
            K, _ = geo.convex_hull(pts)
            assert geo.volume(K) == pytest.approx(ConvexHull(pts).volume, rel=1e-12)
            bodies.append(K)
        if d == 5:  # the 5-cube with the facets it has as the 5-cross's polar
            bodies.append(pol.polar(geo.convex_hull(np.vstack([np.eye(5), -np.eye(5)]))[0],
                                    np.zeros(5)).polar)
        for K in bodies:
            inc = incidence(K)
            assert (inc.sum(axis=1) > d).any()
            mean = K.vertices.mean(axis=0)
            z = mean + 0.5 * (K.vertices[0] - mean)
            pb = pol.polar(K, z)
            vol, cen, second = qhull_polar_moments(K, z)
            scale = pb.polar.scale()
            assert pb.polar_volume == pytest.approx(vol, rel=1e-12)
            assert np.abs(pb.polar_centroid - cen).max() <= 1e-12 * scale
            assert np.abs(pb.polar_second_moment - second).max() <= 1e-12 * scale ** 2

    def test_steiner_ends_list_points_inside_an_edge(self):
        # their incidence is not a polytope's until those columns are dropped
        for pts in steiner_ends():
            K, _ = geo.convex_hull(pts)
            assert incidence(K).sum(axis=0).min() == 2

    def test_6d_grid_hulls_pull_their_fans_in_milliseconds(self):
        # a simplex face is its own pulled triangulation: comparing the
        # meets of every simplex face took seconds on such bodies.  Qhull
        # merges facets of the 32-point hull, and the 16-point body's polar
        # fan has 6,802 simplices
        rng = np.random.default_rng(6)
        small, large = (rng.integers(-2, 3, size=(n, 6)).astype(float) for n in (16, 32))
        start = time.perf_counter()
        K, _ = geo.convex_hull(large)
        assert time.perf_counter() - start < 0.5
        assert geo.volume(K) == pytest.approx(ConvexHull(large).volume, rel=1e-12)
        K, _ = geo.convex_hull(small)
        start = time.perf_counter()
        assert len(K._polar_fan[0]) == 6802
        assert time.perf_counter() - start < 0.5


class TestVolumeProduct:
    def test_triangles(self, rng):
        # any triangle: affine invariance pins the value at the simplex bound
        for _ in range(5):
            T, _ = geo.convex_hull(rng.normal(size=(3, 2)))
            assert pol.volume_product(T) == pytest.approx(6.75, rel=1e-9)

    def test_3_simplex(self):
        assert pol.volume_product(simplex(3)) == pytest.approx(64 / 9, rel=1e-9)

    def test_regular_hexagon(self):
        ang = 2 * math.pi * np.arange(6) / 6
        H, _ = geo.convex_hull(np.column_stack([np.cos(ang), np.sin(ang)]))
        assert pol.volume_product(H) == pytest.approx(9.0, rel=1e-9)

    def test_body_with_merged_hull_facets_in_5d(self):
        # Qhull's fan of this body's polar misses the polar's volume by 4.4e-12
        K, _ = geo.convex_hull(MERGED_5D)
        assert (K.n_vertices, K.n_facets) == (8, 15)
        res = san.santalo_point(K)
        ref = ConvexHull(K.vertices).volume * qhull_polar_moments(K, res.point)[0]
        assert pol.volume_product(K) == pytest.approx(ref, rel=1e-12)


def sorted_half_volumes(K, z, axis):
    """(B_+, B_-) with each call sorting every fan simplex's corners by their
    heights at z, above first, in place of the cached split plan."""
    slack = K.slack(z)
    heights = K.normals[:, axis] / slack
    fan, dets = K._polar_fan
    h = np.concatenate([heights[fan], -heights[fan]])
    d = h.shape[1]
    above = h > 0
    n_above = above.sum(axis=1)
    share = (n_above == d).astype(float)
    h = np.take_along_axis(h, np.argsort(~above, axis=1, kind="stable"), axis=1)
    for p in range(1, d):
        rows = n_above == p
        if rows.any():
            hp, hq = h[rows, :p, None], h[rows, None, p:]
            factors = np.column_stack([(hp / (hp - hq)).reshape(-1, p * (d - p)),
                                       (-hq / (hp - hq)).reshape(-1, p * (d - p)),
                                       np.ones(int(rows.sum()))])
            share[rows] = factors[:, pol._cut_terms(d, p)].prod(axis=2).sum(axis=1)
    cones = pol._cones(slack[None], fan[None], dets[None])[0]
    plus, minus = np.split(share, 2)
    return float(cones @ plus), float(cones @ minus)


class TestHalfVolumes:
    def test_symmetric_ratio_one(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        hv = pol.half_volumes(Sq, [0, 0], axis=1)
        assert hv.b_plus / hv.b_minus == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self, rng):
        for _ in range(20):
            d = 2 if rng.uniform() < 0.5 else 3
            K = random_body(rng, d)
            z = geo.interior_point(K)
            axis = int(rng.integers(0, d))
            hv = pol.half_volumes(K, z, axis=axis)
            pv = pol.polar(K, z).polar_volume
            assert hv.b_plus + hv.b_minus == pytest.approx(pv, rel=1e-12)

    def test_one_share_pass_per_call(self, monkeypatch, rng):
        passes = []
        share_above = pol._share_above
        monkeypatch.setattr(pol, "_share_above",
                            lambda *args: passes.append(args) or share_above(*args))
        calls = 0
        for d in (2, 3, 4):
            K = random_body(rng, d)
            for axis in range(d):
                hv = pol.half_volumes(K, K.vertices.mean(axis=0), axis=axis)
                calls += 1
                assert len(passes) == calls
                assert hv.b_plus > 0 and hv.b_minus > 0

    @pytest.mark.parametrize("K", fan_bodies(), ids=FAN_BODY_IDS)
    def test_cached_plan_matches_fresh_body(self, K):
        # the split plan cached at the vertex mean serves a second center bit
        # for bit, as a fresh body and a per-call sort by height give there;
        # the cube's axis-parallel facets give zero heights.  The fresh body
        # takes K's rows as they are: rows normalized or sorted again (a
        # sampled body's keep their subset order) may move a last bit
        mean = K.vertices.mean(axis=0)
        z = mean + 0.4 * (K.vertices[-1] - mean)
        for axis in range(K.dim):
            pol.half_volumes(K, mean, axis=axis)
            plan = K._split_plans[axis]
            cached = pol.half_volumes(K, z, axis=axis)
            assert K._split_plans[axis] is plan
            body = geo.VPolytope(K.vertices)
            body._rows = K._rows
            fresh = pol.half_volumes(body, z, axis=axis)
            assert (cached.b_plus, cached.b_minus) == (fresh.b_plus, fresh.b_minus)
            assert (cached.b_plus, cached.b_minus) == sorted_half_volumes(K, z, axis)

    @pytest.mark.parametrize("K", fan_bodies(), ids=FAN_BODY_IDS)
    def test_probe_matches_one_call_formula(self, K):
        # one probe per (center, axis), moved along its chord, gives the
        # one-call formula's (B_+, B_-) bit for bit at every height
        mean = K.vertices.mean(axis=0)
        centers = [mean] + [mean + 0.4 * (v - mean) for v in K.vertices[[0, -1]]]
        for axis in range(K.dim):
            for z in centers:
                probe = pol._half_volume_probe(K, z, axis)
                lo, hi = geo._vertical_extent(K, np.delete(z, axis), axis)
                for v in [z[axis]] + [lo + f * (hi - lo) for f in (0.1, 0.45, 0.8)]:
                    at = z.copy()
                    at[axis] = v
                    assert probe(v) == one_call_half_volumes(K, at, axis)
                    hv = pol.half_volumes(K, at, axis=axis)
                    assert (hv.b_plus, hv.b_minus) == one_call_half_volumes(K, at, axis)

    @pytest.mark.parametrize("K", fan_bodies()[:2] + fan_bodies()[3:5],
                             ids=["cube", "octahedron", "4-simplex", "random-3-6"])
    def test_matches_hform_clips(self, K):
        mean = K.vertices.mean(axis=0)
        z = mean + 0.3 * (K.vertices[0] - mean)
        pv = pol.polar(K, z).polar_volume
        for axis in range(K.dim):
            hv = pol.half_volumes(K, z, axis=axis)
            e = np.eye(K.dim)[axis]
            assert hv.b_plus == pytest.approx(hform_clip_volume(K, z, -e), rel=1e-12)
            assert hv.b_minus == pytest.approx(hform_clip_volume(K, z, e), rel=1e-12)
            assert hv.b_plus + hv.b_minus == pytest.approx(pv, rel=1e-12)

    def test_triangle_matches_rational_clipping(self, rng):
        for _ in range(20):
            pts = oracle.lattice_points(rng, 6)
            K, _ = geo.convex_hull(pts)
            zf = K.vertices.mean(axis=0)
            z = (round(zf[0] * 1024) / 1024, round(zf[1] * 1024) / 1024)
            if np.min(K.slack(np.array(z))) < 1e-3:
                continue
            hv = pol.half_volumes(K, np.array(z), axis=1)
            ordered = oracle.sort_ccw(oracle.to_fractions(K.vertices))
            pv = oracle.polar_polygon(ordered, oracle.to_fractions([z])[0])
            plus, minus = oracle.half_areas(pv, axis=1)
            assert hv.b_plus == pytest.approx(float(plus), rel=1e-9)
            assert hv.b_minus == pytest.approx(float(minus), rel=1e-9)
            assert hv.b_plus / hv.b_minus == pytest.approx(float(plus / minus), rel=1e-9)

    @pytest.mark.parametrize("d, k", [(5, 7), (5, 8), (6, 9), (5, 12), (6, 14)])
    def test_matches_halfspace_intersection_in_5d_6d(self, d, k):
        # Hulls of the halves once overcounted here: Qhull triangulates the
        # merged cut facet with overlaps from d = 5 on.
        K = mahler.random_polytope(d, k, np.random.default_rng(0))
        z = 0.75 * K.vertices.mean(axis=0) + 0.25 * K.vertices[0]
        pv = pol.polar(K, z).polar_volume
        for axis in range(d):
            hv = pol.half_volumes(K, z, axis=axis)
            e = np.eye(d)[axis]
            assert hv.b_plus == pytest.approx(qhull_clip_volume(K, z, -e), rel=1e-12)
            assert hv.b_minus == pytest.approx(qhull_clip_volume(K, z, e), rel=1e-12)
            assert hv.b_plus + hv.b_minus == pytest.approx(pv, rel=1e-12)


def qhull_clip_volume(K, z, clip_normal):
    """Reference half from scipy alone: the halfspace intersection of the
    polar's H-form and <clip_normal, y> <= 0, measured by Qhull's own volume."""
    rows = np.column_stack([np.vstack([K.vertices - z, clip_normal]),
                            np.append(-np.ones(K.n_vertices), 0.0)])
    inside = -0.5 * clip_normal / np.max(np.linalg.norm(K.vertices - z, axis=1))
    return ConvexHull(HalfspaceIntersection(rows, inside).intersections).volume


def hform_clip_volume(K, z, clip_normal):
    """Reference half: vertex enumeration of the polar's H-form cut by
    <clip_normal, y> <= 0 (one halfspace <x - z, y> <= 1 per vertex x of K)."""
    normals = np.vstack([K.vertices - z, clip_normal])
    offsets = np.append(np.ones(K.n_vertices), 0.0)
    return geo.volume(geo.vertex_enumeration(normals, offsets))


class TestSliceInclusion:
    def test_minkowski_slice_inclusion(self, rng):
        # slices of polars of a shadow system combine into the mid slice:
        # (z/(z+y)) K_s^{*G_s}(.,y) + (y/(z+y)) K_t^{*G_t}(.,z)
        #   is contained in K_mid^{*G_mid}(., 2zy/(z+y))
        for _ in range(10):
            system = sh.random_shadow_system(2, rng)
            s, t = system.interval
            K_s = sh.body_at(system, s)
            K_t = sh.body_at(system, t)
            K_m = sh.body_at(system, 0.5 * (s + t))
            c_m = geo.interior_point(K_m)
            C = c_m[:1]
            a_s, a_t = san.balanced_points(K_s, K_m, K_t, float(c_m[1]), C, 1)
            G_s = np.array([C[0], a_s])
            G_t = np.array([C[0], a_t])
            G_m = np.array([C[0], 0.5 * (a_s + a_t)])
            P_s = pol.polar(K_s, G_s).polar
            P_t = pol.polar(K_t, G_t).polar
            P_m = pol.polar(K_m, G_m).polar
            tops = [P.vertices[:, -1].max() for P in (P_s, P_t)]
            for y in np.linspace(0.1, 0.9, 3) * tops[0]:
                for z in np.linspace(0.1, 0.9, 3) * tops[1]:
                    S_y = hform_section(P_s, 1, y)
                    T_z = hform_section(P_t, 1, z)
                    m = 2 * z * y / (z + y)
                    M_slice = hform_section(P_m, 1, m)
                    for u in S_y.vertices:
                        for w in T_z.vertices:
                            pt = (z * u + y * w) / (z + y)
                            assert np.min(M_slice.slack(pt)) >= -1e-7
