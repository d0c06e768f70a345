import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import rational_oracle as oracle
from conftest import random_body, set_equal, vertices_match
from santalo_lab import geometry as geo
from santalo_lab import mahler
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab.errors import CenterNotInterior, LineMissesBody


def simplex(d):
    P, _ = geo.convex_hull(np.vstack([np.zeros(d), np.eye(d)]))
    return P


class TestPolar:
    def test_square_gives_diamond(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        pb = pol.polar(Sq, [0, 0])
        assert vertices_match(pb.polar, [[1, 0], [-1, 0], [0, 1], [0, -1]])
        assert pb.polar_volume == pytest.approx(2.0, rel=1e-12)

    def test_one_halfspace_per_vertex(self, rng):
        K = random_body(rng, 3)
        pb = pol.polar(K, geo.interior_point(K))
        assert pb.polar.halfspaces.n_facets == K.n_vertices

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
                pb = pol.polar(K, z)
                back = pol.bipolar(pb)
                assert set_equal(K, back, tol=1e-7)

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
                assert pk.polar.halfspaces.contains(v, tol=1e-9)

    def test_symmetric_scaling(self, rng):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        for t in (0.5, 2.0, 3.7):
            scaled = geo.apply_affine(Sq, t * np.eye(2))
            v = pol.polar(scaled, [0, 0]).polar_volume
            assert v == pytest.approx(t ** -2 * 2.0, rel=1e-9)


def qhull_polar_moments(K, z):
    """Moments of K^{*z} from two fresh Qhull runs (dual hull, then hull)."""
    dual = ConvexHull(K.vertices - z)
    P, _ = geo.convex_hull(dual.equations[:, :-1] / -dual.equations[:, -1:])
    return geo.moments(P)


def fan_bodies():
    ang = 2 * math.pi * np.arange(6) / 6
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    octahedron = np.vstack([np.eye(3), -np.eye(3)])  # polar has square facets
    hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
    bodies = [geo.convex_hull(pts)[0] for pts in (cube, octahedron, hexagon)]
    return bodies + [simplex(4), mahler.random_polytope(3, 6, np.random.default_rng(5))]


class TestPolarFan:
    @pytest.mark.parametrize("K", fan_bodies(),
                             ids=["cube", "octahedron", "hexagon", "4-simplex", "random-3-6"])
    def test_cached_fan_matches_fresh_qhull(self, K):
        mean = K.vertices.mean(axis=0)
        for lam in (0.35, 0.9):  # off-center, the second one near a vertex
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

    def test_one_qhull_per_body(self, monkeypatch, rng):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ConvexHull(*args, **kwargs)

        K, fresh = random_body(rng, 3), random_body(rng, 3)
        # Both modules: a lazy re-hull of the polar in geometry counts too.
        monkeypatch.setattr(pol, "ConvexHull", counting)
        monkeypatch.setattr(geo, "ConvexHull", counting)
        z = K.vertices.mean(axis=0)
        pol.polar(K, z)
        assert len(calls) == 1
        pol.polar(K, 0.8 * z + 0.2 * K.vertices[0])
        assert len(calls) == 1
        calls.clear()
        san.santalo_point(fresh)
        assert len(calls) == 1

    def test_cuts_hull_only_their_result(self, qhull_calls, rng):
        K = random_body(rng, 3)
        z = K.vertices.mean(axis=0)
        qhull_calls.clear()
        geo.section(K, 2, z[2])
        assert len(qhull_calls) == 1
        pol.polar(K, z)  # caches the fan
        qhull_calls.clear()
        pol.half_volumes(K, z, axis=2)
        assert len(qhull_calls) == 2


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


class TestHalfVolumes:
    def test_symmetric_ratio_one(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        hv = pol.half_volumes(Sq, [0, 0], axis=1)
        assert hv.ratio == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self, rng):
        for _ in range(20):
            d = 2 if rng.uniform() < 0.5 else 3
            K = random_body(rng, d)
            z = geo.interior_point(K)
            axis = int(rng.integers(0, d))
            hv = pol.half_volumes(K, z, axis=axis)
            pv = pol.polar(K, z).polar_volume
            assert hv.b_plus + hv.b_minus == pytest.approx(pv, rel=1e-12)

    @pytest.mark.parametrize("K", fan_bodies()[:2] + fan_bodies()[3:],
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
            if np.min(K.halfspaces.slack(np.array(z))) < 1e-3:
                continue
            hv = pol.half_volumes(K, np.array(z), axis=1)
            ordered = oracle.sort_ccw(oracle.to_fractions(K.vertices))
            pv = oracle.polar_polygon(ordered, oracle.to_fractions([z])[0])
            plus, minus = oracle.half_areas(pv, axis=1)
            assert hv.b_plus == pytest.approx(float(plus), rel=1e-9)
            assert hv.b_minus == pytest.approx(float(minus), rel=1e-9)
            assert hv.ratio == pytest.approx(float(plus / minus), rel=1e-9)


def hform_clip_volume(K, z, clip_normal):
    """Reference half: vertex enumeration of the polar's H-form cut by
    <clip_normal, y> <= 0 (one halfspace <x - z, y> <= 1 per vertex x of K)."""
    normals = np.vstack([K.vertices - z, clip_normal])
    offsets = np.append(np.ones(K.n_vertices), 0.0)
    return geo.volume(geo.vertex_enumeration(geo.HPolytope(normals, offsets)))


class TestRatioCurve:
    def test_symmetric_chord_midpoint_ratio_one(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        curve = pol.half_volume_ratio_curve(Sq, [0.3], axis=1)
        assert curve(0.0) == pytest.approx(1.0, rel=1e-9)

    def test_monotone_increasing_along_chord(self, rng):
        # empirical property used only as a bracketing aid (spec: documented
        # status; correctness never relies on it)
        for _ in range(50):
            K = random_body(rng, 2)
            c = geo.interior_point(K)
            curve = pol.half_volume_ratio_curve(K, c[:1], axis=1)
            vs = np.linspace(curve.bottom, curve.top, 12)[1:-1]
            lams = [curve(v) for v in vs]
            assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_limits_and_divergence_flags(self, rng):
        K = random_body(rng, 2)
        c = geo.interior_point(K)
        curve = pol.half_volume_ratio_curve(K, c[:1], axis=1)
        bottom = curve.at(curve.bottom)
        top = curve.at(curve.top)
        assert bottom.diverged and bottom.value == 0.0
        assert top.diverged and top.value == math.inf
        eps = 1e-5 * (curve.top - curve.bottom)
        assert curve(curve.bottom + eps) < 1e-2
        assert curve(curve.top - eps) > 1e2

    def test_line_misses_body(self):
        T = simplex(2)
        with pytest.raises(LineMissesBody):
            pol.half_volume_ratio_curve(T, [5.0], axis=1)


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
            try:
                a_s, a_t = san.balanced_points(system, s, t, float(c_m[1]), C)
            except Exception:
                continue
            G_s = np.array([C[0], a_s])
            G_t = np.array([C[0], a_t])
            G_m = np.array([C[0], 0.5 * (a_s + a_t)])
            P_s = pol.polar(K_s, G_s).polar
            P_t = pol.polar(K_t, G_t).polar
            P_m = pol.polar(K_m, G_m).polar
            tops = [P.vertices[:, -1].max() for P in (P_s, P_t)]
            for y in np.linspace(0.1, 0.9, 3) * tops[0]:
                for z in np.linspace(0.1, 0.9, 3) * tops[1]:
                    S_y = geo.section(P_s, 1, y)
                    T_z = geo.section(P_t, 1, z)
                    m = 2 * z * y / (z + y)
                    M_slice = geo.section(P_m, 1, m)
                    for u in S_y.vertices:
                        for w in T_z.vertices:
                            pt = (z * u + y * w) / (z + y)
                            assert M_slice.halfspaces.contains(pt, tol=1e-7)
