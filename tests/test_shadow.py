import itertools
import math

import numpy as np
import pytest

from conftest import random_body, set_equal
from santalo_lab import geometry as geo
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab.errors import DegenerateMap, InsufficientGrid
from santalo_lab.geometry import Hyperplane

CLASSIC_BODIES = {
    "cube": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
    "prism": [[x, y, z] for x, y in ((0, 0), (2, 0), (0.5, 1.5)) for z in (-1, 1)],
}


class TestBodyAt:
    def test_zero_speeds_constant(self, rng):
        P = random_body(rng, 2)
        system = sh.ShadowSystem(P.vertices, np.zeros(P.n_vertices),
                                 [0.0, 1.0], (-1.0, 1.0))
        for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert set_equal(sh.body_at(system, t), P, tol=1e-12)

    def test_t_zero_is_base_hull(self, rng):
        P = random_body(rng, 3)
        system = sh.ShadowSystem(P.vertices, rng.normal(size=P.n_vertices),
                                 [0.0, 0.0, 1.0], (-0.5, 0.5))
        assert set_equal(sh.body_at(system, 0.0), P, tol=1e-12)

    def test_single_moving_vertex_volume_affine(self):
        # shoelace: area of a triangle is affine in one vertex's coordinate
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0]])
        system = sh.ShadowSystem(tri, [0.0, 0.0, 1.0], [0.0, 1.0], (-0.5, 2.0))
        ts = np.linspace(-0.5, 2.0, 7)
        vols = [geo.volume(sh.body_at(system, t)) for t in ts]
        expected = [0.5 * (1.0 + t) for t in ts]
        assert np.allclose(vols, expected, rtol=1e-12)

    def test_construction_bodies_are_kept(self, rng, monkeypatch):
        system = sh.random_shadow_system(3, rng)
        lo, hi = system.interval
        hulls = []
        convex_hull = geo.convex_hull
        monkeypatch.setattr(geo, "convex_hull",
                            lambda pts: hulls.append(pts) or convex_hull(pts))
        for t in (lo, 0.5 * (lo + hi), hi):
            K = sh.body_at(system, np.float64(t))
            assert K is sh.body_at(system, t)
            moved = system.base_points + np.outer(system.speeds * t, system.direction)
            fresh, _ = convex_hull(moved)
            assert np.array_equal(K.vertices, fresh.vertices)
            assert np.array_equal(K.facet_simplices, fresh.facet_simplices)
        assert hulls == []
        sh.body_at(system, 0.3 * lo + 0.7 * hi)
        assert len(hulls) == 1

    def test_outside_interval_rejected(self, rng):
        system = sh.random_shadow_system(2, rng)
        with pytest.raises(ValueError):
            sh.body_at(system, system.interval[1] + 1.0)


class TestSweepAndVerdicts:
    def test_sweep_shape_and_flags(self, rng):
        system = sh.random_shadow_system(2, rng)
        grid = np.linspace(*system.interval, 9)
        rows = sh.sweep(system, grid)
        assert len(rows) == 9
        assert all(r.converged for r in rows)
        assert all(r.volume > 0 and r.polar_volume > 0 for r in rows)

    def test_warm_start_matches_cold(self, rng):
        # the sweep solves its rows together; each matches a cold solve
        for d, n_rows in ((2, 9), (3, 33), (4, 33)):
            system = sh.random_shadow_system(d, rng)
            grid = np.linspace(*system.interval, n_rows)
            _assert_rows_match_single_solves(system, grid, sh.sweep(system, grid))

    def test_constant_system_zero_violation(self, rng):
        P = random_body(rng, 2)
        system = sh.ShadowSystem(P.vertices, np.zeros(P.n_vertices),
                                 [0.0, 1.0], (-1.0, 1.0))
        rows = sh.sweep(system, np.linspace(-1, 1, 9))
        v = sh.check_volume_convexity(rows)
        assert v.is_midpoint_convex
        assert abs(v.worst_violation) < 1e-12 * max(r.volume for r in rows)

    def test_insufficient_grid(self, rng):
        system = sh.random_shadow_system(2, rng)
        rows = sh.sweep(system, np.linspace(*system.interval, 2))
        with pytest.raises(InsufficientGrid):
            sh.check_volume_convexity(rows)
        rows = sh.sweep(system, [system.interval[0], 0.0, system.interval[1] * 0.3])
        with pytest.raises(InsufficientGrid):
            sh.check_volume_convexity(rows)

    def test_verdict_matches_refined_grid(self, rng):
        system = sh.random_shadow_system(2, rng)
        coarse = sh.sweep(system, np.linspace(*system.interval, 33))
        fine = sh.sweep(system, np.linspace(*system.interval, 129))
        for checker in (sh.check_volume_convexity, sh.check_polar_convexity):
            assert checker(coarse).is_midpoint_convex
            assert checker(fine).is_midpoint_convex

    def test_reflection_symmetric_polar_max_at_zero(self, rng):
        # K_{-t} an affine image of K_t: |K_t^*| peaks at the symmetral
        K = random_body(rng, 2)
        H = Hyperplane([0.3, 1.0], 0.1)
        system = sh.steiner_system(K, H)
        rows = sh.sweep(system, np.linspace(-1, 1, 9))
        pv = [r.polar_volume for r in rows]
        assert max(pv) == pytest.approx(pv[4], rel=1e-9)
        assert sh.check_polar_convexity(rows).is_midpoint_convex

    def test_degenerate_row_recorded_not_raised(self):
        # base square collapses to a segment at t = 1
        sq = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        speeds = np.array([1.0, 1.0, 0.0, 0.0])
        system = sh.ShadowSystem(sq, speeds, [0.0, 1.0], (-0.5, 0.5))
        wide = sh.ShadowSystem(sq, speeds, [0.0, 1.0], (-0.5, 0.5))
        object.__setattr__(wide, "interval", (-0.5, 1.0))
        rows = sh.sweep(wide, [-0.5, 0.25, 1.0])
        assert rows[0].converged and rows[1].converged
        assert not rows[2].converged
        assert math.isnan(rows[2].volume)
        assert rows[2].iterations == 0 and math.isnan(rows[2].residual)
        assert all(r.residual <= san.TOL_SANT for r in rows[:2])


def _system_with(d, k, rng):
    """Random system with exactly k base points, all of them vertices."""
    while True:
        system = sh.random_shadow_system(d, rng, n_points=k - 2)
        if len(system.base_points) == k:
            return system


def _assert_rows_match_single_solves(system, grid, rows):
    """Each sweep row agrees with a cold solve of its body alone."""
    for t, r in zip(grid, rows):
        alone = san.santalo_point(sh.body_at(system, t))
        assert r.converged and alone.converged and r.iterations == alone.iterations
        assert r.polar_volume == pytest.approx(alone.polar_volume, rel=1e-8)
        assert np.allclose(r.santalo, alone.point, atol=1e-6)


@pytest.fixture
def solved(monkeypatch):
    """(body, result) of every row of every Santalo solve, in call order."""
    calls = []
    solve = san.santalo_points

    def recording(bodies, *args, **kwargs):
        results = solve(bodies, *args, **kwargs)
        calls.extend(zip(bodies, results))
        return results

    monkeypatch.setattr(san, "santalo_points", recording)
    return calls


@pytest.fixture
def carries(monkeypatch):
    """What each `_carried` call returned: None unless it certified."""
    calls = []
    carried = sh._carried

    def recording(pts, tri):
        calls.append(carried(pts, tri))
        return calls[-1]

    monkeypatch.setattr(sh, "_carried", recording)
    return calls


class TestCarriedCells:
    @pytest.mark.parametrize("d,k", [(2, 5), (3, 6), (4, 7)])
    def test_rows_match_fresh_hulls(self, d, k, rng, solved, qhull_calls):
        n_carried = 0
        for _ in range(10):
            system = _system_with(d, k, rng)
            grid = np.linspace(*system.interval, 33)
            qhull_calls.clear()
            solved.clear()
            rows = sh.sweep(system, grid)
            assert all(r.converged for r in rows)
            n_carried += len(grid) - len(qhull_calls)
            for t, r, (K, _) in zip(grid, rows, solved):
                fresh, _ = geo.convex_hull(system.points_at(t))
                assert set_equal(K, fresh, tol=1e-12)
                assert r.volume == pytest.approx(geo.volume(fresh), rel=1e-12)
                # the H-form keeps its row order: lexicographic, as from Qhull
                assert np.abs(K.halfspaces.normals - fresh.halfspaces.normals).max() <= 1e-12
                z = fresh.vertices.mean(axis=0)
                assert pol.polar(K, z).polar_volume == pytest.approx(
                    pol.polar(fresh, z).polar_volume, rel=1e-12)
        assert n_carried > 5 * len(grid)  # most rows ran no Qhull at all

    def test_fan_certificate_lets_only_flat_simplices_flip(self, rng, qhull_calls):
        # Qhull's triangulated 4D fans hold zero-volume simplices whose det
        # sign is rounding noise: flipping those keeps the fan, flipping the
        # largest one makes Qhull build a new fan
        while True:
            system = _system_with(4, 7, rng)
            lo, hi = system.interval
            K, idx, _ = sh._body(system, lo)
            first = sh._carried(system.points_at(lo), idx[K.facet_simplices])
            second = first and sh._carried(system.points_at(lo + (hi - lo) / 32),
                                           first[1][first[0].facet_simplices])
            if second is None:
                continue
            simplices, _ = sh._fan(first[0], first[2])
            K2, _, fit = second
            dets = np.linalg.det(fit[1][simplices])
            flat = (np.abs(dets) <= 1e-14 * np.abs(dets).sum()) & (dets != 0)
            if flat.any():
                break
        signs = np.sign(dets)
        signs[flat] *= -1
        kept = (simplices, signs)
        qhull_calls.clear()
        assert sh._fan(K2, fit, kept) is kept
        assert K2._polar_fan is not None and qhull_calls == []
        signs = np.sign(dets)
        signs[np.argmax(np.abs(dets))] *= -1
        K2._polar_fan = None
        sh._fan(K2, fit, (simplices, signs))
        assert len(qhull_calls) == 1
        z = K2.vertices.mean(axis=0)
        fresh, _ = geo.convex_hull(K2.vertices)
        assert pol.polar(K2, z).polar_volume == pytest.approx(
            pol.polar(fresh, z).polar_volume, rel=1e-12)

    def test_affine_family_runs_one_qhull(self, rng, qhull_calls):
        K = random_body(rng, 3)
        fam = sh.affine_family(K, v=0.3, V=[0.1, -0.2], u=0.05, interval=(-1.0, 1.0))
        qhull_calls.clear()
        rows = sh.sweep(fam, np.linspace(-1.0, 1.0, 17))
        assert len(qhull_calls) == 1  # the first row's polar fan
        assert all(r.converged for r in rows)

    def test_facet_flip_falls_back(self, carries, solved):
        # the fifth point crosses the square's top edge at t = 0.1
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        system = sh.ShadowSystem(np.vstack([square, [0.5, 0.9]]), [0, 0, 0, 0, 1.0],
                                 [0.0, 1.0], (-0.5, 0.5))
        grid = np.linspace(-0.5, 0.5, 17)
        rows = sh.sweep(system, grid)
        # the first row and every row that fails to carry the last simplices
        # try the fresh body's own simplices too
        fell_back = []
        it = iter(carries[1:])
        for t in grid[1:]:
            if next(it) is None:
                fell_back.append(t)
                next(it)
        assert fell_back == [0.125]
        for t, r, (K, _) in zip(grid, rows, solved):
            fresh, _ = geo.convex_hull(system.points_at(t))
            assert K.n_vertices == (5 if t > 0.1 else 4)
            assert set_equal(K, fresh, tol=1e-12)
            cold = san.santalo_point(fresh)
            assert r.volume == pytest.approx(geo.volume(fresh), rel=1e-14)
            assert r.polar_volume == pytest.approx(cold.polar_volume, rel=1e-8)
            assert np.allclose(r.santalo, cold.point, atol=1e-6)

    def test_steiner_sweep_always_falls_back(self, rng, carries):
        K = random_body(rng, 3)
        system = sh.steiner_system(K, Hyperplane([0.2, -0.3, 1.0], 0.1))
        grid = np.linspace(-1.0, 1.0, 9)
        rows = sh.sweep(system, grid)
        assert carries and all(c is None for c in carries)
        for t, r in zip(grid, rows):
            assert r.volume == geo.volume(sh.body_at(system, t))  # bitwise

    def test_secant_start_on_uneven_grid(self, rng, monkeypatch):
        # rows start at their vertex means, not at a secant prediction from
        # their neighbours, so an uneven grid needs no step ratios
        system = sh.random_shadow_system(3, rng)
        lo, hi = system.interval
        grid = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 15)]))
        solve, options = san.santalo_points, []

        def recording(bodies, *args, **kwargs):
            options.append((args, kwargs))
            return solve(bodies, *args, **kwargs)

        monkeypatch.setattr(san, "santalo_points", recording)
        rows = sh.sweep(system, grid)
        assert options == [((), {})]  # one stack, no starts given
        _assert_rows_match_single_solves(system, grid, rows)

    def test_stacked_rows_match_single_solves(self, rng, solved):
        # one stacked solve, its rows padded to the most facets and the
        # largest fan, gives each row what a solve of that body alone gives
        cases, mixed = [], 0
        for d in (2, 3, 4):
            system = sh.random_shadow_system(d, rng)
            lo, hi = system.interval
            uneven = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 15)]))
            cases += [(system, np.linspace(lo, hi, 33)), (system, uneven)]
        cases.append((sh.random_shadow_system(5, rng), np.linspace(-0.5, 0.5, 9)))
        for system, grid in cases:
            solved.clear()
            rows = sh.sweep(system, grid)
            assert len(solved) == len(grid)  # a single stack, no fallback
            mixed += len({K.halfspaces.n_facets for K, _ in solved}) > 1
            _assert_rows_match_single_solves(system, grid, rows)
        assert mixed >= 3

    def test_row_whose_solve_raises_is_recorded(self, rng, monkeypatch):
        # the stacked solve raises, so the rows are solved one by one and
        # only the row whose own solve raises is recorded as failed
        system = sh.random_shadow_system(2, rng)
        grid = np.linspace(*system.interval, 9)
        plain = sh.sweep(system, grid)
        solve, calls = san.santalo_points, []

        def failing(bodies, *args, **kwargs):
            calls.append(len(bodies))
            if len(bodies) > 1 or len(calls) == 6:  # the stack, then row 4
                raise pol.CenterNotInterior("center on the boundary")
            return solve(bodies, *args, **kwargs)

        monkeypatch.setattr(san, "santalo_points", failing)
        rows = sh.sweep(system, grid)
        assert calls == [9] + [1] * 9
        assert rows[4].note == "center on the boundary" and not rows[4].converged
        assert math.isnan(rows[4].polar_volume) and math.isnan(rows[4].volume)
        for a, b in zip(rows[:4] + rows[5:], plain[:4] + plain[5:]):
            assert a.converged and a.volume == b.volume
            assert a.polar_volume == pytest.approx(b.polar_volume, rel=1e-12)


class TestAffineFamily:
    def test_pure_translation(self, rng):
        K = random_body(rng, 2)
        fam = sh.affine_family(K, v=0.0, V=[0.0], u=0.5, interval=(-1.0, 1.0))
        vols = [geo.volume(sh.body_at(fam, t)) for t in np.linspace(-1, 1, 5)]
        assert np.allclose(vols, geo.volume(K), rtol=1e-12)
        pis = [pol.volume_product(sh.body_at(fam, t))
               for t in np.linspace(-1, 1, 5)]
        assert np.allclose(pis, pis[0], rtol=1e-9)

    def test_volume_scaling_laws(self, rng):
        K = random_body(rng, 2)
        v, mid = 0.45, 0.0
        fam = sh.affine_family(K, v=v, V=[0.2], u=0.1, interval=(-1.0, 1.0))
        vol0 = geo.volume(K)
        pv0 = pol.volume_product(K) / vol0
        for t in np.linspace(-1, 1, 5):
            body = sh.body_at(fam, t)
            factor = v * (t - mid) + 1.0
            assert geo.volume(body) == pytest.approx(vol0 * factor, rel=1e-10)
            pv = pol.volume_product(body) / geo.volume(body)
            assert pv == pytest.approx(pv0 / factor, rel=1e-8)

    def test_volume_product_constant(self, rng):
        K = random_body(rng, 3)
        fam = sh.affine_family(K, v=0.3, V=[0.1, -0.2], u=0.0,
                               interval=(-1.0, 1.0))
        pis = [pol.volume_product(sh.body_at(fam, t))
               for t in np.linspace(-1, 1, 7)]
        assert (max(pis) - min(pis)) / max(pis) < 1e-9

    def test_degenerate_map_rejected(self, rng):
        K = random_body(rng, 2)
        with pytest.raises(DegenerateMap):
            sh.affine_family(K, v=1.2, V=[0.0], u=0.0, interval=(-1.0, 1.0))


class TestSteiner:
    def test_symmetric_body_zero_speeds(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        system = sh.steiner_system(Sq, Hyperplane([0.0, 1.0], 0.0))
        assert np.max(np.abs(system.speeds)) < 1e-12

    def test_volume_preserved_along_sweep(self, rng):
        for _ in range(10):
            d = 2 if rng.uniform() < 0.5 else 3
            K = random_body(rng, d)
            H = Hyperplane(rng.normal(size=d), 0.1 * rng.normal())
            system = sh.steiner_system(K, H)
            v0 = geo.volume(K)
            for t in (-1.0, -0.4, 0.0, 0.6, 1.0):
                assert geo.volume(sh.body_at(system, t)) == pytest.approx(
                    v0, rel=1e-9)

    def test_endpoints_are_body_and_mirror(self, rng):
        K = random_body(rng, 3)
        H = Hyperplane(rng.normal(size=3), 0.2)
        system = sh.steiner_system(K, H)
        assert set_equal(sh.body_at(system, -1.0), K, tol=1e-8)
        assert set_equal(sh.body_at(system, 1.0), sh.reflect(K, H), tol=1e-8)

    def test_symmetral_polar_volume_increases(self, rng):
        for _ in range(10):
            d = 2 if rng.uniform() < 0.5 else 3
            K = random_body(rng, d)
            H = Hyperplane(rng.normal(size=d), 0.0)
            KH = sh.steiner_symmetral(K, H)
            assert pol.volume_product(KH) >= pol.volume_product(K) - 1e-7

    def test_symmetral_is_symmetric(self, rng):
        K = random_body(rng, 2)
        H = Hyperplane([0.0, 1.0], 0.25)
        KH = sh.steiner_symmetral(K, H)
        assert set_equal(sh.reflect(KH, H), KH, tol=1e-9)

    @staticmethod
    def _check_chords(K, H, rng, ts=(-1.0, -0.5, 0.0, 0.5, 1.0)):
        """Chords orthogonal to H at 20 interior base points keep their length."""
        system = sh.steiner_system(K, H)
        proj = geo.to_frame(K.vertices, H)[:, :-1]
        bases = rng.dirichlet(np.full(K.n_vertices, 0.3), size=20) @ proj

        def chords(P):
            Pf = geo.VPolytope(geo.to_frame(P.vertices, H))
            return np.array([np.diff(geo.chord(Pf, X))[0] for X in bases])

        lengths = chords(K)
        for t in ts:
            assert np.allclose(chords(sh.body_at(system, t)), lengths,
                               rtol=0, atol=1e-9)
        return system

    @pytest.mark.parametrize("name", sorted(CLASSIC_BODIES))
    def test_classic_bodies_chords_preserved(self, name, rng):
        # the triangulation adds diagonals on the cube's and the prism's
        # square facets; the octahedron has four facets at every vertex
        K, _ = geo.convex_hull(CLASSIC_BODIES[name])
        H = Hyperplane(rng.normal(size=3), 0.1)
        KH = sh.body_at(self._check_chords(K, H, rng), 0.0)
        assert set_equal(sh.reflect(KH, H), KH, tol=1e-9)

    def test_random_bodies_chords_preserved(self, rng):
        for _ in range(10):
            K = random_body(rng, 3, extra=6)
            self._check_chords(K, Hyperplane(rng.normal(size=3), 0.1), rng,
                               ts=(-0.5, 0.0, 0.5))

    def test_segment_crossings_match_pairwise_loop(self, rng):
        def reference(segs_a, segs_b, tol):
            out = []
            for (p1, p2), (q1, q2) in itertools.product(segs_a, segs_b):
                r = p2 - p1
                s = q2 - q1
                denom = r[0] * s[1] - r[1] * s[0]
                if abs(denom) <= tol:
                    continue
                w = q1 - p1
                tt = (w[0] * s[1] - w[1] * s[0]) / denom
                uu = (w[0] * r[1] - w[1] * r[0]) / denom
                if -1e-12 <= tt <= 1 + 1e-12 and -1e-12 <= uu <= 1 + 1e-12:
                    out.append(p1 + tt * r)
            return np.reshape(out, (-1, 2))

        for _ in range(30):
            # endpoints drawn from a small pool: shared endpoints, repeated
            # and parallel segments all occur
            pool = rng.integers(-3, 4, size=(8, 2)).astype(float)
            pool[4:] = rng.normal(size=(4, 2))
            a = pool[rng.integers(0, 8, size=(rng.integers(0, 12), 2))]
            b = pool[rng.integers(0, 8, size=(rng.integers(1, 12), 2))]
            got = sh._segment_crossings_2d(a, b, 1e-14)
            assert np.array_equal(got, reference(a, b, 1e-14))


class TestBrunnMidpointCheck:
    def test_ellipse_like_polygon_passes(self):
        # 64-gon inscribed in an ellipse: midpoints are planar up to the
        # polygonal approximation error ~ (pi/64)^2 / 2, not to 1e-6
        ang = 2 * math.pi * np.arange(64) / 64
        E, _ = geo.convex_hull(np.column_stack([2.0 * np.cos(ang), np.sin(ang)]))
        assert sh.brunn_midpoint_check(E, tol=2e-3)

    def test_triangle_fails(self):
        T, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1]])
        assert not sh.brunn_midpoint_check(T, tol=1e-6)
        assert not sh.brunn_midpoint_check(T, tol=2e-3)

    def test_parallelogram_side_directions_pass_but_not_all(self):
        P, _ = geo.convex_hull([[0, 0], [2, 0.5], [0.7, 1.5], [2.7, 2.0]])
        # chords parallel to a side pair: midpoints exactly coplanar
        side = P.vertices[1] - P.vertices[0]
        H = Hyperplane(side, 0.0)
        coords = geo.to_frame(P.vertices, H)
        Kf = geo.VPolytope(coords)
        proj, _ = geo.convex_hull(coords[:, :-1])
        c = proj.vertices.mean(axis=0)
        mids = []
        for lam in (0.0, 0.4, 0.8):
            for w in proj.vertices:
                X = (1 - lam) * c + lam * w
                lo, hi = geo._vertical_extent(Kf, X, 1)
                mids.append([X[0], 0.5 * (lo + hi)])
        mids = np.array(mids)
        fit = np.polyfit(mids[:, 0], mids[:, 1], 1)
        resid = np.max(np.abs(np.polyval(fit, mids[:, 0]) - mids[:, 1]))
        assert resid < 1e-9 * geo.diameter(P)
        # but random directions break planarity
        assert not sh.brunn_midpoint_check(P, tol=1e-6)


class TestAffineFamilyFit:
    def test_recovers_parameters(self, rng):
        K = random_body(rng, 2)
        fam = sh.affine_family(K, v=0.35, V=[0.2], u=-0.1, interval=(-1.0, 1.0))
        fit = sh.fit_affine_family(fam)
        assert fit.sweeps_affine and fit.reproduces
        assert fit.v == pytest.approx(0.35, abs=1e-9)
        assert fit.V[0] == pytest.approx(0.2, abs=1e-9)
        assert fit.u == pytest.approx(-0.1, abs=1e-9)
        assert "confirmed" in fit.verdict

    def test_generic_system_not_affine(self, rng):
        system = sh.random_shadow_system(2, rng)
        fit = sh.fit_affine_family(system)
        assert not fit.sweeps_affine

    def test_3d_family(self, rng):
        K = random_body(rng, 3)
        fam = sh.affine_family(K, v=-0.2, V=[0.1, 0.3], u=0.05,
                               interval=(-0.5, 0.5))
        fit = sh.fit_affine_family(fam)
        assert fit.reproduces
        assert np.allclose(fit.V, [0.1, 0.3], atol=1e-9)


class TestSystemProperties:
    def test_translation_equivariance(self, rng):
        system = sh.random_shadow_system(2, rng)
        w = np.array([3.0, -1.5])
        moved = sh.ShadowSystem(system.base_points + w, system.speeds,
                                system.direction, system.interval)
        for t in np.linspace(*system.interval, 5):
            A = sh.body_at(system, t)
            B = sh.body_at(moved, t)
            assert set_equal(geo.translate(A, w), B, tol=1e-9)

    def test_speed_interval_reparametrization(self, rng):
        system = sh.random_shadow_system(2, rng)
        c = 2.5
        lo, hi = system.interval
        scaled = sh.ShadowSystem(system.base_points, c * system.speeds,
                                 system.direction, (lo / c, hi / c))
        for t in np.linspace(lo, hi, 5):
            A = sh.body_at(system, t)
            B = sh.body_at(scaled, t / c)
            assert set_equal(A, B, tol=1e-9)
