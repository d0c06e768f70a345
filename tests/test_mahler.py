import itertools
import math

import numpy as np
import pytest

from conftest import random_body
from santalo_lab import geometry as geo
from santalo_lab import mahler as mah
from santalo_lab import polarity as pol
from santalo_lab import shadow as sh
from santalo_lab.errors import DegenerateAt, DegenerateInput, TooManyVertices
from santalo_lab.mahler import CaseLabel


def simplex(d):
    P, _ = geo.convex_hull(np.vstack([np.zeros(d), np.eye(d)]))
    return P


QUAD_BASE = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]],
                     dtype=float)


# Reference: the per-subset loop that `mahler._configuration` replaced.
def _reference_hyperplane_of(points):
    """Unit normal and offset through d points; None if nearly dependent."""
    if points.shape[0] != points.shape[1]:
        raise ValueError("need exactly d points")
    center = points.mean(axis=0)
    _, s, vt = np.linalg.svd(points - center, full_matrices=True)
    scale = max(1.0, float(np.max(np.abs(points))))
    if s[-2] <= 1e-7 * scale:  # affinely dependent subset: ambiguous normal
        return None
    normal = vt[-1]
    return normal, float(normal @ center)


def _reference_configuration(K):
    verts = K.vertices
    n, d = verts.shape
    if n < d + 1:
        raise DegenerateInput("fewer than d+1 vertices")
    if n > d + 3:
        raise TooManyVertices(f"{n} vertices exceeds d+3 = {d + 3}")
    scale = K.scale()
    tau_on = geo.TAU_GEOM * max(1.0, scale)
    if n == d + 1:
        return mah._Config(CaseLabel.SIMPLEX, margin_ok=True)

    best_count = 0
    best_on = ()
    best_plane = None
    margin_ok = True
    for idx in itertools.combinations(range(n), d):
        plane = _reference_hyperplane_of(verts[list(idx)])
        if plane is None:
            margin_ok = False
            continue
        normal, offset = plane
        dist = np.abs(verts @ normal - offset)
        on = dist <= tau_on
        if np.any((dist > tau_on) & (dist <= 10 * tau_on)):
            margin_ok = False
        count = int(np.sum(on))
        if count > best_count:
            best_count = count
            best_on = tuple(np.flatnonzero(on))
            best_plane = plane
    if best_plane is None:
        raise DegenerateInput("all defining subsets are affinely dependent")

    if n == d + 2:
        if best_count >= d + 1:
            return mah._Config(CaseLabel.PYRAMID_Ia, margin_ok,
                               coplanar=best_on,
                               off=tuple(i for i in range(n) if i not in best_on),
                               hyperplane=geo.Hyperplane(*best_plane))
        return mah._Config(CaseLabel.SIMPLICIAL_Ib, margin_ok)

    if best_count >= d + 2:
        return mah._Config(CaseLabel.PYRAMID_IIa, margin_ok,
                           coplanar=best_on,
                           off=tuple(i for i in range(n) if i not in best_on),
                           hyperplane=geo.Hyperplane(*best_plane))
    if best_count == d:
        return mah._Config(CaseLabel.SIMPLICIAL_IIc, margin_ok)

    normal, offset = best_plane
    off = tuple(i for i in range(n) if i not in best_on)
    heights = verts[list(off)] @ normal - offset
    if heights[0] * heights[1] < 0:
        if heights[0] > 0:
            off = (off[1], off[0])
            heights = heights[::-1]
        label = CaseLabel.DOUBLE_PYR_IIb1
    else:
        if heights[0] < 0:
            normal, offset, heights = -normal, -offset, -heights
        if abs(heights[0] - heights[1]) <= tau_on:
            label = CaseLabel.PARALLEL_IIb3
        else:
            if abs(heights[0] - heights[1]) <= 10 * tau_on:
                margin_ok = False
            if heights[0] > heights[1]:
                off = (off[1], off[0])
                heights = heights[::-1]
            label = CaseLabel.SKEW_IIb2
    return mah._Config(label, margin_ok, coplanar=best_on, off=off,
                       hyperplane=geo.Hyperplane(normal, offset),
                       xi=(float(heights[0]), float(heights[1])))


def _config_bits(cfg):
    """Every field of a _Config, floats as exact bit patterns."""
    plane = cfg.hyperplane
    return (cfg.label, cfg.margin_ok, tuple(map(int, cfg.coplanar)),
            tuple(map(int, cfg.off)),
            None if plane is None else (plane.normal.tobytes(), plane.offset.hex()),
            tuple(x.hex() for x in cfg.xi))


def _near_degenerate_points(rng, d, k, i):
    """k ball points; every third set has one vertex pushed 1e-12..1e-6 off
    the plane of a d-subset, alternating with a vertex 1e-12..1e-6 from
    another one (an affinely dependent subset)."""
    pts = mah._ball_points(rng, k, d)
    if i % 3:
        return pts
    idx = rng.permutation(k)
    gap = 10.0 ** rng.uniform(-12, -6)
    if i % 6 == 0:
        sub = pts[idx[:d]]
        center = sub.mean(axis=0)
        normal = np.linalg.svd(sub - center)[2][-1]
        p = pts[idx[d]]
        pts[idx[d]] = p - ((p - center) @ normal - gap) * normal
    else:
        u = rng.normal(size=d)
        pts[idx[1]] = pts[idx[0]] + gap * u / np.linalg.norm(u)
    return pts


class TestSimplexBound:
    def test_values(self):
        assert mah.simplex_bound(2) == pytest.approx(6.75)
        assert mah.simplex_bound(3) == pytest.approx(64 / 9)
        assert mah.simplex_bound(4) == pytest.approx(3125 / 576)

    def test_d1_segment_hand_computation(self):
        # |K| * |K^{*mid}| for a segment of length L: L * (2/(L/2)) / ... = 4
        L = 3.7
        value = L * (2.0 / (L / 2.0)) / 1.0
        assert mah.simplex_bound(1) == pytest.approx(4.0) == pytest.approx(value)


class TestClassify:
    def test_simplex(self):
        assert mah.classify(simplex(3)) is CaseLabel.SIMPLEX

    def test_square_based_pyramid(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE, [0.2, 0.1, 1.5]]))
        assert mah.classify(P) is CaseLabel.PYRAMID_Ia

    def test_pyramid_over_pentagon(self):
        ang = 2 * math.pi * np.arange(5) / 5
        penta = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(5)])
        P, _ = geo.convex_hull(np.vstack([penta, [0.1, 0.0, 1.0]]))
        assert mah.classify(P) is CaseLabel.PYRAMID_IIa

    def test_double_pyramid(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.2, 0.1, 1.3], [-0.1, 0.2, -1.1]]))
        assert mah.classify(P) is CaseLabel.DOUBLE_PYR_IIb1

    def test_skew_apex_pair(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [2.5, 0.2, 0.8], [0.3, 0.1, 1.9]]))
        assert mah.classify(P) is CaseLabel.SKEW_IIb2

    def test_parallel_apex_pair(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.8, 0.4, 1.2], [-0.5, -0.3, 1.2]]))
        assert mah.classify(P) is CaseLabel.PARALLEL_IIb3

    def test_2d_cases_are_simplicial(self, rng):
        # three collinear points can never all be vertices in the plane
        assert mah.classify(mah.random_polytope(2, 4, rng)) is CaseLabel.SIMPLICIAL_Ib
        assert mah.classify(mah.random_polytope(2, 5, rng)) is CaseLabel.SIMPLICIAL_IIc

    def test_too_many_vertices(self, rng):
        P = mah._random_polygon(rng, 6)
        with pytest.raises(TooManyVertices):
            mah.classify(P)

    def test_stacked_pass_matches_loop_reference(self):
        # bitwise-equal configs on clean and near-degenerate bodies
        rng = np.random.default_rng(314)
        seen = []
        for d, k in ((2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (4, 7), (5, 7), (5, 8)):
            for i in range(330):
                try:
                    K, _ = geo.convex_hull(_near_degenerate_points(rng, d, k, i))
                except DegenerateInput:
                    continue
                if K.n_vertices != k:
                    continue
                try:
                    ref = _reference_configuration(K)
                except DegenerateInput as exc:
                    with pytest.raises(DegenerateInput, match=str(exc)):
                        mah._configuration(K)
                    continue
                got = mah._configuration(K)
                assert _config_bits(got) == _config_bits(ref), (d, k, i)
                seen.append((got.label, got.margin_ok, i % 6))
        assert len(seen) >= 2000
        # the margin band, the dependent-subset branch and every few-vertex
        # label that random points reach are exercised
        assert sum(not ok and j == 0 for _, ok, j in seen) >= 100
        assert sum(not ok and j == 3 for _, ok, j in seen) >= 20
        labels = {label for label, _, _ in seen}
        assert labels >= {CaseLabel.SIMPLICIAL_Ib, CaseLabel.SIMPLICIAL_IIc,
                          CaseLabel.PYRAMID_Ia, CaseLabel.DOUBLE_PYR_IIb1,
                          CaseLabel.SKEW_IIb2}

    def test_stacked_pass_matches_loop_on_hand_built_cases(self):
        ang = 2 * math.pi * np.arange(5) / 5
        penta = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(5)])
        for points in ([QUAD_BASE, [0.2, 0.1, 1.5]],
                       [penta, [0.1, 0.0, 1.0]],
                       [QUAD_BASE, [0.2, 0.1, 1.3], [-0.1, 0.2, -1.1]],
                       [QUAD_BASE, [2.5, 0.2, 0.8], [0.3, 0.1, 1.9]],
                       [QUAD_BASE, [0.8, 0.4, 1.2], [-0.5, -0.3, 1.2]]):
            K, _ = geo.convex_hull(np.vstack(points))
            assert (_config_bits(mah._configuration(K))
                    == _config_bits(_reference_configuration(K)))

    def test_stacked_pass_raises_the_loop_errors(self):
        rng = np.random.default_rng(5)
        too_few = geo.VPolytope([[0.0, 0.0], [1.0, 0.0]])
        all_dependent = geo.VPolytope(1e-9 * rng.normal(size=(4, 2)))
        too_many = geo.VPolytope(rng.normal(size=(6, 2)))
        for K, error in ((too_few, DegenerateInput), (all_dependent, DegenerateInput),
                         (too_many, TooManyVertices)):
            with pytest.raises(error) as ref:
                _reference_configuration(K)
            with pytest.raises(error) as got:
                mah._configuration(K)
            assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pyramids_carry_their_base_plane(self, d):
        # a base of d+1 or d+2 points on a bowl 1e-10 deep (in convex
        # position, so in d = 2 too), under an apex, rotated and moved: the
        # coplanar vertices lie on the plane
        rng = np.random.default_rng(d)
        for i in range(50):
            k = d + 2 + i % 2
            K = None
            while K is None or K.n_vertices < k:  # Qhull merged a shallow vertex
                X = mah._ball_points(rng, k - 1, d - 1)
                base = np.column_stack([X, 1e-10 * ((X * X).sum(axis=1) - 1)])
                apex = np.append(0.3 * rng.normal(size=d - 1), rng.uniform(0.5, 2.0))
                Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
                K, _ = geo.convex_hull(np.vstack([base, apex]) @ Q.T + rng.normal(size=d))
            cfg = mah._configuration(K)
            assert cfg.label is (CaseLabel.PYRAMID_Ia if k == d + 2 else CaseLabel.PYRAMID_IIa)
            H = cfg.hyperplane
            on = K.vertices[list(cfg.coplanar)] @ H.normal - H.offset
            assert len(cfg.coplanar) == k - 1
            assert np.abs(on).max() <= geo.TAU_GEOM * max(1.0, K.scale())
            (apex_height,) = K.vertices[list(cfg.off)] @ H.normal - H.offset
            assert abs(apex_height) > 0.1

    def test_fuzz_totality(self):
        # classification is total and single-valued on clean samples
        rng = np.random.default_rng(99)
        budget = [(2, 5000), (3, 4200), (4, 800)]
        for d, trials in budget:
            for i in range(trials):
                k = d + 1 + int(rng.integers(0, 3))
                P = mah.random_polytope(d, k, rng)
                label = mah.classify(P)
                assert isinstance(label, CaseLabel)
                if k == d + 1:
                    assert label is CaseLabel.SIMPLEX


class TestConfigurationCache:
    @staticmethod
    def _record_svd(monkeypatch):
        """Copies of every stacked (m, d, d) array handed to np.linalg.svd."""
        stacks = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(np.array(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return stacks

    def test_one_pass_per_accepted_body(self, monkeypatch):
        stacks = self._record_svd(monkeypatch)
        accepted = []
        random_polytope = mah.random_polytope

        def recording(*args, **kwargs):
            accepted.append(random_polytope(*args, **kwargs))
            return accepted[-1]

        monkeypatch.setattr(mah, "random_polytope", recording)
        for d, k in ((2, 4), (2, 5), (3, 5), (3, 6), (4, 7)):
            for seed in range(3):
                stacks.clear()
                accepted.clear()
                mah.few_vertex_campaign(d, k, 1, seed)
                (K,) = accepted
                points = K.vertices[list(itertools.combinations(range(k), d))]
                own = points - points.mean(axis=1, keepdims=True)
                # the margin check's pass is the body's only one: classify
                # reads the cached config
                assert sum(np.array_equal(a, own) for a in stacks) == 1
                assert np.array_equal(stacks[-1], own)

    def test_distinct_bodies_get_their_own_config(self, monkeypatch):
        stacks = self._record_svd(monkeypatch)
        pyramid, _ = geo.convex_hull(np.vstack([QUAD_BASE, [0.2, 0.1, 1.5]]))
        double, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                               [0.2, 0.1, 1.3], [-0.1, 0.2, -1.1]]))
        twin = geo.VPolytope(pyramid.vertices.copy())  # equal points, new body
        mah._configuration.cache_clear()
        assert mah.classify(pyramid) is CaseLabel.PYRAMID_Ia
        assert mah.classify(pyramid) is CaseLabel.PYRAMID_Ia
        assert len(stacks) == 1
        assert mah.classify(double) is CaseLabel.DOUBLE_PYR_IIb1
        assert mah.descent_move(double).label is CaseLabel.DOUBLE_PYR_IIb1
        assert len(stacks) == 2
        # only the last body is kept, and bodies are keyed by identity
        assert mah.classify(pyramid) is CaseLabel.PYRAMID_Ia
        assert mah.classify(twin) is CaseLabel.PYRAMID_Ia
        assert len(stacks) == 4
        assert mah._configuration(twin) is not mah._configuration(pyramid)


class TestPyramidFactorization:
    def test_triangle_base_reproduces_simplex(self):
        F = simplex(2)
        rep = mah.pyramid_factorization_check(F, [0.3, 0.2, 1.0])
        assert rep.pi_d == pytest.approx(64 / 9, rel=1e-9)
        assert rep.factorization_error < 1e-9

    def test_square_base(self):
        Sq, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1], [1, 1]])
        rep = mah.pyramid_factorization_check(Sq, [0.5, 0.3, 0.9])
        assert rep.pi_d == pytest.approx(256 / 243 * 8.0, rel=1e-8)

    def test_segment_base_reproduces_triangle(self):
        # d = 2: the base is a segment, whose polar fan is its two facets
        F, _ = geo.convex_hull([[0.0], [1.0]])
        rep = mah.pyramid_factorization_check(F, [0.3, 1.0])
        assert rep.pi_d == pytest.approx(27 / 4, rel=1e-9)
        assert rep.pi_base == pytest.approx(4.0, rel=1e-12)
        assert rep.factorization_error < 1e-12
        assert rep.santalo_ratio == pytest.approx(3.0, rel=1e-6)

    def test_one_solve_per_body(self, rng, monkeypatch):
        F, _ = geo.convex_hull(rng.normal(size=(5, 2)))
        apex = np.append(rng.normal(size=2), 1.2)
        K, _ = geo.convex_hull(np.vstack([geo.embed_point(F.vertices, 0.0, 2), apex]))
        solves = []
        solve = mah.san.santalo_point

        def counting(P, *args, **kwargs):
            solves.append(P)
            return solve(P, *args, **kwargs)

        monkeypatch.setattr(mah.san, "santalo_point", counting)
        rep = mah.pyramid_factorization_check(F, apex)
        assert len(solves) == 2
        monkeypatch.undo()
        assert rep.pi_d == pol.volume_product(K)
        assert rep.pi_base == pol.volume_product(F)

    def test_random_3d_ratio_is_four(self, rng):
        for _ in range(10):
            F, _ = geo.convex_hull(rng.normal(size=(5, 2)))
            apex = np.append(rng.normal(size=2), rng.uniform(0.5, 2.0))
            rep = mah.pyramid_factorization_check(F, apex)
            assert rep.santalo_ratio == pytest.approx(4.0, abs=1e-4)
            assert rep.factorization_error < 1e-6

    def test_identity_d3_and_d4(self, rng):
        # factorization relative error stays below 1e-6 across dimensions
        for d, n in ((3, 60), (4, 40)):
            for _ in range(n):
                F = random_body(rng, d - 1, extra=2)
                apex = np.append(rng.normal(size=d - 1),
                                 rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1))
                rep = mah.pyramid_factorization_check(F, apex)
                assert rep.factorization_error < 1e-6


class TestDescentMoves:
    def test_pyramids_and_simplices_refused(self, rng):
        with pytest.raises(ValueError):
            mah.descent_move(simplex(3))
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE, [0.2, 0.1, 1.5]]))
        with pytest.raises(ValueError):
            mah.descent_move(P)

    def test_double_pyramid_endpoints_are_pyramids(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.2, 0.1, 1.3], [-0.1, 0.2, -1.1]]))
        mv = mah.descent_move(P)
        K1 = sh.body_at(mv.system, mv.system.interval[0])
        K2 = sh.body_at(mv.system, mv.system.interval[1])
        assert mah.classify(K1) is CaseLabel.PYRAMID_Ia
        assert mah.classify(K2) is CaseLabel.PYRAMID_Ia
        vols = [geo.volume(sh.body_at(mv.system, t))
                for t in np.linspace(*mv.system.interval, 9)]
        assert (max(vols) - min(vols)) / max(vols) < 1e-9

    def test_skew_volume_cancellation(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [2.5, 0.2, 0.8], [0.3, 0.1, 1.9]]))
        mv = mah.descent_move(P)
        vols = [geo.volume(sh.body_at(mv.system, t))
                for t in np.linspace(*mv.system.interval, 9)]
        assert (max(vols) - min(vols)) / max(vols) < 1e-9
        K1 = sh.body_at(mv.system, mv.system.interval[0])
        K2 = sh.body_at(mv.system, mv.system.interval[1])
        assert mah.classify(K1) is CaseLabel.PYRAMID_IIa
        assert mah.classify(K2) is CaseLabel.PYRAMID_Ia

    def test_parallel_volume_slope_matches_finite_differences(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.8, 0.4, 1.2], [-0.5, -0.3, 1.2]]))
        mv = mah.descent_move(P)
        assert mv.volume_behavior == "affine"
        ts = np.linspace(-1.0, 4.0, 11)
        vols = np.array([geo.volume(sh.body_at(mv.system, t)) for t in ts])
        fd = np.diff(vols) / np.diff(ts)
        assert np.allclose(fd, mv.expected_slope, rtol=1e-9)
        # t = -1 merges the apexes into a pyramid
        assert mah.classify(sh.body_at(mv.system, -1.0)) is CaseLabel.PYRAMID_Ia

    def test_slide_volume_preserved_and_endpoints_simpler(self, rng):
        seen = 0
        while seen < 6:
            d = 2 if seen % 2 else 3
            k = d + 2 if seen < 4 else d + 3
            K = mah.random_polytope(d, k, rng)
            label = mah.classify(K)
            if label not in (CaseLabel.SIMPLICIAL_Ib, CaseLabel.SIMPLICIAL_IIc):
                continue
            seen += 1
            mv = mah.descent_move(K)
            vols = [geo.volume(sh.body_at(mv.system, t))
                    for t in np.linspace(*mv.system.interval, 7)]
            assert (max(vols) - min(vols)) / max(vols) < 1e-9

    def test_slide_direction_keeps_finite_difference_volume(self, rng):
        # reference: central differences of |conv(rest u {y})| at y = x0
        def fd_gradient(rest, x0, scale):
            step = 1e-5 * max(1.0, scale)
            grad = np.zeros(len(x0))
            for i, e in enumerate(step * np.eye(len(x0))):
                up, _ = geo.convex_hull(np.vstack([rest, x0 + e]))
                down, _ = geo.convex_hull(np.vstack([rest, x0 - e]))
                grad[i] = (geo.volume(up) - geo.volume(down)) / (2 * step)
            return grad

        for d, k in ((2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (4, 7)):
            seen = 0
            while seen < 8:
                K = mah.random_polytope(d, k, rng)
                if mah.classify(K) not in (CaseLabel.SIMPLICIAL_Ib,
                                           CaseLabel.SIMPLICIAL_IIc):
                    continue
                seen += 1
                v = mah.descent_move(K).system.direction
                g = fd_gradient(K.vertices[1:], K.vertices[0], K.scale())
                assert abs(v @ g) <= 1e-9 * np.linalg.norm(g)


class TestDescentMonotonicity:
    def test_affine_family_constant(self, rng):
        # constant volume product: endpoints trivially minimal
        K = random_body(rng, 2)
        fam = sh.affine_family(K, v=0.3, V=[0.1], u=0.0, interval=(-1.0, 1.0))
        mv = mah.DescentMove(fam, CaseLabel.SIMPLICIAL_Ib)
        rep = mah.verify_descent_monotonicity(mv, n_grid=9)
        assert rep.endpoint_minimal
        pis = rep.volume_products
        assert (pis.max() - pis.min()) / pis.max() < 1e-7

    def test_failed_sweep_row_raises(self):
        # the apex crosses the base line at t = 0, an interior grid point
        system = sh.ShadowSystem([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]],
                                 [0.0, 0.0, 1.0], [0.0, 1.0], (-1.0, 0.5))
        mv = mah.DescentMove(system, CaseLabel.SIMPLICIAL_Ib)
        with pytest.raises(DegenerateAt) as err:
            mah.verify_descent_monotonicity(mv, n_grid=7)
        assert err.value.t == 0.0

    def test_double_pyramid_endpoint_minimality(self, rng):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.2, 0.1, 1.3], [-0.1, 0.2, -1.1]]))
        mv = mah.descent_move(P)
        rep = mah.verify_descent_monotonicity(mv, n_grid=17)
        assert rep.endpoint_minimal and rep.volume_behavior_ok
        rep_dense = mah.verify_descent_monotonicity(mv, n_grid=65)
        assert rep_dense.endpoint_minimal

    def test_parallel_no_interior_minimum(self):
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.8, 0.4, 1.2], [-0.5, -0.3, 1.2]]))
        mv = mah.descent_move(P)
        rep = mah.verify_descent_monotonicity(mv, n_grid=25)
        assert rep.endpoint_minimal
        assert rep.volume_behavior_ok
        assert rep.inverse_polar_convex

    def test_warm_sweep_converges_where_armijo_stalls(self):
        # Near the optimum of this elongated body the predicted decrease is
        # below the rounding noise of |K^*|, so Armijo alone rejects the
        # full Newton step; the row at t = 833.17 used to run to the cap.
        P, _ = geo.convex_hull(np.vstack([QUAD_BASE,
                                          [0.8, 0.4, 1.2], [-0.5, -0.3, 1.2]]))
        mv = mah.descent_move(P)
        rows = sh.sweep(mv.system, np.linspace(*mv.system.interval, 25))
        assert all(r.converged for r in rows)
        assert max(r.iterations for r in rows) < 20

    @staticmethod
    def _random_double_pyramid(rng):
        while True:
            base2d = mah._random_polygon(rng, 4)
            F = np.column_stack([base2d.vertices, np.zeros(4)])
            xbar2 = base2d.vertices.mean(axis=0)
            w = rng.normal(size=2)
            w /= np.linalg.norm(w)
            h1, h2 = rng.uniform(0.5, 1.5, size=2)
            s1, s2 = rng.uniform(0.1, 0.6, size=2)
            x1 = np.append(xbar2 - s1 * w, -h1)
            x2 = np.append(xbar2 + s2 * w, h2)
            # segment [x1, x2] crosses z=0 at xbar2 + offset; keep it inside F
            cross = x1[:2] + (h1 / (h1 + h2)) * (x2[:2] - x1[:2])
            if np.min(base2d.slack(cross)) < 0.05:
                continue
            try:
                K, _ = geo.convex_hull(np.vstack([F, x1, x2]))
            except DegenerateInput:
                continue
            if K.n_vertices == 6 and mah.classify(K) is CaseLabel.DOUBLE_PYR_IIb1:
                return K

    def test_random_double_pyramid_dense_sweep(self, rng):
        K = self._random_double_pyramid(rng)
        mv = mah.descent_move(K)
        rep = mah.verify_descent_monotonicity(mv, n_grid=129)
        assert rep.endpoint_minimal
        assert rep.volume_behavior_ok
        assert rep.inverse_polar_convex

    def test_random_parallel_extended_range(self, rng):
        while True:
            base2d = mah._random_polygon(rng, 4)
            F = np.column_stack([base2d.vertices, np.zeros(4)])
            xi = rng.uniform(0.6, 1.4)
            X1 = rng.normal(scale=0.5, size=2)
            X2 = X1 + rng.normal(scale=1.0, size=2)
            try:
                K, _ = geo.convex_hull(np.vstack([F, np.append(X1, xi),
                                                  np.append(X2, xi)]))
            except DegenerateInput:
                continue
            if K.n_vertices == 6 and mah.classify(K) is CaseLabel.PARALLEL_IIb3:
                break
        mv = mah.descent_move(K)
        rep = mah.verify_descent_monotonicity(mv, n_grid=41)
        # no interior value below both endpoint limits
        interior_min = rep.volume_products[1:-1].min()
        assert interior_min >= min(rep.volume_products[0],
                                   rep.volume_products[-1]) - 1e-7 * rep.volume_products.max()
        assert rep.endpoint_minimal and rep.volume_behavior_ok


class TestCampaigns:
    def test_simplices_sit_on_the_bound(self, rng):
        rep = mah.few_vertex_campaign(2, 3, 40, seed=7)
        assert not rep.violations
        assert rep.min_vp == pytest.approx(6.75, rel=1e-9)

    def test_small_2d_campaign(self):
        rep = mah.few_vertex_campaign(2, 5, 150, seed=11)
        assert not rep.violations
        assert rep.min_vp > 6.75

    def test_small_3d_campaign(self):
        rep = mah.few_vertex_campaign(3, 6, 60, seed=13)
        assert not rep.violations
        assert rep.min_vp > 64 / 9

    def test_2d_minimality_campaign(self):
        rep = mah.polygon_minimality_campaign(150, seed=17)
        assert not rep.violations
        assert rep.min_vp >= 6.75 - 1e-6

    @pytest.mark.parametrize("d, k", [(3, 3), (2, 2), (4, 1), (1, 3), (5, 7)])
    def test_bad_shapes_raise_before_drawing(self, d, k, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a polytope")

        monkeypatch.setattr(mah, "random_polytope", no_draw)
        with pytest.raises(ValueError):
            mah.few_vertex_campaign(d, k, 3, seed=1)

    @staticmethod
    def _above_santalo(factor):
        """Stand-in for _vp_with_condition: factor x the Blaschke-Santalo bound."""
        def fake(K):
            omega = math.pi ** (K.dim / 2) / math.gamma(K.dim / 2 + 1)
            return omega ** 2 * factor, 1.0
        return fake

    @pytest.mark.parametrize("run", [
        lambda: mah.few_vertex_campaign(3, 5, 4, seed=1),
        lambda: mah.polygon_minimality_campaign(4, seed=1),
    ], ids=["few-vertex", "polygon"])
    def test_santalo_breach_is_a_violation(self, monkeypatch, run):
        monkeypatch.setattr(mah, "_vp_with_condition", self._above_santalo(1.01))
        rep = run()
        assert [v["trial"] for v in rep.violations] == [0, 1, 2, 3]
        assert {v["kind"] for v in rep.violations} == {"above-santalo-bound"}
        monkeypatch.setattr(mah, "_vp_with_condition", self._above_santalo(1 + 1e-8))
        assert not run().violations  # within the campaign tolerance

    @staticmethod
    def _fixed(vp_of_dim, cond):
        """Stand-in for _vp_with_condition: vp_of_dim(d) with condition cond."""
        return lambda K: (vp_of_dim(K.dim), cond)

    def test_excluded_trials_are_counted_and_reported(self, monkeypatch):
        monkeypatch.setattr(mah, "_vp_with_condition", self._fixed(mah.simplex_bound, 1e9))
        done = []
        rep = mah.few_vertex_campaign(2, 4, 200, seed=3,
                                      progress=lambda i, r: done.append(i))
        assert rep.excluded == 200 and sum(rep.label_counts.values()) == 200
        assert done == [100, 200]
        assert rep.min_vp == math.inf and not rep.violations
        rep = mah.polygon_minimality_campaign(200, seed=3)
        assert rep.excluded == 200 and sum(rep.label_counts.values()) == 200

    @pytest.mark.parametrize("run", [
        lambda: mah.few_vertex_campaign(3, 5, 4, seed=1),
        lambda: mah.polygon_minimality_campaign(4, seed=1),
    ], ids=["few-vertex", "polygon"])
    def test_below_bound_violations_carry_their_kind(self, monkeypatch, run):
        below = lambda d: 0.9 * mah.simplex_bound(d)
        monkeypatch.setattr(mah, "_vp_with_condition", self._fixed(below, 1.0))
        rep = run()
        kinds = [v["kind"] for v in rep.violations]
        # the polygon campaign also flags its non-triangles as near-minimal
        assert set(kinds) <= {"below-bound", "near-minimal-non-simplex"}
        assert [v["trial"] for v in rep.violations
                if v["kind"] == "below-bound"] == [0, 1, 2, 3]

    def test_regular_polygon_products(self):
        # exact value n^2 sin^2(pi/n); tends to pi^2 for large n
        for n in range(4, 13):
            P = mah.regular_polygon(n)
            expected = n ** 2 * math.sin(math.pi / n) ** 2
            assert pol.volume_product(P) == pytest.approx(expected, rel=1e-9)
        assert abs(mah.regular_polygon(96).n_vertices - 96) == 0
        assert pol.volume_product(mah.regular_polygon(96)) == pytest.approx(
            math.pi ** 2, rel=1e-3)

    def test_affine_invariance_of_volume_product(self, rng):
        for _ in range(100):
            d = 2 if rng.uniform() < 0.7 else 3
            K = random_body(rng, d)
            A = rng.normal(size=(d, d))
            if abs(np.linalg.det(A)) < 0.05:
                continue
            Q = geo.apply_affine(K, A, rng.normal(size=d))
            assert pol.volume_product(Q) == pytest.approx(
                pol.volume_product(K), rel=1e-6)
