import ast
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import chord, one_call_log_ratio, random_body
from santalo_lab import geometry as geo
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import serialize as ser
from santalo_lab import shadow as sh
from santalo_lab import verify as ver
from santalo_lab.errors import BracketFailure, OutsideProjection


class TestSantaloPoint:
    def test_symmetric_body_center(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        res = san.santalo_point(Sq)
        assert res.converged
        assert np.allclose(res.point, [0, 0], atol=1e-8)

    def test_segment(self):
        # |K^{*z}| = 1/z + 1/(L - z) is smallest at the midpoint
        K, _ = geo.convex_hull([[0.0], [3.7]])
        res = san.santalo_point(K)
        assert res.converged
        assert res.point[0] == pytest.approx(1.85, rel=1e-12)
        assert res.polar_volume == pytest.approx(4 / 3.7, rel=1e-12)

    def test_simplex_vertex_centroid(self, rng):
        # the simplex's affine symmetry group fixes only the centroid
        for d in (2, 3):
            S, _ = geo.convex_hull(rng.normal(size=(d + 1, d)))
            res = san.santalo_point(S)
            assert res.converged
            assert np.allclose(res.point, S.vertices.mean(axis=0), atol=1e-6)

    def test_result_carries_the_final_polar(self, rng):
        # the polar at the returned point, bitwise what a fresh call computes
        for d in (2, 3, 4):
            K = random_body(rng, d)
            res = san.santalo_point(K)
            fresh = pol.polar(K, res.point)
            assert res.polar.polar_volume == res.polar_volume
            assert np.array_equal(res.polar.center, res.point)
            assert np.array_equal(res.polar.polar.vertices, fresh.polar.vertices)
            assert np.array_equal(res.polar.polar_centroid, fresh.polar_centroid)

    def test_pyramid_collinearity_ratio(self, rng):
        from santalo_lab import mahler as mah
        for _ in range(5):
            F, _ = geo.convex_hull(rng.normal(size=(4, 2)))
            apex = np.append(rng.normal(size=2), 1.0 + rng.uniform())
            rep = mah.pyramid_factorization_check(F, apex)
            assert rep.ratio_error < 1e-6
            assert rep.collinearity_residual < 1e-6

    def test_minimality_over_probes(self, rng):
        K = random_body(rng, 2)
        res = san.santalo_point(K)
        c = geo.interior_point(K)
        for _ in range(50):
            z = c + rng.uniform(-0.3, 0.3, size=2)
            if np.min(K.slack(z)) < 1e-6:
                continue
            probe = pol.polar(K, z).polar_volume
            assert res.polar_volume <= probe * (1 + 1e-9)

    def test_affine_equivariance(self, rng):
        for _ in range(100):
            d = 2 if rng.uniform() < 0.7 else 3
            K = random_body(rng, d)
            A = rng.normal(size=(d, d))
            if abs(np.linalg.det(A)) < 0.05:
                continue
            b = rng.normal(size=d)
            s1 = san.santalo_point(K).point
            s2 = san.santalo_point(geo.apply_affine(K, A, b)).point
            assert np.linalg.norm(A @ s1 + b - s2) < 1e-6

    def test_uniqueness_seed_dispersion(self, rng):
        K = random_body(rng, 2)
        c = geo.interior_point(K)
        points = []
        for _ in range(10):
            seed = c + rng.uniform(-0.2, 0.2, size=2)
            if np.min(K.slack(seed)) < 1e-3:
                seed = c
            res = san.santalo_point(K, start=seed)
            assert res.converged
            points.append(res.point)
        points = np.array(points)
        assert np.max(np.linalg.norm(points - points[0], axis=1)) < 1e-6

    def test_newton_derivatives_match_central_differences(self, rng):
        # grad |K^{*z}| = (d+1)|K^*| c and Hess = (d+1)(d+2)|K^*| M, with c
        # and M the polar's centroid and second moment about the center
        for d in (2, 3):
            K = random_body(rng, d)
            z = 0.7 * K.vertices.mean(axis=0) + 0.3 * K.vertices[0]

            def grad(x):
                f, c, _ = geo.moments(pol.polar(K, x).polar)
                return (d + 1) * f * c

            f, _, M = geo.moments(pol.polar(K, z).polar)
            hess = (d + 1) * (d + 2) * f * M
            h = 1e-5 * K.scale()
            fd_grad = np.empty(d)
            fd_hess = np.empty((d, d))
            for i in range(d):
                e = h * np.eye(d)[i]
                fd_grad[i] = (pol.polar(K, z + e).polar_volume
                              - pol.polar(K, z - e).polar_volume) / (2 * h)
                fd_hess[:, i] = (grad(z + e) - grad(z - e)) / (2 * h)
            g = grad(z)
            assert np.linalg.norm(g) > 1e-3 * f  # z is off the Santalo point
            assert np.allclose(fd_grad, g, rtol=0, atol=1e-6 * np.abs(g).max())
            assert np.allclose(fd_hess, hess, rtol=0,
                               atol=1e-6 * np.abs(hess).max())

    def test_iteration_cap_reports_nonconverged(self, rng):
        K = random_body(rng, 3)
        res = san.santalo_point(K, tol_sant=1e-15, max_iterations=3)
        assert res.iterations >= 3
        if not res.converged:
            assert math.isfinite(res.polar_volume)

    def test_minimum_is_global_restart_agreement(self, rng):
        # objective is convex on the interior: cold and warm solves agree
        K = random_body(rng, 3)
        r1 = san.santalo_point(K)
        r2 = san.santalo_point(K, start=geo.centroid(K))
        assert np.linalg.norm(r1.point - r2.point) < 1e-6

    def test_stack_with_mixed_starts(self, rng):
        # an interior start, none, and one outside (which falls back to the
        # vertex mean), on bodies with different facet counts
        bodies = [random_body(rng, 3, extra) for extra in (1, 4, 8)]
        starts = [geo.centroid(bodies[0]), None, bodies[2].vertices[0] * 3]
        stacked = san.santalo_points(bodies, starts)
        assert len({K.n_facets for K in bodies}) == 3
        for K, res in zip(bodies, stacked):
            alone = san.santalo_point(K)
            assert res.converged
            assert np.linalg.norm(res.point - alone.point) < 1e-6
            assert res.polar_volume == pytest.approx(alone.polar_volume, rel=1e-12)
        assert stacked[2].iterations == san.santalo_point(bodies[2]).iterations

    def test_stack_fails_a_row_whose_start_is_not_interior(self, rng):
        # a flat triangle's vertex mean lies within TAU_GEOM of its boundary:
        # the stack records that row as failed and still solves the other,
        # while `santalo_point` on the flat body raises
        flat = geo.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-10]])
        K = random_body(rng, 2)
        out = san.santalo_stack(*san._joined([san._body_stack(flat), san._body_stack(K)]))
        assert out.note == [pol.NOT_INTERIOR, ""] and list(out.converged) == [False, True]
        assert math.isnan(out.polar_volume[0]) and out.iterations[0] == 0
        assert out.polar_volume[1] == pytest.approx(san.santalo_point(K).polar_volume,
                                                    rel=1e-12)
        with pytest.raises(pol.CenterNotInterior):
            san.santalo_point(flat)


class TestLogRatio:
    def test_symmetric_chord_midpoint_ratio_one(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert san._log_ratio_probe(Sq, [0.3], 1)(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_increasing_along_chord(self, rng):
        # empirical property; balanced_points brackets a sign change and
        # never relies on it
        for _ in range(50):
            K = random_body(rng, 2)
            c = geo.interior_point(K)
            bottom, top = chord(K, c[:1], axis=1)
            vs = np.linspace(bottom, top, 12)[1:-1]
            rhos = [san._log_ratio_probe(K, c[:1], 1)(v) for v in vs]
            assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_limits_at_chord_ends(self, rng):
        K = random_body(rng, 2)
        c = geo.interior_point(K)
        bottom, top = chord(K, c[:1], axis=1)
        eps = 1e-5 * (top - bottom)
        assert san._log_ratio_probe(K, c[:1], 1)(bottom + eps) < math.log(1e-2)
        assert san._log_ratio_probe(K, c[:1], 1)(top - eps) > math.log(1e2)


class TestBalancedPoints:
    def _system(self, rng, d=2):
        return sh.random_shadow_system(d, rng)

    def _bodies(self, system):
        s, t = system.interval
        return [sh.body_at(system, x) for x in (s, 0.5 * (s + t), t)]

    def test_symmetric_system_centers(self):
        # two translated squares: balanced points are the square centers
        sq = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        system = sh.ShadowSystem(sq, np.ones(4), [0.0, 1.0], (-1.0, 1.0))
        bodies = [sh.body_at(system, x) for x in (-0.5, 0.0, 0.5)]
        a_s, a_t = san.balanced_points(*bodies, 0.0, [0.0], system.axis)
        assert a_s == pytest.approx(-0.5, abs=1e-6)
        assert a_t == pytest.approx(0.5, abs=1e-6)

    def test_bracket_search_never_revisits_a_delta(self, monkeypatch):
        # half volumes underflow at the first probes (delta = 1e-3) and rho has
        # one sign at delta = 1e-2: the search grows delta once, then must
        # give up rather than shrink back to 1e-3 and loop forever
        sq = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        system = sh.ShadowSystem(sq, np.ones(4), [0.0, 1.0], (-1.0, 1.0))
        K_s, K_m, K_t = [sh.body_at(system, x) for x in (-0.5, 0.0, 0.5)]
        calls = []

        def fake_probe(K, C, axis):
            alpha, beta = geo._vertical_extent(K, C, axis)

            def log_ratio(v):
                calls.append(v)
                if len(calls) > 1000:
                    pytest.fail("bracket search did not stop")
                if min(v - alpha, beta - v) < 5e-3 * (beta - alpha):
                    raise BracketFailure("half volume underflow at an interior probe")
                return 1.0 if K is K_s else -1.0

            return log_ratio

        monkeypatch.setattr(san, "_log_ratio_probe", fake_probe)
        with pytest.raises(BracketFailure, match="no sign change"):
            san.balanced_points(K_s, K_m, K_t, 0.0, [0.0], system.axis)
        assert len(calls) == 5

    @pytest.mark.parametrize("points, C", [
        ([[1, 1], [1, -1], [-1, 1], [-1, -1]], [1.0]),  # on an axis-parallel edge
        ([[1, 1], [1, -1], [-1, 1], [-1, -1]], [1.5]),  # outside it
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1.0]),  # on a vertex: a one-point chord
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1.5]),  # outside a vertex
        (np.vstack([np.eye(3), -np.eye(3)]), [0.5, 0.5]),  # on a slanted edge
        (np.vstack([np.eye(3), -np.eye(3)]), [0.75, 0.75]),  # outside it
    ], ids=["square-edge", "square-out", "diamond-vertex", "diamond-out",
            "octahedron-edge", "octahedron-out"])
    def test_base_point_off_the_projection_interior(self, points, C):
        # a base point outside K_m's projection along the axis, or on its
        # boundary, is refused before any height is looked at
        K = geo.convex_hull(points)[0]
        with pytest.raises(OutsideProjection):
            san.balanced_points(K, K, K, 0.0, C, K.dim - 1)

    def test_ratio_agreement_and_midpoint(self, rng):
        for _ in range(10):
            system = self._system(rng)
            K_s, K_m, K_t = self._bodies(system)
            c = geo.interior_point(K_m)
            a = float(c[1])
            a_s, a_t = san.balanced_points(K_s, K_m, K_t, a, c[:1], 1)
            assert 0.5 * (a_s + a_t) == pytest.approx(a, abs=1e-12)
            hv_s = pol.half_volumes(K_s, np.array([c[0], a_s]), axis=1)
            hv_t = pol.half_volumes(K_t, np.array([c[0], a_t]), axis=1)
            lam_s, lam_t = hv_s.b_plus / hv_s.b_minus, hv_t.b_plus / hv_t.b_minus
            assert lam_s == pytest.approx(lam_t, rel=2e-8)
            rho = (san._log_ratio_probe(K_s, c[:1], 1)(a_s)
                   - san._log_ratio_probe(K_t, c[:1], 1)(a_t))
            assert abs(rho) <= 1e-12

    def test_no_probe_repeats(self, rng, monkeypatch):
        probes = []
        half_volume_probe = pol._half_volume_probe

        def recording(K, z, axis):
            probe = half_volume_probe(K, z, axis)
            return lambda v: probes.append((K.vertices.tobytes(), v)) or probe(v)

        monkeypatch.setattr(pol, "_half_volume_probe", recording)
        for d in (2, 3):
            system = self._system(rng, d)
            K_s, K_m, K_t = self._bodies(system)
            c = geo.interior_point(K_m)
            probes.clear()
            san.balanced_points(K_s, K_m, K_t, float(c[-1]), c[:-1], d - 1)
            assert probes and len(set(probes)) == len(probes)

    def test_one_split_plan_fetch_per_body(self, rng, monkeypatch):
        # each end body's probe reads its cached split plan once, not per probe
        fetched = []
        split_plan = pol._split_plan
        monkeypatch.setattr(pol, "_split_plan", lambda K, fan, axis: (
            fetched.append((id(K), axis)) or split_plan(K, fan, axis)))
        for d in (2, 3, 2, 3):
            system = self._system(rng, d)
            K_s, K_m, K_t = self._bodies(system)
            c = geo.interior_point(K_m)
            fetched.clear()
            san.balanced_points(K_s, K_m, K_t, float(c[-1]), c[:-1], d - 1)
            assert sorted(fetched) == sorted([(id(K_s), d - 1), (id(K_t), d - 1)])

    def test_matches_one_call_route(self, monkeypatch):
        # the probes give the root bit for bit as one `half_volumes`-formula
        # call per height did, on 20 seeded systems in d = 2, 3
        rng = np.random.default_rng(11)
        for d in (2, 3) * 10:
            system = self._system(rng, d)
            K_s, K_m, K_t = self._bodies(system)
            z = san.santalo_point(K_m).point
            args = (K_s, K_m, K_t, float(z[-1]), z[:-1], d - 1)
            got = san.balanced_points(*args)
            monkeypatch.setattr(san, "_log_ratio_probe", lambda K, C, axis: (
                lambda v: one_call_log_ratio(K, C, v, axis)))
            ref = san.balanced_points(*args)
            monkeypatch.undo()
            assert [v.hex() for v in got] == [v.hex() for v in ref]

    def test_against_dense_scan(self, rng):
        # the Brent root lands where a dense scan of rho crosses zero
        system = self._system(rng)
        K_s, K_m, K_t = self._bodies(system)
        c = geo.interior_point(K_m)
        a = float(c[1])
        C = c[:1]
        a_s, a_t = san.balanced_points(K_s, K_m, K_t, a, C, 1)
        alpha_s, beta_s = chord(K_s, C, axis=1)
        alpha_t, beta_t = chord(K_t, C, axis=1)
        lo = max(alpha_s, 2 * a - beta_t)
        hi = min(beta_s, 2 * a - alpha_t)
        grid = np.linspace(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), 2000)
        vals = []
        for v in grid:
            try:
                vals.append(san._log_ratio_probe(K_s, C, 1)(v)
                            - san._log_ratio_probe(K_t, C, 1)(2 * a - v))
            except BracketFailure:
                vals.append(np.nan)
        vals = np.array(vals)
        sign_change = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        assert len(sign_change) >= 1
        idx = sign_change[0]
        assert grid[idx] - 2e-3 <= a_s <= grid[idx + 1] + 2e-3

    def test_rho_sign_structure(self, rng):
        # rho < 0 at the left end, > 0 at the right end
        for _ in range(5):
            system = self._system(rng)
            K_s, K_m, K_t = self._bodies(system)
            c = geo.interior_point(K_m)
            a = float(c[1])
            C = c[:1]
            alpha_s, beta_s = chord(K_s, C, axis=1)
            alpha_t, beta_t = chord(K_t, C, axis=1)
            lo = max(alpha_s, 2 * a - beta_t)
            hi = min(beta_s, 2 * a - alpha_t)
            w = hi - lo
            rho_left = (san._log_ratio_probe(K_s, C, 1)(lo + 1e-6 * w)
                        - san._log_ratio_probe(K_t, C, 1)(2 * a - lo - 1e-6 * w))
            rho_right = (san._log_ratio_probe(K_s, C, 1)(hi - 1e-6 * w)
                         - san._log_ratio_probe(K_t, C, 1)(2 * a - hi + 1e-6 * w))
            assert rho_left < 0 < rho_right

    def test_chord_endpoint_request_errors(self, rng):
        system = self._system(rng)
        K_s, K_m, K_t = self._bodies(system)
        c = geo.interior_point(K_m)
        _, beta_m = chord(K_m, c[:1], axis=1)
        with pytest.raises(ValueError):
            san.balanced_points(K_s, K_m, K_t, beta_m, c[:1], 1)

    @staticmethod
    def _chain_inputs(n):
        """The first n seed-1 inputs of the benchmark's chain workload."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("chain_workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve their module
        try:
            spec.loader.exec_module(module)
            inputs = module.WORKLOADS["chain"].inputs(1)
            return [ser.system_from_dict(next(inputs)) for _ in range(n)]
        finally:
            del sys.modules[spec.name]

    def test_no_hull_and_unchanged_points(self, monkeypatch, qhull_calls):
        # K_m's facets decide whether C is interior to the projection, so
        # once the bodies' polar fans are cached no Qhull runs; the points
        # are bitwise those with every chord checked through `chord`
        class EveryChordChecked:
            """geometry as seen by santalo, with every chord through `chord`."""

            def __getattr__(self, name):
                return getattr(geo, name)

            @staticmethod
            def _vertical_extent(P, X, axis):
                return chord(P, X, axis=axis)

        for system in self._chain_inputs(30):
            s, t = system.interval
            K_s, K_m, K_t = (sh.body_at(system, x) for x in (s, 0.5 * (s + t), t))
            z = san.santalo_point(K_m).point
            args = (K_s, K_m, K_t, float(z[system.axis]),
                    np.delete(z, system.axis), system.axis)
            for K in (K_s, K_t):
                pol._polar_fan(K)
            qhull_calls.clear()
            got = san.balanced_points(*args)
            assert qhull_calls == []
            monkeypatch.setattr(san, "geo", EveryChordChecked())
            ref = san.balanced_points(*args)
            monkeypatch.setattr(san, "geo", geo)
            assert [v.hex() for v in got] == [v.hex() for v in ref]

    def test_requires_s_before_t(self, rng, monkeypatch):
        # the chain rejects s >= t before it builds any body
        system = self._system(rng)

        def no_body(*args):
            raise AssertionError("body built before the s < t check")

        monkeypatch.setattr(sh, "body_at", no_body)
        for s, t in ((0.5, -0.5), (0.0, 0.0)):
            with pytest.raises(ValueError):
                ver.midpoint_bound_check(system, s, t)


def test_santalo_imports_neither_shadow_nor_verify():
    # santalo sits below shadow and verify: it works on bodies, not systems
    tree = ast.parse(Path(san.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").rpartition(".")[2])
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not modules & {"shadow", "verify"}
