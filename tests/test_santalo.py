import ast
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_body
from santalo_lab import geometry as geo
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import serialize as ser
from santalo_lab import shadow as sh
from santalo_lab import verify as ver
from santalo_lab.errors import BracketFailure


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
            if np.min(K.halfspaces.slack(z)) < 1e-6:
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
            if np.min(K.halfspaces.slack(seed)) < 1e-3:
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
        assert len({K.halfspaces.n_facets for K in bodies}) == 3
        for K, res in zip(bodies, stacked):
            alone = san.santalo_point(K)
            assert res.converged
            assert np.linalg.norm(res.point - alone.point) < 1e-6
            assert res.polar_volume == pytest.approx(alone.polar_volume, rel=1e-12)
        assert stacked[2].iterations == san.santalo_point(bodies[2]).iterations


class TestLogRatio:
    def test_symmetric_chord_midpoint_ratio_one(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert san._log_ratio(Sq, [0.3], 0.0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_increasing_along_chord(self, rng):
        # empirical property; balanced_points brackets a sign change and
        # never relies on it
        for _ in range(50):
            K = random_body(rng, 2)
            c = geo.interior_point(K)
            bottom, top = geo.chord(K, c[:1], axis=1)
            vs = np.linspace(bottom, top, 12)[1:-1]
            rhos = [san._log_ratio(K, c[:1], v, 1) for v in vs]
            assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_limits_at_chord_ends(self, rng):
        K = random_body(rng, 2)
        c = geo.interior_point(K)
        bottom, top = geo.chord(K, c[:1], axis=1)
        eps = 1e-5 * (top - bottom)
        assert san._log_ratio(K, c[:1], bottom + eps, 1) < math.log(1e-2)
        assert san._log_ratio(K, c[:1], top - eps, 1) > math.log(1e2)


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

    def test_ratio_agreement_and_midpoint(self, rng):
        for _ in range(10):
            system = self._system(rng)
            K_s, K_m, K_t = self._bodies(system)
            c = geo.interior_point(K_m)
            a = float(c[1])
            a_s, a_t = san.balanced_points(K_s, K_m, K_t, a, c[:1], 1)
            assert 0.5 * (a_s + a_t) == pytest.approx(a, abs=1e-12)
            lam_s = pol.half_volumes(K_s, np.array([c[0], a_s]), axis=1).ratio
            lam_t = pol.half_volumes(K_t, np.array([c[0], a_t]), axis=1).ratio
            assert lam_s == pytest.approx(lam_t, rel=2e-8)
            rho = (san._log_ratio(K_s, c[:1], a_s, 1)
                   - san._log_ratio(K_t, c[:1], a_t, 1))
            assert abs(rho) <= 1e-12

    def test_no_probe_repeats(self, rng, monkeypatch):
        probes = []
        log_ratio = san._log_ratio

        def recording(K, C, v, axis):
            probes.append((K.vertices.tobytes(), v))
            return log_ratio(K, C, v, axis)

        monkeypatch.setattr(san, "_log_ratio", recording)
        for d in (2, 3):
            system = self._system(rng, d)
            K_s, K_m, K_t = self._bodies(system)
            c = geo.interior_point(K_m)
            probes.clear()
            san.balanced_points(K_s, K_m, K_t, float(c[-1]), c[:-1], d - 1)
            assert probes and len(set(probes)) == len(probes)

    def test_against_dense_scan(self, rng):
        # the Brent root lands where a dense scan of rho crosses zero
        system = self._system(rng)
        K_s, K_m, K_t = self._bodies(system)
        c = geo.interior_point(K_m)
        a = float(c[1])
        C = c[:1]
        a_s, a_t = san.balanced_points(K_s, K_m, K_t, a, C, 1)
        alpha_s, beta_s = geo.chord(K_s, C, axis=1)
        alpha_t, beta_t = geo.chord(K_t, C, axis=1)
        lo = max(alpha_s, 2 * a - beta_t)
        hi = min(beta_s, 2 * a - alpha_t)
        grid = np.linspace(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), 2000)
        vals = []
        for v in grid:
            try:
                vals.append(san._log_ratio(K_s, C, v, 1)
                            - san._log_ratio(K_t, C, 2 * a - v, 1))
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
            alpha_s, beta_s = geo.chord(K_s, C, axis=1)
            alpha_t, beta_t = geo.chord(K_t, C, axis=1)
            lo = max(alpha_s, 2 * a - beta_t)
            hi = min(beta_s, 2 * a - alpha_t)
            w = hi - lo
            rho_left = (san._log_ratio(K_s, C, lo + 1e-6 * w, 1)
                        - san._log_ratio(K_t, C, 2 * a - lo - 1e-6 * w, 1))
            rho_right = (san._log_ratio(K_s, C, hi - 1e-6 * w, 1)
                         - san._log_ratio(K_t, C, 2 * a - hi + 1e-6 * w, 1))
            assert rho_left < 0 < rho_right

    def test_chord_endpoint_request_errors(self, rng):
        system = self._system(rng)
        K_s, K_m, K_t = self._bodies(system)
        c = geo.interior_point(K_m)
        _, beta_m = geo.chord(K_m, c[:1], axis=1)
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

    def test_one_projection_hull_and_unchanged_points(self, monkeypatch):
        # chord's interiority check runs on K_m only; the K_s and K_t chords
        # come straight from the H-form, bitwise as before
        class EveryChordChecked:
            """geometry as seen by santalo, with every chord through `chord`."""

            def __getattr__(self, name):
                return getattr(geo, name)

            @staticmethod
            def _vertical_extent(P, X, axis):
                return geo.chord(P, X, axis=axis)

        chord_hulls = []
        convex_hull = geo.convex_hull

        def recording(points):
            chord_hulls.append(sys._getframe(1).f_code.co_name == "chord")
            return convex_hull(points)

        for system in self._chain_inputs(30):
            s, t = system.interval
            K_s, K_m, K_t = (sh.body_at(system, x) for x in (s, 0.5 * (s + t), t))
            z = san.santalo_point(K_m).point
            args = (K_s, K_m, K_t, float(z[system.axis]),
                    np.delete(z, system.axis), system.axis)
            chord_hulls.clear()
            monkeypatch.setattr(geo, "convex_hull", recording)
            got = san.balanced_points(*args)
            monkeypatch.setattr(geo, "convex_hull", convex_hull)
            assert sum(chord_hulls) == 1
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
