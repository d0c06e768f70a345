"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion; the whole suite is deterministic (fixed seeds).
"""

import math
import time

import numpy as np
import pytest

import rational_oracle as oracle
from santalo_lab import geometry as geo
from santalo_lab import mahler as mah
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab import verify as ver

SEED = 20250810


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status}  {detail}")


def _simplex(d):
    P, _ = geo.convex_hull(np.vstack([np.zeros(d), np.eye(d)]))
    return P


def test_criterion_1_simplex_volume_products():
    ok = True
    details = []
    for d in (2, 3, 4):
        t0 = time.perf_counter()
        vp = pol.volume_product(_simplex(d))
        dt = time.perf_counter() - t0
        bound = mah.simplex_bound(d)
        rel = abs(vp - bound) / bound
        ok &= rel <= 1e-6 and dt < 1.0
        details.append(f"d={d}: rel={rel:.2e} t={dt:.3f}s")
    _report("1 simplex volume products (d=2,3,4)", ok, "; ".join(details))
    assert ok


def test_criterion_2_pyramid_factorization():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    worst_err = worst_ratio = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 7))
        F = mah._random_polygon(rng, k)
        apex = np.append(rng.normal(size=2),
                         rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        rep = mah.pyramid_factorization_check(F, apex)
        worst_err = max(worst_err, rep.factorization_error)
        worst_ratio = max(worst_ratio, abs(rep.santalo_ratio - 4.0))
    dt = time.perf_counter() - t0
    ok = worst_err <= 1e-5 and worst_ratio <= 1e-4 and dt < 60.0
    _report("2 pyramid factorization (100 random 3D pyramids)", ok,
            f"worst rel err={worst_err:.2e}, worst ratio dev={worst_ratio:.2e}, "
            f"t={dt:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def convexity_battery():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    sweeps = []
    for d, count in ((2, 100), (3, 50)):
        for _ in range(count):
            system = sh.random_shadow_system(d, rng)
            grid = np.linspace(*system.interval, 33)
            sweeps.append(sh.sweep(system, grid))
    return sweeps, time.perf_counter() - t0


def test_criterion_3_polar_convexity_battery(convexity_battery):
    sweeps, build_time = convexity_battery
    violations = 0
    worst = -math.inf
    excluded = 0
    for rows in sweeps:
        verdict = sh.check_polar_convexity(rows, tol_rel=1e-7)
        excluded += verdict.excluded
        scale = max(1.0 / r.polar_volume for r in rows if r.converged)
        worst = max(worst, verdict.worst_violation / scale)
        violations += not verdict.is_midpoint_convex
    ok = violations == 0 and build_time < 600.0
    _report("3 reciprocal polar volume midpoint convexity (150 systems)", ok,
            f"violations={violations}, worst rel={worst:.2e}, "
            f"excluded rows={excluded}, sweep time={build_time:.0f}s")
    assert ok


def test_criterion_4_volume_convexity_battery(convexity_battery):
    sweeps, _ = convexity_battery
    violations = 0
    worst = -math.inf
    for rows in sweeps:
        verdict = sh.check_volume_convexity(rows, tol_rel=1e-9)
        scale = max(r.volume for r in rows)
        worst = max(worst, verdict.worst_violation / scale)
        violations += not verdict.is_midpoint_convex
    ok = violations == 0
    _report("4 volume midpoint convexity (same systems)", ok,
            f"violations={violations}, worst rel={worst:.2e}")
    assert ok


def test_criterion_5_affine_families():
    rng = np.random.default_rng(SEED + 5)
    worst_vol = worst_inv = worst_pi = 0.0
    for i in range(50):
        d = 2 if i % 2 else 3
        pts = rng.normal(size=(d + 3, d))
        K, _ = geo.convex_hull(pts)
        v = rng.uniform(-0.6, 0.6)
        V = rng.normal(scale=0.3, size=d - 1)
        u = rng.normal(scale=0.3)
        fam = sh.affine_family(K, v, V, u, interval=(-1.0, 1.0))
        ts = np.linspace(-1.0, 1.0, 17)
        rows = sh.sweep(fam, ts)
        vols = np.array([r.volume for r in rows])
        inv = np.array([1.0 / r.polar_volume for r in rows])
        pis = vols / inv
        lin = np.linspace(0.0, 1.0, len(ts))
        sec_v = vols[0] + (vols[-1] - vols[0]) * lin
        sec_i = inv[0] + (inv[-1] - inv[0]) * lin
        worst_vol = max(worst_vol, np.max(np.abs(vols - sec_v)) / vols.max())
        worst_inv = max(worst_inv, np.max(np.abs(inv - sec_i)) / inv.max())
        worst_pi = max(worst_pi, (pis.max() - pis.min()) / pis.max())
    ok = worst_vol <= 1e-7 and worst_inv <= 1e-7 and worst_pi <= 1e-7
    _report("5 affine families: affine sweeps, constant volume product", ok,
            f"secant dev: volume={worst_vol:.2e}, 1/polar={worst_inv:.2e}; "
            f"product spread={worst_pi:.2e}")
    assert ok


def test_criterion_6_few_vertex_campaigns():
    t0 = time.perf_counter()
    ok = True
    details = []
    for d, k, seed in ((2, 4, 61), (2, 5, 62), (3, 5, 63), (3, 6, 64)):
        rep = mah.few_vertex_campaign(d, k, 1000, seed=seed)
        margin = rep.min_vp - rep.bound
        ok &= not rep.violations and margin > 0
        details.append(f"d={d},k={k}: margin={margin:.4f}, "
                       f"excluded={rep.excluded}")
    dt = time.perf_counter() - t0
    ok &= dt < 1800.0
    _report("6 few-vertex campaigns (4 x 1000 trials)", ok,
            "; ".join(details) + f"; t={dt:.0f}s")
    assert ok


def test_criterion_7_steiner_monotonicity():
    rng = np.random.default_rng(SEED + 7)
    worst_vol = 0.0
    worst_drop = -math.inf
    for i in range(100):
        d = 2 if i % 2 else 3
        pts = rng.normal(size=(d + 4, d))
        K, _ = geo.convex_hull(pts)
        H = geo.Hyperplane(rng.normal(size=d), 0.1 * rng.normal())
        KH = sh.steiner_symmetral(K, H)
        worst_vol = max(worst_vol,
                        abs(geo.volume(KH) - geo.volume(K)) / geo.volume(K))
        worst_drop = max(worst_drop,
                         pol.volume_product(K) - pol.volume_product(KH))
    ok = worst_vol <= 1e-9 and worst_drop <= 1e-7
    _report("7 Steiner symmetrization monotonicity (100 bodies)", ok,
            f"volume err={worst_vol:.2e}, worst product drop={worst_drop:.2e}")
    assert ok


def test_criterion_8_2d_minimality():
    rep = mah.polygon_minimality_campaign(800, seed=SEED + 8)
    hexagon = pol.volume_product(mah.regular_polygon(6))
    square = pol.volume_product(mah.regular_polygon(4))
    ok = (not rep.violations
          and rep.min_vp >= 6.75 - 1e-6
          and abs(hexagon - 9.0) <= 1e-9
          and abs(square - 8.0) <= 1e-9)
    _report("8 2D minimality campaign + regression fixtures", ok,
            f"min vp={rep.min_vp:.6f}, hexagon={hexagon:.12f}, "
            f"square={square:.12f}")
    assert ok


def test_criterion_9_functional_inequality_pipeline():
    rng = np.random.default_rng(SEED + 9)
    failures = 0
    worst_hyp = worst_conc = math.inf
    for i in range(50):
        d = 3 if i % 5 == 0 else 2
        system = sh.random_shadow_system(d, rng)
        rep = ver.midpoint_bound_check(system, *system.interval)
        failures += not rep.passed
        worst_hyp = min(worst_hyp, rep.hypothesis.worst_slack)
        worst_conc = min(worst_conc, rep.conclusion.worst_slack)
    f, g, h = ver.equality_family(lambda x: min(3.0 * x, 1.2 * (1 - x)),
                                  B=0.8, C=1.7)
    eq = ver.harmonic_conclusion_check(f, g, h)
    hyp = ver.harmonic_hypothesis_check(f, g, h)
    ok = failures == 0 and eq.details["equality"] and hyp.passed
    _report("9 functional-inequality pipeline (50 triples + equality fixture)",
            ok, f"failures={failures}, worst hypothesis slack={worst_hyp:.2e}, "
            f"worst conclusion margin={worst_conc:.2e}, "
            f"equality margin={eq.worst_slack:.2e}")
    assert ok


def test_criterion_10_rational_oracle_equivalence():
    rng = np.random.default_rng(SEED + 10)
    done = 0
    worst = 0.0
    while done < 200:
        pts = oracle.lattice_points(rng, int(rng.integers(4, 9)))
        try:
            K, _ = geo.convex_hull(pts)
        except geo.DegenerateInput:
            continue
        zf = K.vertices.mean(axis=0)
        z = np.array([round(zf[0] * 1024) / 1024, round(zf[1] * 1024) / 1024])
        if np.min(K.slack(z)) < 1e-3:
            continue
        done += 1
        pb = pol.polar(K, z)
        hv = pol.half_volumes(K, z, axis=1)
        ordered = oracle.sort_ccw(oracle.to_fractions(K.vertices))
        exact_polar = oracle.polar_polygon(ordered, oracle.to_fractions([z])[0])
        ex_area = float(oracle.area(exact_polar))
        ex_cx, ex_cy = oracle.centroid(exact_polar)
        ex_plus, ex_minus = oracle.half_areas(exact_polar, axis=1)
        c = geo.centroid(pb.polar)
        scale = max(abs(ex_area), 1.0)
        worst = max(
            worst,
            abs(pb.polar_volume - ex_area) / ex_area,
            abs(c[0] - float(ex_cx)) / scale,
            abs(c[1] - float(ex_cy)) / scale,
            abs(hv.b_plus - float(ex_plus)) / ex_area,
            abs(hv.b_minus - float(ex_minus)) / ex_area,
        )
    ok = worst <= 1e-9
    _report("10 exact-rational oracle equivalence (200 2D cases)", ok,
            f"worst rel dev={worst:.2e}")
    assert ok


def test_criterion_11_santalo_solver():
    rng = np.random.default_rng(SEED + 11)
    fixtures = [
        _simplex(2), _simplex(3), _simplex(4),
        geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])[0],
        mah.regular_polygon(6),
    ]
    for _ in range(5):
        d = int(rng.integers(2, 4))
        fixtures.append(geo.convex_hull(rng.normal(size=(d + 4, d)))[0])
    worst_resid = 0.0
    all_conv = True
    for K in fixtures:
        res = san.santalo_point(K)
        all_conv &= res.converged
        worst_resid = max(worst_resid, res.centroid_residual)

    worst_equiv = 0.0
    for _ in range(50):
        d = 2 if rng.uniform() < 0.7 else 3
        K, _ = geo.convex_hull(rng.normal(size=(d + 3, d)))
        A = rng.normal(size=(d, d))
        if abs(np.linalg.det(A)) < 0.05:
            continue
        b = rng.normal(size=d)
        s1 = san.santalo_point(K).point
        s2 = san.santalo_point(geo.apply_affine(K, A, b)).point
        worst_equiv = max(worst_equiv, float(np.linalg.norm(A @ s1 + b - s2)))

    K, _ = geo.convex_hull(rng.normal(size=(6, 2)))
    c = geo.interior_point(K)
    points = []
    for _ in range(10):
        seed_pt = c + rng.uniform(-0.2, 0.2, size=2)
        if np.min(K.slack(seed_pt)) < 1e-3:
            seed_pt = c
        points.append(san.santalo_point(K, start=seed_pt).point)
    points = np.array(points)
    dispersion = float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=1)))

    ok = (all_conv and worst_resid <= 1e-8 and worst_equiv <= 1e-6
          and dispersion <= 1e-6)
    _report("11 Santalo solver: residuals, equivariance, uniqueness", ok,
            f"residual={worst_resid:.2e}, equivariance={worst_equiv:.2e}, "
            f"dispersion={dispersion:.2e}")
    assert ok
