import numpy as np
import pytest

from conftest import random_body
from santalo_lab import geometry as geo
from santalo_lab import mahler as mah
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab import verify as ver
from santalo_lab.errors import NotInCone


def tent_template(x):
    return min(3.0 * x, 1.2 * (1.0 - x))


def tent(a: float, alpha: float = 0.0, beta: float = 1.0,
         height_scale: float = 1.0) -> ver.SliceProfile:
    """Extreme ray min((1-a)x, a(1-x)), 0 < a < 1, on [alpha, beta] rescaled."""
    xs = np.array([alpha, alpha + a * (beta - alpha), beta])
    ys = np.array([0.0, height_scale * a * (1 - a), 0.0])
    return ver.SliceProfile(xs, ys, (alpha, beta))


def with_breakpoint(f, a):
    """Degree-1 profile f with a node added at a."""
    xs = np.union1d(f.xs, a)
    return ver.SliceProfile(xs, f(xs), f.support)


def route_bodies():
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    simplex4 = np.vstack([np.zeros(4), np.eye(4)])
    rng = np.random.default_rng(7)
    return ([geo.convex_hull(pts)[0] for pts in (cube, octahedron, simplex4)]
            + [mah.random_polytope(d, k, rng) for d, k in ((2, 5), (3, 6), (4, 7))]
            + [mah.random_polytope(d, k, np.random.default_rng(0))
               for d, k in ((5, 7), (5, 8), (6, 9))]
            + [mah.random_polytope(d, k, np.random.default_rng(10))
               for d, k in ((6, 9), (6, 10))])


def gathered(p, x):
    """p at x with each point gathering its piece's knots and coefficients."""
    x = np.asarray(x, dtype=float)
    knots = p._knots
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
    t = (x - knots[i]) / (knots[i + 1] - knots[i])
    value = p._coef[i, -1]
    for k in range(p.degree - 1, -1, -1):
        value = value * t + p._coef[i, k]
    return np.where((x >= knots[0]) & (x <= knots[-1]), value, 0.0)[()]


def one_array_hypothesis(f, g, h, n_samples=ver.N_PROFILE_SAMPLES, evaluate=gathered):
    """(worst slack, witness, n_pairs, slack) of the hypothesis check as one
    (y, z) array, with f evaluated by evaluate(f, x)."""
    ys, g_ys = ver._check_grid(g, n_samples)
    zs, h_zs = ver._check_grid(h, n_samples)
    Y, Z = ys[:, None], zs[None, :]
    lam = Z / (Z + Y)
    rhs = g_ys[:, None] ** lam * h_zs[None, :] ** (1.0 - lam)
    slack = (evaluate(f, 2.0 * Z * Y / (Z + Y)) - rhs) / float(np.max(f.ys))
    i, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    return float(slack[i, j]), (float(ys[i]), float(zs[j])), int(slack.size), slack


class NanAbove(ver.SliceProfile):
    """A profile that reads NaN above its `cut`."""

    def __call__(self, x):
        return np.where(np.asarray(x) > self.cut, np.nan, super().__call__(x))


def same_report(rep, ref) -> bool:
    worst, witness, n_pairs, _ = ref
    return (np.array_equal(rep.worst_slack, worst, equal_nan=True)
            and rep.witness == witness and rep.details["n_pairs"] == n_pairs)


class TestSliceProfile:
    @pytest.mark.parametrize("xs", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0]],
                             ids=["repeated", "decreasing"])
    def test_nodes_must_increase(self, xs):
        with pytest.raises(ValueError, match="strictly increasing"):
            ver.SliceProfile(xs, [0.0, 0.4, 0.5, 0.0], (0.0, 1.0))

    def test_cube_profile_is_constant(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1, 1.0)
                                for y in (-1, 1.0) for z in (-1, 1.0)])
        prof = ver.slice_profile(C, axis=2)
        inner = (prof.xs > -0.99) & (prof.xs < 0.99)
        assert np.allclose(prof.ys[inner], 4.0, rtol=1e-10)
        # flat top face keeps the endpoint value at the face area
        assert prof.ys[0] == pytest.approx(4.0, rel=1e-9)

    def test_profile_exact_at_random_heights(self, rng):
        # a piece of degree d-1 through d exact sections is the profile itself
        for d in (2, 3, 4):
            P, _ = geo.convex_hull(rng.normal(size=(d + 5, d)))
            prof = ver.slice_profile(P, axis=1)
            lo, hi = prof.support
            xs = rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 20)
            exact = [geo.section(P, 1, x) for x in xs]
            assert np.allclose(prof(xs), exact, rtol=1e-12, atol=0.0)

    def test_integral_is_body_volume(self, rng):
        for d in (2, 3, 4):
            for _ in range(5):
                P, _ = geo.convex_hull(rng.normal(size=(d + 4, d)))
                prof = ver.slice_profile(P, axis=0)
                assert prof.integral() == pytest.approx(geo.volume(P), rel=1e-12)

    @pytest.mark.parametrize("K", route_bodies(),
                             ids=["cube", "octahedron", "4-simplex",
                                  "random-2-5", "random-3-6", "random-4-7",
                                  "random-5-7", "random-5-8", "random-6-9",
                                  "random-6-9-s10", "random-6-10-s10"])
    def test_polar_profile_integral_is_half_volume(self, K):
        # two routes to B_+: integrated sections and the exact polar clip
        z = 0.75 * K.vertices.mean(axis=0) + 0.25 * K.vertices[0]
        for axis in range(K.dim):
            prof = ver.polar_slice_profile(pol.polar(K, z), axis=axis)
            b_plus = pol.half_volumes(K, z, axis=axis).b_plus
            assert prof.integral() == pytest.approx(b_plus, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_each_section_sampled_once(self, d, rng, monkeypatch):
        keys = []
        sections = geo.sections

        def counting(P, axis, levels):
            keys.extend((P.vertices.tobytes(), axis, level) for level in levels)
            return sections(P, axis, levels)

        system = sh.random_shadow_system(d, rng)
        monkeypatch.setattr(geo, "sections", counting)
        ver.midpoint_bound_check(system, *system.interval, n_samples=33)
        assert keys and len(set(keys)) == len(keys)
        # polar profiles cover only the half x >= 0 that the checks read
        assert all(level >= 0 for _, _, level in keys)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_call_matches_gathered_pieces(self, d, rng):
        # piece-by-piece evaluation against the per-point gather, on degree
        # d-1 profiles: random points, the knots, points outside the nodes
        prof = ver.slice_profile(random_body(rng, d), axis=0)
        lo, hi = prof.xs[0], prof.xs[-1]
        xs = np.concatenate([rng.uniform(lo, hi, 200), prof._knots, prof.xs,
                             [lo - 1.0, lo - 1e-12, hi + 1e-12, hi + 1.0]])
        assert np.array_equal(prof(xs), gathered(prof, xs))
        grid = xs[:200].reshape(10, 20)
        assert np.array_equal(prof(grid), gathered(prof, grid))
        for x in (lo, 0.5 * (lo + hi), hi, hi + 1.0, np.float64(prof._knots[1]), np.array(lo)):
            value = prof(x)
            assert np.ndim(value) == 0 and value == gathered(prof, x)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_zero_outside_the_knots(self, degree, rng):
        # below the first knot, above the last, at +-inf and at NaN the value
        # is 0, for 0-d and n-d input alike; the profile is positive at both
        # ends, so a piece evaluated there would not read 0
        knots = np.cumsum(rng.uniform(0.2, 1.0, 5)) - 1.0
        xs = np.append((knots[:-1, None] + np.diff(knots)[:, None]
                        * ver._lobatto(degree)[:-1]).ravel(), knots[-1])
        prof = ver.SliceProfile(xs, rng.uniform(0.5, 1.0, len(xs)), (knots[0], knots[-1]),
                                degree)
        outside = [knots[0] - 1.0, np.nextafter(knots[0], -np.inf),
                   np.nextafter(knots[-1], np.inf), knots[-1] + 1.0, -np.inf, np.inf, np.nan]
        for x in outside:
            for arg in (x, np.float64(x), np.array(x)):
                value = prof(arg)
                assert np.ndim(value) == 0 and value == 0.0
        grid = np.array(outside + [knots[0], knots[-1]] + outside[::-1]).reshape(2, 2, 4)
        values = prof(grid)
        assert values.shape == grid.shape
        ends = [prof(knots[0]), prof(knots[-1])]
        assert ends == pytest.approx([prof.ys[0], prof.ys[-1]], rel=1e-12)
        assert values.ravel().tolist() == [0.0] * 7 + ends + [0.0] * 7

    def test_polar_profile_samples_are_section_volumes(self, rng):
        K, _ = geo.convex_hull(rng.normal(size=(7, 3)))
        z = geo.interior_point(K)
        pb = pol.polar(K, z)
        prof = ver.polar_slice_profile(pb, axis=2)
        exact = [geo.section(pb.polar, 2, x) for x in prof.xs[:-1]]
        assert np.array_equal(prof.ys[:-1], exact)
        # the last node is the polar's top, a single vertex here
        assert prof.ys[-1] == 0.0

    def test_polar_profile_includes_zero(self, rng):
        K, _ = geo.convex_hull(rng.normal(size=(6, 2)))
        prof = ver.polar_slice_profile(pol.polar(K, geo.interior_point(K)), axis=1)
        assert 0.0 in prof.xs
        assert prof.xs[0] == 0.0 and prof.support[1] > 0


class TestHarmonicHypothesis:
    def test_constant_plateau_equality(self):
        xs = np.linspace(0.0, 1.0, 17)
        prof = ver.SliceProfile(xs, np.full(17, 2.5), (0.0, 1.0))
        rep = ver.harmonic_hypothesis_check(prof, prof, prof)
        assert rep.status == "pass"
        assert abs(rep.worst_slack) < 1e-14

    def test_shadow_triple_passes(self, rng):
        system = sh.random_shadow_system(2, rng)
        rep = ver.midpoint_bound_check(system, *system.interval)
        assert rep.hypothesis.status == "pass"

    def test_3d_shadow_triples_pass_exactly(self, rng):
        for _ in range(12):
            system = sh.random_shadow_system(3, rng)
            rep = ver.midpoint_bound_check(system, *system.interval)
            assert rep.hypothesis.status == "pass"
            assert rep.hypothesis.worst_slack >= -1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n_samples", [65, 100, 257])
    def test_blocked_grid_matches_one_array(self, d, n_samples, rng):
        # polar profiles of three bodies; the y grid spans several blocks
        for _ in range(3):
            f, g, h = [ver.polar_slice_profile(pol.polar(K, geo.interior_point(K)), axis=0)
                       for K in (random_body(rng, d) for _ in range(3))]
            ref = one_array_hypothesis(f, g, h, n_samples)
            assert ref[3].shape[0] > ver.BLOCK_ROWS
            assert same_report(ver.harmonic_hypothesis_check(f, g, h, n_samples), ref)

    def test_tie_across_blocks_keeps_the_first(self):
        # g = h = 1, and f dips to its minimum at the harmonic mean of ys[a]
        # and ys[b]: the pair (a, b) in the first block, its mirror in the next
        flat = ver.SliceProfile([0.0, 1.0], [1.0, 1.0], (0.0, 1.0))
        ys = ver._check_grid(flat, 100)[0]
        a, b = 20, ver.BLOCK_ROWS + 20
        dip = 2.0 * ys[b] * ys[a] / (ys[b] + ys[a])
        f = ver.SliceProfile([0.0, dip, 2.0], [1.0, 0.25, 1.0], (0.0, 2.0))
        ref = one_array_hypothesis(f, flat, flat, 100)
        slack = ref[3]
        assert slack[a, b] == slack[b, a] == slack.min()
        assert np.count_nonzero(slack == slack.min()) == 2
        rep = ver.harmonic_hypothesis_check(f, flat, flat, 100)
        assert same_report(rep, ref) and rep.witness == (ys[a], ys[b])

    def test_nan_slack_is_a_violation(self):
        f, g, h = ver.equality_family(tent_template, B=0.7, C=1.9)
        ys = f.ys.copy()
        ys[100] = np.nan
        bad = ver.SliceProfile(f.xs, ys, f.support)
        rep = ver.harmonic_hypothesis_check(bad, g, h)
        assert rep.status == "violation" and not rep.passed
        assert np.isnan(rep.worst_slack)
        assert same_report(rep, one_array_hypothesis(bad, g, h))

    def test_later_nan_beats_earlier_minimum(self):
        # as in np.argmin, the first NaN wins over every number, also over
        # the minimum of an earlier block; f's harmonic-mean arguments stay
        # below 2 y, so the first block holds no NaN
        f, g, h = ver.equality_family(tent_template, B=0.7, C=1.9)
        spiked = NanAbove(f.xs, f.ys, f.support)
        spiked.cut = 2.0 * ver._check_grid(g, ver.N_PROFILE_SAMPLES)[0][ver.BLOCK_ROWS - 1]
        ref = one_array_hypothesis(spiked, g, h, evaluate=lambda p, x: p(x))
        slack = ref[3]
        assert not np.isnan(slack[:ver.BLOCK_ROWS]).any() and np.isnan(slack).any()
        rep = ver.harmonic_hypothesis_check(spiked, g, h)
        assert rep.status == "violation" and np.isnan(rep.worst_slack)
        assert same_report(rep, ref)

    def test_scaled_down_f_reports_violation_with_witness(self):
        f, g, h = ver.equality_family(tent_template, B=0.7, C=1.9)
        bad = ver.SliceProfile(f.xs, 0.9 * f.ys, f.support)
        rep = ver.harmonic_hypothesis_check(bad, g, h)
        assert rep.status == "violation"
        assert rep.worst_slack < -1e-7
        y, z = rep.witness
        assert y > 0 and z > 0


class TestHarmonicConclusion:
    def test_identical_profiles_equality(self):
        f, _, _ = ver.equality_family(tent_template, B=1.0, C=1.0)
        rep = ver.harmonic_conclusion_check(f, f, f)
        assert rep.status == "pass"
        assert rep.details["equality"]

    def test_equality_family(self):
        f, g, h = ver.equality_family(tent_template, B=0.6, C=2.3)
        hyp = ver.harmonic_hypothesis_check(f, g, h)
        assert hyp.status == "pass"
        rep = ver.harmonic_conclusion_check(f, g, h)
        assert rep.status == "pass"
        assert rep.details["equality"]
        assert abs(rep.worst_slack) < 1e-12

    def test_random_shadow_triples(self, rng):
        for _ in range(8):
            system = sh.random_shadow_system(2, rng)
            rep = ver.midpoint_bound_check(system, *system.interval)
            assert rep.conclusion.status == "pass"


class TestHalfVolumeInequality:
    def test_symmetric_translates_equality(self):
        sq = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        system = sh.ShadowSystem(sq, np.ones(4), [0.0, 1.0], (-1.0, 1.0))
        bodies = [sh.body_at(system, x) for x in (-1.0, 0.0, 1.0)]
        rep = ver.half_volume_inequality_check(*bodies, [0.0, -1.0], [0.0, 1.0],
                                               axis=system.axis)
        assert rep.passed
        b_s, b_m, b_t = rep.details["b_plus"]
        assert b_s == pytest.approx(b_m, rel=1e-9)
        assert b_s == pytest.approx(b_t, rel=1e-9)

    def test_random_instances(self, rng):
        count = 0
        while count < 12:
            d = 2 if count % 3 else 3
            system = sh.random_shadow_system(d, rng)
            rep = ver.midpoint_bound_check(system, *system.interval)
            assert rep.half_volume.passed
            assert rep.passed
            count += 1


class TestMidpointChain:
    def test_links_combine_to_midpoint_bound(self, rng):
        # eq chain: hypothesis -> half-volume -> midpoint -> Santalo minimality
        for _ in range(5):
            system = sh.random_shadow_system(2, rng)
            rep = ver.midpoint_bound_check(system, *system.interval)
            assert rep.passed
            assert rep.midpoint_slack >= -1e-9
            assert rep.santalo_slack >= rep.midpoint_slack - 1e-12

    def test_builds_each_body_once(self, rng, monkeypatch):
        calls = []
        body_at = sh.body_at

        def counting(system, t):
            calls.append(t)
            return body_at(system, t)

        monkeypatch.setattr(sh, "body_at", counting)
        for d in (2, 3):
            system = sh.random_shadow_system(d, rng)
            s, t = system.interval
            calls.clear()
            assert ver.midpoint_bound_check(system, s, t).passed
            assert sorted(calls) == [s, 0.5 * (s + t), t]

    def test_one_santalo_solve_for_the_three_bodies(self, rng, monkeypatch):
        calls = []
        solve = san.santalo_stack

        def counting(N, *args, **kwargs):
            calls.append(len(N))
            return solve(N, *args, **kwargs)

        monkeypatch.setattr(san, "santalo_stack", counting)
        for d in (2, 3):
            system = sh.random_shadow_system(d, rng)
            calls.clear()
            assert ver.midpoint_bound_check(system, *system.interval).passed
            assert calls == [3]  # K_s, K_mid and K_t in one stack

    @pytest.mark.parametrize("factor", [1e-8, 1e-6, 1e5, 1e8])
    @pytest.mark.parametrize("d", [2, 3])
    def test_scaled_system_passes(self, d, factor):
        # the chain's verdict is affine invariant; scaling must not change it
        rng = np.random.default_rng(5)
        for _ in range(10):
            system = sh.random_shadow_system(d, rng)
            scaled = sh.ShadowSystem(factor * system.base_points, factor * system.speeds,
                                     system.direction, system.interval)
            assert ver.midpoint_bound_check(scaled, *scaled.interval).passed, (d, factor)


class TestExtremeRayDecomposition:
    def test_tent_decomposes_proportionally(self):
        f = tent(0.35)
        g, h = ver.extreme_ray_decompose(f, 0.35)
        base = with_breakpoint(f, 0.35)
        ratio = g.ys[1] / base.ys[1]
        assert np.allclose(g.ys, ratio * base.ys, atol=1e-12)
        assert np.allclose(h.ys, (1 - ratio) * base.ys, atol=1e-12)

    def test_two_piece_degenerates_at_any_point(self):
        f = tent(0.6, height_scale=2.0)
        g, h = ver.extreme_ray_decompose(f, 0.3)
        base = with_breakpoint(f, 0.3)
        nz = base.ys[1:-1] != 0
        ratios_g = g.ys[1:-1][nz] / base.ys[1:-1][nz]
        assert np.allclose(ratios_g, ratios_g[0], atol=1e-12)

    def test_three_piece_splits_into_cone_members(self):
        f = ver.SliceProfile([0.0, 0.3, 0.7, 1.0], [0.0, 0.5, 0.6, 0.0], (0.0, 1.0))
        g, h = ver.extreme_ray_decompose(f, 0.5)
        assert ver.in_cone(g)
        assert ver.in_cone(h)
        fb = with_breakpoint(f, 0.5)
        assert np.allclose(g.ys + h.ys, fb.ys, atol=1e-15)
        # neither piece proportional to f
        for part in (g, h):
            vals = part(np.array([0.3, 0.7]))
            ref = fb(np.array([0.3, 0.7]))
            r = vals / ref
            assert abs(r[0] - r[1]) > 1e-6

    def test_general_interval_supported(self):
        f = ver.SliceProfile([-2.0, -0.5, 1.0], [0.0, 1.2, 0.0], (-2.0, 1.0))
        g, h = ver.extreme_ray_decompose(f, 0.0)
        assert ver.in_cone(g) and ver.in_cone(h)
        xs = np.linspace(-2, 1, 13)
        assert np.allclose(g(xs) + h(xs), f(xs), atol=1e-12)

    def test_extreme_ray_splits_into_itself_and_zero(self, rng):
        # one piece is 0 and the other f, up to rounding that must not
        # leave a negative value behind
        for _ in range(200):
            alpha, beta = np.sort(rng.normal(size=2))
            f = tent(rng.uniform(0.05, 0.95), alpha, beta, rng.uniform(0.1, 3.0))
            g, h = ver.extreme_ray_decompose(f, rng.uniform(alpha, beta))
            assert ver.in_cone(g) and ver.in_cone(h)
            assert np.allclose(g.ys + h.ys, f(g.xs), rtol=0, atol=1e-15)
            assert min(np.max(g.ys), np.max(h.ys)) <= 1e-12 * np.max(f.ys)

    def test_not_in_cone_rejected(self):
        # a negative-valued "convex" profile is refused when it is built
        with pytest.raises(ValueError):
            ver.SliceProfile([0.0, 0.5, 1.0], [0.0, -0.3, 0.0], (0.0, 1.0))
        not_concave = ver.SliceProfile([0.0, 0.3, 0.6, 1.0], [0.0, 0.4, 0.1, 0.0],
                                       (0.0, 1.0))
        with pytest.raises(NotInCone):
            ver.extreme_ray_decompose(not_concave, 0.5)
        nonzero_end = ver.SliceProfile([0.0, 0.5, 1.0], [0.0, 0.4, 0.3], (0.0, 1.0))
        with pytest.raises(NotInCone):
            ver.extreme_ray_decompose(nonzero_end, 0.5)
        f = tent(0.5)
        with pytest.raises(NotInCone):
            ver.extreme_ray_decompose(f, 1.0)
        for a in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                tent(a)
