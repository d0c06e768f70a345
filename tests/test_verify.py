import numpy as np
import pytest

from santalo_lab import geometry as geo
from santalo_lab import polarity as pol
from santalo_lab import shadow as sh
from santalo_lab import verify as ver


def tent_template(x):
    return min(3.0 * x, 1.2 * (1.0 - x))


class TestSliceProfile:
    def test_cube_profile_is_constant(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1, 1.0)
                                for y in (-1, 1.0) for z in (-1, 1.0)])
        prof = ver.slice_profile(C, axis=2, n_samples=33)
        inner = (prof.xs > -0.99) & (prof.xs < 0.99)
        assert np.allclose(prof.ys[inner], 4.0, rtol=1e-10)
        # flat top face keeps the endpoint value at the face area
        assert prof.ys[0] == pytest.approx(4.0, rel=1e-9)

    def test_polygon_profile_exact_piecewise_linear(self, rng):
        P, _ = geo.convex_hull(rng.normal(size=(7, 2)))
        prof = ver.slice_profile(P, axis=1, n_samples=65)
        # interpolation defect vanishes when every breakpoint is sampled
        assert prof.interpolation_defect() < 1e-12

    def test_integral_doubling_control(self, rng):
        # accepted reports: refining the grid moves the integral < 1e-8
        for _ in range(5):
            P, _ = geo.convex_hull(rng.normal(size=(6, 2)))
            prof = ver.slice_profile(P, axis=0)
            _, change = prof.refined_integral()
            assert change < 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_each_section_sampled_once(self, d, rng, monkeypatch):
        keys = []
        section = geo.section

        def counting(P, axis, level):
            keys.append((P.vertices.tobytes(), axis, level))
            return section(P, axis, level)

        system = sh.random_shadow_system(d, rng)
        monkeypatch.setattr(geo, "section", counting)
        ver.midpoint_bound_check(system, *system.interval, n_samples=33)
        assert keys and len(set(keys)) == len(keys)

    def test_polar_profile_samples_are_section_volumes(self, rng):
        K, _ = geo.convex_hull(rng.normal(size=(7, 3)))
        z = geo.interior_point(K)
        prof = ver.polar_slice_profile(K, z, axis=2, n_samples=17)
        P = pol.polar(K, z).polar
        mids = 0.5 * (prof.xs[:-1] + prof.xs[1:])
        for xs, ys in ((prof.xs[1:-1], prof.ys[1:-1]), (mids, prof.mid_ys)):
            exact = [geo.volume(geo.section(P, 2, x)) for x in xs]
            assert np.array_equal(ys, exact)

    def test_polar_profile_includes_zero(self, rng):
        K, _ = geo.convex_hull(rng.normal(size=(6, 2)))
        prof = ver.polar_slice_profile(K, geo.interior_point(K), axis=1)
        assert 0.0 in prof.xs
        assert prof.support[0] < 0 < prof.support[1]


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
        rep = ver.half_volume_inequality_check(system, -1.0, 1.0, -1.0, 1.0,
                                               C=[0.0])
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
