"""Property tests: affine equivariance of the Santalo point and of polar
volumes, the bipolar identity, section volumes, and scale equivariance of
every answer, on random few-vertex bodies.

Hypothesis draws the body seed, an affine map and a center, or an axis and
a level; `derandomize` keeps every run on the same examples.  The scale
test runs on seeded bodies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hform_section, set_equal
from santalo_lab import geometry as geo
from santalo_lab import mahler as mah
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab import verify as ver

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def centered_bodies(draw):
    """A random_polytope body in d = 2 or 3 and a point strictly inside it."""
    d = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(d + 1, d + 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    K = mah.random_polytope(d, k, np.random.default_rng(seed))
    # a vertex pulled toward the vertex mean
    j = draw(st.integers(0, k - 1))
    lam = draw(st.floats(0.0, 0.8))
    mean = K.vertices.mean(axis=0)
    return K, mean + lam * (K.vertices[j] - mean)


def vectors(n):
    return st.lists(unit, min_size=n, max_size=n).map(np.array)


@st.composite
def affine_maps(draw, d):
    """(A, b) with A = Q1 diag(sigma) Q2, singular values in [1/2, 2]."""
    q1, _ = np.linalg.qr(draw(vectors(d * d)).reshape(d, d))
    q2, _ = np.linalg.qr(draw(vectors(d * d)).reshape(d, d))
    sigma = draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))
    return q1 @ np.diag(sigma) @ q2, 3.0 * draw(vectors(d))


@st.composite
def mapped_bodies(draw):
    """A centered body and an affine map of its dimension."""
    K, z = draw(centered_bodies())
    A, b = draw(affine_maps(K.dim))
    return K, z, A, b


@PROPERTY
@given(mapped_bodies())
def test_santalo_point_is_affine_equivariant(case):
    K, _, A, b = case
    AK = geo.apply_affine(K, A, b)
    got = san.santalo_point(AK)
    ref = san.santalo_point(K)
    assert got.converged and ref.converged
    assert np.linalg.norm(got.point - (A @ ref.point + b)) <= 1e-7 * AK.scale()


@PROPERTY
@given(mapped_bodies())
def test_polar_volume_scales_by_inverse_determinant(case):
    K, z, A, b = case
    AK = geo.apply_affine(K, A, b)
    moved = pol.polar(AK, A @ z + b).polar_volume
    expected = pol.polar(K, z).polar_volume / abs(np.linalg.det(A))
    assert abs(moved - expected) <= 1e-12 * expected


@PROPERTY
@given(centered_bodies())
def test_bipolar_round_trip(case):
    K, z = case
    back = pol.bipolar(pol.polar(K, z))
    assert set_equal(K, back, tol=1e-9 * K.scale())


@st.composite
def sliced_bodies(draw):
    """A random_polytope body in d = 2..4 or its polar, an axis, and a level
    inside its height range: drawn, or an inner vertex height."""
    d = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.integers(d + 1, d + 4))
    P = mah.random_polytope(d, k, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.booleans()):
        P = pol.polar(P, P.vertices.mean(axis=0)).polar
    axis = draw(st.integers(0, d - 1))
    heights = P.vertices[:, axis]
    lo, hi = heights.min(), heights.max()
    inner = heights[(heights > lo + 1e-6 * (hi - lo)) & (heights < hi - 1e-6 * (hi - lo))]
    if len(inner) and draw(st.booleans()):
        return P, axis, float(inner[draw(st.integers(0, len(inner) - 1))])
    return P, axis, float(lo + draw(st.floats(0.01, 0.99)) * (hi - lo))


@PROPERTY
@given(sliced_bodies())
def test_section_matches_hform_volume(case):
    P, axis, level = case
    ref = geo.volume(hform_section(P, axis, level))
    assert abs(geo.section(P, axis, level) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("factor", [1e-8, 1e8])
@pytest.mark.parametrize("d, k", [(2, 5), (3, 5), (3, 6), (4, 7)])
def test_answers_are_scale_equivariant(d, k, factor):
    # Every tolerance is relative to the scale of what it measures, so a body
    # scaled by `factor` gets the same label, volume product and descent
    # verdict, and its volumes scale by factor**d.
    rng = np.random.default_rng(7)
    H = geo.Hyperplane(np.arange(1.0, d + 1), 0.1)
    moves = 0
    for _ in range(6):
        K = mah.random_polytope(d, k, rng)
        label, vp = mah.classify(K), pol.volume_product(K)
        Kf, _ = geo.convex_hull(factor * K.vertices)
        assert mah.classify(Kf) is label
        assert pol.volume_product(Kf) == pytest.approx(vp, rel=1e-9)
        if d <= 3:
            volume = factor ** d * geo.volume(K)
            assert ver.slice_profile(Kf).integral() == pytest.approx(volume, rel=1e-9)
            KH = sh.steiner_symmetral(Kf, geo.Hyperplane(H.normal, factor * H.offset))
            assert geo.volume(KH) == pytest.approx(volume, rel=1e-9)
        if moves < 2 and label not in (mah.CaseLabel.SIMPLEX, mah.CaseLabel.PYRAMID_Ia,
                                       mah.CaseLabel.PYRAMID_IIa):
            moves += 1
            rep = mah.verify_descent_monotonicity(mah.descent_move(Kf), n_grid=9)
            assert rep.endpoint_minimal and rep.volume_behavior_ok
    assert moves == 2
