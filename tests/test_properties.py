"""Property tests: affine equivariance of the Santalo point and of polar
volumes, the bipolar identity, and section volumes, on random few-vertex
bodies.

Hypothesis draws the body seed, an affine map and a center, or an axis and
a level; `derandomize` keeps every run on the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hform_section, set_equal
from santalo_lab import geometry as geo
from santalo_lab import mahler as mah
from santalo_lab import polarity as pol
from santalo_lab import santalo as san

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
