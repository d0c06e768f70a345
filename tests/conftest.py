import numpy as np
import pytest
from scipy.spatial import ConvexHull

from santalo_lab import geometry as geo
from santalo_lab import polarity as pol


def random_body(rng, d, extra=4):
    """Full-dimensional random polytope from normal points."""
    pts = rng.normal(size=(d + extra, d))
    P, _ = geo.convex_hull(pts)
    return P


def set_equal(A, B, tol=1e-8):
    """Two polytopes describe the same set (mutual facet containment)."""
    v1 = max(max(-B.halfspaces.slack(v).min(), 0.0) for v in A.vertices)
    v2 = max(max(-A.halfspaces.slack(v).min(), 0.0) for v in B.vertices)
    return max(v1, v2) <= tol


def vertices_match(P, expected, tol=1e-9):
    """Vertex sets coincide as point sets within tol."""
    exp = np.atleast_2d(np.asarray(expected, dtype=float))
    if P.n_vertices != len(exp):
        return False
    d = np.linalg.norm(P.vertices[:, None, :] - exp[None, :, :], axis=2)
    return bool(d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol)


def hform_section(P, axis, level):
    """Reference section: vertex enumeration of P's sliced H-form."""
    h = P.halfspaces
    keep = [i for i in range(P.dim) if i != axis]
    A = h.normals[:, keep]
    b = h.offsets - h.normals[:, axis] * level
    sliced = np.linalg.norm(A, axis=1) > geo.TAU_GEOM
    return geo.vertex_enumeration(geo.HPolytope(A[sliced], b[sliced]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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


@pytest.fixture
def slack_centers(monkeypatch):
    """Every center passed to `polarity._slack`, one row each, in call order."""
    centers = []
    slack = pol._slack
    monkeypatch.setattr(pol, "_slack", lambda n, b, z: centers.extend(
        np.array(z, ndmin=2)) or slack(n, b, z))
    return centers
