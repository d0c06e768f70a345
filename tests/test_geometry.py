import math

import numpy as np
import pytest

import rational_oracle as oracle
from conftest import random_body, set_equal, vertices_match
from santalo_lab import geometry as geo
from santalo_lab.errors import (
    DegenerateInput,
    EmptySection,
    OutsideProjection,
    SingularMap,
)


class TestConvexHull:
    def test_square_from_corners(self):
        P, H = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert P.n_vertices == 4
        assert H.n_facets == 4

    def test_interior_point_pruned(self):
        P, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1], [0, 0]])
        assert P.n_vertices == 4
        assert vertices_match(P, [[1, 1], [1, -1], [-1, 1], [-1, -1]])

    def test_point_inside_tetrahedron_pruned(self, rng):
        # brute-force membership: a point in the hull of the other four is
        # a convex combination with non-negative barycentric weights
        for _ in range(20):
            tet = rng.normal(size=(4, 3))
            if abs(np.linalg.det(tet[1:] - tet[0])) < 1e-2:
                continue
            w = rng.uniform(0.05, 1.0, size=4)
            w /= w.sum()
            inner = w @ tet
            M = np.vstack([tet.T, np.ones(4)])
            bary = np.linalg.solve(M, np.append(inner, 1.0))
            assert np.all(bary > 0)  # oracle: strictly inside
            P, H = geo.convex_hull(np.vstack([tet, inner]))
            assert P.n_vertices == 4
            assert H.n_facets == 4

    def test_inputs_satisfy_facets(self, rng):
        pts = rng.normal(size=(12, 3))
        _, H = geo.convex_hull(pts)
        for p in pts:
            assert H.contains(p, tol=1e-9)

    def test_flat_input_rejected(self):
        with pytest.raises(DegenerateInput):
            geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateInput):
            geo.convex_hull([[0, 0], [1, 0]])

    def test_roundtrip_h_to_v(self, rng):
        for d in (2, 3, 4):
            for _ in range(8):
                P = random_body(rng, d)
                V2 = geo.vertex_enumeration(P.halfspaces)
                assert set_equal(P, V2, tol=1e-9 * P.scale())

    def test_roundtrip_reproduces_facet_set(self, rng):
        # re-hulling the enumerated vertices yields the same (normal, offset)
        # rows within 1e-9
        for d in (2, 3, 4):
            for _ in range(5):
                P = random_body(rng, d)
                V2 = geo.vertex_enumeration(P.halfspaces)
                _, H2 = geo.convex_hull(V2.vertices)
                rows1 = np.column_stack([P.halfspaces.normals,
                                         P.halfspaces.offsets])
                rows2 = np.column_stack([H2.normals, H2.offsets])
                assert len(rows1) == len(rows2)
                dist = np.abs(rows1[:, None, :] - rows2[None, :, :]).max(axis=2)
                assert dist.min(axis=1).max() < 1e-9
                assert dist.min(axis=0).max() < 1e-9


class TestVolume:
    def test_unit_cube(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (0, 1.0)
                                for y in (0, 1.0) for z in (0, 1.0)])
        assert geo.volume(C) == pytest.approx(1.0, rel=1e-12)

    def test_standard_simplex(self):
        for d in (2, 3, 4, 5):
            S, _ = geo.convex_hull(np.vstack([np.zeros(d), np.eye(d)]))
            assert geo.volume(S) == pytest.approx(1 / math.factorial(d), rel=1e-12)

    def test_random_polygon_matches_rational_shoelace(self, rng):
        for _ in range(25):
            pts = oracle.lattice_points(rng, 8)
            P, _ = geo.convex_hull(pts)
            ordered = oracle.sort_ccw(oracle.to_fractions(P.vertices))
            exact = float(oracle.area(ordered))
            assert geo.volume(P) == pytest.approx(exact, rel=1e-12)

    def test_det_scaling(self, rng):
        # |AP| = |det A| |P|, 200 random cases
        for _ in range(200):
            d = int(rng.integers(2, 5))
            P = random_body(rng, d)
            A = rng.normal(size=(d, d))
            if abs(np.linalg.det(A)) < 1e-3:
                continue
            Q = geo.apply_affine(P, A, rng.normal(size=d))
            assert geo.volume(Q) == pytest.approx(
                abs(np.linalg.det(A)) * geo.volume(P), rel=1e-9)

    def test_translation_invariance(self, rng):
        P = random_body(rng, 3)
        Q = geo.translate(P, [3.0, -1.0, 2.5])
        assert geo.volume(Q) == pytest.approx(geo.volume(P), rel=1e-12)

    def test_vertex_order_irrelevant(self, rng):
        P = random_body(rng, 3)
        perm = rng.permutation(P.n_vertices)
        Q = geo.VPolytope(P.vertices[perm])
        assert geo.volume(Q) == pytest.approx(geo.volume(P), rel=1e-12)


class TestInteriorPoint:
    def test_square_center(self):
        P, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert np.allclose(geo.interior_point(P), [0, 0], atol=1e-9)

    def test_right_triangle_incenter(self):
        P, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1]])
        c = geo.interior_point(P)
        r = 1 - math.sqrt(2) / 2
        assert np.allclose(c, [r, r], atol=1e-8)
        slack = P.halfspaces.slack(c)
        assert np.max(slack) - np.min(slack) < 1e-8  # equal slack on all facets

    def test_translation_equivariance(self):
        P, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1]])
        v = np.array([5.0, -2.0])
        Q = geo.translate(P, v)
        assert np.allclose(geo.interior_point(Q), geo.interior_point(P) + v,
                           atol=1e-8)

    def test_positive_slack(self, rng):
        for d in (2, 3, 4):
            P = random_body(rng, d)
            c = geo.interior_point(P)
            assert np.min(P.halfspaces.slack(c)) > geo.TAU_GEOM


class TestCentroid:
    def test_simplex_vertex_average(self):
        S, _ = geo.convex_hull(np.vstack([np.zeros(3), np.eye(3)]))
        assert np.allclose(geo.centroid(S), S.vertices.mean(axis=0), atol=1e-12)

    def test_square(self):
        P, _ = geo.convex_hull([[0, 0], [2, 0], [0, 2], [2, 2]])
        assert np.allclose(geo.centroid(P), [1, 1], atol=1e-12)

    def test_random_polygon_matches_rational_moments(self, rng):
        for _ in range(25):
            pts = oracle.lattice_points(rng, 7)
            P, _ = geo.convex_hull(pts)
            ordered = oracle.sort_ccw(oracle.to_fractions(P.vertices))
            cx, cy = oracle.centroid(ordered)
            assert np.allclose(geo.centroid(P), [float(cx), float(cy)],
                               rtol=1e-12, atol=1e-12)

    def test_affine_equivariance(self, rng):
        P = random_body(rng, 3)
        A = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        b = rng.normal(size=3)
        Q = geo.apply_affine(P, A, b)
        assert np.allclose(geo.centroid(Q), A @ geo.centroid(P) + b, atol=1e-9)


class TestMoments:
    def test_cube(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1.0, 1.0)
                                for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
        vol, c, M = geo.moments(C)
        assert vol == pytest.approx(8.0, rel=1e-12)
        assert np.allclose(c, 0.0, atol=1e-12)
        assert np.allclose(M, np.eye(3) / 3, atol=1e-12)

    def test_matches_per_simplex_loop(self, rng):
        # reference: sum the moments of the fan simplices one at a time
        P = random_body(rng, 3)
        apex = P.vertices.mean(axis=0)
        total, first, second = 0.0, np.zeros(3), np.zeros((3, 3))
        for s in P.facet_simplices:
            w = np.vstack([P.vertices[s], apex])
            vol = abs(np.linalg.det(P.vertices[s] - apex)) / 6
            total += vol
            first += vol * w.sum(axis=0) / 4
            second += vol / 20 * (w.T @ w + np.outer(w.sum(axis=0), w.sum(axis=0)))
        vol, c, M = geo.moments(P)
        assert vol == pytest.approx(total, rel=1e-12)
        assert np.allclose(c, first / total, rtol=0, atol=1e-12)
        assert np.allclose(M, second / total, rtol=0, atol=1e-12)

    def test_redundant_first_vertex_on_first_call(self):
        # The fan must skip the unused interior point of a trusted list.
        P = geo.VPolytope([[0.2, 0.2], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert geo.volume(P) == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(geo.centroid(P), [1 / 3, 1 / 3], atol=1e-12)


class TestVPolytope:
    def test_trusted_redundant_list_keeps_its_vertices(self):
        pts = [[0, 0], [1, 0], [0, 1], [.2, .2]]
        P = geo.VPolytope(pts)
        assert P.n_vertices == 4
        P.halfspaces
        P.facet_simplices
        assert P.n_vertices == 4
        assert np.array_equal(P.vertices, np.asarray(pts, dtype=float))


class TestDedupeRows:
    def test_near_duplicate_with_a_row_sorted_between(self):
        rows = np.array([[0.0, 5.0], [1e-10, 3.0], [2e-10, 5.0]])
        assert len(geo._dedupe_rows(rows, 1e-9)) == 2


def test_embed_point():
    assert np.array_equal(geo.embed_point([1.0, 2.0], 7.0, 1), [1.0, 7.0, 2.0])
    assert np.array_equal(geo.embed_point([1.0, 2.0], 7.0, 2), [1.0, 2.0, 7.0])


def hform_section(P, axis, level):
    """Reference section: vertex enumeration of P's sliced H-form."""
    h = P.halfspaces
    keep = [i for i in range(P.dim) if i != axis]
    A = h.normals[:, keep]
    b = h.offsets - h.normals[:, axis] * level
    sliced = np.linalg.norm(A, axis=1) > geo.TAU_GEOM
    return geo.vertex_enumeration(geo.HPolytope(A[sliced], b[sliced]))


def section_bodies(rng):
    cube = [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    return {"cube": geo.convex_hull(cube)[0],
            "octahedron": geo.convex_hull(octahedron)[0],
            "random-3": random_body(rng, 3), "random-4": random_body(rng, 4)}


class TestSection:
    def test_cube_midslice(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1, 1.0)
                                for y in (-1, 1.0) for z in (-1, 1.0)])
        sec = geo.section(C, 2, 0.0)
        assert sec.dim == 2
        assert geo.volume(sec) == pytest.approx(4.0, rel=1e-10)

    def test_simplex_cone_scaling(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        # cross-sections of a cone scale as (1 - level)^(d-1) times the base
        assert geo.volume(geo.section(S, 2, 0.5)) == pytest.approx(1 / 8, rel=1e-10)
        assert geo.volume(geo.section(S, 2, 0.25)) == pytest.approx(
            0.5 * 0.75 ** 2, rel=1e-10)

    def test_level_outside_errors(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(EmptySection):
            geo.section(S, 2, 1.5)
        with pytest.raises(EmptySection):
            geo.section(S, 2, 1.0)  # boundary level is excluded too

    @pytest.mark.parametrize("body", ["cube", "octahedron", "random-3", "random-4"])
    def test_matches_hform_reference(self, body, rng):
        P = section_bodies(rng)[body]
        for axis in range(P.dim):
            heights = P.vertices[:, axis]
            lo, hi = heights.min(), heights.max()
            inner = heights[(heights > lo + 1e-6) & (heights < hi - 1e-6)]
            for level in np.concatenate([rng.uniform(lo, hi, size=4), inner]):
                sec = geo.section(P, axis, level)
                ref = hform_section(P, axis, level)
                assert vertices_match(sec, ref.vertices, tol=1e-12 * P.scale())
                assert geo.volume(sec) == pytest.approx(geo.volume(ref), rel=1e-12)

    def test_polygon_section_is_an_interval(self, rng):
        P = random_body(rng, 2)
        level = P.vertices[:, 1].mean()
        sec = geo.section(P, 1, level)
        lo, hi = hform_section(P, 1, level).vertices[:, 0]
        assert sec.vertices[:, 0] == pytest.approx([lo, hi], rel=1e-12)

    def test_profile_brunn_minkowski_concavity(self, rng):
        # (1/(d-1))-th power of the slice volume is concave on the support
        for _ in range(50):
            d = 2 if rng.uniform() < 0.5 else 3
            P = random_body(rng, d)
            axis = int(rng.integers(0, d))
            lo = P.vertices[:, axis].min()
            hi = P.vertices[:, axis].max()
            levels = np.arange(lo + 0.01, hi - 0.005, 0.01 * (hi - lo))
            vals = np.array([geo.volume(geo.section(P, axis, lv)) ** (1 / (d - 1))
                             for lv in levels])
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] >= mid - 1e-7 * vals.max())


class TestChord:
    def test_cube_center_chord(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1, 1.0)
                                for y in (-1, 1.0) for z in (-1, 1.0)])
        lo, hi = geo.chord(C, [0.0, 0.0])
        assert (lo, hi) == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_simplex_hand_computed(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        lo, hi = geo.chord(S, [0.25, 0.25])
        assert (lo, hi) == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_boundary_base_point_errors(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(OutsideProjection):
            geo.chord(S, [0.5, 0.5])  # on the projection's boundary
        with pytest.raises(OutsideProjection):
            geo.chord(S, [2.0, 2.0])

    def test_endpoint_convexity_concavity(self, rng):
        # a(X) is convex and b(X) concave: midpoint checks on random pairs
        for _ in range(20):
            d = 3
            P = random_body(rng, d)
            proj, _ = geo.convex_hull(P.vertices[:, :-1])
            c = proj.vertices.mean(axis=0)
            for _ in range(10):
                lam = rng.uniform(0, 0.8, size=2)
                X1 = c + lam[0] * (proj.vertices[0] - c)
                X2 = c + lam[1] * (proj.vertices[-1] - c)
                a1, b1 = geo.chord(P, X1)
                a2, b2 = geo.chord(P, X2)
                am, bm = geo.chord(P, 0.5 * (X1 + X2))
                assert am <= 0.5 * (a1 + a2) + 1e-9
                assert bm >= 0.5 * (b1 + b2) - 1e-9


class TestApplyAffine:
    def test_identity(self, rng):
        P = random_body(rng, 3)
        Q = geo.apply_affine(P, np.eye(3))
        assert set_equal(P, Q, tol=1e-12)

    def test_scaling_volume(self):
        P, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        Q = geo.apply_affine(P, 2 * np.eye(2))
        assert geo.volume(Q) == pytest.approx(4 * geo.volume(P), rel=1e-12)

    def test_shear_volume_factor(self):
        # the affine-family shear multiplies volume by (v s + 1)
        S, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1]])
        v, s, V1, u = 0.7, 0.5, 0.3, 0.1
        A = np.array([[1.0, 0.0], [s * V1, v * s + 1.0]])
        Q = geo.apply_affine(S, A, [0.0, s * u])
        assert geo.volume(Q) == pytest.approx((v * s + 1) * geo.volume(S),
                                              rel=1e-12)

    def test_singular_rejected(self):
        P, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        with pytest.raises(SingularMap):
            geo.apply_affine(P, np.array([[1.0, 1.0], [1.0, 1.0]]))
