import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import rational_oracle as oracle
from conftest import (chord, eager_facets, fan_bodies, hform_section, moments, random_body,
                      set_equal, vertices_match)
from santalo_lab import geometry as geo
from santalo_lab import mahler
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab.errors import (
    DegenerateInput,
    EmptySection,
    OutsideProjection,
    SingularMap,
)


class TestConvexHull:
    def test_square_from_corners(self):
        P, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert P.n_vertices == 4
        assert P.n_facets == 4

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
            P, _ = geo.convex_hull(np.vstack([tet, inner]))
            assert P.n_vertices == 4
            assert P.n_facets == 4

    def test_inputs_satisfy_facets(self, rng):
        pts = rng.normal(size=(12, 3))
        P, _ = geo.convex_hull(pts)
        for p in pts:
            assert np.min(P.slack(p)) >= -1e-9

    def test_vertex_indices_point_at_the_input_rows(self, rng):
        # the second value indexes the input rows that are P's vertices, bit
        # for bit, also when the input repeats points
        for d in (1, 2, 3, 4, 6):
            pts = rng.normal(size=(d + 6, d))
            for points in (pts, np.vstack([pts, pts[::2]]), np.repeat(pts, 3, axis=0)):
                P, idx = geo.convex_hull(points)
                assert len(idx) == P.n_vertices
                assert np.array_equal(points[idx], P.vertices)

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="Qhull lists a boundary point that is no vertex")
    def test_listed_vertices_are_vertices(self):
        # criterion 7's body at loop index 16: at t = -1 and t = 1 of its
        # Steiner system, vertex 3 lies in 2 of the 10 facet planes, yet it
        # is a corner of Qhull's boundary simplices
        rng = np.random.default_rng(20250817)
        for i in range(17):
            d = 2 if i % 2 else 3
            pts = rng.normal(size=(d + 4, d))
            H = geo.Hyperplane(rng.normal(size=d), 0.1 * rng.normal())
        system = sh.steiner_system(geo.convex_hull(pts)[0], H)
        for t in system.interval:
            K = sh.body_at(system, t)
            on = np.abs(K.offsets[:, None] - K.normals @ K.vertices.T) <= geo.TAU_GEOM * K.scale()
            assert (on.sum(axis=0) >= K.dim).all(), t

    def test_flat_input_rejected(self):
        with pytest.raises(DegenerateInput):
            geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateInput):
            geo.convex_hull([[0, 0], [1, 0]])

    @pytest.mark.parametrize("level", [0.3, 0.5])
    def test_merged_facets_in_5d(self, level):
        # The crossings of a 6-d polar's Qhull fan edges (Qhull's hull of its
        # vertices at K's vertex mean) with a level: a 5-d point set whose
        # facets hold many coplanar points.  Qhull merges them and its
        # triangulation overlaps, so the hull pulls its own from the facets.
        K = mahler.random_polytope(6, 9, np.random.default_rng(0))
        P = pol.polar(K, 0.75 * K.vertices.mean(axis=0) + 0.25 * K.vertices[0]).polar
        rel = P.vertices[:, 3] - level * P.vertices[:, 3].max()
        fan = ConvexHull(K.normals / pol._slack(K.normals, K.offsets,
                                                K.vertices.mean(axis=0))[:, None]).simplices
        a, b = fan[:, geo._EDGES[6]].reshape(-1, 2).T
        a, b = a[rel[a] * rel[b] < 0], b[rel[a] * rel[b] < 0]
        w = (rel[a] / (rel[a] - rel[b]))[:, None]
        cut = np.delete(P.vertices[a] + w * (P.vertices[b] - P.vertices[a]), 3, axis=1)
        hull = ConvexHull(cut)
        apex = cut[hull.vertices].mean(axis=0)
        qhull_fan = np.abs(np.linalg.det(cut[hull.simplices] - apex)).sum() / math.factorial(5)
        assert abs(qhull_fan - hull.volume) > 1e-12 * hull.volume
        assert geo.volume(geo.convex_hull(cut)[0]) == pytest.approx(hull.volume, rel=1e-12)

    def test_roundtrip_h_to_v(self, rng):
        for d in (2, 3, 4):
            for _ in range(8):
                P = random_body(rng, d)
                V2 = geo.vertex_enumeration(P.normals, P.offsets)
                assert set_equal(P, V2, tol=1e-9 * P.scale())

    def test_roundtrip_reproduces_facet_set(self, rng):
        # re-hulling the enumerated vertices yields the same (normal, offset)
        # rows within 1e-9
        for d in (2, 3, 4):
            for _ in range(5):
                P = random_body(rng, d)
                V2 = geo.vertex_enumeration(P.normals, P.offsets)
                H2, _ = geo.convex_hull(V2.vertices)
                rows1 = np.column_stack([P.normals, P.offsets])
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
        Q = geo.apply_affine(P, np.eye(3), [3.0, -1.0, 2.5])
        assert geo.volume(Q) == pytest.approx(geo.volume(P), rel=1e-12)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_bitwise_equal_to_moments(self, d, rng):
        for _ in range(5):
            P = random_body(rng, d, extra=d + 2)
            assert geo.volume(P) == moments(P)[0]

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
        slack = P.slack(c)
        assert np.max(slack) - np.min(slack) < 1e-8  # equal slack on all facets

    def test_translation_equivariance(self):
        P, _ = geo.convex_hull([[0, 0], [1, 0], [0, 1]])
        v = np.array([5.0, -2.0])
        Q = geo.apply_affine(P, np.eye(2), v)
        assert np.allclose(geo.interior_point(Q), geo.interior_point(P) + v,
                           atol=1e-8)

    def test_positive_slack(self, rng):
        for d in (2, 3, 4):
            P = random_body(rng, d)
            c = geo.interior_point(P)
            assert np.min(P.slack(c)) > geo.TAU_GEOM


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


    def test_matches_moments_centroid(self):
        # the lean formula gives the centroid of the one-pass moments, on
        # hulls, sampled bodies (rows in subset order) and a trusted list
        # whose first vertex is redundant
        rng = np.random.default_rng(31)
        bodies = [random_body(rng, d, extra) for d in range(2, 7) for extra in (1, 4, 9)
                  for _ in range(4)]
        bodies += [mahler.random_polytope(d, d + 3, rng) for d in range(2, 6) for _ in range(10)]
        bodies.append(geo.VPolytope([[0.2, 0.2], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        for P in bodies:
            want = moments(P)[1]
            assert np.abs(geo.centroid(P) - want).max() <= 1e-12


class TestMoments:
    def test_cube(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1.0, 1.0)
                                for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
        vol, c, M = moments(C)
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
        vol, c, M = moments(P)
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
        P.normals
        P.facet_simplices
        assert P.n_vertices == 4
        assert np.array_equal(P.vertices, np.asarray(pts, dtype=float))

    def test_vertices_are_read_only(self):
        # the cached facts are of fixed points: an in-place write raises,
        # and the caller's array stays writable
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for P in (geo.VPolytope(pts), geo.convex_hull(pts)[0]):
            with pytest.raises(ValueError, match="read-only"):
                P.vertices[0, 0] = 5.0
        pts[0, 0] = 5.0
        assert P.vertices[0, 0] == 0.0 and geo.VPolytope(pts).vertices[0, 0] == 5.0


class TestDedupeRows:
    def test_near_duplicate_with_a_row_sorted_between(self):
        rows = np.array([[0.0, 5.0], [1e-10, 3.0], [2e-10, 5.0]])
        assert len(geo._dedupe_rows(rows, 1e-9)) == 2


class TestLazyFacets:
    @staticmethod
    def _qhull_rows(P):
        if P.dim == 1:
            lo, hi = P.vertices.min(), P.vertices.max()
            return np.array([[1.0], [-1.0]]), np.array([hi, -lo])
        eq = ConvexHull(P.vertices).equations
        return eq[:, :-1], -eq[:, -1]

    def test_rows_match_the_eager_formula(self):
        # unit normals, merged rows and their order, bit for bit, on the fan
        # bodies (the cube's 12 Qhull rows merge into 6) and random 2D-6D bodies
        rng = np.random.default_rng(21)
        bodies = fan_bodies() + [random_body(rng, d, extra) for d in range(2, 7)
                                 for extra in (1, 5, 12)]
        for P in bodies:
            normals, offsets = self._qhull_rows(P)
            h = geo.VPolytope(P.vertices, (normals, offsets))
            want = eager_facets(normals, offsets)
            assert np.array_equal(h.normals, want[0]) and np.array_equal(h.offsets, want[1])
            assert h.dim == P.dim and h.n_facets == len(want[0])
        assert (len(self._qhull_rows(bodies[0])[0]), bodies[0].n_facets) == (12, 6)

    def test_degenerate_rows_raise_on_first_read(self):
        triangle = [[0, 0], [1, 0], [0, 1]]
        h = geo.VPolytope(triangle, ([[0, 0]], [1]))
        assert h.dim == 2
        with pytest.raises(DegenerateInput):
            h.normals
        with pytest.raises(DegenerateInput):
            h.offsets
        mismatch = geo.VPolytope(triangle, ([[1, 0], [0, 1]], [1]))
        with pytest.raises(ValueError, match="length mismatch"):
            mismatch.normals

    def test_rejected_draws_build_no_rows(self, monkeypatch, qhull_calls):
        # `random_polytope` reads no facets of the draws it rejects, and
        # samples with no hull at all; the bodies it accepts keep their
        # subset planes as rows, so reading them normalizes and dedupes
        # nothing.  Those rows are unit, and the set `_facet_rows` makes of them
        deduped, normalized, draws = [], [], []
        dedupe_rows, facet_rows, ball_points = geo._dedupe_rows, geo._facet_rows, mahler._ball_points
        monkeypatch.setattr(geo, "_dedupe_rows", lambda rows, tol: deduped.append(rows)
                            or dedupe_rows(rows, tol))
        monkeypatch.setattr(geo, "_facet_rows", lambda *pair: normalized.append(pair)
                            or facet_rows(*pair))
        monkeypatch.setattr(mahler, "_ball_points", lambda *args: draws.append(args)
                            or ball_points(*args))
        rng = np.random.default_rng(3)
        bodies = [mahler.random_polytope(d, k, rng)
                  for d, k in ((2, 5), (3, 6), (4, 7), (5, 8)) * 4]
        assert len(draws) > 16  # some draws were rejected
        rows = [np.column_stack([K.normals, K.offsets]) for K in bodies]
        assert deduped == normalized == [] and qhull_calls == []
        for K, mine in zip(bodies, rows):
            assert np.abs(np.linalg.norm(K.normals, axis=1) - 1).max() <= 1e-15
            want = facet_rows(K.normals, K.offsets)
            gap = np.abs(mine[:, None] - want[None]).max(axis=2)
            assert len(mine) == len(want) == len(K.facet_simplices)
            assert gap.min(axis=1).max() <= 1e-15 and gap.min(axis=0).max() <= 1e-15


def compare_incidence(fan, n):
    """`geometry._incidence` by comparing every corner with every point and
    summing as float: the formula before its `np.bincount`."""
    return (fan[..., None] == np.arange(n)).sum(axis=2, dtype=float)


class TestIncidence:
    @pytest.mark.parametrize("R", [1, 33])
    def test_random_fans(self, R):
        rng = np.random.default_rng(R)
        for d in range(1, 7):
            n = int(rng.integers(d + 1, 40))
            fan = rng.integers(0, n, size=(R, int(rng.integers(1, 60)), d))
            got = geo._incidence(fan, n)
            assert got.dtype == float
            assert np.array_equal(got, compare_incidence(fan, n))

    def test_padded_fans(self, rng):
        # `santalo._joined` pads the smaller fans with simplices whose
        # corners all repeat index 0
        for d in (2, 3, 4):
            stacks = [san._body_stack(random_body(rng, d, extra)) for extra in (1, 4, 9)]
            N, _, fan, *_ = san._joined(stacks)
            assert (fan == 0).all(axis=2).any()
            assert np.array_equal(geo._incidence(fan, N.shape[1]),
                                  compare_incidence(fan, N.shape[1]))


def test_embed_point():
    assert np.array_equal(geo.embed_point([1.0, 2.0], 7.0, 1), [1.0, 7.0, 2.0])
    assert np.array_equal(geo.embed_point([1.0, 2.0], 7.0, 2), [1.0, 2.0, 7.0])
    # a negative axis counts in the result, as `half_volumes` counts it
    assert np.array_equal(geo.embed_point([1.0, 2.0], 7.0, -1), [1.0, 2.0, 7.0])
    with pytest.raises(IndexError):
        geo.embed_point([1.0, 2.0], 7.0, 3)
    # a vertex array: every row gets the coordinate
    assert np.array_equal(geo.embed_point([[1.0, 2.0], [3.0, 4.0]], 0.0, 2),
                          [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])


def section_bodies(rng):
    cube = [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    return {"cube": geo.convex_hull(cube)[0],
            "octahedron": geo.convex_hull(octahedron)[0],
            "random-3": random_body(rng, 3), "random-4": random_body(rng, 4)}


def stacked_section_bodies():
    """The fan bodies of dimension 2..6, then polars about an off-center point
    (a smaller 6D body stands in for the (6, 16) one, whose polar's fan holds
    about 15,000 simplices)."""
    bodies = [K for K in fan_bodies() if K.dim > 1]
    polars = bodies[:-1] + [mahler.random_polytope(6, 9, np.random.default_rng(0))]
    return bodies + [pol.polar(K, 0.7 * K.vertices.mean(axis=0) + 0.3 * K.vertices[0]).polar
                     for K in polars]


class TestSection:
    def test_cube_midslice(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1, 1.0)
                                for y in (-1, 1.0) for z in (-1, 1.0)])
        assert geo.section(C, 2, 0.0) == pytest.approx(4.0, rel=1e-10)

    def test_simplex_cone_scaling(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        # cross-sections of a cone scale as (1 - level)^(d-1) times the base
        assert geo.section(S, 2, 0.5) == pytest.approx(1 / 8, rel=1e-10)
        assert geo.section(S, 2, 0.25) == pytest.approx(0.5 * 0.75 ** 2, rel=1e-10)

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
                ref = hform_section(P, axis, level)
                assert geo.section(P, axis, level) == pytest.approx(
                    geo.volume(ref), rel=1e-12)

    def test_6d_sections_with_merged_facets(self):
        # A polar's 5-d sections have facets holding many coplanar points,
        # which Qhull merges; its triangulation of them once overlapped.
        K = mahler.random_polytope(6, 9, np.random.default_rng(0))
        P = pol.polar(K, 0.75 * K.vertices.mean(axis=0) + 0.25 * K.vertices[0]).polar
        for axis in range(6):
            for level in np.array([0.1, 0.3, 0.5]) * P.vertices[:, axis].max():
                ref = hform_section(P, axis, level)
                assert geo.section(P, axis, level) == pytest.approx(
                    ConvexHull(ref.vertices).volume, rel=1e-12)

    @pytest.mark.parametrize("P", stacked_section_bodies(),
                             ids=["cube", "octahedron", "hexagon", "4-simplex", "random-3-6",
                                  "5-cross", "random-6-16", "cube-polar", "octahedron-polar",
                                  "hexagon-polar", "4-simplex-polar", "random-3-6-polar",
                                  "5-cross-polar", "random-6-9-polar"])
    def test_stacked_levels_match_single_levels(self, P):
        # one `sections` call gives each level the bits of a call of its
        # own; vertex heights are levels too, and the 6D body's 47 levels
        # take three SECTION_PAIRS passes
        for axis in range(P.dim):
            lo, hi = geo._open_range(P, axis)
            heights = np.unique(P.vertices[:, axis])
            heights = heights[(heights > lo) & (heights < hi)]
            levels = np.concatenate([np.linspace(lo, hi, 41)[1:-1], heights[:8]])
            assert np.array_equal(geo.sections(P, axis, levels),
                                  [geo.section(P, axis, x) for x in levels])

    def test_polygon_section_is_an_interval(self, rng):
        P = random_body(rng, 2)
        level = P.vertices[:, 1].mean()
        lo, hi = hform_section(P, 1, level).vertices[:, 0]
        assert geo.section(P, 1, level) == pytest.approx(abs(hi - lo), rel=1e-12)

    def test_profile_brunn_minkowski_concavity(self, rng):
        # (1/(d-1))-th power of the slice volume is concave on the support
        for _ in range(50):
            d = 2 if rng.uniform() < 0.5 else 3
            P = random_body(rng, d)
            axis = int(rng.integers(0, d))
            lo = P.vertices[:, axis].min()
            hi = P.vertices[:, axis].max()
            levels = np.arange(lo + 0.01, hi - 0.005, 0.01 * (hi - lo))
            vals = np.array([geo.section(P, axis, lv) ** (1 / (d - 1))
                             for lv in levels])
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] >= mid - 1e-7 * vals.max())


class TestChord:
    def test_cube_center_chord(self):
        C, _ = geo.convex_hull([[x, y, z] for x in (-1, 1.0)
                                for y in (-1, 1.0) for z in (-1, 1.0)])
        lo, hi = chord(C, [0.0, 0.0])
        assert (lo, hi) == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_simplex_hand_computed(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        lo, hi = chord(S, [0.25, 0.25])
        assert (lo, hi) == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_boundary_base_point_errors(self):
        S, _ = geo.convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(OutsideProjection):
            chord(S, [0.5, 0.5])  # on the projection's boundary
        with pytest.raises(OutsideProjection):
            chord(S, [2.0, 2.0])

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
                a1, b1 = chord(P, X1)
                a2, b2 = chord(P, X2)
                am, bm = chord(P, 0.5 * (X1 + X2))
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
