import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import chord, random_body, set_equal
from santalo_lab import geometry as geo
from santalo_lab import polarity as pol
from santalo_lab import santalo as san
from santalo_lab import shadow as sh
from santalo_lab.errors import DegenerateMap, InsufficientGrid
from santalo_lab.geometry import Hyperplane

CLASSIC_BODIES = {
    "cube": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
    "prism": [[x, y, z] for x, y in ((0, 0), (2, 0), (0.5, 1.5)) for z in (-1, 1)],
}


class TestBodyAt:
    def test_zero_speeds_constant(self, rng):
        P = random_body(rng, 2)
        system = sh.ShadowSystem(P.vertices, np.zeros(P.n_vertices),
                                 [0.0, 1.0], (-1.0, 1.0))
        for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert set_equal(sh.body_at(system, t), P, tol=1e-12)

    def test_t_zero_is_base_hull(self, rng):
        P = random_body(rng, 3)
        system = sh.ShadowSystem(P.vertices, rng.normal(size=P.n_vertices),
                                 [0.0, 0.0, 1.0], (-0.5, 0.5))
        assert set_equal(sh.body_at(system, 0.0), P, tol=1e-12)

    def test_single_moving_vertex_volume_affine(self):
        # shoelace: area of a triangle is affine in one vertex's coordinate
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0]])
        system = sh.ShadowSystem(tri, [0.0, 0.0, 1.0], [0.0, 1.0], (-0.5, 2.0))
        ts = np.linspace(-0.5, 2.0, 7)
        vols = [geo.volume(sh.body_at(system, t)) for t in ts]
        expected = [0.5 * (1.0 + t) for t in ts]
        assert np.allclose(vols, expected, rtol=1e-12)

    def test_construction_bodies_are_kept(self, rng, monkeypatch):
        system = sh.random_shadow_system(3, rng)
        lo, hi = system.interval
        hulls = []
        convex_hull = geo.convex_hull
        monkeypatch.setattr(geo, "convex_hull",
                            lambda pts: hulls.append(pts) or convex_hull(pts))
        for t in (lo, 0.5 * (lo + hi), hi):
            K = sh.body_at(system, np.float64(t))
            assert K is sh.body_at(system, t)
            moved = system.base_points + np.outer(system.speeds * t, system.direction)
            fresh, _ = convex_hull(moved)
            assert np.array_equal(K.vertices, fresh.vertices)
            assert np.array_equal(K.facet_simplices, fresh.facet_simplices)
        assert hulls == []
        sh.body_at(system, 0.3 * lo + 0.7 * hi)
        assert len(hulls) == 1

    def test_outside_interval_rejected(self, rng):
        system = sh.random_shadow_system(2, rng)
        with pytest.raises(ValueError):
            sh.body_at(system, system.interval[1] + 1.0)

    def test_vertex_indices_match_a_row_search(self):
        # `_body` takes each vertex's base point from `convex_hull`: the
        # indices the search for the first bitwise-equal row of the moved
        # points finds, on every row of 30 seeded 33-point sweeps
        for seed in range(30):
            rng = np.random.default_rng(seed)
            system = _system_with(2 + seed % 3, 5 + seed % 3, rng)
            for t in np.linspace(*system.interval, 33):
                K, idx = sh._body(system, t)
                pts = system.points_at(t)
                assert np.array_equal(idx, np.argmax((K.vertices[:, None] == pts).all(axis=2),
                                                     axis=1))


def _loop_verdict(ts, values, valid, tol_rel):
    """Reference midpoint verdict: a Python loop over the grid triples."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(ts)
    if n < 3:
        raise InsufficientGrid("need at least 3 grid points")
    steps = np.diff(ts)
    if np.max(steps) - np.min(steps) > 1e-9 * (ts[-1] - ts[0]):
        raise InsufficientGrid("grid must be equally spaced")
    scale = float(np.max(np.abs(values[valid]))) if np.any(valid) else 1.0
    worst = -math.inf
    witness = None
    for i in range(n):
        if not valid[i]:
            continue
        for j in range(i + 2, n, 2):
            m = (i + j) // 2
            if not (valid[j] and valid[m]):
                continue
            viol = values[m] - 0.5 * (values[i] + values[j])
            if viol > worst:
                worst = viol
                witness = (ts[i], ts[m], ts[j])
    if witness is None:
        raise InsufficientGrid("no valid midpoint triple on the grid")
    return sh.ConvexityVerdict(bool(worst <= tol_rel * scale), float(worst),
                               tuple(float(x) for x in witness),
                               excluded=int(np.sum(~np.asarray(valid))))


def uncached_midpoint_verdict(ts, values, valid, tol_rel):
    """`shadow._midpoint_verdict` as it was before its triples were cached:
    `np.triu_indices` and the even-gap filter on every call."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(ts)
    if n < 3:
        raise InsufficientGrid("need at least 3 grid points")
    steps = np.diff(ts)
    if np.max(steps) - np.min(steps) > 1e-9 * (ts[-1] - ts[0]):
        raise InsufficientGrid("grid must be equally spaced")
    valid = np.asarray(valid, dtype=bool)
    scale = float(np.max(np.abs(values[valid]))) if np.any(valid) else 1.0
    i, j = np.triu_indices(n, 2)
    i, j = i[(j - i) % 2 == 0], j[(j - i) % 2 == 0]
    m = (i + j) // 2
    viol = values[m] - 0.5 * (values[i] + values[j])
    (k,) = np.nonzero(valid[i] & valid[m] & valid[j] & (viol > -math.inf))
    if not len(k):
        raise InsufficientGrid("no valid midpoint triple on the grid")
    k = k[np.argmax(viol[k])]
    return sh.ConvexityVerdict(bool(viol[k] <= tol_rel * scale), float(viol[k]),
                               (float(ts[i[k]]), float(ts[m[k]]), float(ts[j[k]])),
                               excluded=int(np.sum(~valid)))


class TestSweepAndVerdicts:
    def test_cached_triples_match_the_uncached_verdict(self):
        # every grid length 3..40, twice each (the second call reads the
        # cache), with invalid, NaN and infinite rows: the same verdict, bits
        # and witness included, or the same raise
        rng = np.random.default_rng(40)
        raised = 0
        for n in list(range(3, 41)) * 2:
            for _ in range(6):
                values = rng.normal(size=n)
                values[rng.random(n) < 0.1] = rng.choice([math.nan, math.inf, -math.inf])
                valid = rng.random(n) < rng.uniform(0.1, 1.0)
                args = (np.linspace(-0.5, 0.5, n), values, valid, rng.choice([0.0, 1e-7]))
                with np.errstate(all="ignore"):
                    try:
                        want = uncached_midpoint_verdict(*args)
                    except InsufficientGrid as exc:
                        with pytest.raises(InsufficientGrid, match=str(exc)):
                            sh._midpoint_verdict(*args)
                        raised += 1
                        continue
                    got = sh._midpoint_verdict(*args)
                assert got.worst_violation.hex() == want.worst_violation.hex()
                assert got == want
        assert 0 < raised < 200

    def test_cached_triples_are_read_only(self):
        for a in sh._triples(33):
            with pytest.raises(ValueError):
                a[0] = 1
        assert sh._triples(33)[1][0] == 1

    def test_unread_bodies_build_no_facet_rows(self, monkeypatch, rng):
        # a (4,7) system's construction bodies and the bodies that open its
        # sweep's cells are read only for their simplices: no facet rows
        deduped = []
        dedupe_rows = geo._dedupe_rows
        monkeypatch.setattr(geo, "_dedupe_rows", lambda rows, tol: deduped.append(rows)
                            or dedupe_rows(rows, tol))
        opened = []
        body = sh._body
        monkeypatch.setattr(sh, "_body", lambda system, t: opened.append(t) or body(system, t))
        system = _system_with(4, 7, rng)
        assert len(opened) >= 3 and deduped == []
        opened.clear()
        rows = sh.sweep(system, np.linspace(*system.interval, 33))
        assert all(r.converged for r in rows)
        assert len(opened) >= 2  # cells
        assert deduped == []

    def test_sweep_shape_and_flags(self, rng):
        system = sh.random_shadow_system(2, rng)
        grid = np.linspace(*system.interval, 9)
        rows = sh.sweep(system, grid)
        assert len(rows) == 9
        assert all(r.converged for r in rows)
        assert all(r.volume > 0 and r.polar_volume > 0 for r in rows)

    def test_warm_start_matches_cold(self, rng):
        # the sweep solves its rows together; each matches a cold solve
        for d, n_rows in ((2, 9), (3, 33), (4, 33)):
            system = sh.random_shadow_system(d, rng)
            grid = np.linspace(*system.interval, n_rows)
            _assert_rows_match_single_solves(system, grid, sh.sweep(system, grid))

    def test_constant_system_zero_violation(self, rng):
        P = random_body(rng, 2)
        system = sh.ShadowSystem(P.vertices, np.zeros(P.n_vertices),
                                 [0.0, 1.0], (-1.0, 1.0))
        rows = sh.sweep(system, np.linspace(-1, 1, 9))
        v = sh.check_volume_convexity(rows)
        assert v.is_midpoint_convex
        assert abs(v.worst_violation) < 1e-12 * max(r.volume for r in rows)

    def test_insufficient_grid(self, rng):
        system = sh.random_shadow_system(2, rng)
        rows = sh.sweep(system, np.linspace(*system.interval, 2))
        with pytest.raises(InsufficientGrid):
            sh.check_volume_convexity(rows)
        rows = sh.sweep(system, [system.interval[0], 0.0, system.interval[1] * 0.3])
        with pytest.raises(InsufficientGrid):
            sh.check_volume_convexity(rows)

    def test_verdict_matches_refined_grid(self, rng):
        system = sh.random_shadow_system(2, rng)
        coarse = sh.sweep(system, np.linspace(*system.interval, 33))
        fine = sh.sweep(system, np.linspace(*system.interval, 129))
        for checker in (sh.check_volume_convexity, sh.check_polar_convexity):
            assert checker(coarse).is_midpoint_convex
            assert checker(fine).is_midpoint_convex

    def test_verdict_matches_loop_reference(self, rng):
        # random grids with invalid rows, tied values, non-finite values and
        # uneven steps: the same verdict bit for bit, or the same raise
        raised = 0
        for _ in range(2000):
            n = int(rng.integers(1, 16))
            ts = np.linspace(-1.0, 1.0, n) if rng.random() < 0.9 else np.sort(rng.normal(size=n))
            values = (rng.integers(0, 3, size=n).astype(float) if rng.random() < 0.3
                      else rng.normal(size=n))
            values[rng.random(n) < 0.05] = rng.choice([math.nan, math.inf, -math.inf])
            valid = list(rng.random(n) < rng.uniform(0.3, 1.0))
            tol = rng.choice([0.0, 1e-7, 0.5])
            with np.errstate(all="ignore"):
                try:
                    want = _loop_verdict(ts, values, valid, tol)
                except InsufficientGrid as exc:
                    with pytest.raises(InsufficientGrid, match=str(exc)):
                        sh._midpoint_verdict(ts, values, valid, tol)
                    raised += 1
                    continue
                got = sh._midpoint_verdict(ts, values, valid, tol)
            assert got.is_midpoint_convex == want.is_midpoint_convex
            assert got.witness_triple == want.witness_triple
            assert got.excluded == want.excluded
            assert np.array_equal(got.worst_violation, want.worst_violation, equal_nan=True)
        assert 0 < raised < 1000

    def test_reflection_symmetric_polar_max_at_zero(self, rng):
        # K_{-t} an affine image of K_t: |K_t^*| peaks at the symmetral
        K = random_body(rng, 2)
        H = Hyperplane([0.3, 1.0], 0.1)
        system = sh.steiner_system(K, H)
        rows = sh.sweep(system, np.linspace(-1, 1, 9))
        pv = [r.polar_volume for r in rows]
        assert max(pv) == pytest.approx(pv[4], rel=1e-9)
        assert sh.check_polar_convexity(rows).is_midpoint_convex

    def test_degenerate_row_recorded_not_raised(self):
        # base square collapses to a segment at t = 1
        sq = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        speeds = np.array([1.0, 1.0, 0.0, 0.0])
        system = sh.ShadowSystem(sq, speeds, [0.0, 1.0], (-0.5, 0.5))
        wide = sh.ShadowSystem(sq, speeds, [0.0, 1.0], (-0.5, 0.5))
        object.__setattr__(wide, "interval", (-0.5, 1.0))
        rows = sh.sweep(wide, [-0.5, 0.25, 1.0])
        assert rows[0].converged and rows[1].converged
        assert not rows[2].converged
        assert math.isnan(rows[2].volume)
        assert rows[2].iterations == 0 and math.isnan(rows[2].residual)
        assert all(r.residual <= san.TOL_SANT for r in rows[:2])


def _system_with(d, k, rng):
    """Random system with exactly k base points, all of them vertices."""
    while True:
        system = sh.random_shadow_system(d, rng, n_points=k - 2)
        if len(system.base_points) == k:
            return system


def _assert_rows_match_single_solves(system, grid, rows):
    """Each sweep row agrees with a cold solve of its body alone."""
    for t, r in zip(grid, rows):
        alone = san.santalo_point(sh.body_at(system, t))
        assert r.converged and alone.converged and r.iterations == alone.iterations
        assert r.polar_volume == pytest.approx(alone.polar_volume, rel=1e-8)
        assert np.allclose(r.santalo, alone.point, atol=1e-6)


@pytest.fixture
def solved(monkeypatch):
    """The rows of every stacked Santalo solve, one list per call: each row's
    raw facets (N, b), whose rows merge its padding away, normals N and
    offsets b, polar fan with its D_T, start z and slacks s there."""
    calls = []
    solve = san.santalo_stack

    def recording(N, b, fan, D, tau, z, s, *args, **kwargs):
        calls.append([SimpleNamespace(facets=(N[r], b[r]), N=N[r], b=b[r],
                                      fan=fan[r], D=D[r], z=z[r], s=s[r])
                      for r in range(len(z))])
        return solve(N, b, fan, D, tau, z, s, *args, **kwargs)

    monkeypatch.setattr(san, "santalo_stack", recording)
    return calls


@pytest.fixture
def cells(monkeypatch):
    """(rows left, simplices, certificate mask of the rows it certified) of
    each cell's `_cell` call: a cell opens at row len(grid) - rows left."""
    calls = []
    cell = sh._cell

    def recording(P, tri):
        out = cell(P, tri)
        calls.append((len(P), tri, out[0]))
        return out

    monkeypatch.setattr(sh, "_cell", recording)
    return calls


def _row_by_row_qhulls(system, grid):
    """Qhull runs of a sweep that tries each row on the last row's
    simplices: a body's hull where they do not carry, unless it is cached.
    Every body here is simplicial, so no polar fan runs one."""
    runs, tri = 0, None
    for t in grid:
        pts = system.points_at(t)[None]
        if tri is None or not sh._certified(pts, tri)[0][0]:
            runs += t not in system._bodies
            K, idx = sh._body(system, t)
            tri = idx[K.facet_simplices]
    return runs


class TestCarriedCells:
    @pytest.mark.parametrize("d,k", [(2, 5), (3, 6), (4, 7)])
    def test_rows_match_fresh_hulls(self, d, k, rng, solved, qhull_calls):
        n_carried = 0
        for _ in range(10):
            system = _system_with(d, k, rng)
            grid = np.linspace(*system.interval, 33)
            qhull_calls.clear()
            solved.clear()
            rows = sh.sweep(system, grid)
            assert all(r.converged for r in rows)
            n_carried += len(grid) - len(qhull_calls)
            (stack,) = solved
            for t, r, row in zip(grid, rows, stack, strict=True):
                pts = system.points_at(t)
                fresh, _ = geo.convex_hull(pts)
                own = geo.VPolytope(pts, row.facets)
                assert set_equal(own, fresh, tol=1e-12)
                assert r.volume == pytest.approx(geo.volume(fresh), rel=1e-12)
                # the H-form keeps its row order: lexicographic, as from Qhull
                assert own.n_facets == fresh.n_facets
                assert np.abs(own.normals - fresh.normals).max() <= 1e-12
                z = fresh.vertices.mean(axis=0)
                cones = pol._cones(pol._slack(row.N, row.b, z)[None], row.fan[None],
                                   row.D[None])
                assert cones.sum() == pytest.approx(pol.polar(fresh, z).polar_volume,
                                                    rel=1e-12)
        assert n_carried > 5 * len(grid)  # most rows ran no Qhull at all

    def test_cells_end_where_the_row_certificate_fails(self, rng, cells, qhull_calls):
        # the chunked certificate is the single-row one on every row it
        # certified, and the sweep runs as many Qhulls as one that goes row
        # by row
        for d, k in ((2, 5), (3, 6), (4, 7)):
            for _ in range(10):
                system = _system_with(d, k, rng)
                grid = np.linspace(*system.interval, 33)
                expected = _row_by_row_qhulls(system, grid)
                cells.clear()
                qhull_calls.clear()
                sh.sweep(system, grid)
                assert len(qhull_calls) == expected
                opened = [len(grid) - n for n, _, _ in cells]
                for a, b, (_, tri, ok) in zip(opened, opened[1:] + [len(grid)], cells):
                    single = [sh._certified(system.points_at(t)[None], tri)[0][0]
                              for t in grid[a:a + len(ok)]]
                    assert single == list(ok)
                    # rows a+1 .. b-1 carry row a's simplices, and row b does not
                    assert ok[1:b - a].all() and (b == len(grid) or not ok[b - a])

    def test_certifies_at_most_a_chunk_past_each_cell(self, rng, monkeypatch):
        # a cell's certificate stops at the chunk of 8 rows that holds its
        # first failing row, so a 33-row sweep certifies at most 33 + 8 rows
        # per cell
        certified_rows, opened = [], []
        certified, body = sh._certified, sh._body
        monkeypatch.setattr(sh, "_certified", lambda P, tri: (
            certified_rows.append(len(P)) or certified(P, tri)))
        monkeypatch.setattr(sh, "_body", lambda system, t: (
            opened.append(t) or body(system, t)))
        for d, k in ((2, 5), (3, 6), (4, 7)):
            for _ in range(10):
                system = _system_with(d, k, rng)
                certified_rows.clear()
                opened.clear()
                sh.sweep(system, np.linspace(*system.interval, 33))
                assert sum(certified_rows) <= 33 + 8 * len(opened)

    def test_chunks_match_one_pass(self, rng):
        # every array of a chunked certificate is bitwise the one-pass one on
        # the rows it certified, for a cell opened at each row; an affine
        # family keeps its simplices on every row, so its last cells end in
        # a lone last row
        systems = [_system_with(d, k, rng) for d, k in ((3, 6), (4, 7))]
        systems += [sh.affine_family(random_body(rng, d, extra=6), v=0.3, V=[0.1] * (d - 1),
                                     u=0.05, interval=(-1.0, 1.0)) for d in (3, 4)]
        for system in systems:
            grid = np.linspace(*system.interval, 33)
            pts = system.points_at(grid)
            for a in range(len(grid)):
                K, idx = sh._body(system, grid[a])
                tri = idx[K.facet_simplices]
                chunked, one = sh._cell(pts[a:], tri), sh._certified(pts[a:], tri)
                for x, y in zip(chunked, one):
                    assert np.array_equal(x, y[:len(x)])

    def test_sweep_evaluates_each_center_once(self, rng, slack_centers):
        # a cell's starts and first slacks come from its certificate, and a
        # fresh body's fan reuses the slacks of its solve's start
        for d, k in ((2, 5), (3, 6), (4, 7)):
            for _ in range(3):
                system = _system_with(d, k, rng)
                slack_centers.clear()
                sh.sweep(system, np.linspace(*system.interval, 33))
                assert len(slack_centers) > 33
                assert len(np.unique(slack_centers, axis=0)) == len(slack_centers)

    def test_rows_take_d_t_off_their_own_normals(self, rng, solved):
        # every row's D_T is |det N_T| / d! of the normals it is solved with,
        # the formula of `VPolytope._polar_fan`, bit for bit
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        flip = sh.ShadowSystem(np.vstack([square, [0.5, 0.9]]), [0, 0, 0, 0, 1.0],
                               [0.0, 1.0], (-0.5, 0.5))
        steiner = sh.steiner_system(random_body(rng, 3), Hyperplane([0.2, -0.3, 1.0], 0.1))
        systems = [_system_with(d, k, rng) for d, k in ((2, 5), (3, 6), (4, 7))]
        for system in systems + [flip, steiner]:
            solved.clear()
            sh.sweep(system, np.linspace(*system.interval, 17))
            (stack,) = solved
            for row in stack:
                own = row.fan.any(axis=1)  # padding simplices repeat facet 0
                dets = np.abs(np.linalg.det(row.N[row.fan[own]])) / math.factorial(system.dim)
                assert np.array_equal(row.D[own], dets) and not row.D[~own].any()

    def test_duplicate_facet_fails_the_certificate(self, rng):
        # a simplex listed twice passes every slack test, but
        # `geometry._facet_rows` would merge its two facets into one
        system = _system_with(3, 6, rng)
        K, idx = sh._body(system, 0.0)
        pts = system.points_at(0.0)[None]
        tri = idx[K.facet_simplices]
        assert sh._certified(pts, tri)[0][0]
        assert not sh._certified(pts, np.vstack([tri, tri[:1]]))[0][0]

    def test_one_fan_serves_every_certified_row(self, rng):
        # a 4D cell's fan, pulled once from its simplices, measures the polar
        # on each row it certified as a fresh body's polar does
        n_rows = 0
        for _ in range(5):
            system = _system_with(4, 7, rng)
            grid = np.linspace(*system.interval, 33)
            i = 0
            while i < len(grid):
                K, idx = sh._body(system, grid[i])
                tri = idx[K.facet_simplices]
                ok, c, N, b, s, tau, volume = sh._cell(system.points_at(grid[i:]), tri)
                n = max(1, int(np.argmin(np.append(ok, False))))
                fans, D = pol._fans(N[:n], tri)
                for r in np.flatnonzero(ok[:n]):
                    y = N[r] / s[r][:, None]
                    vol, cen, second = geo._fan_moments(
                        y[None], pol._cones(s[r][None], fans[r][None], D[r][None]),
                        geo._incidence(fans[r][None], len(y)))
                    pb = pol.polar(geo.convex_hull(system.points_at(grid[i + r]))[0], c[r])
                    scale = pb.polar.scale()
                    assert vol[0] == pytest.approx(pb.polar_volume, rel=1e-12)
                    assert np.abs(cen[0] - pb.polar_centroid).max() <= 1e-12 * scale
                    assert np.abs(second[0] - pb.polar_second_moment).max() <= 1e-12 * scale ** 2
                    n_rows += 1
                i += n
        assert n_rows > 3 * 33

    def test_affine_family_runs_no_qhull(self, rng, qhull_calls):
        K = random_body(rng, 3)
        fam = sh.affine_family(K, v=0.3, V=[0.1, -0.2], u=0.05, interval=(-1.0, 1.0))
        qhull_calls.clear()
        rows = sh.sweep(fam, np.linspace(-1.0, 1.0, 17))
        assert len(qhull_calls) == 0  # the first row's body is cached, its fan pulled
        assert all(r.converged for r in rows)

    def test_facet_flip_falls_back(self, cells, solved):
        # the fifth point crosses the square's top edge at t = 0.1
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        system = sh.ShadowSystem(np.vstack([square, [0.5, 0.9]]), [0, 0, 0, 0, 1.0],
                                 [0.0, 1.0], (-0.5, 0.5))
        grid = np.linspace(-0.5, 0.5, 17)
        rows = sh.sweep(system, grid)
        # a cell opens at the first row and at the first row past the crossing
        assert [grid[len(grid) - n] for n, _, _ in cells] == [-0.5, 0.125]
        (stack,) = solved
        for t, r, row in zip(grid, rows, stack, strict=True):
            pts = system.points_at(t)
            fresh, _ = geo.convex_hull(pts)
            own = geo.VPolytope(pts, row.facets)
            assert own.n_facets == (5 if t > 0.1 else 4)
            assert set_equal(own, fresh, tol=1e-12)
            cold = san.santalo_point(fresh)
            assert r.volume == pytest.approx(geo.volume(fresh), rel=1e-14)
            assert r.polar_volume == pytest.approx(cold.polar_volume, rel=1e-8)
            assert np.allclose(r.santalo, cold.point, atol=1e-6)

    def test_steiner_sweep_always_falls_back(self, rng, cells):
        K = random_body(rng, 3)
        system = sh.steiner_system(K, Hyperplane([0.2, -0.3, 1.0], 0.1))
        grid = np.linspace(-1.0, 1.0, 9)
        rows = sh.sweep(system, grid)
        # every row opens a cell, and no body certifies its own simplices
        assert len(cells) == len(grid) and not any(ok[0] for _, _, ok in cells)
        for t, r in zip(grid, rows):
            assert r.volume == geo.volume(sh.body_at(system, t))  # bitwise

    def test_secant_start_on_uneven_grid(self, rng, solved):
        # rows start at their vertex means, not at a secant prediction from
        # their neighbours, so an uneven grid needs no step ratios
        system = sh.random_shadow_system(3, rng)
        lo, hi = system.interval
        grid = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 15)]))
        rows = sh.sweep(system, grid)
        (stack,) = solved  # one stack
        means = [sh.body_at(system, t).vertices.mean(axis=0) for t in grid]
        assert np.allclose([row.z for row in stack], means, rtol=0, atol=1e-14)
        _assert_rows_match_single_solves(system, grid, rows)

    def test_stacked_rows_match_single_solves(self, rng, solved):
        # one stacked solve, its rows padded to the most facets and the
        # largest fan, gives each row what a solve of that body alone gives
        cases, mixed = [], 0
        for d in (2, 3, 4):
            system = sh.random_shadow_system(d, rng)
            lo, hi = system.interval
            uneven = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 15)]))
            cases += [(system, np.linspace(lo, hi, 33)), (system, uneven)]
        cases.append((sh.random_shadow_system(5, rng), np.linspace(-0.5, 0.5, 9)))
        for system, grid in cases:
            solved.clear()
            rows = sh.sweep(system, grid)
            (stack,) = solved
            assert len(stack) == len(grid)  # a single stack of every row
            mixed += len({len(geo._facet_rows(*row.facets)) for row in stack}) > 1
            _assert_rows_match_single_solves(system, grid, rows)
        assert mixed >= 3

    def test_row_whose_solve_raises_is_recorded(self, rng, monkeypatch):
        # row 4 starts on its body's boundary: the stacked solve records it
        # as failed, raises nothing, and solves the other rows as before
        system = sh.random_shadow_system(2, rng)
        grid = np.linspace(*system.interval, 9)
        plain = sh.sweep(system, grid)
        solve = san.santalo_stack

        def on_boundary(N, b, fan, D, tau, z, s, *args, **kwargs):
            z, s = z.copy(), s.copy()
            z[4] = sh.body_at(system, grid[4]).vertices[0]
            s[4] = pol._slack(N[4], b[4], z[4])
            assert s[4].min() <= tau[4]
            return solve(N, b, fan, D, tau, z, s, *args, **kwargs)

        monkeypatch.setattr(san, "santalo_stack", on_boundary)
        rows = sh.sweep(system, grid)
        assert rows[4].note == pol.NOT_INTERIOR and not rows[4].converged
        assert math.isnan(rows[4].polar_volume) and math.isnan(rows[4].volume)
        assert np.isnan(rows[4].santalo).all() and rows[4].iterations == 0
        for a, b in zip(rows[:4] + rows[5:], plain[:4] + plain[5:]):
            assert a.converged and a.volume == b.volume
            assert a.polar_volume == pytest.approx(b.polar_volume, rel=1e-12)


class TestAffineFamily:
    def test_pure_translation(self, rng):
        K = random_body(rng, 2)
        fam = sh.affine_family(K, v=0.0, V=[0.0], u=0.5, interval=(-1.0, 1.0))
        vols = [geo.volume(sh.body_at(fam, t)) for t in np.linspace(-1, 1, 5)]
        assert np.allclose(vols, geo.volume(K), rtol=1e-12)
        pis = [pol.volume_product(sh.body_at(fam, t))
               for t in np.linspace(-1, 1, 5)]
        assert np.allclose(pis, pis[0], rtol=1e-9)

    def test_volume_scaling_laws(self, rng):
        K = random_body(rng, 2)
        v, mid = 0.45, 0.0
        fam = sh.affine_family(K, v=v, V=[0.2], u=0.1, interval=(-1.0, 1.0))
        vol0 = geo.volume(K)
        pv0 = pol.volume_product(K) / vol0
        for t in np.linspace(-1, 1, 5):
            body = sh.body_at(fam, t)
            factor = v * (t - mid) + 1.0
            assert geo.volume(body) == pytest.approx(vol0 * factor, rel=1e-10)
            pv = pol.volume_product(body) / geo.volume(body)
            assert pv == pytest.approx(pv0 / factor, rel=1e-8)

    def test_volume_product_constant(self, rng):
        K = random_body(rng, 3)
        fam = sh.affine_family(K, v=0.3, V=[0.1, -0.2], u=0.0,
                               interval=(-1.0, 1.0))
        pis = [pol.volume_product(sh.body_at(fam, t))
               for t in np.linspace(-1, 1, 7)]
        assert (max(pis) - min(pis)) / max(pis) < 1e-9

    def test_degenerate_map_rejected(self, rng):
        K = random_body(rng, 2)
        with pytest.raises(DegenerateMap):
            sh.affine_family(K, v=1.2, V=[0.0], u=0.0, interval=(-1.0, 1.0))


def reflect(K, H: Hyperplane):
    """Mirror image of K about the hyperplane H."""
    n, off = H.normal, H.offset
    verts = K.vertices - 2.0 * np.outer(K.vertices @ n - off, n)
    return geo.VPolytope(verts)


class TestSteiner:
    def test_symmetric_body_zero_speeds(self):
        Sq, _ = geo.convex_hull([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        system = sh.steiner_system(Sq, Hyperplane([0.0, 1.0], 0.0))
        assert np.max(np.abs(system.speeds)) < 1e-12

    def test_volume_preserved_along_sweep(self, rng):
        for _ in range(10):
            d = 2 if rng.uniform() < 0.5 else 3
            K = random_body(rng, d)
            H = Hyperplane(rng.normal(size=d), 0.1 * rng.normal())
            system = sh.steiner_system(K, H)
            v0 = geo.volume(K)
            for t in (-1.0, -0.4, 0.0, 0.6, 1.0):
                assert geo.volume(sh.body_at(system, t)) == pytest.approx(
                    v0, rel=1e-9)

    def test_endpoints_are_body_and_mirror(self, rng):
        K = random_body(rng, 3)
        H = Hyperplane(rng.normal(size=3), 0.2)
        system = sh.steiner_system(K, H)
        assert set_equal(sh.body_at(system, -1.0), K, tol=1e-8)
        assert set_equal(sh.body_at(system, 1.0), reflect(K, H), tol=1e-8)

    def test_symmetral_polar_volume_increases(self, rng):
        for _ in range(10):
            d = 2 if rng.uniform() < 0.5 else 3
            K = random_body(rng, d)
            H = Hyperplane(rng.normal(size=d), 0.0)
            KH = sh.steiner_symmetral(K, H)
            assert pol.volume_product(KH) >= pol.volume_product(K) - 1e-7

    def test_symmetral_is_symmetric(self, rng):
        K = random_body(rng, 2)
        H = Hyperplane([0.0, 1.0], 0.25)
        KH = sh.steiner_symmetral(K, H)
        assert set_equal(reflect(KH, H), KH, tol=1e-9)

    @staticmethod
    def _check_chords(K, H, rng, ts=(-1.0, -0.5, 0.0, 0.5, 1.0)):
        """Chords orthogonal to H at 20 interior base points keep their length."""
        system = sh.steiner_system(K, H)
        proj = geo.to_frame(K.vertices, H)[:, :-1]
        bases = rng.dirichlet(np.full(K.n_vertices, 0.3), size=20) @ proj

        def chords(P):
            Pf = geo.VPolytope(geo.to_frame(P.vertices, H))
            return np.array([np.diff(chord(Pf, X))[0] for X in bases])

        lengths = chords(K)
        for t in ts:
            assert np.allclose(chords(sh.body_at(system, t)), lengths,
                               rtol=0, atol=1e-9)
        return system

    @pytest.mark.parametrize("name", sorted(CLASSIC_BODIES))
    def test_classic_bodies_chords_preserved(self, name, rng):
        # the triangulation adds diagonals on the cube's and the prism's
        # square facets; the octahedron has four facets at every vertex
        K, _ = geo.convex_hull(CLASSIC_BODIES[name])
        H = Hyperplane(rng.normal(size=3), 0.1)
        KH = sh.body_at(self._check_chords(K, H, rng), 0.0)
        assert set_equal(reflect(KH, H), KH, tol=1e-9)

    def test_random_bodies_chords_preserved(self, rng):
        for _ in range(10):
            K = random_body(rng, 3, extra=6)
            self._check_chords(K, Hyperplane(rng.normal(size=3), 0.1), rng,
                               ts=(-0.5, 0.0, 0.5))

    def test_segment_crossings_match_pairwise_loop(self, rng):
        def reference(segs_a, segs_b, tol):
            out = []
            for (p1, p2), (q1, q2) in itertools.product(segs_a, segs_b):
                r = p2 - p1
                s = q2 - q1
                denom = r[0] * s[1] - r[1] * s[0]
                if abs(denom) <= tol:
                    continue
                w = q1 - p1
                tt = (w[0] * s[1] - w[1] * s[0]) / denom
                uu = (w[0] * r[1] - w[1] * r[0]) / denom
                if -1e-12 <= tt <= 1 + 1e-12 and -1e-12 <= uu <= 1 + 1e-12:
                    out.append(p1 + tt * r)
            return np.reshape(out, (-1, 2))

        for _ in range(30):
            # endpoints drawn from a small pool: shared endpoints, repeated
            # and parallel segments all occur
            pool = rng.integers(-3, 4, size=(8, 2)).astype(float)
            pool[4:] = rng.normal(size=(4, 2))
            a = pool[rng.integers(0, 8, size=(rng.integers(0, 12), 2))]
            b = pool[rng.integers(0, 8, size=(rng.integers(1, 12), 2))]
            got = sh._segment_crossings_2d(a, b, 1e-14)
            assert np.array_equal(got, reference(a, b, 1e-14))


class TestBrunnMidpointCheck:
    """Chord midpoints along one direction lie on a hyperplane (Brunn)."""

    def test_parallelogram_side_directions_pass_but_not_all(self):
        P, _ = geo.convex_hull([[0, 0], [2, 0.5], [0.7, 1.5], [2.7, 2.0]])
        # chords parallel to a side pair: midpoints exactly coplanar
        side = P.vertices[1] - P.vertices[0]
        H = Hyperplane(side, 0.0)
        coords = geo.to_frame(P.vertices, H)
        Kf = geo.VPolytope(coords)
        proj, _ = geo.convex_hull(coords[:, :-1])
        c = proj.vertices.mean(axis=0)
        mids = []
        for lam in (0.0, 0.4, 0.8):
            for w in proj.vertices:
                X = (1 - lam) * c + lam * w
                lo, hi = geo._vertical_extent(Kf, X, 1)
                mids.append([X[0], 0.5 * (lo + hi)])
        mids = np.array(mids)
        fit = np.polyfit(mids[:, 0], mids[:, 1], 1)
        resid = np.max(np.abs(np.polyval(fit, mids[:, 0]) - mids[:, 1]))
        diameter = np.max(np.linalg.norm(P.vertices[:, None] - P.vertices[None], axis=2))
        assert resid < 1e-9 * diameter


@dataclass
class AffineFamilyFit:
    """Result of testing whether a system is (close to) an affine family.

    The converse direction (affine sweeps imply an affine family) is not
    decidable from samples; this is a falsification harness.  When both
    sweeps are affine within tolerance, the family parameters (v, V, u) are
    fitted by least squares on the vertex trajectories and the fitted map
    is checked against the actual bodies.  A failed reproduction is flagged
    as a converse witness candidate for manual inspection, never reported
    as a refutation.
    """

    sweeps_affine: bool
    v: float = 0.0
    V: np.ndarray | None = None
    u: float = 0.0
    fit_residual: float = math.nan
    reproduces: bool = False
    body_mismatch: float = math.nan
    verdict: str = ""


def fit_affine_family(system: sh.ShadowSystem) -> AffineFamilyFit:
    """Fit (v, V, u) to a system whose sweeps look affine; verify the map."""
    if system.axis != system.dim - 1:
        raise ValueError("fit expects the direction on the last axis")
    lo, hi = system.interval
    mid = 0.5 * (lo + hi)
    ts = np.linspace(lo, hi, 9)
    rows = sh.sweep(system, ts)
    vols = np.array([r.volume for r in rows])
    inv = np.array([1.0 / r.polar_volume for r in rows])
    lin = (ts - lo) / (hi - lo)
    dev_v = np.max(np.abs(vols - (vols[0] + (vols[-1] - vols[0]) * lin)))
    dev_i = np.max(np.abs(inv - (inv[0] + (inv[-1] - inv[0]) * lin)))
    affine = bool(dev_v <= sh.TAU_CONV * vols.max() and dev_i <= sh.TAU_CONV * inv.max())
    if not affine:
        return AffineFamilyFit(False, verdict="sweeps not affine; family "
                                              "characterization not applicable")
    # vertex positions at the middle parameter carry the speed field
    pts_mid = system.points_at(mid)
    X = pts_mid[:, :-1]
    x = pts_mid[:, -1]
    design = np.column_stack([x, X, np.ones(len(x))])
    coef, *_ = np.linalg.lstsq(design, system.speeds, rcond=None)
    v, V, u = float(coef[0]), coef[1:-1], float(coef[-1])
    resid = float(np.max(np.abs(design @ coef - system.speeds)))
    K_mid = sh.body_at(system, mid)
    mismatch = 0.0
    d = system.dim
    for t in (lo, 0.5 * (lo + mid), 0.75 * mid + 0.25 * hi, hi):
        s = t - mid
        A = np.eye(d)
        A[-1, -1] = v * s + 1.0
        A[-1, :-1] = s * V
        shift = np.zeros(d)
        shift[-1] = s * u
        try:
            image = geo.apply_affine(K_mid, A, shift)
        except geo.SingularMap:
            mismatch = math.inf
            break
        actual = sh.body_at(system, t)
        m1 = max(max(-actual.slack(p).min(), 0.0)
                 for p in image.vertices)
        m2 = max(max(-image.slack(p).min(), 0.0)
                 for p in actual.vertices)
        mismatch = max(mismatch, m1, m2)
    scale = float(np.max(np.abs(K_mid.vertices)))
    reproduces = bool(mismatch <= 1e-7 * max(1.0, scale))
    verdict = ("affine family confirmed" if reproduces
               else "converse witness candidate: affine sweeps but the fitted "
                    "map does not reproduce the bodies (manual inspection)")
    return AffineFamilyFit(True, v, V, u, resid, reproduces, mismatch, verdict)


class TestAffineFamilyFit:
    def test_recovers_parameters(self, rng):
        K = random_body(rng, 2)
        fam = sh.affine_family(K, v=0.35, V=[0.2], u=-0.1, interval=(-1.0, 1.0))
        fit = fit_affine_family(fam)
        assert fit.sweeps_affine and fit.reproduces
        assert fit.v == pytest.approx(0.35, abs=1e-9)
        assert fit.V[0] == pytest.approx(0.2, abs=1e-9)
        assert fit.u == pytest.approx(-0.1, abs=1e-9)
        assert "confirmed" in fit.verdict

    def test_generic_system_not_affine(self, rng):
        system = sh.random_shadow_system(2, rng)
        fit = fit_affine_family(system)
        assert not fit.sweeps_affine

    def test_3d_family(self, rng):
        K = random_body(rng, 3)
        fam = sh.affine_family(K, v=-0.2, V=[0.1, 0.3], u=0.05,
                               interval=(-0.5, 0.5))
        fit = fit_affine_family(fam)
        assert fit.reproduces
        assert np.allclose(fit.V, [0.1, 0.3], atol=1e-9)


class TestSystemProperties:
    def test_translation_equivariance(self, rng):
        system = sh.random_shadow_system(2, rng)
        w = np.array([3.0, -1.5])
        moved = sh.ShadowSystem(system.base_points + w, system.speeds,
                                system.direction, system.interval)
        for t in np.linspace(*system.interval, 5):
            A = sh.body_at(system, t)
            B = sh.body_at(moved, t)
            assert set_equal(geo.apply_affine(A, np.eye(2), w), B, tol=1e-9)

    def test_speed_interval_reparametrization(self, rng):
        system = sh.random_shadow_system(2, rng)
        c = 2.5
        lo, hi = system.interval
        scaled = sh.ShadowSystem(system.base_points, c * system.speeds,
                                 system.direction, (lo / c, hi / c))
        for t in np.linspace(lo, hi, 5):
            A = sh.body_at(system, t)
            B = sh.body_at(scaled, t / c)
            assert set_equal(A, B, tol=1e-9)
