import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import santalo_lab.cli as cli
from conftest import MERGED_5D
from santalo_lab import mahler as mah
from santalo_lab import serialize as ser
from santalo_lab import shadow as sh


def run_cli(argv):
    buf = io.StringIO()
    rc = cli.main(argv, out=buf)
    return rc, buf.getvalue()


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dim": 2, "vertices":
                                [[1, 1], [1, -1], [-1, 1], [-1, -1]]}) + "\n")
    return str(path)


@pytest.fixture
def simplex_file(tmp_path):
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"dim": 2, "vertices":
                                [[0, 0], [1, 0], [0, 1]]}) + "\n")
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps({"dim": 2, "vertices":
                                [[0, 0], [3, 0], [4, 2], [1, 3], [-1, 1]]}) + "\n")
    return str(path)


@pytest.fixture
def system_file(tmp_path):
    rng = np.random.default_rng(4)
    system = sh.random_shadow_system(2, rng)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(ser.system_to_dict(system)) + "\n")
    return str(path)


class TestPolarCommand:
    def test_square_about_origin_gives_diamond(self, square_file):
        rc, out = run_cli(["polar", square_file, "--center", "[0, 0]"])
        assert rc == 0
        rep = json.loads(out)
        verts = sorted(map(tuple, np.round(rep["polar"]["vertices"], 9).tolist()))
        assert verts == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)] or \
            sorted(tuple(abs(x) for x in v) for v in verts) == [(0.0, 1.0)] * 2 + [(1.0, 0.0)] * 2
        assert rep["volume_product"] == pytest.approx(8.0, rel=1e-9)

    def test_simplex_default_center_hits_bound(self, simplex_file):
        rc, out = run_cli(["polar", simplex_file])
        assert rc == 0
        rep = json.loads(out)
        assert rep["volume_product"] == pytest.approx(6.75, rel=1e-6)

    def test_boundary_center_exits_3(self, square_file):
        rc, _ = run_cli(["polar", square_file, "--center", "[1.0, 0.0]"])
        assert rc == 3

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _ = run_cli(["polar", str(bad)])
        assert rc == 2
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1]]}))
        rc, _ = run_cli(["vp", str(flat)])
        assert rc == 3

    def test_rerun_byte_identical(self, pentagon_file):
        rc1, out1 = run_cli(["polar", pentagon_file])
        rc2, out2 = run_cli(["polar", pentagon_file])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_default_center_matches_the_printed_center(self, pentagon_file, tmp_path):
        # the Santalo solve's own polar, printed, equals a fresh polar about S(K)
        rng = np.random.default_rng(6)
        body = tmp_path / "body.json"
        body.write_text(json.dumps(ser.polytope_to_dict(mah.random_polytope(3, 6, rng))))
        for path in (pentagon_file, str(body)):
            rc1, out1 = run_cli(["polar", path])
            center = json.dumps(json.loads(out1)["center"])
            rc2, out2 = run_cli(["polar", path, "--center", center])
            assert rc1 == rc2 == 0
            assert out1 == out2


class TestSantaloCommand:
    def test_reports_residual_and_iterations(self, simplex_file):
        rc, out = run_cli(["santalo", simplex_file])
        assert rc == 0
        rep = json.loads(out)
        assert rep["converged"]
        assert rep["residual"] <= 1e-8
        assert np.allclose(rep["point"], [1 / 3, 1 / 3], atol=1e-6)

    def test_rerun_byte_identical(self, pentagon_file):
        rc1, out1 = run_cli(["santalo", pentagon_file])
        rc2, out2 = run_cli(["santalo", pentagon_file])
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestVpCommand:
    def test_body_with_merged_hull_facets_in_5d(self, tmp_path):
        # Qhull's fan of this body's polar misses the polar's volume; the pulled one does not
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"dim": 5, "vertices": MERGED_5D}) + "\n")
        rc1, out1 = run_cli(["vp", str(path)])
        rc2, out2 = run_cli(["vp", str(path)])
        assert rc1 == rc2 == 0
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["n_vertices"] == 8
        assert rep["volume_product"] == pytest.approx(3.778038388457461, rel=1e-12)


class TestShadowCommand:
    def test_csv_and_verdicts(self, system_file, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        rc, out = run_cli(["shadow", system_file, "--grid", "9",
                           "--out", str(out_csv)])
        assert rc == 0
        rep = json.loads(out)
        assert rep["volume_convexity"]["is_midpoint_convex"]
        assert rep["polar_convexity"]["is_midpoint_convex"]
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ("t,volume,polar_volume,santalo_1,santalo_2,converged,"
                            "iterations,residual")
        assert len(lines) == 10
        iterations, residual = lines[1].split(",")[-2:]
        assert int(iterations) >= 0 and float(residual) <= 1e-8

    def test_rerun_byte_identical(self, system_file, tmp_path):
        path = tmp_path / "sweep.csv"
        rc1, out1 = run_cli(["shadow", system_file, "--grid", "9", "--out", str(path)])
        first_csv = path.read_text()
        rc2, out2 = run_cli(["shadow", system_file, "--grid", "9", "--out", str(path)])
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert path.read_text() == first_csv

    def test_tolerance_override_echoed(self, system_file):
        # without --out the CSV streams to stdout, verdict JSON on the last line
        rc, out = run_cli(["shadow", system_file, "--grid", "9",
                           "--tol", "tau_conv=1e-5"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,volume,polar_volume")
        rep = json.loads(lines[-1])
        assert rep["config"]["tolerances"] == {"tau_conv": 1e-5}


class TestSearchCommand:
    def test_streams_and_reports_bound(self):
        rc, out = run_cli(["search", "--d", "2", "--k", "4",
                           "--trials", "120", "--seed", "3"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # one progress line per 100 trials + final
        final = json.loads(lines[-1])
        assert final["min_vp"] > final["bound"] - 1e-6
        assert final["violations"] == []

    def test_seed_reruns_identical(self):
        rc1, out1 = run_cli(["search", "--d", "2", "--k", "5",
                             "--trials", "60", "--seed", "9"])
        rc2, out2 = run_cli(["search", "--d", "2", "--k", "5",
                             "--trials", "60", "--seed", "9"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_santalo_breach_exits_4(self, monkeypatch):
        # a volume product above omega_2**2 = pi**2 breaks Blaschke-Santalo
        monkeypatch.setattr(mah, "_vp_with_condition",
                            lambda K: (np.pi ** 2 * 1.01, 1.0))
        rc, out = run_cli(["search", "--d", "2", "--k", "4",
                           "--trials", "3", "--seed", "3"])
        assert rc == 4
        final = json.loads(out.strip().splitlines()[-1])
        assert [v["kind"] for v in final["violations"]] == ["above-santalo-bound"] * 3

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["search", "--d", "2", "--k", "4", "--trials", "10"])

    def test_runs_in_5d(self, capsys):
        rc, out = run_cli(["search", "--d", "5", "--k", "8", "--trials", "5", "--seed", "1"])
        assert rc == 0
        final = json.loads(out.strip().splitlines()[-1])
        assert (final["d"], final["k"], final["violations"]) == (5, 8, [])
        with pytest.raises(SystemExit):
            cli.main(["search", "--help"])
        assert "{2,3,4,5}" in capsys.readouterr().out


class TestSymmetrizeCommand:
    def test_volume_preserved(self, square_file):
        rc, out = run_cli(["symmetrize", square_file,
                           "--normal", "[1, 1]", "--offset", "0.3"])
        assert rc == 0
        rep = json.loads(out)
        assert rep["symmetral_volume"] == pytest.approx(rep["volume"], rel=1e-9)
        assert rep["symmetral_volume_product"] >= rep["volume_product"] - 1e-7

    def test_tiny_body_keeps_volume_and_product(self, tmp_path):
        # tolerances are relative: a body scaled by 1e-8 gets the same symmetral
        K = mah.random_polytope(3, 6, np.random.default_rng(5))
        reports = []
        for factor in (1.0, 1e-8):
            path = tmp_path / f"body-{factor}.json"
            path.write_text(json.dumps({"dim": 3, "vertices": (factor * K.vertices).tolist()}))
            rc, out = run_cli(["symmetrize", str(path), "--normal", "[1, 2, 3]",
                               "--offset", repr(0.1 * factor)])
            assert rc == 0
            reports.append(json.loads(out))
        unit, tiny = reports
        assert tiny["symmetral_volume"] == pytest.approx(tiny["volume"], rel=1e-9)
        assert tiny["symmetral_volume_product"] == pytest.approx(
            unit["symmetral_volume_product"], rel=1e-9)


class TestRejectedFlags:
    @pytest.mark.parametrize("command", ["polar", "santalo", "vp", "shadow",
                                         "symmetrize", "verify"])
    def test_seed_outside_search_exits_2(self, command, square_file, system_file):
        path = system_file if command in ("shadow", "verify") else square_file
        extra = ["--normal", "[1, 0]"] if command == "symmetrize" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, path, *extra, "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["symmetrize", "verify"])
    def test_tol_where_none_is_read_exits_2(self, command, square_file, system_file):
        path = system_file if command == "verify" else square_file
        extra = ["--normal", "[1, 0]"] if command == "symmetrize" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, path, *extra, "--tol", "tol_sant=1e-4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, known", [
        (["santalo", "{square}", "--tol", "tol_snat=1e-4"], "tol_sant"),
        (["shadow", "{system}", "--grid", "5", "--tol", "tol_sant=1e-4"], "tau_conv"),
        (["search", "--d", "2", "--k", "4", "--trials", "5", "--seed", "1",
          "--tol", "tau_conv=1e-4"], "campaign"),
    ])
    def test_unknown_tolerance_name_exits_2(self, argv, known, square_file,
                                            system_file, capsys):
        argv = [a.format(square=square_file, system=system_file) for a in argv]
        rc, out = run_cli(argv)
        assert rc == 2
        assert out == ""
        assert repr(known) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["shadow", "{system}", "--grid", "5", "--tol", "tau_conv=0"],
        ["search", "--d", "2", "--k", "4", "--trials", "5", "--seed", "1",
         "--tol", "campaign=0"],
    ], ids=["tau-conv-zero", "campaign-zero"])
    def test_zero_is_valid_for_the_other_tolerances(self, argv, system_file):
        # only tol_sant must be strictly positive
        rc, out = run_cli([a.format(system=system_file) for a in argv])
        assert rc == 0
        assert list(json.loads(out.splitlines()[-1])["config"]["tolerances"].values()) == [0.0]

    def test_tolerance_checked_before_the_input_is_read(self, tmp_path, capsys):
        # a flat body would exit 3, but the unknown --tol name is found first
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1]]}))
        assert run_cli(["vp", str(flat), "--tol", "bad=1"]) == (2, "")
        assert "unknown tolerance 'bad'" in capsys.readouterr().err


class TestVerifyCommand:
    def test_chain_passes(self, system_file):
        rc, out = run_cli(["verify", system_file])
        assert rc == 0
        rep = json.loads(out)
        assert rep["passed"]
        assert rep["hypothesis"]["status"] == "pass"
        assert rep["midpoint_slack"] >= -1e-9

    def test_rerun_byte_identical(self, system_file):
        rc1, out1 = run_cli(["verify", system_file])
        rc2, out2 = run_cli(["verify", system_file])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_large_system_passes(self, tmp_path):
        # the chain's tolerances are relative, so a system scaled by 1e6 passes
        system = sh.random_shadow_system(3, np.random.default_rng(5))
        doc = ser.system_to_dict(sh.ShadowSystem(1e6 * system.base_points, 1e6 * system.speeds,
                                                 system.direction, system.interval))
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc) + "\n")
        rc, out = run_cli(["verify", str(path)])
        assert rc == 0
        assert json.loads(out)["passed"]


class TestMalformedInput:
    """Malformed documents and flags exit 2 with an error line, never a traceback."""

    @staticmethod
    def _run(argv, capsys):
        try:
            rc, out = run_cli(argv)
        except SystemExit as exc:  # argparse rejects the flag value
            rc, out = exc.code, ""
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        return rc, out

    @pytest.mark.parametrize("command", ["shadow", "verify"])
    @pytest.mark.parametrize("edit", [
        lambda doc: 5,
        lambda doc: None,
        lambda doc: {**doc, "interval": [0]},
        lambda doc: {**doc, "interval": 3},
        lambda doc: {**doc, "base_points": {"a": 1}},
        lambda doc: {k: v for k, v in doc.items() if k != "speeds"},
    ], ids=["number", "null", "short-interval", "scalar-interval",
            "dict-base-points", "no-speeds"])
    def test_bad_system_documents(self, command, edit, system_file, tmp_path, capsys):
        with open(system_file, encoding="utf-8") as fh:
            doc = edit(json.load(fh))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc) + "\n")
        assert self._run([command, str(path)], capsys) == (2, "")

    @pytest.mark.parametrize("doc", [
        {"vertices": {"a": 1}},
        {"dim": None, "vertices": [[0, 0], [1, 0], [0, 1]]},
        {"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]},
        [[0, 0], [1, 0], [0, 1]],
        {"vertices": [[0, 0], [1, 0], [0]]},
    ], ids=["dict-vertices", "null-dim", "wrong-dim", "bare-list", "ragged"])
    def test_bad_polytope_documents(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc) + "\n")
        assert self._run(["vp", str(path)], capsys) == (2, "")

    @pytest.mark.parametrize("argv", [
        ["polar", "{square}", "--center", "[0.1"],
        ["polar", "{square}", "--center", '{{"a": 1}}'],
        ["polar", "{square}", "--center", "[0.1, 0.2, 0.3]"],
        ["polar", "{square}", "--center", "0.1"],
        ["symmetrize", "{square}", "--normal", "[1, 0"],
        ["symmetrize", "{square}", "--normal", '{{"a": 1}}'],
        ["symmetrize", "{square}", "--normal", "[1, 0, 0]"],
        ["polar", "{square}", "--center", "[NaN, 0]"],
        ["symmetrize", "{square}", "--normal", "[NaN, 0]"],
        ["symmetrize", "{square}", "--normal", "[1, 0]", "--offset", "nan"],
        ["symmetrize", "{square}", "--normal", "[1, 0]", "--offset", "inf"],
        ["search", "--d", "2", "--k", "4", "--seed", "-1"],
        ["search", "--d", "2", "--k", "4", "--trials", "-2", "--seed", "1"],
        ["search", "--d", "2", "--k", "4", "--trials", "0", "--seed", "1"],
        ["search", "--d", "2", "--k", "4", "--trials", "many", "--seed", "1"],
        ["search", "--d", "6", "--k", "9", "--seed", "1"],
        ["search", "--d", "0", "--k", "2", "--seed", "1"],
        ["search", "--d", "5", "--k", "9", "--seed", "1"],
        ["search", "--d", "2", "--k", "6", "--seed", "1"],
        ["search", "--d", "4", "--k", "8", "--seed", "1"],
        ["search", "--d", "3", "--k", "3", "--seed", "1"],
        ["search", "--d", "2", "--k", "1", "--seed", "1"],
        ["shadow", "{system}", "--grid", "2", "--out", "{csv}"],
        ["verify", "{system}", "--s", "nan"],
        ["verify", "{system}", "--t", "nan"],
        ["verify", "{system}", "--t", "inf"],
        ["verify", "{system}", "--s=-inf"],
        ["verify", "{system}", "--s", "-0.6"],
        ["verify", "{system}", "--t", "0.6"],
        ["verify", "{system}", "--s", "0.2", "--t", "0.2"],
        ["verify", "{system}", "--s", "0.3", "--t", "-0.3"],
        ["search", "--d", "2", "--k", "4", "--trials", "5", "--seed", "1",
         "--tol", "campaign=nan"],
        ["search", "--d", "2", "--k", "4", "--trials", "5", "--seed", "1",
         "--tol", "campaign=inf"],
        ["shadow", "{system}", "--grid", "5", "--out", "{csv}", "--tol", "tau_conv=nan"],
        ["santalo", "{square}", "--tol", "tol_sant=nan"],
        ["santalo", "{square}", "--tol", "tol_sant=-1e-3"],
        ["santalo", "{square}", "--tol", "tol_sant=0"],
    ], ids=["center-bad-json", "center-dict", "center-3d", "center-scalar",
            "normal-bad-json", "normal-dict", "normal-3d", "center-nan", "normal-nan",
            "offset-nan", "offset-inf", "seed-negative", "trials-negative",
            "trials-zero", "trials-word", "d-6", "d-0", "k-above-d+3-in-5d",
            "k-above-d+3-in-2d", "k-above-d+3-in-4d", "k-equal-d", "k-below-d", "grid-2",
            "s-nan", "t-nan", "t-inf", "s-minus-inf", "s-below-interval",
            "t-above-interval", "s-equal-t", "s-above-t", "tol-nan", "tol-inf",
            "tau-conv-nan", "tol-sant-nan", "tol-sant-negative", "tol-sant-zero"])
    def test_bad_flags(self, argv, square_file, system_file, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        argv = [a.format(square=square_file, system=system_file, csv=csv) for a in argv]
        assert self._run(argv, capsys) == (2, "")
        assert not csv.exists()


class TestReportContract:
    """Every command ends with one JSON report line headed by `config`."""

    @pytest.mark.parametrize("argv", [
        ["polar", "{square}"],
        ["santalo", "{square}"],
        ["vp", "{square}"],
        ["shadow", "{system}", "--grid", "5"],
        ["search", "--d", "2", "--k", "4", "--trials", "120", "--seed", "3"],
        ["symmetrize", "{square}", "--normal", "[1, 0]"],
        ["verify", "{system}"],
    ], ids=lambda argv: argv[0])
    def test_last_line_is_the_headed_report(self, argv, square_file, system_file):
        argv = [a.format(square=square_file, system=system_file) for a in argv]
        rc, out = run_cli(argv)
        assert rc == 0
        lines = out.splitlines()
        config = json.loads(lines[-1])["config"]
        assert set(config) == {"seed", "tolerances"}
        if argv[0] == "search":
            # progress lines stream first, each under the same header
            assert len(lines) == 2
            assert json.loads(lines[0])["config"] == config
        elif argv[0] == "shadow":
            # without --out the CSV (header + 5 rows) comes before the report
            assert lines[0].startswith("t,volume,polar_volume")
            assert len(lines) == 7
        else:
            assert len(lines) == 1


class TestProcessEntry:
    """`python -m santalo_lab.cli` exits with main's code and prints its output."""

    @staticmethod
    def _run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "santalo_lab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_square_volume_product(self, square_file):
        proc = self._run("vp", square_file)
        assert proc.returncode == 0
        assert proc.stdout == run_cli(["vp", square_file])[1]

    def test_flat_body_exits_3(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1]]}))
        proc = self._run("vp", str(flat))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
