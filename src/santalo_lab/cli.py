"""Command-line front end: reproducible experiments with file I/O.

Subcommands: polar, santalo, vp, shadow, search, symmetrize, verify.
Exit codes: 0 success, 2 malformed input, 3 geometric precondition failure,
4 violation certificate produced (so CI fails loudly).

Every randomized command requires --seed; identical (command, seed, config)
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geometry as geo
from . import mahler as mah
from . import polarity as pol
from . import santalo as san
from . import serialize as ser
from . import shadow as sh
from . import verify as ver
from .errors import GeometryError

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4


class _MalformedInput(Exception):
    pass


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _MalformedInput(f"cannot read JSON from {path}: {exc}") from exc


def _load_polytope(path: str) -> geo.VPolytope:
    try:
        return ser.polytope_from_dict(_read_json(path))
    except ValueError as exc:
        raise _MalformedInput(str(exc)) from exc


def _load_system(path: str) -> sh.ShadowSystem:
    try:
        return ser.system_from_dict(_read_json(path))
    except ValueError as exc:
        raise _MalformedInput(str(exc)) from exc


def _tol_overrides(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise _MalformedInput(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise _MalformedInput(f"bad tolerance value in {item!r}") from exc
    return out


def _config_header(args, tols) -> dict:
    return {
        "seed": getattr(args, "seed", None),
        "tolerances": tols,
    }


def _print(line: str, out) -> None:
    out.write(line + "\n")


def cmd_polar(args, out) -> int:
    K = _load_polytope(args.input)
    tols = _tol_overrides(args.tol)
    if args.center is not None:
        center = np.asarray(json.loads(args.center), dtype=float)
    else:
        center = san.santalo_point(
            K, tol_sant=tols.get("tol_sant", san.TOL_SANT)).point
    pb = pol.polar(K, center)
    report = {
        "config": _config_header(args, tols),
        "center": center.tolist(),
        "volume": geo.volume(K),
        "polar_volume": pb.polar_volume,
        "volume_product": geo.volume(K) * pb.polar_volume,
        "base": ser.polytope_to_dict(pb.base),
        "polar": ser.polytope_to_dict(pb.polar),
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def cmd_santalo(args, out) -> int:
    K = _load_polytope(args.input)
    tols = _tol_overrides(args.tol)
    res = san.santalo_point(K, tol_sant=tols.get("tol_sant", san.TOL_SANT))
    report = {
        "config": _config_header(args, tols),
        "point": res.point.tolist(),
        "polar_volume": res.polar_volume,
        "residual": res.centroid_residual,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def cmd_vp(args, out) -> int:
    K = _load_polytope(args.input)
    tols = _tol_overrides(args.tol)
    report = {
        "config": _config_header(args, tols),
        "volume": geo.volume(K),
        "volume_product": pol.volume_product(K, tol_sant=tols.get("tol_sant")),
        "dim": K.dim,
        "n_vertices": K.n_vertices,
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def cmd_shadow(args, out) -> int:
    system = _load_system(args.input)
    tols = _tol_overrides(args.tol)
    lo, hi = system.interval
    grid = np.linspace(lo, hi, args.grid)
    records = sh.sweep(system, grid)
    csv_text = ser.sweep_to_csv(records, system.dim)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        out.write(csv_text)
    tol_conv = tols.get("tau_conv", sh.TAU_CONV)
    vol_v = sh.check_volume_convexity(records, tol_rel=tol_conv)
    pol_v = sh.check_polar_convexity(records, tol_rel=tol_conv)
    report = {
        "config": _config_header(args, tols),
        "grid": args.grid,
        "volume_convexity": _verdict_dict(vol_v),
        "polar_convexity": _verdict_dict(pol_v),
        "csv": args.out or "-",
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def _verdict_dict(v: sh.ConvexityVerdict) -> dict:
    return {
        "is_midpoint_convex": v.is_midpoint_convex,
        "worst_violation": v.worst_violation,
        "witness_triple": list(v.witness_triple) if v.witness_triple else None,
        "excluded": v.excluded,
    }


def cmd_search(args, out) -> int:
    tols = _tol_overrides(args.tol)
    tol = tols.get("campaign", 1e-6)
    header = _config_header(args, tols)

    def progress(done, rep):
        _print(ser.dumps({"config": header, "done": done,
                          "min_vp": rep.min_vp,
                          "violations": len(rep.violations)}), out)

    report = mah.few_vertex_campaign(args.d, args.k, args.trials, seed=args.seed,
                                  tol=tol, progress=progress)
    final = report.as_dict()
    final["config"] = header
    final["bound_margin"] = report.min_vp - report.bound
    _print(ser.dumps(final), out)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_symmetrize(args, out) -> int:
    K = _load_polytope(args.input)
    tols = _tol_overrides(args.tol)
    try:
        normal = np.asarray(json.loads(args.normal), dtype=float)
    except json.JSONDecodeError as exc:
        raise _MalformedInput(f"bad --normal: {exc}") from exc
    H = geo.Hyperplane(normal, args.offset)
    KH = sh.steiner_symmetral(K, H)
    report = {
        "config": _config_header(args, tols),
        "volume": geo.volume(K),
        "symmetral_volume": geo.volume(KH),
        "volume_product": pol.volume_product(K),
        "symmetral_volume_product": pol.volume_product(KH),
        "symmetral": ser.polytope_to_dict(KH),
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    system = _load_system(args.input)
    tols = _tol_overrides(args.tol)
    lo, hi = system.interval
    s = args.s if args.s is not None else lo
    t = args.t if args.t is not None else hi
    rep = ver.midpoint_bound_check(system, s, t)
    report = {
        "config": _config_header(args, tols),
        "s": s, "t": t,
        "hypothesis": {"status": rep.hypothesis.status,
                       "worst_slack": rep.hypothesis.worst_slack,
                       "witness": list(rep.hypothesis.witness)},
        "conclusion": {"status": rep.conclusion.status,
                       "margin": rep.conclusion.worst_slack},
        "half_volume": {"status": rep.half_volume.status,
                        "worst_slack": rep.half_volume.worst_slack},
        "midpoint_slack": rep.midpoint_slack,
        "santalo_slack": rep.santalo_slack,
        "balanced_points": list(rep.balanced),
        "passed": rep.passed,
    }
    _print(ser.dumps(report), out)
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="santalo-lab",
        description="Polar bodies, Santalo points, volume products and "
                    "shadow-system experiments for convex polytopes.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_seed=False):
        sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override, repeatable")
        if needs_seed:
            sp.add_argument("--seed", type=int, required=True,
                            help="RNG seed (required for reproducibility)")
        else:
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("polar", help="polar body about a center (default: Santalo point)")
    sp.add_argument("input", help="polytope JSON file or - for stdin")
    sp.add_argument("--center", help="JSON list, e.g. '[0.1, 0.2]'")
    common(sp)
    sp.set_defaults(func=cmd_polar)

    sp = sub.add_parser("santalo", help="Santalo point, polar volume, residual")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(func=cmd_santalo)

    sp = sub.add_parser("vp", help="volume product about the Santalo point")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(func=cmd_vp)

    sp = sub.add_parser("shadow", help="sweep a shadow system; CSV + verdicts")
    sp.add_argument("input", help="shadow-system JSON file or -")
    sp.add_argument("--grid", type=int, default=33)
    sp.add_argument("--out", help="CSV output path (default: stdout)")
    common(sp)
    sp.set_defaults(func=cmd_shadow)

    sp = sub.add_parser("search", help="randomized few-vertex campaign")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=int, default=1000)
    common(sp, needs_seed=True)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("symmetrize", help="Steiner symmetral about a hyperplane")
    sp.add_argument("input")
    sp.add_argument("--normal", required=True, help="JSON list")
    sp.add_argument("--offset", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_symmetrize)

    sp = sub.add_parser("verify", help="midpoint-convexity chain on a system")
    sp.add_argument("input")
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--t", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except _MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
