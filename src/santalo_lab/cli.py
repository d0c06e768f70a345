"""Command-line front end: reproducible experiments with file I/O.

Subcommands: polar, santalo, vp, shadow, search, symmetrize, verify.
Exit codes: 0 success, 2 malformed input, 3 geometric precondition failure,
4 violation certificate produced (so CI fails loudly).

The randomized command (search) requires --seed; identical (command, seed,
config) reruns are byte-identical.  Subcommands that read a tolerance take
--tol NAME=VALUE for that one name; any other name is malformed input.
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


def _load(path: str, parse):
    """parse(the JSON document at path, or on stdin for -); an unreadable or
    malformed document is malformed input."""
    try:
        if path == "-":
            return parse(json.load(sys.stdin))
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError) as exc:
        raise _MalformedInput(f"bad input {path}: {exc}") from exc


def _vector_flag(text: str, name: str, dim: int) -> np.ndarray:
    """The JSON list given to --name, as a point of R^dim."""
    try:
        v = np.asarray(json.loads(text), dtype=float)
    except (TypeError, ValueError) as exc:
        raise _MalformedInput(f"bad --{name} {text!r}: {exc}") from exc
    if v.shape != (dim,) or not np.all(np.isfinite(v)):
        raise _MalformedInput(f"--{name} must be a list of {dim} finite numbers, got {text!r}")
    return v


def _number(kind=float, low=-np.inf):
    """argparse type: a finite `kind` (int or float) >= low."""
    def number(text: str):
        if not np.isfinite(value := kind(text)) or value < low:
            raise argparse.ArgumentTypeError(f"{text} is not a finite {kind.__name__} >= {low}")
        return value
    return number


def _tol_overrides(args, known: str) -> dict:
    """Parse repeated --tol name=value; `known` is the one name read."""
    out = {}
    for item in args.tol or []:
        if "=" not in item:
            raise _MalformedInput(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name != known:
            raise _MalformedInput(f"unknown tolerance {name!r}; "
                                  f"{args.command} reads only {known!r}")
        try:
            out[name] = float(value)
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
    K = _load(args.input, ser.polytope_from_dict)
    tols = _tol_overrides(args, "tol_sant")
    if args.center is not None:
        pb = pol.polar(K, _vector_flag(args.center, "center", K.dim))
    else:
        pb = san.santalo_point(K, tol_sant=tols.get("tol_sant", san.TOL_SANT)).polar
    report = {
        "config": _config_header(args, tols),
        "center": pb.center.tolist(),
        "volume": geo.volume(K),
        "polar_volume": pb.polar_volume,
        "volume_product": geo.volume(K) * pb.polar_volume,
        "base": ser.polytope_to_dict(pb.base),
        "polar": ser.polytope_to_dict(pb.polar),
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def cmd_santalo(args, out) -> int:
    K = _load(args.input, ser.polytope_from_dict)
    tols = _tol_overrides(args, "tol_sant")
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
    K = _load(args.input, ser.polytope_from_dict)
    tols = _tol_overrides(args, "tol_sant")
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
    system = _load(args.input, ser.system_from_dict)
    tols = _tol_overrides(args, "tau_conv")
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
    if not args.d < args.k <= args.d + 3:
        raise _MalformedInput(f"--k must be in {args.d + 1}..{args.d + 3} for --d {args.d}, "
                              f"got {args.k}")
    tols = _tol_overrides(args, "campaign")
    tol = tols.get("campaign", mah.CAMPAIGN_TOL)
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
    K = _load(args.input, ser.polytope_from_dict)
    H = geo.Hyperplane(_vector_flag(args.normal, "normal", K.dim), args.offset)
    KH = sh.steiner_symmetral(K, H)
    report = {
        "config": _config_header(args, {}),
        "volume": geo.volume(K),
        "symmetral_volume": geo.volume(KH),
        "volume_product": pol.volume_product(K),
        "symmetral_volume_product": pol.volume_product(KH),
        "symmetral": ser.polytope_to_dict(KH),
    }
    _print(ser.dumps(report), out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    system = _load(args.input, ser.system_from_dict)
    lo, hi = system.interval
    s = args.s if args.s is not None else lo
    t = args.t if args.t is not None else hi
    if not lo <= s < t <= hi:  # false for NaN too
        raise _MalformedInput(f"need {lo} <= --s < --t <= {hi}, got --s {s} --t {t}")
    rep = ver.midpoint_bound_check(system, s, t)
    report = {
        "config": _config_header(args, {}),
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

    def tol_flag(sp, name):
        sp.add_argument("--tol", action="append", metavar=f"{name}=VALUE",
                        help=f"override the {name} tolerance")

    sp = sub.add_parser("polar", help="polar body about a center (default: Santalo point)")
    sp.add_argument("input", help="polytope JSON file or - for stdin")
    sp.add_argument("--center", help="JSON list, e.g. '[0.1, 0.2]'")
    tol_flag(sp, "tol_sant")
    sp.set_defaults(func=cmd_polar)

    sp = sub.add_parser("santalo", help="Santalo point, polar volume, residual")
    sp.add_argument("input")
    tol_flag(sp, "tol_sant")
    sp.set_defaults(func=cmd_santalo)

    sp = sub.add_parser("vp", help="volume product about the Santalo point")
    sp.add_argument("input")
    tol_flag(sp, "tol_sant")
    sp.set_defaults(func=cmd_vp)

    sp = sub.add_parser("shadow", help="sweep a shadow system; CSV + verdicts")
    sp.add_argument("input", help="shadow-system JSON file or -")
    sp.add_argument("--grid", type=_number(int, 3), default=33)
    sp.add_argument("--out", help="CSV output path (default: stdout)")
    tol_flag(sp, "tau_conv")
    sp.set_defaults(func=cmd_shadow)

    sp = sub.add_parser("search", help="randomized few-vertex campaign")
    sp.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=_number(int, 1), default=1000)
    sp.add_argument("--seed", type=_number(int, 0), required=True,
                    help="RNG seed (required for reproducibility)")
    tol_flag(sp, "campaign")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("symmetrize", help="Steiner symmetral about a hyperplane")
    sp.add_argument("input")
    sp.add_argument("--normal", required=True, help="JSON list")
    sp.add_argument("--offset", type=_number(), default=0.0)
    sp.set_defaults(func=cmd_symmetrize)

    sp = sub.add_parser("verify", help="midpoint-convexity chain on a system")
    sp.add_argument("input")
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--t", type=float, default=None)
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
