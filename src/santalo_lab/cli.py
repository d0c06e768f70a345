"""Command-line front end: reproducible experiments with file I/O.

Subcommands: polar, santalo, vp, shadow, search, symmetrize, verify.
Exit codes: 0 success, 2 malformed input, 3 geometric precondition failure,
4 violation certificate produced (so CI fails loudly).

The randomized command (search) requires --seed; identical (command, seed,
config) reruns are byte-identical.  Subcommands that read a tolerance take
--tol NAME=VALUE for that one name; any other name is malformed input.

Report contract: every command ends its stdout with one JSON report line
whose `config` header holds `seed` and `tolerances`.  search streams progress
lines with that header first; shadow writes its CSV first when --out is
absent.  Each cmd_*(args, tol, out, line) gets its tolerance (None if it reads
none), the stdout stream and line(fields), the report-line writer; it returns
(report fields, exit code) and `main` prints the report line.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict

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


def _tolerances(args) -> dict:
    """Parse repeated --tol name=value; args.tol_name is the one name read."""
    out = {}
    for item in args.tol or []:
        if "=" not in item:
            raise _MalformedInput(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name != args.tol_name:
            raise _MalformedInput(f"unknown tolerance {name!r}; "
                                  f"{args.command} reads only {args.tol_name!r}")
        try:
            out[name] = _number(float, 0)(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _MalformedInput(f"bad tolerance value in {item!r}") from exc
    return out


def cmd_polar(args, tol, out, line) -> tuple[dict, int]:
    K = _load(args.input, ser.polytope_from_dict)
    if args.center is not None:
        pb = pol.polar(K, _vector_flag(args.center, "center", K.dim))
    else:
        pb = san.santalo_point(K, tol_sant=tol).polar
    volume = geo.volume(K)
    return {
        "center": pb.center.tolist(),
        "volume": volume,
        "polar_volume": pb.polar_volume,
        "volume_product": volume * pb.polar_volume,
        "base": ser.polytope_to_dict(pb.base),
        "polar": ser.polytope_to_dict(pb.polar),
    }, EXIT_OK


def cmd_santalo(args, tol, out, line) -> tuple[dict, int]:
    res = san.santalo_point(_load(args.input, ser.polytope_from_dict), tol_sant=tol)
    return {
        "point": res.point.tolist(),
        "polar_volume": res.polar_volume,
        "residual": res.centroid_residual,
        "iterations": res.iterations,
        "converged": res.converged,
    }, EXIT_OK


def cmd_vp(args, tol, out, line) -> tuple[dict, int]:
    K = _load(args.input, ser.polytope_from_dict)
    return {
        "volume": geo.volume(K),
        "volume_product": pol.volume_product(K, tol_sant=tol),
        "dim": K.dim,
        "n_vertices": K.n_vertices,
    }, EXIT_OK


def cmd_shadow(args, tol, out, line) -> tuple[dict, int]:
    system = _load(args.input, ser.system_from_dict)
    lo, hi = system.interval
    records = sh.sweep(system, np.linspace(lo, hi, args.grid))
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out) as fh:
        fh.write(ser.sweep_to_csv(records, system.dim))
    return {
        "grid": args.grid,
        "volume_convexity": asdict(sh.check_volume_convexity(records, tol_rel=tol)),
        "polar_convexity": asdict(sh.check_polar_convexity(records, tol_rel=tol)),
        "csv": args.out or "-",
    }, EXIT_OK


def cmd_search(args, tol, out, line) -> tuple[dict, int]:
    if not args.d < args.k <= args.d + 3:
        raise _MalformedInput(f"--k must be in {args.d + 1}..{args.d + 3} for --d {args.d}, "
                              f"got {args.k}")

    def progress(done, rep):
        line({"done": done, "min_vp": rep.min_vp, "violations": len(rep.violations)})

    report = mah.few_vertex_campaign(args.d, args.k, args.trials, seed=args.seed,
                                     tol=tol, progress=progress)
    return ({**report.as_dict(), "bound_margin": report.min_vp - report.bound},
            EXIT_VIOLATION if report.violations else EXIT_OK)


def cmd_symmetrize(args, tol, out, line) -> tuple[dict, int]:
    K = _load(args.input, ser.polytope_from_dict)
    H = geo.Hyperplane(_vector_flag(args.normal, "normal", K.dim), args.offset)
    KH = sh.steiner_symmetral(K, H)
    return {
        "volume": geo.volume(K),
        "symmetral_volume": geo.volume(KH),
        "volume_product": pol.volume_product(K),
        "symmetral_volume_product": pol.volume_product(KH),
        "symmetral": ser.polytope_to_dict(KH),
    }, EXIT_OK


def cmd_verify(args, tol, out, line) -> tuple[dict, int]:
    system = _load(args.input, ser.system_from_dict)
    lo, hi = system.interval
    s = args.s if args.s is not None else lo
    t = args.t if args.t is not None else hi
    if not lo <= s < t <= hi:  # false for NaN too
        raise _MalformedInput(f"need {lo} <= --s < --t <= {hi}, got --s {s} --t {t}")
    rep = ver.midpoint_bound_check(system, s, t)
    return {
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
    }, EXIT_OK if rep.passed else EXIT_VIOLATION


# The tolerance a command may override with --tol, and its default.
_TOL_DEFAULTS = {"tol_sant": san.TOL_SANT, "tau_conv": sh.TAU_CONV, "campaign": mah.CAMPAIGN_TOL}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="santalo-lab",
        description="Polar bodies, Santalo points, volume products and "
                    "shadow-system experiments for convex polytopes.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(func, help, tol_name=None, input_help=None):
        """The subparser running func: its `input` (none when input_help is
        False) and defaults.  --tol is added below, after the command's own
        flags, so that usage lines list it last."""
        sp = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
        if input_help is not False:
            sp.add_argument("input", help=input_help)
        sp.set_defaults(func=func, tol_name=tol_name, tol=None)
        return sp

    sp = command(cmd_polar, "polar body about a center (default: Santalo point)",
                 "tol_sant", "polytope JSON file or - for stdin")
    sp.add_argument("--center", help="JSON list, e.g. '[0.1, 0.2]'")
    command(cmd_santalo, "Santalo point, polar volume, residual", "tol_sant")
    command(cmd_vp, "volume product about the Santalo point", "tol_sant")
    sp = command(cmd_shadow, "sweep a shadow system; CSV + verdicts",
                 "tau_conv", "shadow-system JSON file or -")
    sp.add_argument("--grid", type=_number(int, 3), default=33)
    sp.add_argument("--out", help="CSV output path (default: stdout)")
    sp = command(cmd_search, "randomized few-vertex campaign", "campaign", input_help=False)
    sp.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=_number(int, 1), default=1000)
    sp.add_argument("--seed", type=_number(int, 0), required=True,
                    help="RNG seed (required for reproducibility)")
    sp = command(cmd_symmetrize, "Steiner symmetral about a hyperplane")
    sp.add_argument("--normal", required=True, help="JSON list")
    sp.add_argument("--offset", type=_number(), default=0.0)
    sp = command(cmd_verify, "midpoint-convexity chain on a system")
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--t", type=float, default=None)
    for sp in sub.choices.values():
        if name := sp.get_default("tol_name"):
            sp.add_argument("--tol", action="append", metavar=f"{name}=VALUE",
                            help=f"override the {name} tolerance")
    return p


def main(argv=None, out=None) -> int:
    """Run one command; print its report line, headed by `config`, to out."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        tols = _tolerances(args)
        header = {"seed": getattr(args, "seed", None), "tolerances": tols}

        def line(fields):
            out.write(ser.dumps({"config": header, **fields}) + "\n")

        tol = tols.get(args.tol_name, _TOL_DEFAULTS.get(args.tol_name))
        fields, code = args.func(args, tol, out, line)
        line(fields)
        return code
    except _MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
