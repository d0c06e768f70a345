"""JSON / CSV formats for polytopes, shadow systems, and sweep records.

Polytope JSON: {"dim": d, "vertices": [[x1..xd], ...]}.  Shadow-system
JSON: {"base_points": [...], "speeds": [...], "direction": [...],
"interval": [lo, hi]}.  All numbers decimal; files are newline-terminated
UTF-8.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import VPolytope, convex_hull
from .shadow import ShadowSystem, SweepRecord


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (round-trips doubles)."""
    return f"{float(x):.17g}"


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def polytope_to_dict(P: VPolytope) -> dict:
    return {"dim": P.dim, "vertices": _listify(P.vertices)}


def _fields(data, kind: str, **shapes) -> list[np.ndarray]:
    """Fields of a `kind` JSON object as float arrays of the given shapes
    (None: any length); ValueError on any malformed document."""
    try:
        out = [np.asarray(data[key], dtype=float) for key in shapes]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{kind} JSON: bad or missing field ({exc})") from exc
    for (key, shape), arr in zip(shapes.items(), out):
        if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
            raise ValueError(f"'{key}' must have shape {shape}, got {arr.shape}")
    return out


def polytope_from_dict(data: dict) -> VPolytope:
    (verts,) = _fields(data, "polytope", vertices=(None, None))
    if "dim" in data and _fields(data, "polytope", dim=())[0] != verts.shape[1]:
        raise ValueError("'dim' does not match vertex coordinates")
    return convex_hull(verts)[0]


def system_to_dict(S: ShadowSystem) -> dict:
    return {
        "base_points": _listify(S.base_points),
        "speeds": _listify(S.speeds),
        "direction": _listify(S.direction),
        "interval": [S.interval[0], S.interval[1]],
    }


def system_from_dict(data: dict) -> ShadowSystem:
    base, speeds, direction, (lo, hi) = _fields(
        data, "shadow-system", base_points=(None, None), speeds=(None,),
        direction=(None,), interval=(2,))
    return ShadowSystem(base, speeds, direction, (float(lo), float(hi)))


def sweep_to_csv(records: list[SweepRecord], dim: int) -> str:
    """CSV with header t,volume,polar_volume,santalo_1..santalo_d,converged,
    iterations,residual (the Santalo solve's Newton steps and residual)."""
    header = ["t", "volume", "polar_volume"]
    header += [f"santalo_{i + 1}" for i in range(dim)]
    header += ["converged", "iterations", "residual"]
    lines = [",".join(header)]
    for r in records:
        row = [fmt17(r.t), fmt17(r.volume), fmt17(r.polar_volume)]
        row += [fmt17(x) for x in r.santalo]
        row += ["true" if r.converged else "false", str(r.iterations), fmt17(r.residual)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    """Deterministic JSON line (sorted keys, round-trip floats)."""
    return json.dumps(obj, sort_keys=True, allow_nan=True)
