"""JSON / CSV formats for polytopes, shadow systems, and sweep records.

Polytope JSON: {"dim": d, "vertices": [[x1..xd], ...]}.  Shadow-system
JSON: {"base_points": [...], "speeds": [...], "direction": [...],
"interval": [lo, hi]}.  All numbers decimal; files are newline-terminated
UTF-8.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import VPolytope
from .shadow import ShadowSystem, SweepRecord


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (round-trips doubles)."""
    return f"{float(x):.17g}"


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def polytope_to_dict(P: VPolytope) -> dict:
    return {"dim": P.dim, "vertices": _listify(P.vertices)}


def polytope_from_dict(data: dict) -> VPolytope:
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("polytope JSON needs a 'vertices' field")
    verts = np.asarray(data["vertices"], dtype=float)
    if verts.ndim != 2:
        raise ValueError("'vertices' must be a list of coordinate lists")
    if "dim" in data and int(data["dim"]) != verts.shape[1]:
        raise ValueError("'dim' does not match vertex coordinates")
    from .geometry import convex_hull

    P, _ = convex_hull(verts)
    return P


def system_to_dict(S: ShadowSystem) -> dict:
    return {
        "base_points": _listify(S.base_points),
        "speeds": _listify(S.speeds),
        "direction": _listify(S.direction),
        "interval": [S.interval[0], S.interval[1]],
    }


def system_from_dict(data: dict) -> ShadowSystem:
    for key in ("base_points", "speeds", "direction", "interval"):
        if key not in data:
            raise ValueError(f"shadow-system JSON needs '{key}'")
    return ShadowSystem(
        np.asarray(data["base_points"], dtype=float),
        np.asarray(data["speeds"], dtype=float),
        np.asarray(data["direction"], dtype=float),
        (float(data["interval"][0]), float(data["interval"][1])),
    )


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
