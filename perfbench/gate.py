"""Correctness gate: library results against closed-form references."""

from __future__ import annotations

from functools import partial

import numpy as np

from santalo_lab import geometry, mahler, polarity
from workloads import simplex_volume_product


def _simplex(d: int):
    return geometry.convex_hull(np.vstack([np.zeros(d), np.eye(d)]))[0]


# (name, body factory, expected volume product, tolerance relative to it)
REFERENCES = (
    *((f"simplex d={d}", partial(_simplex, d), simplex_volume_product(d), 1e-6)
      for d in (2, 3, 4)),
    ("square", partial(mahler.regular_polygon, 4), 8.0, 1e-9 / 8.0),
    ("regular hexagon", partial(mahler.regular_polygon, 6), 9.0, 1e-9 / 9.0),
)


def reference_failures() -> list[str]:
    """Messages for every reference the library misses; empty when all hold.

    Simplex volume products in d = 2, 3, 4 are (d+1)^(d+1) / (d!)^2 to 1e-6
    relative; the square and the regular hexagon give 8 and 9 to 1e-9.
    """
    failures = []
    for name, body, expected, rel_tol in REFERENCES:
        try:
            vp = polarity.volume_product(body())
        except Exception as exc:  # a crash is a failed check, not a lost run
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if not abs(vp - expected) <= rel_tol * expected:
            failures.append(f"{name}: volume product {vp!r}, expected {expected!r}")
    return failures
