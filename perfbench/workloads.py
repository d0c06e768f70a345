"""The benchmark's workloads: inputs from a seed, one op per input, its check.

Each workload drives one library path behind a `santalo-lab` subcommand,
from one caller in a closed loop: an op starts only when the previous one
has finished.  Inputs are generated here from the seed, outside the timed
region; the library receives only the generated inputs.

campaign  `santalo-lab search`: one trial `mahler.few_vertex_campaign(d, k,
          1, seed_i)` per op, (d, k) round-robin over (2,5), (3,6), (4,7).
          Cold Santalo solves on independent bodies from an LP start, plus
          rejection sampling and `classify`.  Shows solver and cold-start
          gains; reusing work across bodies cannot help it.
sweep     `santalo-lab shadow`: one random shadow system per op, (d, k)
          round-robin over (2,5), (3,6), (4,7), (4,7), (4,7) with k base
          vertices, given as the JSON dict the CLI reads.
          `system_from_dict`, a 33-point warm-started `shadow.sweep`,
          `sweep_to_csv` and both convexity verdicts.  Solves are warm
          started along a chain of nearby bodies, so warm-start and reuse
          gains show here and an LP-removal gain does not.
chain     `santalo-lab verify`: one `verify.midpoint_bound_check` per op on
          a random system, (d, k) round-robin over (2,5), (2,5), (3,6), at
          the ends of its interval.  Dominated by polar slice profiles (sections, vertex
          enumeration) and half-volume clips in `balanced_points`; the
          Santalo solver is a small share, so solver changes should leave it
          unchanged.

Shapes repeat in a cycle so that the 50th and 90th latency percentiles
fall inside one shape's cost band rather than in the gap between two
bands, where they would jump with the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from santalo_lab import mahler, serialize, shadow, verify

# Grid of `santalo-lab shadow` (its --grid default).
GRID_POINTS = 33
# Violation tolerance of `santalo-lab search` (its `campaign` tolerance).
CAMPAIGN_TOL = 1e-6


def simplex_volume_product(d: int) -> float:
    """Closed form (d+1)^(d+1) / (d!)^2 of the simplex volume product."""
    return (d + 1) ** (d + 1) / math.factorial(d) ** 2


@dataclass(frozen=True)
class Outcome:
    """What one op's check found; empty strings mean nothing went wrong.

    `failure` makes the op count as failed.  `violation` is a result that
    contradicts a proven bound; it always comes with a failure and makes
    the whole run incorrect.
    """

    failure: str = ""
    violation: str = ""


OK = Outcome()


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple            # input shapes, taken round-robin
    make_input: Callable    # (shape, rng) -> op input
    op: Callable            # op input -> Outcome
    # Rough ops per second at the time the benchmark was written.  Used only
    # to size the fixed op set of a traced run, never to judge a result.
    nominal_ops_per_s: float

    def inputs(self, seed: int):
        """Endless op inputs for `seed`; the same seed gives the same inputs."""
        rng = np.random.default_rng([seed, 0])
        for shape in itertools.cycle(self.cycle):
            yield self.make_input(shape, rng)

    def warmup_inputs(self, seed: int) -> list:
        """One input per distinct shape, from a stream separate from `inputs`."""
        rng = np.random.default_rng([seed, 1])
        return [self.make_input(shape, rng) for shape in dict.fromkeys(self.cycle)]

    def trace_ops(self, seconds: float) -> int:
        """Size of a traced run's op set: whole cycles, fixed by `seconds` alone.

        Each of the plain and the traced pass takes about a third of `seconds`.
        """
        n = len(self.cycle)
        cycles = max(1, round(seconds * self.nominal_ops_per_s / (3 * n)))
        return n * cycles


def _campaign_input(shape, rng):
    d, k = shape
    return d, k, int(rng.integers(2 ** 31))


def _campaign_op(x) -> Outcome:
    d, k, seed = x
    report = mahler.few_vertex_campaign(d, k, 1, seed=seed)
    bound = simplex_volume_product(d)
    if report.violations or report.min_vp < bound - CAMPAIGN_TOL:
        msg = f"d={d} k={k} seed={seed}: vp {report.min_vp!r} below {bound!r}"
        return Outcome(msg, msg)
    if report.excluded:
        return Outcome(f"d={d} k={k} seed={seed}: trial excluded")
    return OK


def _system_input(shape, rng) -> dict:
    """A random shadow system with exactly k base vertices, as the CLI reads it.

    Fixing k per shape keeps an op's cost comparable across seeds; the
    library's own generator draws the systems.
    """
    d, k = shape
    for _ in range(1000):
        system = shadow.random_shadow_system(d, rng, n_points=k - 2)
        if len(system.base_points) == k:
            return serialize.system_to_dict(system)
    raise RuntimeError(f"no shadow system with {k} vertices in d={d}")


def _sweep_op(data) -> Outcome:
    system = serialize.system_from_dict(data)
    records = shadow.sweep(system, np.linspace(*system.interval, GRID_POINTS))
    csv_text = serialize.sweep_to_csv(records, system.dim)
    verdicts = (shadow.check_volume_convexity(records),
                shadow.check_polar_convexity(records))
    bad = sum(not (r.converged and math.isfinite(r.polar_volume)) for r in records)
    if bad:
        return Outcome(f"d={system.dim}: {bad} sweep rows not converged")
    if csv_text.count("\n") != GRID_POINTS + 1:
        return Outcome(f"d={system.dim}: CSV has the wrong number of rows")
    if not all(v.is_midpoint_convex and v.excluded == 0 for v in verdicts):
        return Outcome(f"d={system.dim}: convexity verdict not convex")
    return OK


def _chain_op(data) -> Outcome:
    system = serialize.system_from_dict(data)
    report = verify.midpoint_bound_check(system, *system.interval)
    if not report.passed:
        return Outcome(f"d={system.dim}: midpoint chain did not pass")
    return OK


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign", ((2, 5), (3, 6), (4, 7)),
                 _campaign_input, _campaign_op, 36.0),
        Workload("sweep", ((2, 5), (3, 6), (4, 7), (4, 7), (4, 7)),
                 _system_input, _sweep_op, 1.2),
        Workload("chain", ((2, 5), (2, 5), (3, 6)),
                 _system_input, _chain_op, 1.9),
    )
}
