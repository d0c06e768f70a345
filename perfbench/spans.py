"""Spans around each santalo_lab layer, from wrappers installed for one traced run.

The wrappers replace module attributes, and the package calls its own
functions through module attributes (`geo.volume`, `pol.polar`, or a bare
name resolved in the module's globals), so internal calls such as
`half_volumes -> polar` are caught as well.  Nothing under `src/` knows
about tracing; outside `installed()` every attribute is the original.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Two attributes may share a span name.
SPANNED = (
    ("geometry", "convex_hull", "geometry.convex_hull"),
    ("geometry", "interior_point", "geometry.interior_point"),
    ("geometry", "volume", "geometry.volume"),
    ("geometry", "centroid", "geometry.centroid"),
    ("geometry", "section", "geometry.section"),
    ("geometry", "vertex_enumeration", "geometry.vertex_enumeration"),
    ("geometry", "ConvexHull", "qhull"),
    ("polarity", "ConvexHull", "qhull"),
    ("polarity", "polar", "polarity.polar"),
    ("polarity", "half_volumes", "polarity.half_volumes"),
    ("santalo", "santalo_point", "santalo.santalo_point"),
    ("santalo", "balanced_points", "santalo.balanced_points"),
    ("shadow", "body_at", "shadow.body_at"),
    ("shadow", "sweep", "shadow.sweep"),
    ("shadow", "check_volume_convexity", "shadow.verdicts"),
    ("shadow", "check_polar_convexity", "shadow.verdicts"),
    ("mahler", "random_polytope", "mahler.random_polytope"),
    ("mahler", "classify", "mahler.classify"),
    ("mahler", "few_vertex_campaign", "mahler.few_vertex_campaign"),
    ("verify", "polar_slice_profile", "verify.polar_slice_profile"),
    ("verify", "half_volume_inequality_check", "verify.half_volume_inequality_check"),
    ("verify", "harmonic_hypothesis_check", "verify.harmonic_checks"),
    ("verify", "harmonic_conclusion_check", "verify.harmonic_checks"),
    ("verify", "midpoint_bound_check", "verify.midpoint_bound_check"),
    ("serialize", "system_from_dict", "serialize.system_from_dict"),
    ("serialize", "sweep_to_csv", "serialize.sweep_to_csv"),
)
# Counted without a span, so the HiGHS LP stays inside interior_point's self time.
COUNTED = (("geometry", "linprog", "geometry.linprog"),)


def _solve_info(args, result):
    return args[0].dim, result.iterations, result.converged


def _sweep_info(args, result):
    excluded = sum(not (r.converged and math.isfinite(r.polar_volume)) for r in result)
    return len(result), excluded


def _campaign_info(args, result):
    return result.excluded


# Facts read off a span's return value, by span name.
INFO = {
    "santalo.santalo_point": _solve_info,
    "shadow.sweep": _sweep_info,
    "mahler.few_vertex_campaign": _campaign_info,
}


def _module(name: str):
    return importlib.import_module(f"santalo_lab.{name}")


def originals() -> dict:
    """Current value of every attribute the tracer replaces."""
    return {(mod, attr): getattr(_module(mod), attr)
            for mod, attr, _ in SPANNED + COUNTED}


def installed_wrappers() -> list[tuple[str, str]]:
    """Attributes that currently hold one of this module's wrappers."""
    return [key for key, fn in originals().items()
            if getattr(fn, "__module__", None) == __name__]


class Tracer:
    """Span store: one record [name, start, end, parent, info] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every listed attribute; restore the originals on exit."""
        saved = []
        try:
            for mod, attr, name in SPANNED + COUNTED:
                module = _module(mod)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if (mod, attr, name) in COUNTED:
                    setattr(module, attr, self._count(name, fn))
                else:
                    setattr(module, attr, self._span(name, fn, INFO.get(name)))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures from the recorded spans (self = time minus child spans).

    Times are multiplied by `scale`, the run's host-speed factor.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += t1 - t0 - child[i]
        total_s[name] += t1 - t0

    def under(name: str, ancestor: str) -> int:
        """Calls of `name` made (at any depth) inside a call of `ancestor`."""
        n = 0
        for rec in spans:
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            n += p >= 0
        return n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in sorted({name for _, _, name in SPANNED}):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = 1e3 * scale * self_s[name]
    for name in ("geometry.interior_point", "polarity.polar", "polarity.half_volumes"):
        out[f"{name}.ms_per_call"] = 1e3 * scale * ratio(total_s[name], calls[name])
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = tracer.counts[name]

    solves = [(t1 - t0, info) for name, t0, t1, _, info in spans
              if name == "santalo.santalo_point" and info is not None]
    for d in (2, 3, 4):
        times = [dt for dt, info in solves if info[0] == d]
        out[f"santalo.solve_ms_p50.d{d}"] = 1e3 * scale * statistics.median(times) if times else 0.0
    out["santalo.iterations_mean"] = ratio(sum(info[1] for _, info in solves), len(solves))
    out["santalo.nonconverged"] = sum(not info[2] for _, info in solves)
    out["santalo.polar_per_solve"] = ratio(
        under("polarity.polar", "santalo.santalo_point"), calls["santalo.santalo_point"])
    # One probe of rho evaluates two half-volume clips, one per end body.
    out["santalo.probes_per_balance"] = ratio(
        under("polarity.half_volumes", "santalo.balanced_points") / 2,
        calls["santalo.balanced_points"])
    out["mahler.hulls_per_sample"] = ratio(
        under("geometry.convex_hull", "mahler.random_polytope"),
        calls["mahler.random_polytope"])
    sweeps = [info for name, *_, info in spans
              if name == "shadow.sweep" and info is not None]
    out["shadow.sweep.rows"] = sum(rows for rows, _ in sweeps)
    out["shadow.sweep.excluded_rows"] = sum(bad for _, bad in sweeps)
    out["mahler.excluded_trials"] = sum(
        info for name, *_, info in spans
        if name == "mahler.few_vertex_campaign" and info is not None)
    return out
