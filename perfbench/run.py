"""santalo-lab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
workloads are described in `workloads.py` and in README.md beside this file.

--trace 0 measures the end-to-end metrics: ops run back to back until
`--seconds` of op time has passed, with no wrapper installed.  --trace 1
runs a fixed op set, sized from `--seconds`, once plain and once with every
layer wrapped (see `spans.py`), and reports the per-layer metrics and the
tracing overhead.  Both modes check every op and the closed-form references
in `gate.py`.  The last stdout line is the result as one JSON object; the
line before it holds the run's provenance and failure details.  The exit
code is 1 when a check fails and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import prepare

DEFAULT_SEED = 1
# Never used while tuning the benchmark or a change; confirms a claimed gain.
HELD_OUT_SEED = 2
# Set-up runs per benchmark run (this process plus fresh interpreters).
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "santalo.iterations_mean": "1/solve",
    "santalo.polar_per_solve": "1/solve",
    "santalo.probes_per_balance": "1/call",
    "mahler.hulls_per_sample": "1/sample",
    "trace.overhead_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "ms" if "_ms" in name or "ms_per_call" in name else "count"


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from `.git`; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(root),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in prepare.THREAD_VARS},
    }


class Loop:
    """Ops run back to back in one caller, with host-speed probes between them."""

    def __init__(self):
        import speed

        self.durations: list[float] = []
        self.midpoints: list[float] = []
        self.failures: list[str] = []
        self.violations: list[str] = []
        self.busy_s = 0.0
        self.speed = speed.SpeedProbe()

    def run(self, workload, inputs, seconds: float = float("inf")) -> "Loop":
        """Run `inputs` until they end or `seconds` of op time has passed."""
        from workloads import Outcome

        self.speed.probe()
        for x in inputs:  # the next input is made outside the timed region
            start = time.perf_counter()
            try:
                outcome = workload.op(x)
            except Exception as exc:  # one failed op must not end the run
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - start
            self.durations.append(dt)
            self.midpoints.append(start + dt / 2)
            self.busy_s += dt
            if outcome.failure:
                self.failures.append(outcome.failure)
            if outcome.violation:
                self.violations.append(outcome.violation)
            self.speed.after_op(dt)
            if self.busy_s >= seconds:
                break
        return self

    def scaled(self) -> list[float]:
        """Op times at the reference host speed (see `speed.py`)."""
        return [dt * self.speed.factor_at(t)
                for dt, t in zip(self.durations, self.midpoints)]


def set_up_samples(args, main_sample: tuple[float, float]) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of this process's set-up and of fresh interpreters'."""
    samples = [main_sample]
    probe = Path(prepare.__file__).resolve()
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, check=True)
        raw, factor = done.stdout.split()[-2:]
        samples.append((float(raw), float(factor)))
    return samples


def end_to_end(args, workload, setup_s: float) -> tuple[list[Loop], dict, dict]:
    import numpy as np
    import spans

    if spans.installed_wrappers():
        raise RuntimeError("tracing wrappers present in an untraced run")
    loop = Loop().run(workload, workload.inputs(args.seed), args.seconds)

    def timings(seconds: list[float]) -> dict:
        ms = 1e3 * np.asarray(seconds)
        return {"ops_per_s": len(ms) / (ms.sum() / 1e3),
                "op_p50_ms": float(np.percentile(ms, 50)),
                "op_p90_ms": float(np.percentile(ms, 90))}

    raw = timings(loop.durations)
    values = {
        **timings(loop.scaled()),
        "ok_frac": 1.0 - len(loop.failures) / len(loop.durations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return [loop], metrics, raw


def per_layer(args, workload) -> tuple[list[Loop], dict]:
    import spans

    ops = list(itertools.islice(workload.inputs(args.seed), workload.trace_ops(args.seconds)))
    before = spans.originals()
    plain = Loop().run(workload, ops)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = Loop().run(workload, ops)
    after = spans.originals()
    if any(after[key] is not fn for key, fn in before.items()):
        raise RuntimeError("a wrapped attribute was not restored")
    values = spans.layer_metrics(tracer, scale=traced.speed.factor)
    values["trace.overhead_frac"] = 1.0 - sum(plain.scaled()) / sum(traced.scaled())
    return [plain, traced], {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "sweep", "chain"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    try:
        prepare.configure(root)
    except prepare.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload, *setup_main = prepare.set_up(args.workload, args.seed)
    import gate

    reference_failures = gate.reference_failures()
    info = {"provenance": provenance(root, args)}
    if args.trace:
        loops, metrics = per_layer(args, workload)
    else:
        setup = set_up_samples(args, tuple(setup_main))
        setup_s = statistics.median(s * f for s, f in setup)
        loops, metrics, unscaled = end_to_end(args, workload, setup_s)
        info.update(raw_metrics=unscaled, speed_factor=loops[0].speed.factor,
                    setup_samples=[{"raw_s": s, "speed_factor": f} for s, f in setup])
    attempted = sum(len(loop.durations) for loop in loops)
    failures = [msg for loop in loops for msg in loop.failures]
    violations = [msg for loop in loops for msg in loop.violations]
    info.update({
        "failed_frac": len(failures) / attempted,
        "reference_failures": reference_failures,
        "violations": violations[:10],
        "op_failures": failures[:10],
    })
    correct = not reference_failures and not violations
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
