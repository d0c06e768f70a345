"""Self-tests of the benchmark: wrapper restoration, declared metrics, repeatable counts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(tmp: Path | None = None, **flags) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py"]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return subprocess.run(argv, cwd=tmp or ROOT, capture_output=True, text=True,
                          timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_campaign_runs():
    return [_result(_command(workload="campaign", seed=5, seconds=0.3, trace=1))
            for _ in range(2)]


def _counts(metrics: dict) -> dict:
    """Per-layer figures that are exact counts or ratios of counts."""
    return {k: v for k, v in metrics.items()
            if run.per_layer_unit(k) not in ("ms", "frac")}


def test_traced_run_restores_every_attribute():
    before = spans.originals()
    tracer = spans.Tracer()
    with tracer.installed():
        assert len(spans.installed_wrappers()) == len(before)
        workloads.WORKLOADS["campaign"].op((2, 5, 7))
    assert tracer.spans
    with pytest.raises(ZeroDivisionError), tracer.installed():
        1 / 0
    after = spans.originals()
    assert spans.installed_wrappers() == []
    assert all(after[key] is fn for key, fn in before.items())


def test_tiny_runs_emit_every_declared_metric(traced_campaign_runs):
    plain = _result(_command(workload="campaign", seed=5, seconds=0.3, trace=0))
    for result, section in ((plain, "end_to_end"), (traced_campaign_runs[0], "per_layer")):
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared


def test_same_seed_repeats_per_layer_counts(traced_campaign_runs):
    first, second = (r["metrics"] for r in traced_campaign_runs)
    assert _counts(first) == _counts(second)
    assert first["santalo.santalo_point.calls"]["value"] > 0


@pytest.mark.parametrize("name", ["sweep", "chain"])
def test_same_seed_repeats_counts_in_process(name):
    workload = workloads.WORKLOADS[name]
    found = []
    for _ in range(2):
        ops = list(itertools.islice(workload.inputs(5), len(workload.cycle)))
        tracer = spans.Tracer()
        with tracer.installed():
            assert all(workload.op(x) == workloads.OK for x in ops)
        found.append(_counts(spans.layer_metrics(tracer)))
    assert found[0] == found[1]


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _command(tmp_path, workload="campaign", seed=1, seconds=1, trace=0)
    assert done.returncode != 0
    assert done.stdout == ""
