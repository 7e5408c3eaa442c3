"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest perfbench/selftest.py

(about four minutes: each workload runs twice with tracing).  The file
name keeps it out of the default test collection.
"""

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import GRID_SIZES, PRESETS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit == "count"]

QUANTUM = [
    "experiments.self_s", "experiments.quantum_runs",
    "experiments.snapshots", "experiments.grid_n_max",
    "schrodinger.propagate.calls", "schrodinger.propagate.steps",
    "schrodinger.propagate.point_steps", "schrodinger.propagate.self_s",
    "schrodinger.propagate.single_step_calls",
    "schrodinger.propagate.single_step_us",
    "madelung.to_madelung.calls", "madelung.to_madelung.points",
    "madelung.self_s", "schrodinger.observables.self_s",
]
ALWAYS = ["config.load_s", "potential.eval_potential.calls",
          "records.bytes_written", "records.self_s",
          "classical.newton.steps", "classical.newton.self_s",
          "kernels.verlet_path.self_s"]
LIOUVILLE = ["classical.liouville.node_steps", "classical.liouville.self_s",
             "kernels.liouville_pullback.self_s"]
FAN = ["hjflow.char_steps", "hjflow.self_s", "hjflow.caustics",
       "kernels.fan_path.self_s"]
DETPOT = ["detpot.classify.calls", "detpot.self_s"]

# per-layer metrics each workload must report as nonzero
EXERCISED = {
    "quantum_scans": ALWAYS + QUANTUM + DETPOT + [
        f"schrodinger.us_per_step.n{n}" for n in GRID_SIZES],
    "classical_transport": ALWAYS + LIOUVILLE + FAN + DETPOT,
}
# layers a workload must leave alone: no FFT propagation in the classical
# workload
IDLE = {"classical_transport": ["schrodinger.propagate.calls",
                                "madelung.to_madelung.calls",
                                "experiments.quantum_runs"]}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()}


def csv_files(directory):
    return sorted(os.path.relpath(os.path.join(d, f), directory)
                  for d, _, files in os.walk(directory) for f in files
                  if f.endswith(".csv") and f != "spans.csv")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request):
    """Two traced runs of one workload, and whether the first run's traced
    CSVs matched its untraced CSVs byte for byte."""
    workload = request.param
    first = bench(workload, 1)
    out = os.path.join(ROOT, ".perfbench_runs", workload)
    untraced, traced = os.path.join(out, "run"), os.path.join(out, "traced")
    names = csv_files(untraced)
    _, mismatch, errors = filecmp.cmpfiles(untraced, traced, names,
                                           shallow=False)
    second = bench(workload, 1)
    return workload, first, second, names, mismatch + errors


def test_counts_repeat_exactly(traced_twice):
    _, first, second, _, _ = traced_twice
    for name in COUNT_METRICS:
        assert first[name] == second[name], name


def test_traced_csvs_match_untraced(traced_twice):
    _, _, _, names, differing = traced_twice
    assert names
    assert differing == []


def test_every_layer_metric_reported(traced_twice):
    workload, first, _, _, _ = traced_twice
    assert set(first) == set(PER_LAYER)
    for name in EXERCISED[workload]:
        assert first[name] > 0, name
    for name in IDLE.get(workload, []):
        assert first[name] == 0, name
    for inv in WORKLOADS[workload]:
        assert first[f"cli.wall_s.{inv.preset}"] > 0
    assert sum(first[f"cli.wall_s.{p}"] > 0 for p in PRESETS) == len(
        WORKLOADS[workload])


def test_untraced_run_reports_end_to_end_metrics():
    metrics = bench("classical_transport", 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(metrics[name] > 0 for name in metrics)
