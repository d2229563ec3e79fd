"""Tests of the benchmark's own code.

    python -m pytest -q benchmark
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference
import run
import tracing
import workloads
from tsp_qsearch import builtin_phases, cli, gen_gaussian_phases, simulator

TWO_STEP_GOLDEN = json.loads((ROOT / "tests" / "data" / "two_step_golden.json").read_text())


def combined(phases, steps: int, rescale: bool, t: int) -> float:
    tours, probs = reference.matrix_distributions(phases.phases, steps, rescale)
    return probs[t][tours.index(phases.min_key)] + probs[t][tours.index(phases.max_key)]


@pytest.mark.parametrize("n", [3, 4])
def test_reference_reproduces_two_step_golden(n):
    golden = TWO_STEP_GOLDEN[str(n)]
    got = combined(builtin_phases(n), golden["q2"], rescale=False, t=golden["q2"])
    assert got == pytest.approx(golden["p_combined_reference"], abs=1e-12)


def test_reference_reproduces_appendix_peak():
    golden = TWO_STEP_GOLDEN["appendix"]
    phases = gen_gaussian_phases(5, math.pi, golden["sigma"], golden["seed"])
    got = combined(phases, golden["peak_t"], rescale=True, t=golden["peak_t"])
    assert got == pytest.approx(golden["p_combined_at_peak"], abs=1e-12)


def _perturb_csv(path: Path) -> None:
    lines = path.read_text().splitlines()
    t, lo, hi, both = lines[3].split(",")
    lines[3] = ",".join([t, repr(float(lo) + 1e-6), hi, both])
    path.write_text("\n".join(lines) + "\n")


def _perturb_report(path: Path) -> None:
    report = json.loads(path.read_text())
    report["histogram"][5]["probability"] += 1e-6
    path.write_text(json.dumps(report))


@pytest.mark.parametrize(
    "workload, output, perturb",
    [
        (workloads.CircuitSweepN3, "csv", _perturb_csv),
        (workloads.CircuitRunN4, "report", _perturb_report),
    ],
)
def test_perturbed_probability_counts_as_failure(tmp_path, monkeypatch, workload, output, perturb):
    wl = workload(cli, tmp_path, seed=7)
    tally = run.Tally()
    run.attempt(wl, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    real_main = cli.main

    def perturbed_main(argv):
        code = real_main(argv)
        perturb(getattr(wl, output))
        return code

    monkeypatch.setattr(cli, "main", perturbed_main)
    run.attempt(wl, 1, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(tally.latencies) == 2


def test_span_self_times_sum_to_op_duration(tmp_path):
    wl = workloads.MatrixScanN6(cli, tmp_path, seed=3)
    recorder = tracing.Recorder()
    tally = run.Tally()
    restore = tracing.instrument(cli, recorder)
    try:
        run.attempt(wl, 0, tally, recorder)
    finally:
        restore()
    assert cli.sample is simulator.sample
    assert tally.failed == 0

    root = recorder.spans[0]
    assert root.parent is None and root.name == "op"
    layers = {s.name.partition(".")[0] for s in recorder.spans[1:]}
    assert {"cli", "core", "matrix_model", "simulator"} <= layers
    assert sum(tracing.self_seconds(recorder.spans)) == pytest.approx(root.seconds, abs=1e-9)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
