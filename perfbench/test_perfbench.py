"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
from oamcnot import wavefield  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ratio", "flop", "B")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    """One short run: a second of timing, then the first ``prefix`` ops."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {name: [bench(name, 1)[1] for _ in range(2)] for name in workloads.WORKLOADS}


def test_benchmark_json_workloads_are_runnable_with_their_why():
    for entry in SPEC["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_untraced_run_prints_every_end_to_end_metric(name):
    proc, result = bench(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= workloads.WORKLOADS[name].prefix
    assert result["correct"] == (result["failed"] == 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for metric, unit in wanted.items():
        value = result["metrics"][metric]["value"]
        assert math.isfinite(value) and value > 0
        assert f"\n{metric}=" in proc.stdout and proc.stdout.split(f"\n{metric}=")[1].split("\n")[0].endswith(f" {unit}")
    assert "\nfailed_ratio=" in proc.stdout and "\nop_tail_percentile=p" in proc.stdout
    failed_ratio = float(proc.stdout.split("\nfailed_ratio=")[1].split()[0])
    if name in {w["name"] for w in SPEC["workloads"]}:
        # A workload the benchmark gates holds no op that fails.
        assert result["correct"] and result["failed"] == 0 and failed_ratio == 0


def test_traced_run_prints_every_per_layer_metric(traced_runs):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (result, _) in traced_runs.items():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted, name
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_same_seed_repeats_outputs_and_counts(traced_runs):
    for name, (first, second) in traced_runs.items():
        counts = {
            k: v["value"] for k, v in first["metrics"].items()
            if v["unit"] in COUNT_UNITS and k != "trace_overhead_ratio"
        }
        again = {k: second["metrics"][k]["value"] for k in counts}
        assert counts == again, name


def test_same_seed_repeats_output_sha256_and_failed_ratio():
    runs = []
    for _ in range(2):
        proc, _ = bench("simulate_mix", 0)
        runs.append([
            line for line in proc.stdout.splitlines()
            if line.startswith(("output_sha256=", "failed_ratio="))
        ])
    assert runs[0] == runs[1] and len(runs[0]) == 2


def test_charge_sweep_prefix_holds_every_charge_equally_often(tmp_path):
    sweep = workloads.ChargeSweep(3, str(tmp_path))
    drawn = sorted(ell for ell, _ in sweep.draws[: sweep.prefix])
    assert drawn == sorted(list(sweep.charges) * (sweep.prefix // len(sweep.charges)))
    degrees = [math.degrees(aperture.orientation) for _, aperture in sweep.draws]
    assert min(abs(d % 30.0 - 15.0) for d in degrees) >= sweep.degenerate_deg


def test_traced_profile_matches_the_known_hot_spots(traced_runs):
    def self_ms(name):
        return {
            k: v["value"] for k, v in traced_runs[name][0]["metrics"].items()
            if k.endswith(".self_ms_per_op")
        }

    truth = self_ms("truth_table")
    assert max(truth, key=truth.get) == "wavefield.lg_mode.self_ms_per_op"
    logical = self_ms("logical_circuits")
    assert max(logical, key=logical.get) == "interferometer.compose_mzi.self_ms_per_op"
    assert traced_runs["truth_table"][0]["metrics"]["circuit.synthesize_field.useful_mode_ratio"]["value"] == 0.5
    assert traced_runs["charge_sweep"][0]["metrics"]["wavefield.aperture_mask.repeat_ratio"]["value"] == 0.0


def test_checkers_count_a_wrong_expected_answer_as_failure(tmp_path):
    sweep = workloads.ChargeSweep(1, str(tmp_path))
    sweep.draws = [(2, wavefield.ApertureSpec(wavefield.TRIANGLE, 2e-3, 0.0))]
    readout = sweep.run(0)
    assert sweep.check(0, readout)[1]
    sweep.draws = [(-2, sweep.draws[0][1])]
    assert not sweep.check(0, readout)[1]

    spec = reference.CircuitSpec("V", 3, (("MZI", None),), "V", 0.0, True)
    flipped = reference.CircuitSpec("V", -3, (("MZI", None),), "V", 0.0, True)
    mix = workloads.SimulateMix(1, str(tmp_path))
    mix.specs = [spec] * mix.files
    (tmp_path / "c.circ").write_text(spec.text())
    mix.paths = [str(tmp_path / "c.circ")] * mix.files
    report = mix.run(0)
    assert mix.check(0, report)[1]
    mix.specs = [flipped] * mix.files
    assert not mix.check(0, report)[1]

    logical = workloads.LogicalCircuits(1, str(tmp_path))
    result = logical.run(0)
    assert logical.check(0, result)[1]
    original = logical.specs[0]
    logical.specs[0] = reference.CircuitSpec(
        original.pol, -original.ell, original.gates, original.polarizer,
        original.orientation_deg, original.detect,
    )
    assert not logical.check(0, result)[1]

    table = workloads.TruthTable(0, str(tmp_path))
    report = table.run(0)
    assert table.check(0, report)[1]
    table.modes = table.modes[::-1]
    assert not table.check(0, report)[1]


def test_an_op_that_raises_counts_as_failed(tmp_path):
    sweep = workloads.ChargeSweep(1, str(tmp_path))
    assert sweep.check(0, ValueError("boom")) == (b"ValueError: boom", False)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "truth_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
