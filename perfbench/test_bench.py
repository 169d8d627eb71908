"""The benchmark's own tests, on tiny scenarios.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench

TINY = {
    "field_width_m": 1200.0,
    "field_height_m": 1200.0,
    "node_count": 24,
    "sim_duration_s": 12,
    "cluster_radius_rc_m": 300.0,
    "radio_range_rr_m": 900.0,
    "traffic_rate_pps": 2.0,
    "rng_seed": 3,
}
TINY_WORKLOADS = {
    "dsdv": bench.Workload("dsdv", overrides=dict(TINY, initial_energy_j=500.0)),
    "mleach": bench.Workload("mleach", overrides=dict(TINY, initial_energy_j=500.0)),
    "drain": bench.Workload("dsdv", strict=True, overrides=dict(TINY, initial_energy_j=0.5)),
}
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def simulate(name, mode):
    workload = TINY_WORKLOADS[name]
    result = bench.simulate(workload, workload.overrides, mode)
    assert result is not None
    return result


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_emitted(workload, trace, capsys):
    code = bench.main(
        ["--workload", workload, "--horizon", "2", "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_tracing_does_not_change_the_simulation(name):
    plain = simulate(name, "plain")
    assert simulate(name, "trace")["digest"] == plain["digest"]
    assert simulate(name, "count")["digest"] == plain["digest"]


def test_drain_exercises_deaths_and_strict_checks():
    counts = simulate("drain", "count")["counts"]
    assert counts["deaths"] > 0
    assert counts["consume_failed"] > 0
    assert simulate("drain", "trace")["spans"]["calls"]["simulation.check_routes"] > 0


@pytest.mark.parametrize("name", ["dsdv", "mleach"])
def test_span_self_times_fit_in_wall_time(name):
    result = simulate(name, "trace")
    self_s = result["spans"]["self_s"]
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) <= result["setup_s"] + result["run_s"]


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_counts_repeat_exactly(name):
    assert simulate(name, "count")["counts"] == simulate(name, "count")["counts"]
    assert simulate(name, "trace")["spans"]["calls"] == simulate(name, "trace")["spans"]["calls"]


def test_output_is_checked_against_the_pin():
    workload = TINY_WORKLOADS["dsdv"]
    results, attempted, failed = bench.measure(workload, workload.overrides, 0, False, None)
    assert attempted == 1 and failed == 0
    pin = results[0]["digest"]
    assert bench.measure(workload, workload.overrides, 0, False, pin)[2] == 0
    wrong = dict(pin, summary=dict(pin["summary"], delivered="-1"))
    results, attempted, failed = bench.measure(workload, workload.overrides, 0, False, wrong)
    assert results == [] and attempted == 1 and failed == 1


def test_untraced_times_are_scaled_by_the_reference_loop():
    workload = TINY_WORKLOADS["mleach"]
    (result,), _, _ = bench.measure(workload, workload.overrides, 0, False, None)
    assert result["scaled"]["setup_s"] > 0.0 and result["scaled"]["run_s"] > 0.0
    chunks = [[0.0, 1.0, 0.02], [1.0, 2.0, 0.04]]
    assert bench.chunk_cpu_s(chunks, 0.5, 2.0) == pytest.approx((0.5 * 0.02 + 0.04) / 1.5)
    with pytest.raises(RuntimeError):
        bench.chunk_cpu_s(chunks, 3.0, 4.0)


def test_summary_is_compared_by_column_name():
    good = simulate("mleach", "plain")["digest"]
    extended = dict(good, summary=dict(good["summary"], new_column="1"))
    assert bench.matches(extended, good)
    assert not bench.matches(good, extended)


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "flood-mleach", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_record_flags_a_change_of_kernel_implementation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    record = {"implementation": "python", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    bench.write_record("flood-dsdv", record)
    bench.write_record("flood-dsdv", record)
    assert "FLAG" not in capsys.readouterr().out
    bench.write_record("flood-dsdv", dict(record, implementation="compiled"))
    assert "FLAG: implementation changed" in capsys.readouterr().out
