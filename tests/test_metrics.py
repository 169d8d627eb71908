import numpy as np
import pytest

from mleachsim.dsdv import DsdvProtocol
from mleachsim.metrics import SUMMARY_FIELDS, MetricsLog
from mleachsim.simulation import World

from conftest import small_config
from energy_fit import energy_fit_r2


def filled_log():
    log = MetricsLog("mleach", 10, 4)
    for t in range(11):
        log.record_energy(t, 3.0 * t, 1.5 * t)
    for t, count in enumerate([0, 0, 5, 7, 6, 6, 8, 5, 7, 6]):
        for k in range(count):
            log.record_bs_rx(t + k / 100.0)
    log.generated = 60
    log.dropped_filtered = 5
    log.dropped_unreachable = 3
    log.dropped_dead = 2
    return log


def test_deliveries_land_in_whole_second_buckets():
    log = MetricsLog("x", 5, 1)
    log.record_bs_rx(3.7)
    log.record_bs_rx(3.2)
    log.record_bs_rx(0.0)
    assert log.bs_buckets.tolist() == [1, 0, 0, 2, 0]
    assert log.delivered == 3


def test_delivery_outside_run_rejected():
    log = MetricsLog("x", 5, 1)
    with pytest.raises(ValueError):
        log.record_bs_rx(5.0)
    with pytest.raises(ValueError):
        log.record_bs_rx(-0.1)


def test_steady_state_mean_over_window():
    log = filled_log()
    assert log.steady_state_throughput(2) == np.mean([5, 7, 6, 6, 8, 5, 7, 6])
    assert log.steady_state_throughput(0) == 5.0
    with pytest.raises(ValueError):
        log.steady_state_throughput(10)


def test_default_warmup_rule():
    assert MetricsLog("x", 120, 1).default_warmup_s() == 20
    assert MetricsLog("x", 21, 1).default_warmup_s() == 20
    assert MetricsLog("x", 20, 1).default_warmup_s() == 0
    assert MetricsLog("x", 5, 1).default_warmup_s() == 0


def test_r2_is_one_for_a_perfect_line():
    log = MetricsLog("x", 10, 1)
    for t in range(11):
        log.record_energy(t, 2.0 + 0.5 * t, 0.0)
    assert energy_fit_r2(log, 0, 10) == pytest.approx(1.0, abs=1e-12)


def test_r2_of_constant_series_is_one():
    log = MetricsLog("x", 10, 1)
    for t in range(11):
        log.record_energy(t, 5.0, 0.0)
    assert energy_fit_r2(log, 0, 10) == 1.0


def test_r2_penalizes_curvature():
    log = MetricsLog("x", 10, 1)
    for t in range(11):
        log.record_energy(t, float(t * t), 0.0)
    r2 = energy_fit_r2(log, 0, 10)
    assert 0.0 < r2 < 1.0


def test_r2_needs_three_samples():
    log = MetricsLog("x", 10, 1)
    log.record_energy(0, 1.0, 0.0)
    log.record_energy(1, 2.0, 0.0)
    with pytest.raises(ValueError):
        energy_fit_r2(log, 0, 10)


def test_r2_window_bounds_are_inclusive():
    log = MetricsLog("x", 10, 1)
    for t in range(11):
        log.record_energy(t, 1.0 * t if t < 9 else 100.0, 0.0)
    tight = energy_fit_r2(log, 0, 8)
    assert tight == pytest.approx(1.0, abs=1e-12)
    assert energy_fit_r2(log, 0, 9) < tight


def test_conservation_residual_arithmetic():
    log = filled_log()
    assert log.delivered == 50
    assert log.conservation_residual() == 60 - (50 + 5 + 3 + 2)
    log.dropped_congested = 1
    assert log.conservation_residual() == -1


def test_first_death_keeps_the_earliest():
    assert MetricsLog("x", 10, 1).first_death_s == -1.0
    cfg = small_config(initial_energy_j=0.5, bs_mac_capacity_bps=8000.0)
    world = World(cfg, "dsdv")
    world.run(DsdvProtocol(world))
    died = world.ledger.death_time_us[~world.ledger.alive]
    assert len(set(died.tolist())) > 1
    assert world.log.first_death_s == died.min() / 1e6


def test_avg_and_max_from_final_sample():
    log = filled_log()
    assert log.avg_consumed() == 30.0 / 4
    assert log.max_consumed() == 15.0
    empty = MetricsLog("x", 3, 2)
    assert empty.avg_consumed() == 0.0
    assert empty.max_consumed() == 0.0


def test_summary_row_matches_header(tmp_path):
    filled_log().export_csv(str(tmp_path))
    row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert len(row) == len(SUMMARY_FIELDS)
    assert row[0] == "mleach"
    assert int(row[SUMMARY_FIELDS.index("generated")]) == 60


def test_export_writes_three_deterministic_files(tmp_path):
    log = filled_log()
    a, b = tmp_path / "a", tmp_path / "b"
    log.export_csv(str(a))
    log.export_csv(str(b))
    for name in ("energy.csv", "throughput.csv", "summary.csv"):
        blob_a = (a / name).read_bytes()
        blob_b = (b / name).read_bytes()
        assert blob_a == blob_b
        assert b"\r" not in blob_a
        assert blob_a.endswith(b"\n")
    energy = (a / "energy.csv").read_text().splitlines()
    assert energy[0] == "t_s,total_j,max_node_j"
    assert len(energy) == 12
    throughput = (a / "throughput.csv").read_text().splitlines()
    assert throughput[0] == "t_s,packets"
    assert throughput[3] == "2,5"
    summary = (a / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_FIELDS)


def test_exported_floats_round_trip_exactly(tmp_path):
    log = MetricsLog("x", 2, 1)
    log.record_energy(0, 0.1 + 0.2, 1.0 / 3.0)
    log.record_energy(1, 1e-17, 2.0**-1074)
    log.export_csv(str(tmp_path))
    rows = (tmp_path / "energy.csv").read_text().splitlines()[1:]
    got = [tuple(float(x) for x in row.split(",")[1:]) for row in rows]
    assert got[0] == (0.1 + 0.2, 1.0 / 3.0)
    assert got[1] == (1e-17, 2.0**-1074)
