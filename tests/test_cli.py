import csv
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mleachsim
from mleachsim.cli import main
from mleachsim.config import load_config, serialize_config
from mleachsim.simulation import run_simulation

from conftest import small_config


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_config(small_config()))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_missing_config_exits_2(capsys):
    assert main(["--config", "/nowhere/x.cfg"]) == 2
    assert "config not found" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "latin.cfg"
    undecodable.write_bytes(b"\xff")
    for path in (tmp_path, undecodable):
        assert main(["--config", str(path)]) == 2
        assert f"cannot read config {path}: " in capsys.readouterr().err


def test_invalid_config_names_key_and_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("node_count = 24\nwarp_speed = 9\n")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "warp_speed" in err
    assert "line 2" in err


def test_unrunnable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("node_count = -3\n")
    assert main(["--config", str(path)]) == 2
    assert "node_count" in capsys.readouterr().err


def test_repeat_below_one_exits_2(config_file, capsys):
    assert main(["--config", config_file, "--repeat", "0"]) == 2
    assert "--repeat" in capsys.readouterr().err


def test_single_protocol_writes_one_tree(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--config", config_file, "--protocol", "mleach", "--out", str(out)]) == 0
    for name in ("energy.csv", "throughput.csv", "summary.csv"):
        assert (out / "mleach" / name).is_file()
    assert not (out / "dsdv").exists()
    assert not (out / "comparison.csv").exists()
    printed = capsys.readouterr().out
    assert "mleach" in printed
    assert "ratios" not in printed


def test_both_protocols_write_comparison(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--config", config_file, "--out", str(out)]) == 0
    rows = read_rows(out / "comparison.csv")
    assert rows[0] == ["metric", "value"]
    table = {name: value for name, value in rows[1:]}
    assert set(table) == {
        "mleach_steady_pps",
        "dsdv_steady_pps",
        "throughput_ratio",
        "mleach_avg_energy_j",
        "dsdv_avg_energy_j",
        "avg_energy_ratio",
        "mleach_max_energy_j",
        "dsdv_max_energy_j",
        "max_energy_ratio",
        "mleach_first_death_s",
        "dsdv_first_death_s",
    }
    # the ratio column is recomputable from the sides it divides
    ratio = float(table["mleach_steady_pps"]) / float(table["dsdv_steady_pps"])
    assert math.isclose(float(table["throughput_ratio"]), ratio, rel_tol=1e-12)
    # and each side matches the per-protocol summary the run exported
    summary = read_rows(out / "mleach" / "summary.csv")
    col = summary[0].index("steady_throughput_pps")
    assert float(summary[1][col]) == float(table["mleach_steady_pps"])
    printed = capsys.readouterr().out
    assert "ratios mleach/dsdv" in printed
    assert "first death" in printed


def test_seed_override_changes_results(config_file, tmp_path):
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    for out, seed in ((out_a, "7"), (out_b, "7"), (out_c, "8")):
        code = main(
            ["--config", config_file, "--protocol", "mleach",
             "--out", str(out), "--seed", seed]
        )
        assert code == 0
    same = (out_a / "mleach" / "energy.csv").read_bytes()
    again = (out_b / "mleach" / "energy.csv").read_bytes()
    other = (out_c / "mleach" / "energy.csv").read_bytes()
    assert same == again
    assert same != other


def test_repeat_builds_seed_directories_and_batch_summary(config_file, tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["--config", config_file, "--out", str(out), "--seed", "40",
                 "--repeat", "2"]) == 0
    assert (out / "seed-40" / "comparison.csv").is_file()
    assert (out / "seed-41" / "mleach" / "summary.csv").is_file()
    rows = read_rows(out / "batch_summary.csv")
    assert rows[0] == ["protocol", "metric", "mean", "stddev"]
    assert len(rows) == 1 + 2 * 10  # two protocols, ten numeric summary columns
    protos = {r[0] for r in rows[1:]}
    assert protos == {"mleach", "dsdv"}
    printed = capsys.readouterr().out
    assert "== seed 40" in printed
    assert "== seed 41" in printed
    assert "batch_summary.csv" in printed


def test_repeat_with_deaths_averages_first_death(tmp_path):
    # a budget that runs out: first_death_s is a numpy scalar in every run
    cfg = small_config(initial_energy_j=0.5, sim_duration_s=4)
    path = tmp_path / "drain.cfg"
    path.write_text(serialize_config(cfg))
    out = tmp_path / "batch"
    assert main(["--config", str(path), "--out", str(out), "--repeat", "2"]) == 0
    rows = read_rows(out / "batch_summary.csv")
    means = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    for proto in ("mleach", "dsdv"):
        deaths = [
            run_simulation(replace(cfg, rng_seed=cfg.rng_seed + k), proto).first_death_s
            for k in range(2)
        ]
        assert min(deaths) > 0.0
        assert means[(proto, "first_death_s")] == statistics.fmean(deaths)


def test_repeat_averages_first_death_over_the_seeds_with_one(tmp_path):
    # seeds 3 and 4 lose no sensor in 4 s on 2 J, seed 5 does
    cfg = small_config(initial_energy_j=2.0, sim_duration_s=4)
    deaths = [
        run_simulation(replace(cfg, rng_seed=seed), "mleach").first_death_s for seed in (3, 4, 5)
    ]
    assert deaths[:2] == [-1.0, -1.0] and deaths[2] > 0.0
    path = tmp_path / "mixed.cfg"
    path.write_text(serialize_config(cfg))
    for repeat, mean in (("3", deaths[2]), ("2", -1.0)):
        out = tmp_path / f"batch-{repeat}"
        argv = ["--config", str(path), "--out", str(out), "--repeat", repeat]
        assert main([*argv, "--protocol", "mleach"]) == 0
        rows = read_rows(out / "batch_summary.csv")
        assert ["mleach", "first_death_s", repr(float(mean)), "0.0"] in rows


def test_a_late_seed_that_fails_validation_exits_2(config_file, tmp_path, capsys):
    last = 2**64 - 1  # the second seed, 2**64, does not fit in 64 bits
    out = tmp_path / "late"
    argv = ["--config", config_file, "--out", str(out), "--seed", str(last), "--repeat", "2"]
    assert main(argv) == 2
    assert "rng_seed" in capsys.readouterr().err
    # refused before the first run: nothing is written, not even the first seed
    assert not out.exists()


def test_out_default_comes_from_environment(config_file, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("MLEACH_SIM_OUT", str(target))
    assert main(["--config", config_file, "--protocol", "dsdv"]) == 0
    assert (target / "dsdv" / "summary.csv").is_file()


def test_unwritable_output_exits_1(config_file, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(
        ["--config", config_file, "--protocol", "mleach", "--out", str(blocker)]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_a_fresh_interpreter_writes_the_same_bytes(config_file, tmp_path):
    # state shared across runs in one interpreter cannot hide a difference
    out = tmp_path / "cli"
    src = str(Path(mleachsim.__file__).resolve().parent.parent)
    subprocess.run(
        [sys.executable, "-m", "mleachsim.cli", "--config", config_file, "--out", str(out)],
        check=True,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    cfg = load_config(config_file)
    for proto in ("mleach", "dsdv"):
        run_simulation(cfg, proto).export_csv(str(tmp_path / "here" / proto))
        for name in ("energy.csv", "throughput.csv", "summary.csv"):
            here = (tmp_path / "here" / proto / name).read_bytes()
            assert (out / proto / name).read_bytes() == here, f"{proto}/{name}"
