"""Pinned output of small scenarios: any change to a run's bytes shows here.

The drained scenario gives every sensor 0.5 J and turns the sink channel on,
so nodes die mid-run and frames are dropped both at dead nodes and at the
sink; the plain scenario has none of that. The stranding scenario drains
mleach fast enough that a head dies announcing its TDMA schedule, so its
members fall back to sending straight to the sink; neither of the other two
reaches that path.

The CLI's own files are pinned too: comparison.csv for the plain and the
drained scenario, and batch_summary.csv for a three-seed batch in which
mleach loses a sensor on one seed only and DSDV on all three.

A change that alters output on purpose updates the pins and says why in
CHANGES.md.
"""

import hashlib

import pytest

from mleachsim.cli import main
from mleachsim.config import serialize_config
from mleachsim.simulation import run_simulation

from conftest import small_config

PINS = {
    "mleach": {
        "energy.csv": "b3e17347190078f1cdd9260d6737172e123bb43746d21792c3efed799c10b10d",
        "throughput.csv": "6956ed3f04d98b270ec4a889f3b19a474891af35374b3ca015e7b3dfeb361d3f",
        "summary": "mleach,0.8271624573459225,2.1988669638521454,17.166666666666668,"
        "-1.0,238,206,20,12,0,0",
    },
    "dsdv": {
        "energy.csv": "bae4ec13311ae398b14e8185353bf69d84f067411299c1f70c872ae7e72bc771",
        "throughput.csv": "80f75918ff927a78b23ca18f24126864eba3abb53d20d51afc55f3698ced18d3",
        "summary": "dsdv,2.6935670317078704,4.592226136661462,19.833333333333332,"
        "-1.0,238,238,0,0,0,0",
    },
}

DRAINED_PINS = {
    "mleach": {
        "energy.csv": "6a2a1ed3d9dabaa2a7f2ac502c789611839147e33c0722578a0e149116b4f395",
        "throughput.csv": "2ccb7cd3511835d3c8e9a7f17d435a3bf98002b885658328cf9f6479fad13839",
        "summary": "mleach,0.35653605553486495,0.5,0.5833333333333334,"
        "np.float64(0.818181),176,7,14,8,38,109",
    },
    "dsdv": {
        "energy.csv": "9b1dc1be7f24403ea8b71385f0d2c59b14495fd1897c9451aede9e794089d4ad",
        "throughput.csv": "e9eab5156d3b352cf2b3f041ce6c238cc1bc0563c1b6ac0763c3c4a9c83b3435",
        "summary": "dsdv,0.5000000000000002,0.5000000000000004,2.0833333333333335,"
        "np.float64(0.777621),58,25,0,0,12,21",
    },
}

STRANDING_PINS = {
    "energy.csv": "fb0c3baa2af3b50ea659a428e76f6b4bca44bd4b2bbfc005c04feb76c1d6f842",
    "throughput.csv": "25bf0a19c1d4cc12491e1a5899c33fe2084c0bf919a56c7b4c64f700705ff6f8",
    "summary": "mleach,0.18093409692422477,0.20000000000000018,7.0,"
    "np.float64(0.0),176,84,18,4,70,0",
}

COMPARISON_PINS = {
    "plain": "b8513c0dc1d9bad7043d22e317fd63db1ba346151a36ec2ff8f5a22a03c2e9a3",
    "drained": "4247020e649a286f6a4c20c225fdd7c18924b6357f3c643b39ed62959c64b548",
}

BATCH_PIN = "11dffffd378d4626e4147408c136d74f943526388622cf4d7717507240d356fb"


def assert_pinned(cfg, protocol, pins, out):
    run_simulation(cfg, protocol).export_csv(str(out))
    for name in ("energy.csv", "throughput.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == pins[name], name
    assert (out / "summary.csv").read_text().splitlines()[1] == pins["summary"]


@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_small_config_output_is_pinned(protocol, tmp_path):
    assert_pinned(small_config(), protocol, PINS[protocol], tmp_path)


@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_drained_config_with_sink_channel_is_pinned(protocol, tmp_path):
    cfg = small_config(initial_energy_j=0.5, bs_mac_capacity_bps=8000.0)
    assert_pinned(cfg, protocol, DRAINED_PINS[protocol], tmp_path)


def test_stranded_members_output_is_pinned(tmp_path):
    cfg = small_config(node_count=32, initial_energy_j=0.2, rng_seed=23)
    assert_pinned(cfg, "mleach", STRANDING_PINS, tmp_path)


def cli_digest(cfg, name, tmp_path, *argv):
    """sha256 of the file name that mleach-sim writes for cfg."""
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_config(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), *argv]) == 0
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "scenario, overrides",
    [("plain", {}), ("drained", dict(initial_energy_j=0.5, bs_mac_capacity_bps=8000.0))],
    ids=["plain", "drained"],
)
def test_comparison_csv_is_pinned(scenario, overrides, tmp_path):
    digest = cli_digest(small_config(**overrides), "comparison.csv", tmp_path)
    assert digest == COMPARISON_PINS[scenario]


def test_batch_summary_csv_is_pinned(tmp_path):
    # mleach loses a sensor on seed 5 only, DSDV on seeds 3, 4 and 5
    cfg = small_config(initial_energy_j=2.0, sim_duration_s=4)
    assert cli_digest(cfg, "batch_summary.csv", tmp_path, "--repeat", "3") == BATCH_PIN
