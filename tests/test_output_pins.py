"""Pinned output of small scenarios: any change to a run's bytes shows here.

The drained scenario gives every sensor 0.5 J and turns the sink channel on,
so nodes die mid-run and frames are dropped both at dead nodes and at the
sink; the plain scenario has none of that. The stranding scenario drains
mleach fast enough that a head dies announcing its TDMA schedule, so its
members fall back to sending straight to the sink; neither of the other two
reaches that path.

A change that alters output on purpose updates the pins and says why in
CHANGES.md.
"""

import hashlib

import pytest

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
    "energy.csv": "5d3fe7c763c8cb35928effd8e106b15df5f4cacdc4410b42c58fb599f0a5cb10",
    "throughput.csv": "8b944981b502edb7a5658eab444b3180be5f2ab8e71b8524ff4405d20b2ed229",
    "summary": "mleach,0.1798285339792644,0.20000000000000018,6.916666666666667,"
    "np.float64(0.0),176,83,16,8,69,0",
}


def assert_pinned(cfg, protocol, strict, pins, out):
    run_simulation(cfg, protocol, strict=strict).export_csv(str(out))
    for name in ("energy.csv", "throughput.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == pins[name], name
    assert (out / "summary.csv").read_text().splitlines()[1] == pins["summary"]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_small_config_output_is_pinned(protocol, strict, tmp_path):
    assert_pinned(small_config(), protocol, strict, PINS[protocol], tmp_path)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_drained_config_with_sink_channel_is_pinned(protocol, strict, tmp_path):
    cfg = small_config(initial_energy_j=0.5, bs_mac_capacity_bps=8000.0)
    assert_pinned(cfg, protocol, strict, DRAINED_PINS[protocol], tmp_path)


@pytest.mark.parametrize("strict", [False, True])
def test_stranded_members_output_is_pinned(strict, tmp_path):
    cfg = small_config(node_count=32, initial_energy_j=0.2, rng_seed=23)
    assert_pinned(cfg, "mleach", strict, STRANDING_PINS, tmp_path)
