"""Pinned output of the small scenario: any change to a run's bytes shows here.

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


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_small_config_output_is_pinned(protocol, strict, tmp_path):
    run_simulation(small_config(), protocol, strict=strict).export_csv(str(tmp_path))
    pins = PINS[protocol]
    for name in ("energy.csv", "throughput.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == pins[name], name
    assert (tmp_path / "summary.csv").read_text().splitlines()[1] == pins["summary"]
