"""The scripts under tools/ on small configs."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mleachsim import simulation
from mleachsim.config import SimConfig
from mleachsim.dsdv import DsdvProtocol
from mleachsim.mleach import MleachProtocol

from conftest import load_module, small_config

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("cls", [MleachProtocol, DsdvProtocol])
def test_energy_breakdown_accounts_for_every_joule(cls):
    tool = load_module(TOOLS / "energy_breakdown.py", "energy_breakdown")
    # the sink channel on, so that DSDV pays for frames the sink rejects
    cfg = small_config(bs_mac_capacity_bps=5000.0, sim_duration_s=6)
    log, world, spent, rejected, _ = tool.breakdown(cfg, cls)
    total = world.ledger.total_consumed()
    assert set(spent) == {"control", "data"}
    assert spent["data"].sum() > 0.0
    assert abs(math.fsum(math.fsum(v) for v in spent.values()) - total) <= 1e-9
    if cls is DsdvProtocol:
        assert log.dropped_congested > 0
        assert 0.0 < rejected.sum() < spent["data"].sum()


def test_energy_breakdown_splits_every_unreachable_drop(capsys):
    tool = load_module(TOOLS / "energy_breakdown.py", "energy_breakdown")
    # a wide field with the sink in a corner: orphans out of range, heads
    # with no route to it, and readings still queued when the run ends
    cfg = small_config(
        sim_duration_s=6,
        field_width_m=3000.0,
        field_height_m=3000.0,
        bs_position=(0.0, 0.0),
        node_count=40,
    )
    result = tool.breakdown(cfg, MleachProtocol)
    log, unreachable = result[0], result[4]
    assert list(unreachable) == [
        "heads with no route",
        "orphans out of sink range",
        "still queued at the end",
    ]
    assert all(v > 0 for v in unreachable.values())
    assert sum(unreachable.values()) == log.dropped_unreachable
    tool.report("mleach", *result)
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "   unreachable at: " + ", ".join(f"{k} {v}" for k, v in unreachable.items())


def test_digest_sweep_smoke(tmp_path, capsys):
    tool = load_module(TOOLS / "digest_sweep.py", "digest_sweep")
    out = tmp_path / "digests.json"
    assert tool.main(["--n", "2", "--out", str(out)]) == 0
    digests = json.loads(out.read_text())
    runs = [f"{k}:{p}:{m}" for k in range(2) for p in ("dsdv", "mleach") for m in ("plain", "strict")]
    assert sorted(digests) == sorted(runs + [f"{k}:comparison:plain" for k in range(2)])
    # the tool keeps its own copy of the names, as compare mode imports no
    # simulator; a protocol added to the registry must still be swept
    assert tool.PROTOCOLS == tuple(simulation.PROTOCOLS)
    # strict mode checks a run without changing it
    assert digests["0:dsdv:plain"] == digests["0:dsdv:strict"]
    assert tool.main(["--compare", str(out), str(out)]) == 0
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(dict(digests, **{"1:mleach:plain": "0" * 64})))
    capsys.readouterr()
    assert tool.main(["--compare", str(out), str(other)]) == 1
    report = capsys.readouterr().out
    assert "changed 1:mleach:plain" in report
    assert "1 of 10 digests changed, 0 unmatched" in report


def test_digest_sweep_compares_without_the_simulator(tmp_path):
    # compare mode only reads JSON, so it must run with no src/ on the path
    digests = {f"0:{p}:{m}": p + m for p in ("dsdv", "mleach") for m in ("plain", "strict")}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(digests))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def compare(other):
        b.write_text(json.dumps(other))
        cmd = [sys.executable, str(TOOLS / "digest_sweep.py"), "--compare", str(a), str(b)]
        return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)

    same = compare(digests)
    assert same.returncode == 0, same.stderr
    changed = compare(dict(digests, **{"0:dsdv:strict": "x"}))
    assert changed.returncode == 1, changed.stderr
    assert "changed 0:dsdv:strict" in changed.stdout


def test_digest_sweep_writes_the_same_bytes_for_any_jobs():
    tool = load_module(TOOLS / "digest_sweep.py", "digest_sweep")
    one = json.dumps(tool.sweep(3, 0, 1), sort_keys=True)
    assert len(json.loads(one)) == 15
    assert json.dumps(tool.sweep(3, 0, 2), sort_keys=True) == one


def test_digest_sweep_draws_every_config_field():
    tool = load_module(TOOLS / "digest_sweep.py", "digest_sweep")
    draws = [tool.draw_config(np.random.default_rng([0, k])) for k in range(50)]
    for field in fields(SimConfig):
        assert len({getattr(cfg, field.name) for cfg in draws}) > 1, field.name
