"""The scripts under tools/ on small configs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from mleachsim.config import validate_config
from mleachsim.dsdv import DsdvProtocol
from mleachsim.mleach import MleachProtocol

from conftest import small_config

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cls", [MleachProtocol, DsdvProtocol])
def test_energy_breakdown_accounts_for_every_joule(cls):
    tool = load_tool("energy_breakdown")
    # the sink channel on, so that DSDV pays for frames the sink rejects
    cfg = validate_config(small_config(bs_mac_capacity_bps=5000.0, sim_duration_s=6))
    log, world, spent, rejected, _ = tool.breakdown(cfg, cls)
    total = world.ledger.total_consumed()
    assert set(spent) == {"control", "data"}
    assert spent["data"].sum() > 0.0
    assert abs(math.fsum(math.fsum(v) for v in spent.values()) - total) <= 1e-9
    if cls is DsdvProtocol:
        assert log.dropped_congested > 0
        assert 0.0 < rejected.sum() < spent["data"].sum()


def test_digest_sweep_smoke(tmp_path, capsys):
    tool = load_tool("digest_sweep")
    out = tmp_path / "digests.json"
    assert tool.main(["--n", "2", "--out", str(out)]) == 0
    digests = json.loads(out.read_text())
    assert sorted(digests) == [
        f"{k}:{p}:{m}" for k in range(2) for p in ("dsdv", "mleach") for m in ("plain", "strict")
    ]
    # strict mode checks a run without changing it
    assert digests["0:dsdv:plain"] == digests["0:dsdv:strict"]
    assert tool.main(["--compare", str(out), str(out)]) == 0
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(dict(digests, **{"1:mleach:plain": "0" * 64})))
    capsys.readouterr()
    assert tool.main(["--compare", str(out), str(other)]) == 1
    report = capsys.readouterr().out
    assert "changed 1:mleach:plain" in report
    assert "1 of 8 digests changed, 0 unmatched" in report
