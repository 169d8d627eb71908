import importlib.util
import sys
from collections import defaultdict

import numpy as np
import pytest

from mleachsim.config import SimConfig
from mleachsim.radio import EnergyLedger
from mleachsim.simulation import World


def load_module(path, name):
    """Import the script at ``path`` as a module named ``name``, registered
    in ``sys.modules`` so that its functions pickle for a process pool."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def small_config(**overrides) -> SimConfig:
    """A fast, fully valid scenario for integration-level tests."""
    base = dict(
        field_width_m=1200.0,
        field_height_m=1200.0,
        node_count=24,
        bs_position=(600.0, 600.0),
        sim_duration_s=12,
        round_duration_s=2.0,
        initial_energy_j=500.0,
        cluster_radius_rc_m=300.0,
        radio_range_rr_m=900.0,
        traffic_rate_pps=2.0,
        rng_seed=3,
    )
    base.update(overrides)
    return SimConfig(**base)


def make_world(positions, **overrides) -> World:
    """World with hand-placed sensor positions (base station from config).

    Used by protocol unit tests that need exact geometry: the world is
    built normally, then positions are overwritten and distances marked stale.
    """
    pos = np.asarray(positions, dtype=float)
    cfg = small_config(node_count=len(pos), **overrides)
    world = World(cfg, "test")
    world.positions[: len(pos)] = pos
    world.invalidate_distances()
    return world


@pytest.fixture
def world_factory():
    return make_world


LEDGER_ARRAYS = ("energy", "consumed", "consumed_comp", "alive", "death_time_us")


def copy_ledger(ledger: EnergyLedger) -> EnergyLedger:
    """An independent ledger in the same state, arrays and running totals."""
    copy = EnergyLedger(len(ledger.energy), 0.0)
    for name in LEDGER_ARRAYS:
        getattr(copy, name)[:] = getattr(ledger, name)
    copy._total, copy._total_comp = ledger._total, ledger._total_comp
    return copy


def assert_ledgers_equal(a: EnergyLedger, b: EnergyLedger, when: str = "") -> None:
    """Every array and both running totals equal, bit for bit."""
    for name in LEDGER_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), f"{name} {when}"
    for name in ("_total", "_total_comp"):
        assert getattr(a, name).hex() == getattr(b, name).hex(), f"{name} {when}"


def charged(ledger: EnergyLedger, charges, t_us: int) -> EnergyLedger:
    """A copy of ledger after the (node, joules) charges, in order, through consume."""
    copy = copy_ledger(ledger)
    for i, j in charges:
        copy.consume(i, j, t_us)
    return copy


def consume_calls(monkeypatch, ledger: EnergyLedger) -> list[tuple[int, float, int]]:
    """Record every (node, joules, time) charge that goes through ledger.consume."""
    calls = []
    real = ledger.consume

    def consume(i, j, now_us):
        calls.append((i, j, now_us))
        return real(i, j, now_us)

    monkeypatch.setattr(ledger, "consume", consume)
    return calls


class ScriptedValues:
    """Stands in for ``OnOffTraffic.values``: hands out preset readings per node."""

    def __init__(self) -> None:
        self.by_node: dict[int, list[float]] = defaultdict(list)

    def __call__(self, i: int, n: int) -> list[float]:
        out = self.by_node[i][:n]
        assert len(out) == n, f"node {i} asked for {n} readings, {len(out)} queued"
        del self.by_node[i][:n]
        return out


def queue_readings(world: World, proto, i: int, values) -> None:
    """Queue values as mleach node i's next readings.

    Traffic hands them out, in order, when i's backlog is sent, in place of
    i's random walk.
    """
    script = world.traffic.__dict__.get("values")
    if not isinstance(script, ScriptedValues):
        script = world.traffic.values = ScriptedValues()
    script.by_node[i].extend(values)
    proto.queued[i] += len(values)


def unicast(world: World, u: int, v: int, d: float, bits: int, t_us: int) -> bool:
    """One frame of bits from u to v, d meters away, through mleach's walk.

    True iff v got it: u was alive and paid tx, and v is the sink or was
    alive and paid rx.
    """
    from mleachsim.mleach import MleachProtocol

    proto = MleachProtocol(world)
    return proto._walk(t_us, u, (None,), proto._charges([(u, v, d)], bits)) == 0
