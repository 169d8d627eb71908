import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mleachsim.config import load_config
from mleachsim.radio import EnergyLedger, RadioModel
from mleachsim.simulation import PROTOCOLS, World

from conftest import make_world, unicast

RADIO = RadioModel()


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_tx_energy_reference_values():
    assert rel_err(RADIO.tx_energy(4096, 100.0), 5.120e-3) <= 1e-12
    assert rel_err(RADIO.tx_energy(4096, 0.0), 2.048e-4) <= 1e-12
    assert RADIO.tx_energy(0, 500.0) == 0.0


def test_rx_energy_reference_values():
    assert RADIO.rx_energy(0) == 0.0
    assert rel_err(RADIO.rx_energy(4096), 2.048e-4) <= 1e-12
    assert RADIO.rx_energy(1) == 5.0e-8


@given(k=st.integers(0, 10**6), d=st.floats(0, 1e5, allow_nan=False))
def test_tx_dominates_rx(k, d):
    tx, rx = RADIO.tx_energy(k, d), RADIO.rx_energy(k)
    assert tx >= rx
    if k * d == 0:
        assert tx == rx


@given(k=st.integers(1, 10**6), d=st.floats(1e-3, 1e5))
def test_tx_linear_in_k(k, d):
    one = RADIO.tx_energy(1, d)
    assert math.isclose(RADIO.tx_energy(k, d), k * one, rel_tol=1e-9)


@given(k=st.integers(1, 10**5), d=st.floats(1.0, 1e4))
def test_tx_quadratic_in_d(k, d):
    lhs = RADIO.tx_energy(k, 2 * d) - RADIO.tx_energy(k, 0.0)
    rhs = 4.0 * (RADIO.tx_energy(k, d) - RADIO.tx_energy(k, 0.0))
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_two_short_hops_beat_one_long_hop():
    # amplifier term is quadratic in distance, so relaying at the midpoint wins
    k, d = 4096, 2000.0
    assert 2 * RADIO.tx_energy(k, d / 2) < RADIO.tx_energy(k, d)


# -- ledger ----------------------------------------------------------------


def test_consume_basic_subtraction():
    led = EnergyLedger(1, 1.0)
    assert led.consume(0, 0.3, now_us=0)
    assert math.isclose(led.energy[0], 0.7)
    assert led.alive[0]


def test_consume_shortfall_clamps_and_kills():
    led = EnergyLedger(1, 0.2)
    assert not led.consume(0, 0.3, now_us=5)
    assert led.energy[0] == 0.0
    assert not led.alive[0]
    assert led.death_time_us[0] == 5
    assert math.isclose(led.consumed[0], 0.2)


def test_consume_exact_residual_succeeds_then_dies():
    led = EnergyLedger(1, 0.25)
    assert led.consume(0, 0.25, now_us=9)
    assert led.energy[0] == 0.0
    assert not led.alive[0]


def test_consume_full_battery_example():
    led = EnergyLedger(1, 172800.0)
    led.consume(0, 0.836, now_us=0)
    assert math.isclose(led.energy[0], 172799.164)


def test_death_time_written_once():
    led = EnergyLedger(3, 1.0)
    led.consume(2, 0.25, now_us=1)
    led.charge_many(np.array([0, 1]), 1.0, now_us=1)  # exact residual: both die
    assert led.death_time_us.tolist() == [1, 1, -1]
    # charges to the dead, free or not, leave their death time alone
    assert led.consume(1, 0.0, now_us=2)
    assert not led.consume(0, 0.5, now_us=2)
    assert not led.consume(2, 1.0, now_us=3)
    assert led.death_time_us.tolist() == [1, 1, 3]
    assert not led.alive.any()


def test_charge_many_matches_consume_loop():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        init = rng.uniform(0.0, 2.0)
        amounts = rng.uniform(0.0, 0.5)
        a = EnergyLedger(n, init)
        b = EnergyLedger(n, init)
        ids = np.nonzero(rng.random(n) < 0.7)[0]
        paid = a.charge_many(ids, amounts, now_us=3)
        ok = np.array([b.consume(int(i), amounts, now_us=3) for i in ids], dtype=bool)
        assert np.array_equal(paid, ids[ok])
        assert np.array_equal(a.energy, b.energy)
        assert np.array_equal(a.consumed, b.consumed)
        assert np.array_equal(a.alive, b.alive)
        assert math.isclose(a.total_consumed(), b.total_consumed(), rel_tol=0, abs_tol=1e-12)


def test_ledger_conservation_after_a_million_charges():
    led = EnergyLedger(64, 5000.0)
    rng = np.random.default_rng(17)
    ids = np.arange(64)
    for _ in range(15000):
        led.charge_many(ids, float(rng.uniform(1e-6, 1e-3)), now_us=0)
    for _ in range(40000):
        led.consume(int(rng.integers(64)), float(rng.uniform(1e-6, 1e-3)), now_us=0)
    # 15000 * 64 + 40000 = 1,000,000 individual charges
    assert led.conservation_drift() <= 1e-9


def test_dead_nodes_keep_zero_energy_under_more_charges():
    led = EnergyLedger(2, 0.5)
    led.charge_many(np.array([0, 1]), 0.4, now_us=0)
    assert len(led.charge_many(np.array([0, 1]), 0.4, now_us=1)) == 0
    assert led.energy == [0.0, 0.0]
    assert math.isclose(led.total_consumed(), 1.0)


# -- the scalar and the batched path share one state -------------------------

BITS = 4096


def test_node_killed_by_charge_many_is_dead_to_charge_and_unicast():
    world = make_world([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
    ledger = world.ledger
    rx = world.radio.rx_energy(BITS)
    ledger.energy[1] = rx / 2
    assert ledger.charge_many(np.array([1, 2]), rx, now_us=7).tolist() == [2]
    assert ledger.energy[1] == 0.0 and not ledger.alive[1]
    consumed = ledger.consumed.copy()
    # the scalar path reads the zero that the batched path wrote
    assert not ledger.consume(1, rx, now_us=8)
    assert not unicast(world, 1, 2, world.dist_row(2).item(1), BITS, 8)
    assert not unicast(world, 0, 1, world.dist_row(1).item(0), BITS, 8)
    assert ledger.consumed[1] == consumed[1]
    assert ledger.consumed[2] == consumed[2]
    assert ledger.consumed[0] == world.radio.tx_energy(BITS, 100.0)
    assert ledger.death_time_us.tolist() == [-1, 7, -1]


def test_node_killed_by_charge_drops_out_of_the_next_broadcast():
    world = make_world([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
    ledger = world.ledger
    assert ledger.consume(2, world.cfg.initial_energy_j, now_us=4)
    assert ledger.energy[2] == 0.0 and not ledger.alive[2]
    assert world.alive_in_range(0, 250.0).tolist() == [1]
    assert world.broadcast(0, BITS, 250.0, 5).tolist() == [1]
    assert ledger.consumed[2] == world.cfg.initial_energy_j
    assert np.array_equal(ledger.alive, np.asarray(ledger.energy) > 0.0)


def primed_twins(rng, n):
    """Two ledgers with the same uneven history, charged one node at a time."""
    a, b = EnergyLedger(n, 1.0), EnergyLedger(n, 1.0)
    for _ in range(4 * n):
        i, j = int(rng.integers(n)), float(rng.uniform(0.0, 0.2))
        a.consume(i, j, now_us=0)
        b.consume(i, j, now_us=0)
    return a, b


BATCHES = {
    # name: how the batch's amount relates to the listed nodes' residuals
    "all-pay": lambda e: float(e.min()) / 2,
    "zero-amount": lambda e: 0.0,
    "one-pays-exactly": lambda e: float(e.min()),
    "mixed": lambda e: float(np.median(e)),
}


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_charge_many_matches_consume_loop_bit_for_bit(batch):
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = primed_twins(rng, int(rng.integers(2, 30)))
        ids = np.flatnonzero(a.alive)
        amount = BATCHES[batch](np.asarray(a.energy)[ids])
        paid = a.charge_many(ids, amount, now_us=11)
        ok = np.array([b.consume(int(i), amount, now_us=11) for i in ids], dtype=bool)
        assert np.array_equal(paid, ids[ok])
        for name in ("energy", "consumed", "consumed_comp", "alive", "death_time_us"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert math.isclose(a.total_consumed(), b.total_consumed(), rel_tol=0, abs_tol=1e-12)
        if batch == "all-pay":
            assert paid is ids  # nobody fell short: the input itself, not a copy
        if batch == "one-pays-exactly":
            assert ok.all() and not a.alive[ids].all()
        if batch == "mixed":
            assert ok.any() and not ok.all()


# -- the ledger's lists hold Python floats ------------------------------------


def assert_python_floats(ledger):
    """Every entry of the three per-node lists is a Python float.

    A numpy scalar stored there equals the float it stands for, bit for
    bit, so no byte comparison sees it; it only makes every later charge of
    its node about three times as slow.
    """
    for name in ("energy", "consumed", "consumed_comp"):
        values = getattr(ledger, name)
        assert type(values) is list, name
        assert [type(x) for x in values if type(x) is not float] == [], name


@pytest.mark.parametrize(
    "protocol, overrides",
    [
        ("mleach", {"sim_duration_s": 4}),
        ("dsdv", {"sim_duration_s": 4}),
        ("dsdv", {"sim_duration_s": 6, "initial_energy_j": 150.0}),
    ],
    ids=["mleach", "dsdv", "dsdv-drained-strict"],
)
def test_ledger_lists_hold_python_floats_after_a_table1_run(protocol, overrides):
    path = resources.files("mleachsim").joinpath("data/table1.cfg")
    cfg = dataclasses.replace(load_config(str(path)), **overrides)
    world = World(cfg, protocol)
    world.run(PROTOCOLS[protocol](world))
    ledger = world.ledger
    assert ledger.total_consumed() > 0.0
    if "initial_energy_j" in overrides:
        assert ledger.deaths > 0
    assert_python_floats(ledger)


def test_ledger_lists_hold_python_floats_after_partial_and_exact_payers():
    ledger = EnergyLedger(4, 1)
    ledger.energy[1] = 0.25  # pays exactly, then dies
    ledger.energy[2] = 0.125  # pays its residual and fails
    assert ledger.charge_many(np.arange(4), 0.25, now_us=1).tolist() == [0, 1, 3]
    assert ledger.death_time_us.tolist() == [-1, 1, 1, -1]
    assert_python_floats(ledger)
