"""The numpy kernels against scalar loops that spell out each formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mleachsim.kernels import (
    LIVE,
    NO_ROUTE,
    ROUTE_BITS,
    charge_uniform,
    distance_row,
    dsdv_merge,
    pairwise_distances,
    route_key,
)
from mleachsim.radio import EnergyLedger

# -- scalar references: one element at a time, in id order ---------------------


def scalar_pairwise(pos):
    m = len(pos)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            dx = pos[i, 0] - pos[j, 0]
            dy = pos[i, 1] - pos[j, 1]
            out[i, j] = math.sqrt(dx * dx + dy * dy)
    return out


def scalar_charge(energy, consumed, comp, ids, amount):
    paid = []
    died = []
    burned = []
    for i in ids:
        if energy[i] >= amount:
            energy[i] = energy[i] - amount
            x = amount
            paid.append(i)
        else:
            x = energy[i]
            burned.append(x)
            energy[i] = 0.0
        # Neumaier-compensated subtotal: true value is consumed[i] + comp[i]
        s = consumed[i]
        t = s + x
        if s >= x:
            comp[i] = comp[i] + ((s - t) + x)
        else:
            comp[i] = comp[i] + ((x - t) + s)
        consumed[i] = t
        if energy[i] == 0.0:
            died.append(i)
    return (
        np.asarray(paid, dtype=np.int64),
        np.asarray(died, dtype=np.int64),
        np.asarray(burned, dtype=float),
    )


def scalar_merge(seq, metric, next_hop, receivers, sender, adv_seq, adv_metric):
    """The adoption rule on (seq, metric) pairs, one receiver at a time."""
    cand = adv_metric + 1
    for r in receivers:
        if adv_seq > seq[r] or (adv_seq == seq[r] and cand < metric[r]):
            metric[r] = cand
            seq[r] = adv_seq
            next_hop[r] = sender


# -- pairwise_distances ----------------------------------------------------------


def test_pairwise_matches_scalar_formula():
    rng = np.random.default_rng(4)
    pos = rng.uniform(0.0, 100.0, size=(9, 2))
    d = pairwise_distances(pos)
    for i in range(9):
        for j in range(9):
            dx = pos[i, 0] - pos[j, 0]
            dy = pos[i, 1] - pos[j, 1]
            assert d[i, j] == math.sqrt(dx * dx + dy * dy)
    assert (np.diag(d) == 0.0).all()
    assert np.array_equal(d, d.T)


def test_pairwise_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(23)
    # sizes on both sides of the block boundaries, too
    for n in (1, 2, 7, 63, 64, 65, 200, 513):
        pos = rng.uniform(0.0, 7500.0, size=(n, 2))
        d = pairwise_distances(pos)
        assert d.shape == (n, n)
        assert np.array_equal(d, scalar_pairwise(pos))


def test_in_place_fill_matches_a_fresh_matrix():
    rng = np.random.default_rng(29)
    pos = rng.uniform(0.0, 7500.0, size=(65, 2))
    out = np.full((65, 65), np.nan)
    assert pairwise_distances(pos, out) is out
    assert np.array_equal(out, scalar_pairwise(pos))


def test_distance_row_is_the_matrix_row_and_column_bit_for_bit():
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 64, 200):
        pos = rng.uniform(0.0, 7500.0, size=(n, 2))
        d = scalar_pairwise(pos)
        row = np.empty(n)
        for i in range(n):
            distance_row(pos, i, row)
            assert np.array_equal(row, d[i])
            assert np.array_equal(row, d[:, i])


# -- charge_uniform --------------------------------------------------------------


def charge_state(rng, n):
    energy = rng.uniform(0.0, 1.0, n)
    energy[rng.random(n) < 0.2] *= 1e-3  # force some shortfalls
    consumed = rng.uniform(0.0, 50.0, n)
    consumed[rng.random(n) < 0.3] *= 1e-6  # subtotals below the charge
    comp = rng.uniform(-1e-12, 1e-12, n)
    return energy, consumed, comp


def test_charge_uniform_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        energy, consumed, comp = charge_state(rng, n)
        ids = np.nonzero(rng.random(n) < 0.8)[0]
        amount = float(rng.uniform(0.0, 0.01))
        state_a = (energy.tolist(), consumed.tolist(), comp.tolist())
        state_b = (energy.copy(), consumed.copy(), comp.copy())
        paid_a, died_a, burned_a = charge_uniform(*state_a, ids, amount)
        paid_b, died_b, burned_b = scalar_charge(*state_b, ids, amount)
        assert np.array_equal(paid_a, paid_b)
        assert np.array_equal(np.asarray(died_a), died_b)
        assert np.asarray(burned_a, dtype=float).tobytes() == burned_b.tobytes()
        for x, y in zip(state_a, state_b):
            assert np.asarray(x).tobytes() == y.tobytes()


@pytest.mark.parametrize("short", [False, True], ids=["all-pay", "some-short"])
@pytest.mark.parametrize("fresh", [False, True], ids=["spent", "fresh"])
def test_charge_uniform_matches_scalar_consume_on_each_branch(short, fresh):
    # fresh: some subtotals below the charge, as at a run's start, so the
    # compensation's (x - t) + s form is taken; spent: none is
    rng = np.random.default_rng(17 + 2 * short + fresh)
    n, amount = 40, 0.01
    energy = rng.uniform(0.02, 1.0, n)
    if short:
        energy[[3, 17]] = [0.004, amount]  # one partial payer, one exact payer
    consumed = rng.uniform(0.02, 50.0, n)
    if fresh:
        consumed[::5] = 0.0
        consumed[1::5] *= 1e-7
    comp = rng.uniform(-1e-12, 1e-12, n)
    ids = np.flatnonzero(rng.random(n) < 0.9)
    ids = np.union1d(ids, [1, 3, 5, 17])
    ledger = EnergyLedger(n, 1.0)
    for name, values in (("energy", energy), ("consumed", consumed), ("consumed_comp", comp)):
        getattr(ledger, name)[:] = values.tolist()
    ok = [ledger.consume(i, amount, 0) for i in ids.tolist()]
    state = (energy.tolist(), consumed.tolist(), comp.tolist())
    paid, died, burned = charge_uniform(*state, ids, amount)
    assert paid.tolist() == ids[ok].tolist()
    assert np.asarray(died).tolist() == np.flatnonzero(~ledger.alive).tolist()
    assert len(died) == 2 * short and len(burned) == short
    want = (ledger.energy, ledger.consumed, ledger.consumed_comp)
    for got, ref in zip(state, want):
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_charge_uniform_exact_residual_and_partial():
    energy = [1.0, 0.5, 0.5, 0.2]
    consumed = [0.0] * 4
    comp = [0.0] * 4
    paid, died, burned = charge_uniform(energy, consumed, comp, np.arange(4), 0.5)
    assert paid.tolist() == [0, 1, 2]
    assert np.asarray(died).tolist() == [1, 2, 3]
    assert burned == [0.2]
    assert energy == [0.5, 0.0, 0.0, 0.0]
    assert consumed == [0.5, 0.5, 0.5, 0.2]


def test_charge_uniform_empty_ids():
    energy = [1.0]
    paid, died, burned = charge_uniform(energy, [0.0], [0.0], np.zeros(0, dtype=np.int64), 0.3)
    assert len(paid) == 0 and len(died) == 0 and len(burned) == 0
    assert energy[0] == 1.0


# -- route keys and dsdv_merge ----------------------------------------------------

# metrics drawn for tables: short routes and the values around NO_ROUTE
METRICS = np.array([0, 1, 2, 3, 5, 8, NO_ROUTE - 1, NO_ROUTE], dtype=np.int64)


def route_pairs(rng, shape):
    """(seq, metric) tables: seq -1, even and odd sequences; metrics near NO_ROUTE."""
    seq = rng.integers(-1, 12, size=shape).astype(np.int64)
    metric = rng.choice(METRICS, size=shape)
    return seq, metric


def test_dsdv_merge_bit_identical_to_scalar_loop():
    assert NO_ROUTE == 2**30
    rng = np.random.default_rng(47)
    ties = 0
    for _ in range(400):
        n = int(rng.integers(1, 30))
        seq, metric = route_pairs(rng, n)
        next_hop = rng.integers(-1, n + 1, size=n).astype(np.int32)
        sender = int(rng.integers(n + 1))
        receivers = np.flatnonzero((rng.random(n) < 0.5) & (np.arange(n) != sender))
        adv_seq, adv_metric = int(rng.integers(-1, 12)), int(rng.choice(METRICS))
        if len(receivers) and rng.random() < 0.3:
            # the advertised route as long as a receiver's own: a tie
            r = int(rng.choice(receivers))
            if metric[r] > 0:
                adv_seq, adv_metric = int(seq[r]), int(metric[r]) - 1
        key = route_key(seq, metric)
        hops = next_hop.copy()
        adv = route_key(adv_seq, adv_metric + 1)
        ties += int(np.count_nonzero(key[receivers] == adv))
        dsdv_merge(key, hops, adv, receivers, sender)
        scalar_merge(seq, metric, next_hop, receivers, sender, adv_seq, adv_metric)
        assert key.dtype == np.int64 and hops.dtype == np.int32
        assert np.array_equal(key, route_key(seq, metric))
        assert np.array_equal(hops, next_hop)
    assert ties > 50


@settings(derandomize=True, database=None, max_examples=500)
@given(
    a=st.tuples(st.integers(-1, 2**32 - 1), st.integers(0, int(NO_ROUTE))),
    b=st.tuples(st.integers(-1, 2**32 - 1), st.integers(0, int(NO_ROUTE))),
)
def test_route_key_orders_as_seq_then_shorter_metric(a, b):
    (seq_a, metric_a), (seq_b, metric_b) = a, b
    key_a, key_b = int(route_key(seq_a, metric_a)), int(route_key(seq_b, metric_b))
    assert (key_a > key_b) == ((seq_a, -metric_a) > (seq_b, -metric_b))
    assert (key_a == key_b) == (a == b)
    # the data plane's one-test validity check
    usable = seq_a >= 0 and seq_a % 2 == 0 and metric_a < NO_ROUTE
    assert (key_a & ROUTE_BITS == LIVE) == usable


def test_dsdv_merge_adoption_rules():
    key = np.array([route_key(-1, NO_ROUTE), route_key(2, 4), route_key(-1, NO_ROUTE)])
    next_hop = np.array([-1, 2, -1], dtype=np.int32)
    # sender 0 advertises the sink at seq 2, metric 0, to receivers 1 and 2
    dsdv_merge(key, next_hop, route_key(2, 1), np.array([1, 2]), 0)
    # equal seq, shorter metric: adopted
    assert key[1] == route_key(2, 1) and next_hop[1] == 0
    # newer seq: adopted
    assert key[2] == route_key(2, 1) and next_hop[2] == 0
    # not a receiver: untouched
    assert key[0] == route_key(-1, NO_ROUTE) and next_hop[0] == -1
    # no receivers: nothing changes
    before = key.copy()
    dsdv_merge(key, next_hop, route_key(8, 1), np.array([], dtype=np.int64), 0)
    assert np.array_equal(key, before) and next_hop.tolist() == [-1, 0, 0]


def test_dsdv_merge_keeps_stale_and_equal_longer():
    key = np.array([route_key(6, 2), route_key(6, 2)])
    next_hop = np.zeros(2, dtype=np.int32)
    before = key.copy()
    for adv in (route_key(4, 1),  # stale
                route_key(6, 2),  # equal: a tie keeps the old next hop
                route_key(6, 6)):  # equal seq, longer
        dsdv_merge(key, next_hop, adv, np.array([0, 1]), 1)
        assert np.array_equal(key, before)
        assert not next_hop.any()


def test_dsdv_merge_beats_an_odd_invalidated_entry_only_with_a_newer_even_one():
    key = np.array([route_key(5, NO_ROUTE)])
    next_hop = np.array([7], dtype=np.int32)
    dsdv_merge(key, next_hop, route_key(4, 1), np.array([0]), 1)
    assert key[0] == route_key(5, NO_ROUTE) and next_hop[0] == 7
    dsdv_merge(key, next_hop, route_key(6, 9), np.array([0]), 1)
    assert key[0] == route_key(6, 9) and next_hop[0] == 1
