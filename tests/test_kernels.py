"""The numpy kernels against scalar loops that spell out each formula."""

import math

import numpy as np

from mleachsim.kernels import NO_ROUTE, charge_uniform, dsdv_merge, pairwise_distances

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
    ok = np.empty(len(ids), dtype=bool)
    died = []
    for idx, i in enumerate(ids):
        if energy[i] >= amount:
            energy[i] = energy[i] - amount
            x = amount
            ok[idx] = True
        else:
            x = energy[i]
            energy[i] = 0.0
            ok[idx] = False
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
    return ok, np.asarray(died, dtype=np.int64)


def scalar_merge(metric, seq, next_hop, receivers, sender, adv_metric, adv_seq, adv_mask):
    for r in receivers:
        for d in range(len(adv_metric)):
            if not adv_mask[d] or d == r:
                continue
            cand = adv_metric[d] + 1
            if adv_seq[d] > seq[r, d] or (adv_seq[d] == seq[r, d] and cand < metric[r, d]):
                metric[r, d] = cand
                seq[r, d] = adv_seq[d]
                next_hop[r, d] = sender


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
    for n in (1, 2, 7, 64, 200):
        pos = rng.uniform(0.0, 7500.0, size=(n, 2))
        d = pairwise_distances(pos)
        assert d.shape == (n, n)
        assert np.array_equal(d, scalar_pairwise(pos))


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
        state_a = (energy.copy(), consumed.copy(), comp.copy())
        state_b = (energy.copy(), consumed.copy(), comp.copy())
        ok_a, died_a = charge_uniform(*state_a, ids, amount)
        ok_b, died_b = scalar_charge(*state_b, ids, amount)
        assert np.array_equal(ok_a, ok_b)
        assert np.array_equal(np.asarray(died_a), died_b)
        for x, y in zip(state_a, state_b):
            assert np.array_equal(x, y)


def test_charge_uniform_exact_residual_and_partial():
    energy = np.array([1.0, 0.5, 0.5, 0.2])
    consumed = np.zeros(4)
    comp = np.zeros(4)
    ok, died = charge_uniform(energy, consumed, comp, np.arange(4), 0.5)
    assert ok.tolist() == [True, True, True, False]
    assert np.asarray(died).tolist() == [1, 2, 3]
    assert energy.tolist() == [0.5, 0.0, 0.0, 0.0]
    assert consumed.tolist() == [0.5, 0.5, 0.5, 0.2]


def test_charge_uniform_empty_ids():
    energy = np.array([1.0])
    ok, died = charge_uniform(
        energy, np.zeros(1), np.zeros(1), np.zeros(0, dtype=np.int64), 0.3
    )
    assert len(ok) == 0 and len(died) == 0
    assert energy[0] == 1.0


# -- dsdv_merge ------------------------------------------------------------------


def dsdv_state(rng, n):
    metric = rng.integers(1, 10, size=(n, n)).astype(np.int32)
    metric[rng.random((n, n)) < 0.3] = NO_ROUTE
    np.fill_diagonal(metric, 0)
    seq = rng.integers(0, 20, size=(n, n)).astype(np.int64) * 2
    next_hop = rng.integers(-1, n, size=(n, n)).astype(np.int32)
    return metric, seq, next_hop


def test_dsdv_merge_bit_identical_to_scalar_loop():
    assert NO_ROUTE == 2**30
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        metric, seq, next_hop = dsdv_state(rng, n)
        sender = int(rng.integers(n))
        receivers = np.nonzero(rng.random(n) < 0.5)[0]
        adv_metric = rng.integers(0, 8, size=n).astype(np.int32)
        adv_seq = rng.integers(0, 25, size=n).astype(np.int64) * 2
        adv_mask = rng.random(n) < 0.7
        state_a = (metric.copy(), seq.copy(), next_hop.copy())
        state_b = (metric.copy(), seq.copy(), next_hop.copy())
        dsdv_merge(*state_a, receivers, sender, adv_metric, adv_seq, adv_mask)
        scalar_merge(*state_b, receivers, sender, adv_metric, adv_seq, adv_mask)
        for x, y in zip(state_a, state_b):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


def test_dsdv_merge_adoption_rules():
    n = 3
    metric = np.full((n, n), NO_ROUTE, dtype=np.int32)
    seq = np.full((n, n), -1, dtype=np.int64)
    next_hop = np.full((n, n), -1, dtype=np.int32)
    metric[1, 0] = 4
    seq[1, 0] = 2
    next_hop[1, 0] = 2
    # sender 0 advertises itself at seq 2 metric 0 and dest 2 at seq 4
    adv_metric = np.array([0, 0, 3], dtype=np.int32)
    adv_seq = np.array([2, -1, 4], dtype=np.int64)
    adv_mask = np.array([True, False, True])
    dsdv_merge(metric, seq, next_hop, np.array([1, 2]), 0, adv_metric, adv_seq, adv_mask)
    # equal seq, shorter metric: adopted
    assert metric[1, 0] == 1 and next_hop[1, 0] == 0 and seq[1, 0] == 2
    # masked-out entry ignored
    assert metric[1, 1] == NO_ROUTE
    # newer seq: adopted
    assert metric[1, 2] == 4 and seq[1, 2] == 4 and next_hop[1, 2] == 0
    # receiver 2 never adopts a route to itself
    assert metric[2, 2] == NO_ROUTE and next_hop[2, 2] == -1


def test_dsdv_merge_keeps_stale_and_equal_longer():
    metric = np.array([[0, 2], [3, 0]], dtype=np.int32)
    seq = np.array([[0, 6], [6, 0]], dtype=np.int64)
    next_hop = np.zeros((2, 2), dtype=np.int32)
    adv_metric = np.array([5, 5], dtype=np.int32)
    adv_seq = np.array([4, 6], dtype=np.int64)  # stale, equal-but-longer
    dsdv_merge(
        metric,
        seq,
        next_hop,
        np.array([0]),
        1,
        adv_metric,
        adv_seq,
        np.array([True, True]),
    )
    assert metric[0, 0] == 0 and seq[0, 0] == 0
    assert metric[0, 1] == 2 and seq[0, 1] == 6
