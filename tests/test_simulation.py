import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mleachsim import kernels
from mleachsim.config import ConfigError, SimConfig, validate_config
from mleachsim.dsdv import DsdvProtocol
from mleachsim.mleach import MleachProtocol
from mleachsim.simulation import BsChannel, InvariantViolation, World, run_simulation

from conftest import make_world, queue_readings, small_config, unicast


def test_offered_load_is_protocol_independent():
    cfg = small_config()
    a = run_simulation(cfg, "mleach")
    b = run_simulation(cfg, "dsdv")
    assert a.generated == b.generated > 0


@pytest.mark.parametrize("seed", [1, 2, 5])
@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_packet_conservation_across_seeds(protocol, seed):
    log = run_simulation(small_config(rng_seed=seed), protocol)
    assert log.conservation_residual() == 0
    drops = (
        log.dropped_filtered
        + log.dropped_unreachable
        + log.dropped_dead
        + log.dropped_congested
    )
    assert log.generated == log.delivered + drops


def test_energy_series_monotone_and_samples_before_work():
    log = run_simulation(small_config(), "mleach")
    assert len(log.energy_series) == log.duration_s + 1
    assert log.energy_series[0] == (0, 0.0, 0.0)
    totals = [tot for _, tot, _ in log.energy_series]
    maxes = [mx for _, _, mx in log.energy_series]
    assert all(b >= a for a, b in zip(totals, totals[1:]))
    assert all(b >= a for a, b in zip(maxes, maxes[1:]))
    assert totals[-1] > 0.0


def test_starved_network_still_balances_the_books():
    cfg = small_config(initial_energy_j=1e-3)
    for protocol in ("mleach", "dsdv"):
        log = run_simulation(cfg, protocol)
        assert 0.0 <= log.first_death_s < 1.0
        assert log.conservation_residual() == 0
        assert log.delivered == 0


def test_choked_sink_counts_congestion_drops():
    cfg = small_config(bs_mac_capacity_bps=500.0)
    log = run_simulation(cfg, "mleach")
    assert log.dropped_congested > 0
    assert log.conservation_residual() == 0


def test_rerun_reproduces_every_metric():
    cfg = small_config(rng_seed=11)
    a = run_simulation(cfg, "mleach")
    b = run_simulation(cfg, "mleach")
    assert a.summary_values() == b.summary_values()
    assert a.energy_series == b.energy_series
    assert np.array_equal(a.bs_buckets, b.bs_buckets)
    assert a.alive_series == b.alive_series
    assert a.ch_count_series == b.ch_count_series


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        run_simulation(small_config(), "aodv")


def test_world_validates_config():
    with pytest.raises(ConfigError):
        World(small_config(node_count=0), "x")


@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_a_run_validates_its_config_once(protocol, monkeypatch):
    counted = mock.Mock(wraps=validate_config)
    monkeypatch.setattr("mleachsim.simulation.validate_config", counted)
    run_simulation(small_config(), protocol)
    assert counted.call_count == 1


def test_world_builds_its_log_from_the_config():
    cfg = small_config()
    log = World(cfg, "x").log
    assert log.protocol == "x"
    assert (log.duration_s, log.node_count) == (cfg.sim_duration_s, cfg.node_count)


def test_mobility_reshapes_distances_between_seconds():
    cfg = small_config(sim_duration_s=4)
    world = World(cfg, "mleach")
    rows = range(cfg.node_count + 1)
    before = np.array([world.dist_row(i) for i in rows])
    world.run(MleachProtocol(world))
    after = np.array([world.dist_row(i) for i in rows])
    assert not np.array_equal(after, before)
    assert after.shape == before.shape


# -- World's two distance reads: a row, or the whole matrix -------------------


@pytest.fixture
def fills(monkeypatch):
    """The distance kernels, wrapped where World calls them, to count fills."""
    wrapped = {}
    for name in ("distance_row", "pairwise_distances"):
        wrapped[name] = mock.Mock(wraps=getattr(kernels, name))
        monkeypatch.setattr(kernels, name, wrapped[name])
    return wrapped


def test_distances_are_fresh_after_invalidate():
    world = World(small_config(), "x")
    before = world.distances().copy()
    world.positions[0] = (5.0, 7.0)
    world.invalidate_distances()
    after = world.distances()
    assert after.tobytes() == kernels.pairwise_distances(world.positions).tobytes()
    assert not np.array_equal(after[0], before[0])


def test_a_whole_fill_keeps_the_rows_filled_before_it_bit_for_bit():
    world = World(small_config(), "x")
    rows = {i: world.dist_row(i).tobytes() for i in (0, 5, world.bs_id)}
    matrix = world.distances()
    assert {i: matrix[i].tobytes() for i in rows} == rows


def test_after_a_whole_fill_neither_read_calls_a_kernel_in_the_step(fills):
    world = World(small_config(), "x")
    world.distances()
    assert fills["pairwise_distances"].call_count == 1
    for i in range(world.bs_id + 1):
        world.dist_row(i)
    world.distances()
    assert fills["pairwise_distances"].call_count == 1
    assert fills["distance_row"].call_count == 0
    world.invalidate_distances()
    world.dist_row(3)
    assert fills["distance_row"].call_count == 1


def test_before_a_whole_fill_dist_row_fills_only_its_row(fills):
    world = World(small_config(), "x")
    world.dist_row(3)
    world.dist_row(3)
    world.dist_row(world.bs_id)
    filled = [c.args[1] for c in fills["distance_row"].call_args_list]
    assert filled == [3, world.bs_id]
    assert fills["pairwise_distances"].call_count == 0


def test_a_run_holds_one_distance_buffer_as_the_readme_states():
    n = 24
    world = World(small_config(node_count=n), "x")
    assert world._dist.nbytes == 8 * (n + 1) ** 2
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    assert "holds one (n+1) x (n+1) float64 distance buffer, 8·(n+1)² bytes." in readme
    assert f"{8 * 513**2 / 1e6:.1f} MB at 512 nodes" in readme
    assert f"{8 * 20001**2 / 1e9:.1f} GB at 20,000" in readme


# -- alive_in_range -----------------------------------------------------------


def test_alive_in_range_excludes_center_and_dead():
    world = make_world([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (1000.0, 0.0)])
    assert world.alive_in_range(0, 250.0).tolist() == [1, 2]
    world.ledger.consume(1, world.cfg.initial_energy_j, 0)
    assert world.alive_in_range(0, 250.0).tolist() == [2]
    # boundary distance still counts
    assert world.alive_in_range(0, 200.0).tolist() == [2]
    assert world.alive_in_range(0, 199.0).tolist() == []


def test_alive_in_range_from_the_sink():
    world = make_world([(600.0, 500.0), (0.0, 0.0)])
    assert world.alive_in_range(world.bs_id, 150.0).tolist() == [0]


# -- charging primitives ------------------------------------------------------

BITS = 2000


def test_sink_sends_and_receives_for_free():
    world = make_world([(600.0, 700.0), (0.0, 0.0), (600.0, 500.0), (500.0, 600.0)])
    rx = world.radio.rx_energy(BITS)
    heard = world.broadcast(world.bs_id, BITS, 150.0, 0)
    assert heard.tolist() == [0, 2, 3]
    assert world.ledger.consumed == [rx, 0.0, rx, rx]
    assert world.ledger.total_consumed() == 3 * rx
    before = world.ledger.total_consumed()
    d = world.dist_row(world.bs_id).item(1)
    assert unicast(world, 1, world.bs_id, d, BITS, 0)
    tx = world.radio.tx_energy(BITS, d)
    assert world.ledger.consumed[1] == tx
    assert world.ledger.total_consumed() == before + tx


def test_dead_sender_is_silent_and_pays_nothing():
    world = make_world([(0.0, 0.0), (100.0, 0.0)])
    world.ledger.consume(0, world.cfg.initial_energy_j, 0)
    consumed = world.ledger.consumed.copy()
    total = world.ledger.total_consumed()
    assert world.broadcast(0, BITS, 250.0, 0) is None
    assert unicast(world, 0, 1, 100.0, BITS, 0) is False
    assert unicast(world, 0, world.bs_id, world.dist_row(world.bs_id).item(0), BITS, 0) is False
    assert np.array_equal(world.ledger.consumed, consumed)
    assert world.ledger.total_consumed() == total


def test_sender_that_cannot_pay_dies_silent():
    world = make_world([(0.0, 0.0), (100.0, 0.0)])
    world.ledger.energy[0] = world.radio.tx_energy(BITS, 250.0) / 2
    assert world.broadcast(0, BITS, 250.0, 0) is None
    assert not world.ledger.alive[0]
    assert world.ledger.consumed[1] == 0.0


def test_dead_receiver_is_not_charged():
    world = make_world([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
    world.ledger.consume(1, world.cfg.initial_energy_j, 0)
    spent_1 = world.ledger.consumed[1]
    assert unicast(world, 0, 1, 100.0, BITS, 0) is False
    assert world.ledger.consumed[0] == world.radio.tx_energy(BITS, 100.0)
    assert world.broadcast(0, BITS, 250.0, 0).tolist() == [2]
    assert world.ledger.consumed[1] == spent_1


def test_listener_that_cannot_pay_dies_and_is_left_out():
    world = make_world([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (150.0, 0.0)])
    rx = world.radio.rx_energy(BITS)
    world.ledger.energy[1] = rx / 2
    world.ledger.energy[2] = rx  # pays in full, then dies
    heard = world.broadcast(0, BITS, 250.0, 0)
    assert heard.tolist() == [2, 3]
    assert world.ledger.alive.tolist() == [True, False, False, True]
    world.ledger.energy[3] = rx / 2
    assert unicast(world, 0, 3, 150.0, BITS, 0) is False
    assert not world.ledger.alive[3]


# -- sink channel ------------------------------------------------------------


def test_disabled_channel_admits_everything():
    ch = BsChannel(0.0, 4.0, None)
    assert all(ch.admit(t, 4096, 1) for t in range(0, 10_000_000, 100_000))
    assert ch.load_ema == 0.0


def test_channel_ema_halves_each_second():
    ch = BsChannel(1e9, 4.0, np.random.default_rng(0))
    for _ in range(10):
        ch.admit(0, 1000, 1)
    ch._roll_to(1)
    assert ch.load_ema == 5000.0
    ch._roll_to(3)  # two empty seconds halve it twice
    assert ch.load_ema == 1250.0


def test_channel_collapses_above_capacity():
    ch = BsChannel(1000.0, 4.0, np.random.default_rng(3))
    for _ in range(100):
        ch.admit(0, 4096, 1)  # first second: EMA still zero, all admitted
    results = [ch.admit(1_000_000 + k, 4096, 1) for k in range(50)]
    assert not any(results)


def test_channel_below_capacity_is_mostly_clean():
    ch = BsChannel(1e9, 4.0, np.random.default_rng(3))
    admitted = sum(ch.admit(t * 1_000_000, 4096, 1) for t in range(200))
    assert admitted == 200


def test_channel_admits_nothing_once_the_load_power_overflows():
    ch = BsChannel(100.0, 400.0, np.random.default_rng(3))
    assert ch.admit(0, 4096, 1)  # first second: EMA still zero
    # (2048 / 100) ** 400 is past the largest float: exp(-inf) passes nothing
    assert not any(ch.admit(1_000_000 + k, 4096, 1) for k in range(50))
    assert ch.p_pass == 0.0


@pytest.mark.parametrize("protocol", ["mleach", "dsdv"])
def test_overflowing_channel_power_runs_strict_to_the_end(protocol):
    cfg = small_config(bs_mac_capacity_bps=100.0, bs_mac_collapse_k=200.0, sim_duration_s=4)
    log = run_simulation(cfg, protocol)
    assert log.dropped_congested > 0
    assert log.conservation_residual() == 0


class ScalarChannel:
    """The sink channel spelled out per frame: roll the EMA, then one exp and one draw."""

    def __init__(self, capacity_bps, collapse_k, stream):
        self.capacity_bps = capacity_bps
        self.collapse_k = collapse_k
        self.stream = stream
        self.load_ema = 0.0
        self.second = 0
        self.bits = 0.0

    def admit(self, t_us, bits):
        while self.second < t_us // 1_000_000:
            self.load_ema = 0.5 * (self.load_ema + self.bits)
            self.bits = 0.0
            self.second += 1
        self.bits += bits
        p_pass = math.exp(-((self.load_ema / self.capacity_bps) ** self.collapse_k))
        return self.stream.random() < p_pass


def test_channel_decisions_match_the_per_frame_reference():
    rng = np.random.default_rng(41)
    frames = []
    for second in range(120):
        if rng.random() < 0.3:
            continue  # an idle second: the EMA still halves across it
        count = int(rng.integers(1, 80))
        offsets = sorted(rng.integers(0, 1_000_000, count).tolist())
        frames += [(second * 1_000_000 + t, 4096) for t in offsets]
    busy = {t // 1_000_000 for t, _ in frames}
    assert len(busy) < 120 and len(frames) > 3 * BsChannel.DRAW_BLOCK
    ch = BsChannel(1.2e5, 4.0, np.random.default_rng(7))
    ref = ScalarChannel(1.2e5, 4.0, np.random.default_rng(7))
    got = [ch.admit(t, bits, 1) for t, bits in frames]
    want = [ref.admit(t, bits) for t, bits in frames]
    assert got == want
    assert 0 < sum(got) < len(got)
    assert ch.load_ema == ref.load_ema


def test_k_frames_at_once_are_decided_as_k_single_frames():
    # hand-offs of up to 300 frames cross DRAW_BLOCK boundaries mid-call
    rng = np.random.default_rng(12)
    batched = BsChannel(1.2e5, 4.0, np.random.default_rng(5))
    single = BsChannel(1.2e5, 4.0, np.random.default_rng(5))
    drawn = 0
    for second in range(40):
        for _ in range(int(rng.integers(0, 4))):
            t_us = second * 1_000_000 + int(rng.integers(0, 1_000_000))
            k = int(rng.integers(1, 300))
            got = batched.admit(t_us, 4096, k)
            assert got == sum(single.admit(t_us, 4096, 1) for _ in range(k))
            drawn += k
            assert batched._bits == single._bits and batched.load_ema == single.load_ema
    assert drawn > 3 * BsChannel.DRAW_BLOCK
    assert batched.load_ema > 0.0
    # a disabled channel admits every frame and draws nothing
    off = BsChannel(0.0, 4.0, None)
    assert off.admit(0, 4096, 7) == 7 and off.admit(2_500_000, 4096, 0) == 0
    assert off.load_ema == 0.0


def test_a_hand_off_sums_its_bits_frame_by_frame():
    # frames near 2**52 bits: six adds round differently from one add of six
    bits, k = 2**52 + 1, 6
    assert sum([float(bits)] * k) != 0.0 + bits * k
    batched = BsChannel(1e20, 4.0, np.random.default_rng(2))
    single = BsChannel(1e20, 4.0, np.random.default_rng(2))
    batched.admit(0, bits, k)
    for _ in range(k):
        single.admit(0, bits, 1)
    assert batched._bits == single._bits == sum([float(bits)] * k)
    batched._roll_to(1)
    single._roll_to(1)
    assert batched.load_ema == single.load_ema


# -- invariant checks -------------------------------------------------------


def test_finish_counts_queued_readings_by_liveness():
    world = make_world([(0.0, 0.0), (100.0, 0.0)])
    proto = MleachProtocol(world)
    queue_readings(world, proto, 0, [1.0, 2.0, 3.0])
    queue_readings(world, proto, 1, [4.0])
    world.ledger.consume(0, world.cfg.initial_energy_j, 0)
    assert world.log.dropped_dead == 0  # a death alone counts nothing
    proto.finish(world.cfg.sim_us)
    assert world.log.dropped_dead == 3
    assert world.log.dropped_unreachable == 1
    assert not proto.queued.any()


class LeakingChange:
    """A reading whose change passes the filter and is yet within its threshold:
    it compares above and below every number, as a broken filter would see it."""

    def __sub__(self, other):
        return self

    def __abs__(self):
        return self

    def __gt__(self, other):
        return True

    def __le__(self, other):
        return True


def test_strict_trace_catches_filter_leaks():
    # node 0 is an orphan within radio range of the sink
    world = make_world([(0.0, 0.0)])
    proto = MleachProtocol(world)
    queue_readings(world, proto, 0, [LeakingChange()])
    with pytest.raises(InvariantViolation, match="filter"):
        proto._orphan_flush(0, 0)
    assert world.log.delivered == 0  # raised on arrival, before the sink counts it
    queue_readings(world, proto, 0, [0.5])  # a change past the threshold
    proto._orphan_flush(0, 0)
    world.deliver_data(0, 1)  # an unfiltered frame
    assert world.log.delivered == 2


def per_node_route_walk(world, proto):
    """``World.check_routes`` as a walk of every live node's whole chain: the reference."""
    bs = world.bs_id
    for i in np.flatnonzero(world.ledger.alive).tolist():
        cur = i
        visited = {cur}
        while True:
            if proto.sink_key[cur] & kernels.ROUTE_BITS != kernels.LIVE:
                break
            nh = proto.sink_hop[cur]
            if nh < 0 or nh == bs:
                break
            if nh in visited:
                raise InvariantViolation(f"routing loop at node {cur} via {nh}")
            visited.add(nh)
            cur = nh


def route_check_outcome(check, proto):
    """The message of the InvariantViolation ``check(proto)`` raises, or None."""
    try:
        check(proto)
    except InvariantViolation as exc:
        return str(exc)
    return None


def test_check_routes_raises_as_a_whole_chain_walk_per_node_would():
    # planted 40-node tables: a loop-free forest towards the sink, then a
    # few next hops redrawn anywhere, which may close loops; some keys are
    # not live (odd sequence, no metric) and some relays are dead
    n = 40
    world = make_world([(0.0, 0.0)] * n)
    proto = DsdvProtocol(world)
    rng = np.random.default_rng(31)
    not_live = [kernels.route_key(3, 2), kernels.route_key(4, kernels.NO_ROUTE), kernels.route_key(-1, 1)]
    outcomes = []
    for _ in range(3000):
        order = rng.permutation(n)
        hops = np.full(n, world.bs_id)
        for rank in range(1, n):
            if rng.random() < 0.8:
                hops[order[rank]] = order[rng.integers(0, rank)]
        redrawn = rng.choice(n, int(rng.integers(0, 10)), replace=False)
        hops[redrawn] = rng.integers(-1, n + 1, len(redrawn))
        proto.next_hop[:] = hops
        proto.key[:] = kernels.route_key(2, 1)
        for i in rng.choice(n, int(rng.integers(0, 5)), replace=False):
            proto.key[i] = not_live[rng.integers(0, 3)]
        world.ledger.alive[:] = rng.random(n) < 0.85
        want = route_check_outcome(lambda p: per_node_route_walk(world, p), proto)
        assert route_check_outcome(world.check_routes, proto) == want
        outcomes.append(want)
    loops = sum(o is not None for o in outcomes)
    assert 500 < loops < 2500  # both outcomes are common
    assert len(set(outcomes)) > 100  # the messages name many nodes


def test_run_simulation_checks_even_when_told_strict_false(monkeypatch):
    # strict is kept for perfbench's callers only, and turns no check off
    def breach(_world):
        raise InvariantViolation("planted breach")

    monkeypatch.setattr(World, "_check_final", breach)
    with pytest.raises(InvariantViolation, match="planted breach"):
        run_simulation(small_config(sim_duration_s=2), "dsdv", strict=False)


def test_strict_final_checks_packet_books():
    world = make_world([(0.0, 0.0)])
    world.log.generated = 7
    with pytest.raises(InvariantViolation, match="conservation"):
        world._check_final()


def test_strict_final_checks_ledger_drift():
    world = make_world([(0.0, 0.0)])
    world.ledger._total += 1e-6
    with pytest.raises(InvariantViolation, match="drift"):
        world._check_final()


@pytest.mark.parametrize(
    "total, ulps, raises",
    [
        (2.0**22, 1, False),  # 0.93e-9 J, inside 1e-9 J
        (2.0**22, 2, True),  # 1.86e-9 J
        (2.0**23, 1, False),  # 1.86e-9 J, one ulp past 1e-9 J
        (2.0**23, 2, True),
        (2.0**40, 1, False),  # 2.4e-4 J, one ulp
        (2.0**40, 2, True),
    ],
)
def test_strict_drift_bound_is_1e_9_j_up_to_2_23_j_then_one_ulp(total, ulps, raises):
    world = make_world([(0.0, 0.0)])
    ledger = world.ledger
    ledger.consumed[0] = total
    ledger._total = total + ulps * math.ulp(total)
    if raises:
        with pytest.raises(InvariantViolation, match="drift"):
            world._check_final()
    else:
        world._check_final()


def test_default_config_round_trip_runs():
    # the stock scenario, cut down to a quick horizon, runs clean end to end
    cfg = SimConfig(node_count=48, sim_duration_s=6, bs_position=(3750.0, 3750.0))
    for protocol in ("mleach", "dsdv"):
        log = run_simulation(cfg, protocol)
        assert log.conservation_residual() == 0


class StopRun(Exception):
    pass


@pytest.mark.parametrize("cls", [MleachProtocol, DsdvProtocol])
def test_queue_is_bounded_by_the_node_count_not_the_horizon(cls):
    cfg = small_config(node_count=4, sim_duration_s=100_000)
    world = World(cfg, "test")
    depth = []

    def first_pop():
        depth.append(len(world.queue))
        raise StopRun

    world.queue.pop = first_pop
    with pytest.raises(StopRun):
        world.run(cls(world))
    # the next instance of each recurring event, not one per second of the run
    assert len(depth) == 1 and depth[0] <= cfg.node_count + 5
