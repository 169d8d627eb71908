import copy
import math

import numpy as np
import pytest

from mleachsim.engine import EventKind, RandomStreams
from mleachsim.mleach import (
    MleachProtocol,
    RoundContext,
    build_ch_graph,
    ch_threshold,
    check_round,
    run_election,
    shortest_route,
)
from mleachsim.simulation import InvariantViolation

from conftest import (
    assert_ledgers_equal,
    charged,
    consume_calls,
    copy_ledger,
    queue_readings,
    unicast,
)


class ConstStream:
    def __init__(self, v: float) -> None:
        self.v = v

    def random(self, size=None):
        return self.v if size is None else np.full(size, self.v)


# -- election threshold ------------------------------------------------------


def test_threshold_reference_values():
    assert ch_threshold(0.05, 0) == 0.05
    assert math.isclose(ch_threshold(0.05, 10), 0.1, rel_tol=1e-12)
    assert ch_threshold(0.05, 19) == 1.0
    assert ch_threshold(0.05, 20) == 0.05  # next epoch restarts the ramp
    assert ch_threshold(0.5, 1) == 1.0


def test_threshold_monotone_within_epoch_and_capped():
    prev = 0.0
    for r in range(20):
        t = ch_threshold(0.05, r)
        assert prev < t <= 1.0
        prev = t


# -- election rounds -----------------------------------------------------------


def fresh_exclusion(n):
    return np.zeros(n, dtype=np.int64)


def test_every_node_heads_exactly_once_per_epoch():
    n, p, epochs = 64, 0.05, 10
    exclusion = fresh_exclusion(n)
    alive = np.arange(n)
    stream = RandomStreams(42).get("election")
    terms = np.zeros((epochs, n), dtype=int)
    for r in range(epochs * 20):
        elected = run_election(exclusion, alive, r, p, 19, 20, stream)
        assert len(elected)  # never a headless round
        for i in elected:
            terms[r // 20, i] += 1
    assert (terms == 1).all()


def test_election_deterministic_for_a_seed():
    def one_run():
        exclusion = fresh_exclusion(32)
        stream = RandomStreams(7).get("election")
        return [
            run_election(exclusion, np.arange(32), r, 0.1, 9, 10, stream).tolist()
            for r in range(40)
        ]

    assert one_run() == one_run()


def test_elected_node_sits_out_rest_of_epoch():
    exclusion = fresh_exclusion(3)
    alive = np.arange(3)
    exclusion[1] = 19  # as if it won the round-3 election
    for r in range(4, 20):
        assert exclusion[1] != 0  # not eligible
        elected = run_election(exclusion, alive, r, 0.05, 19, 20, ConstStream(0.99))
        assert 1 not in elected
    # epoch boundary clears the exclusion even if the counter has not run out
    run_election(exclusion, alive, 20, 0.05, 19, 20, ConstStream(0.99))
    assert exclusion[1] == 0
    elected = run_election(exclusion, alive, 21, 0.05, 19, 20, ConstStream(0.0))
    assert 1 in elected


def test_no_winner_falls_back_to_smallest_eligible():
    exclusion = fresh_exclusion(5)
    elected = run_election(exclusion, np.arange(5), 1, 0.05, 19, 20, ConstStream(0.99))
    assert elected.tolist() == [0]
    assert exclusion[0] == 19


def test_fallback_when_nobody_is_eligible():
    exclusion = np.full(4, 5, dtype=np.int64)
    elected = run_election(exclusion, np.arange(4), 1, 0.05, 19, 20, ConstStream(0.99))
    assert elected.tolist() == [0]


def test_winners_get_full_exclusion_and_losers_decay():
    exclusion = fresh_exclusion(6)
    exclusion[4] = 3
    elected = run_election(exclusion, np.arange(6), 1, 0.05, 19, 20, ConstStream(0.0))
    # every eligible node drew below threshold; node 4 was excluded
    assert elected.tolist() == [0, 1, 2, 3, 5]
    assert all(exclusion[i] == 19 for i in elected)
    assert exclusion[4] == 2


# -- head graph and routing ----------------------------------------------------


def graph_from_edges(vertices, edges):
    g = {v: [] for v in vertices}
    for u, v, w in edges:
        g[u].append((v, w))
        g[v].append((u, w))
    return {v: sorted(nbrs) for v, nbrs in g.items()}


def test_route_prefers_cheap_relay_over_long_direct():
    g = graph_from_edges([2, 4, 9], [(4, 2, 1.0), (2, 9, 1.5), (4, 9, 4.5)])
    path = shortest_route(g, 4, 9)
    assert path == [4, 2, 9]


def test_route_two_hop_beats_direct():
    g = graph_from_edges([0, 1, 5], [(0, 1, 1.0), (1, 5, 1.0), (0, 5, 3.0)])
    path = shortest_route(g, 0, 5)
    assert path == [0, 1, 5]


def test_route_equal_cost_prefers_fewer_hops():
    g = graph_from_edges(
        [0, 3, 9], [(0, 9, 2.0), (0, 3, 1.0), (3, 9, 1.0)]
    )
    assert shortest_route(g, 0, 9) == [0, 9]


def test_route_full_tie_prefers_smaller_ids():
    g = graph_from_edges(
        [0, 1, 2, 9], [(0, 1, 1.0), (1, 9, 1.0), (0, 2, 1.0), (2, 9, 1.0)]
    )
    assert shortest_route(g, 0, 9) == [0, 1, 9]


def test_route_unreachable_and_unknown_source():
    g = graph_from_edges([0, 9], [])
    assert shortest_route(g, 0, 9) is None
    assert shortest_route(g, 7, 9) is None


def test_route_source_is_sink():
    g = graph_from_edges([0, 9], [(0, 9, 1.0)])
    assert shortest_route(g, 9, 9) == [9]


def test_build_ch_graph_respects_radio_range(world_factory):
    world = world_factory([(0.0, 600.0), (600.0, 600.0), (2000.0, 600.0)])
    g = build_ch_graph(world.dist_row, [0, 1, 2], world.bs_id, 900.0)
    assert list(g) == [0, 1, 2, 3]
    # both directions of every edge, each list ascending by neighbor id
    assert g == {
        0: [(1, 600.0), (3, 600.0)],
        1: [(0, 600.0), (3, 0.0)],
        2: [],
        3: [(0, 600.0), (1, 0.0)],
    }
    # isolated head has no path out
    assert shortest_route(g, 2, world.bs_id) is None
    # equal-cost alternatives: direct one-hop wins over relay via head 1
    assert shortest_route(g, 0, world.bs_id) == [0, 3]


def test_hello_liveness_is_read_after_every_head_has_spoken(world_factory):
    # head 0 can pay its own hello but not the receipt of head 1's: alive
    # right after its broadcast, dead once both heads have spoken
    world = world_factory([(500.0, 600.0), (450.0, 600.0)])
    cfg = world.cfg
    bits = cfg.hello_bits
    world.ledger.energy[0] = (
        world.radio.tx_energy(bits, cfg.radio_range_rr_m) + world.radio.rx_energy(bits) / 2
    )
    proto = MleachProtocol(world)
    ctx = RoundContext()
    ctx.cluster_heads = [0, 1]
    proto._build_graph_and_routes(ctx, 0)
    assert list(ctx.routes) == [1]
    assert not world.ledger.alive[0]
    assert 0 not in ctx.ch_graph


# -- cluster formation -----------------------------------------------------------


def formation_world(world_factory):
    pos = [(300.0, 300.0)] + [(1150.0, 1150.0)] * 9
    pos[4] = (200.0, 300.0)
    pos[9] = (400.0, 300.0)
    pos[1] = (390.0, 300.0)
    pos[3] = (200.0, 600.0)
    return world_factory(pos)


def test_members_join_nearest_head_smaller_id_on_tie(world_factory):
    world = formation_world(world_factory)
    proto = MleachProtocol(world)
    ctx = RoundContext()
    orphans = proto._assign_members(ctx, [4, 9])
    # node 0 is exactly 100 m from both heads; the smaller id wins, and
    # node 3 sits exactly at the cluster radius: the boundary is inclusive
    assert ctx.clusters == {4: [0, 3], 9: [1]}
    assert orphans == [2, 5, 6, 7, 8]


def test_dead_nodes_neither_join_nor_orphan(world_factory):
    world = formation_world(world_factory)
    for i in (0, 5):
        world.ledger.consume(i, world.cfg.initial_energy_j, 0)
    ctx = RoundContext()
    orphans = MleachProtocol(world)._assign_members(ctx, [4, 9])
    assert ctx.clusters == {4: [3], 9: [1]}
    assert orphans == [2, 6, 7, 8]


def test_no_heads_means_everyone_is_orphaned(world_factory):
    world = world_factory([(0.0, 0.0), (50.0, 0.0)])
    proto = MleachProtocol(world)
    ctx = RoundContext()
    assert proto._assign_members(ctx, []) == [0, 1]
    assert ctx.clusters == {}


def test_tdma_slots_are_id_ordered(world_factory):
    pos = [(0.0, 0.0)] + [(1150.0, 1150.0)] * 9
    pos[3] = (100.0, 0.0)
    pos[7] = (0.0, 100.0)
    pos[9] = (100.0, 100.0)
    world = world_factory(pos)
    proto = MleachProtocol(world)
    ctx = RoundContext()
    ctx.cluster_heads = [0]
    ctx.clusters = {0: [7, 3, 9]}
    assert proto._build_tdma(ctx, 0) == []
    assert ctx.tdma == {3: 0, 7: 1, 9: 2}
    slot_us = world.cfg.round_us // 3
    fired = [world.queue.pop() for _ in range(3)]
    assert fired == [
        (0, EventKind.SLOT_START, (3, 0)),
        (slot_us, EventKind.SLOT_START, (7, 0)),
        (2 * slot_us, EventKind.SLOT_START, (9, 0)),
    ]
    # head paid one schedule broadcast sized by member count
    bits = world.cfg.schedule_bits_per_cm * 3
    assert world.ledger.consumed[0] == world.radio.tx_energy(bits, 300.0)


def test_empty_cluster_skips_schedule_broadcast(world_factory):
    world = world_factory([(0.0, 0.0), (50.0, 0.0)])
    proto = MleachProtocol(world)
    ctx = RoundContext()
    ctx.cluster_heads = [0]
    ctx.clusters = {0: []}
    proto._build_tdma(ctx, 0)
    assert world.ledger.consumed[0] == 0.0
    assert len(world.queue) == 0


def test_schedule_death_strands_members(world_factory):
    world = world_factory(
        [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], initial_energy_j=1e-6
    )
    proto = MleachProtocol(world)
    ctx = RoundContext()
    ctx.cluster_heads = [0]
    ctx.clusters = {0: [1, 2]}
    stranded = proto._build_tdma(ctx, 0)
    assert stranded == [1, 2]
    assert not world.ledger.alive[0]
    assert ctx.clusters[0] == []
    assert ctx.tdma == {}
    assert len(world.queue) == 0


# -- data plane -------------------------------------------------------------


def relay_world(world_factory, **overrides):
    """Head 0 within sink range, member 1 close to the head."""
    world = world_factory([(500.0, 600.0), (450.0, 600.0)], **overrides)
    proto = MleachProtocol(world)
    proto.ctx = ctx = RoundContext()
    ctx.cluster_heads = [0]
    ctx.routes = {0: [0, world.bs_id]}
    return world, proto


def test_slot_drains_all_pending_readings(world_factory):
    world, proto = relay_world(world_factory)
    queue_readings(world, proto, 1, [1.0, 2.0, 3.0])
    proto._slot(0, (1, 0))
    assert proto.queued[1] == 0
    assert world.log.delivered == 3
    assert world.log.bs_buckets[0] == 3
    tx = world.radio.tx_energy(4096, 50.0)
    assert math.isclose(world.ledger.consumed[1], 3 * tx, rel_tol=1e-12)
    per_packet = world.radio.rx_energy(4096) + world.radio.tx_energy(4096, 100.0)
    assert math.isclose(world.ledger.consumed[0], 3 * per_packet, rel_tol=1e-12)


def test_empty_slot_sends_heartbeat(world_factory):
    world, proto = relay_world(world_factory)
    proto._slot(0, (1, 0))
    assert world.log.delivered == 0
    assert world.ledger.consumed[1] == world.radio.tx_energy(64, 50.0)
    assert world.ledger.consumed[0] == world.radio.rx_energy(64)


def test_member_death_mid_slot_drops_the_rest(world_factory):
    world, proto = relay_world(world_factory)
    tx = world.radio.tx_energy(4096, 50.0)
    world.ledger.energy[1] = 1.5 * tx
    rx = world.radio.rx_energy(4096)
    # the second frame's tx kills the member, and the third charges nobody;
    # the head heard the first frame only, and forwarded it to the sink
    want = charged(
        world.ledger, [(1, tx), (0, rx), (0, world.radio.tx_energy(4096, 100.0)), (1, tx)], 0
    )
    queue_readings(world, proto, 1, [1.0, 2.0, 3.0])
    proto._slot(0, (1, 0))
    assert world.log.delivered == 1
    assert world.log.dropped_dead == 2
    assert not world.ledger.alive[1]
    assert world.ledger.energy[1] == 0.0
    assert_ledgers_equal(world.ledger, want)


def test_dead_member_slot_sends_nothing(world_factory):
    world, proto = relay_world(world_factory)
    world.ledger.consume(1, world.cfg.initial_energy_j, 0)
    queue_readings(world, proto, 1, [1.0])
    spent = world.ledger.consumed.copy()
    proto._slot(0, (1, 0))
    assert np.array_equal(world.ledger.consumed, spent)
    assert world.log.delivered == world.log.dropped_dead == 0
    # the queue is left for finish, which counts it as lost with the node
    assert proto.queued[1] == 1
    assert world.traffic.values.by_node[1] == [1.0]
    proto.finish(world.cfg.sim_us)
    assert world.log.dropped_dead == 1


def send(world, proto, origin, reading):
    """One reading from origin through head 0: its member slot, or the head's own flush."""
    queue_readings(world, proto, origin, [reading])
    if origin == 0:
        proto._round_finish(0, 0)
    else:
        proto._slot(0, (origin, 0))


def test_filter_drops_small_changes(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    proto.last_forwarded[1] = 10.0
    send(world, proto, 1, 10.0)
    assert world.log.dropped_filtered == 1
    assert world.log.delivered == 0
    send(world, proto, 1, 10.5)  # change equal to the threshold: dropped
    assert world.log.dropped_filtered == 2
    assert proto.last_forwarded[1] == 10.0


def test_filter_forwards_big_changes_and_advances(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    proto.last_forwarded[1] = 10.0
    send(world, proto, 1, 11.0)
    assert world.log.delivered == 1
    assert proto.last_forwarded[1] == 11.0


def test_filter_always_forwards_first_reading(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    send(world, proto, 1, 0.0)
    assert world.log.delivered == 1
    assert world.log.dropped_filtered == 0


def test_filter_state_is_per_origin(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    send(world, proto, 1, 10.0)
    send(world, proto, 0, 10.0)  # head's own stream is independent
    assert world.log.delivered == 2
    send(world, proto, 1, 10.2)
    send(world, proto, 0, 11.0)
    assert world.log.dropped_filtered == 1
    assert world.log.delivered == 3


def test_routeless_head_drops_as_unreachable(world_factory):
    world, proto = relay_world(world_factory)
    proto.ctx.routes = {0: None}
    send(world, proto, 1, 1.0)
    assert world.log.dropped_unreachable == 1
    assert world.log.delivered == 0


def test_multi_hop_route_charges_every_relay(world_factory):
    world = world_factory([(500.0, 600.0), (100.0, 600.0)])
    proto = MleachProtocol(world)
    proto.ctx = ctx = RoundContext()
    ctx.routes = {1: [1, 0, world.bs_id]}
    queue_readings(world, proto, 1, [42.0])
    proto._round_finish(0, 0)
    assert world.log.delivered == 1
    assert world.ledger.consumed[1] == world.radio.tx_energy(4096, 400.0)
    expect0 = world.radio.rx_energy(4096) + world.radio.tx_energy(4096, 100.0)
    assert math.isclose(world.ledger.consumed[0], expect0, rel_tol=1e-12)


def test_orphan_flush_filters_then_sends(world_factory):
    world = world_factory([(500.0, 600.0)], filter_threshold=0.1)
    proto = MleachProtocol(world)
    queue_readings(world, proto, 0, [5.0, 5.05, 6.0])
    proto._orphan_flush(0, 0)
    assert world.log.delivered == 2
    assert world.log.dropped_filtered == 1
    assert proto.queued[0] == 0
    assert math.isclose(
        world.ledger.consumed[0], 2 * world.radio.tx_energy(4096, 100.0), rel_tol=1e-12
    )


def test_orphan_out_of_sink_range_drops_unreachable(world_factory):
    world = world_factory([(0.0, 600.0)], radio_range_rr_m=500.0)
    proto = MleachProtocol(world)
    traffic = world.traffic
    twin = copy.deepcopy(traffic)
    proto.queued[0] = 2
    state = traffic._gen[0].bit_generator.state
    proto._orphan_flush(0, 0)
    assert world.log.dropped_unreachable == 2
    assert world.ledger.consumed[0] == 0.0
    assert proto.queued[0] == 0
    # not drawn at the flush, yet the node's later readings walk on past them
    assert traffic._gen[0].bit_generator.state == state
    assert traffic.values(0, 1) == twin.values(0, 3)[2:]


def test_dead_orphan_flush_sends_nothing(world_factory):
    world = world_factory([(500.0, 600.0)])
    world.ledger.consume(0, world.cfg.initial_energy_j, 0)
    proto = MleachProtocol(world)
    queue_readings(world, proto, 0, [1.0])
    spent = world.ledger.total_consumed()
    proto._orphan_flush(0, 0)
    assert world.ledger.total_consumed() == spent
    assert proto.queued[0] == 1
    assert world.log.delivered == world.log.dropped_dead == 0


def test_check_round_rejects_a_node_in_two_clusters():
    ctx = RoundContext()
    ctx.clusters = {0: [2, 3], 1: [3]}
    with pytest.raises(InvariantViolation, match="two clusters"):
        check_round(ctx, 500.0)
    ctx.clusters = {0: [2, 3], 1: [4]}
    check_round(ctx, 500.0)


def test_round_finish_flushes_head_backlog(world_factory):
    world, proto = relay_world(world_factory)
    queue_readings(world, proto, 0, [3.0, 3.05])
    proto._round_finish(100, 0)
    assert proto.queued[0] == 0
    assert world.log.delivered == 1  # second reading fails the change filter
    assert world.log.dropped_filtered == 1


def test_full_round_single_member_delivers_one_packet(world_factory):
    # one head, one member, one queued reading: exactly one frame reaches the sink
    world = world_factory([(500.0, 600.0), (450.0, 600.0)], p_ch_fraction=0.5)
    proto = MleachProtocol(world)
    queue_readings(world, proto, 0, [7.0])
    queue_readings(world, proto, 1, [8.0])
    proto._round_start(0, 0)
    assert len(proto.ctx.cluster_heads) >= 1
    while len(world.queue):
        t_us, kind, payload = world.queue.pop()
        if kind != EventKind.ROUND_START:  # this round only, not the next it queued
            proto.handlers[kind](t_us, payload)
    assert world.log.delivered == 2
    assert world.log.conservation_residual() == -2  # nothing generated via traffic


def test_round_start_with_everyone_dead_is_a_noop(world_factory):
    world = world_factory([(0.0, 0.0), (50.0, 0.0)])
    world.ledger.charge_many(np.array([0, 1]), world.cfg.initial_energy_j, 0)
    proto = MleachProtocol(world)
    proto._round_start(0, 0)
    assert world.log.alive_series == [(0, 0)]
    assert world.log.ch_count_series == [(0, 0)]
    # nothing is queued for this round; only the next round's start
    assert len(world.queue) == 1
    assert world.queue.pop() == (world.cfg.round_us, EventKind.ROUND_START, 1)


def test_round_starts_are_queued_one_at_a_time(world_factory):
    world = world_factory(
        [(0.0, 0.0), (50.0, 0.0)], round_duration_s=1e-3, sim_duration_s=1
    )
    proto = MleachProtocol(world)
    proto.start()
    assert len(world.queue) == 1  # not one per round: 1,000
    assert world.queue.pop() == (0, EventKind.ROUND_START, 0)
    world.run(proto)  # starts the protocol again
    # every round still ran, in order, and none was queued past the horizon
    assert [r for r, _ in world.log.alive_series] == list(range(1000))


# -- the walk against a per-frame replay -------------------------------------------

LOG_COUNTERS = (
    "generated",
    "delivered",
    "dropped_filtered",
    "dropped_unreachable",
    "dropped_dead",
    "dropped_congested",
)


class PerFrame:
    """mleach's data plane one ``consume`` call per charge, on copies of the state.

    Each frame is a unicast per hop: a dead sender sends nothing and pays
    nothing, the sender pays tx, and the receiver, unless it is the sink,
    must be alive and pay rx. Member frames reach the head before the
    change filter runs; the head's route is walked after it.
    """

    def __init__(self, world, proto):
        self.world = world
        self.cfg = world.cfg
        self.ledger = copy_ledger(world.ledger)
        self.last = list(proto.last_forwarded)
        self.routes = proto.ctx.routes
        self.counts = dict.fromkeys(LOG_COUNTERS, 0)
        self.sunk = []  # (origin, delta) of every frame handed to the sink

    def unicast(self, u, v, bits, t_us):
        ledger, radio = self.ledger, self.world.radio
        if not ledger.alive[u]:
            return False
        if not ledger.consume(u, radio.tx_energy(bits, self.world.dist_row(v).item(u)), t_us):
            return False
        if v == self.world.bs_id:
            return True
        return bool(ledger.alive[v]) and ledger.consume(v, radio.rx_energy(bits), t_us)

    def change(self, origin, reading):
        delta = abs(reading - self.last[origin])
        if delta > self.cfg.filter_threshold:
            self.last[origin] = reading
            return delta
        self.counts["dropped_filtered"] += 1
        return None

    def accept(self, t_us, ch, origin, reading):
        delta = self.change(origin, reading)
        if delta is None:
            return
        path = self.routes.get(ch)
        if path is None:
            self.counts["dropped_unreachable"] += 1
            return
        for u, v in zip(path, path[1:]):
            if not self.unicast(u, v, self.cfg.packet_size_bits, t_us):
                self.counts["dropped_dead"] += 1
                return
        self.sunk.append((origin, delta))

    def slot(self, t_us, cm, ch, values):
        if not values:
            self.unicast(cm, ch, self.cfg.heartbeat_bits, t_us)
            return
        for reading in values:
            if self.unicast(cm, ch, self.cfg.packet_size_bits, t_us):
                self.accept(t_us, ch, cm, reading)
            else:
                self.counts["dropped_dead"] += 1

    def orphan(self, t_us, i, values):
        for idx, reading in enumerate(values):
            delta = self.change(i, reading)
            if delta is None:
                continue
            if not self.unicast(i, self.world.bs_id, self.cfg.packet_size_bits, t_us):
                self.counts["dropped_dead"] += len(values) - idx
                return
            self.sunk.append((i, delta))

    def finish(self, t_us, ch, values):
        for reading in values:
            self.accept(t_us, ch, ch, reading)


def chain_world(world_factory, **overrides):
    """Member 2 -> head 1 -> head 0 -> sink, on links of no round length."""
    world = world_factory([(517.3, 641.9), (402.7, 588.1), (351.9, 610.4)], **overrides)
    proto = MleachProtocol(world)
    proto.ctx = RoundContext()
    proto.ctx.routes = {0: [0, world.bs_id], 1: [1, 0, world.bs_id]}
    return world, proto


def prices(world, u, v, bits=4096):
    """rx, and tx from u to v."""
    radio = world.radio
    return radio.rx_energy(bits), radio.tx_energy(bits, world.dist_row(v).item(u))


def member_dies_mid_slot(world_factory):
    world, proto = relay_world(world_factory)
    world.ledger.energy[1] = 1.5 * prices(world, 1, 0)[1]
    return world, proto, ("slot", 1, 0), [1.0, 2.0, 3.0]


def head_dies_paying_rx(world_factory):
    world, proto = relay_world(world_factory)
    rx, tx = prices(world, 0, world.bs_id)
    world.ledger.energy[0] = rx + tx + rx / 2
    return world, proto, ("slot", 1, 0), [1.0, 2.0, 3.0]


def relay_dies_mid_route(world_factory):
    # head 0 relays head 1's frames; it pays rx then tx, and runs out on
    # the second frame's tx
    world, proto = chain_world(world_factory)
    rx, tx = prices(world, 0, world.bs_id)
    world.ledger.energy[0] = 2 * rx + 1.5 * tx
    return world, proto, ("slot", 2, 1), [1.0, 2.0, 3.0, 4.0]


def relay_pays_exactly_then_is_dead(world_factory):
    world, proto = chain_world(world_factory)
    rx, tx = prices(world, 0, world.bs_id)
    world.ledger.energy[0] = rx + tx
    return world, proto, ("finish", 1), [1.0, 2.0, 3.0]


def head_dies_and_keeps_filtering(world_factory):
    # a head's reading is filtered before its route is tried, even once
    # the head is dead
    world, proto = relay_world(world_factory)
    world.ledger.energy[0] = 1.5 * prices(world, 0, world.bs_id)[1]
    return world, proto, ("finish", 0), [1.0, 2.0, 2.05, 3.0]


def orphan_dies_mid_flush(world_factory):
    world = world_factory([(500.0, 600.0)])
    world.ledger.energy[0] = 2.5 * prices(world, 0, world.bs_id)[1]
    return world, MleachProtocol(world), ("orphan", 0), [5.0, 5.05, 6.0, 7.0, 8.0]


def orphan_pays_exactly_then_filters(world_factory):
    # the orphan dies paying its second frame in full: its next reading is
    # still filtered, and only a failed send loses the rest of the backlog
    world = world_factory([(500.0, 600.0)])
    world.ledger.energy[0] = 2 * prices(world, 0, world.bs_id)[1]
    return world, MleachProtocol(world), ("orphan", 0), [5.0, 6.0, 6.05, 8.0, 9.0]


def head_with_no_route(world_factory):
    world, proto = relay_world(world_factory)
    proto.ctx.routes = {0: None}
    return world, proto, ("slot", 1, 0), [1.0, 1.05, 2.0]


def filtered_readings(world_factory):
    world, proto = chain_world(world_factory, filter_threshold=0.5)
    proto.last_forwarded[2] = 10.0
    return world, proto, ("slot", 2, 1), [10.0, 10.2, 10.5, 11.2, 11.0, 9.0]


def heartbeat(world_factory):
    world, proto = relay_world(world_factory)
    return world, proto, ("slot", 1, 0), []


def heartbeat_kills_the_head(world_factory):
    world, proto = relay_world(world_factory)
    world.ledger.energy[0] = world.radio.rx_energy(world.cfg.heartbeat_bits) / 2
    return world, proto, ("slot", 1, 0), []


BACKLOGS = [
    member_dies_mid_slot,
    head_dies_paying_rx,
    relay_dies_mid_route,
    relay_pays_exactly_then_is_dead,
    head_dies_and_keeps_filtering,
    orphan_dies_mid_flush,
    orphan_pays_exactly_then_filters,
    head_with_no_route,
    filtered_readings,
    heartbeat,
    heartbeat_kills_the_head,
]


@pytest.mark.parametrize("case", BACKLOGS, ids=lambda f: f.__name__)
def test_walk_matches_a_per_frame_replay(world_factory, case):
    world, proto, (kind, *nodes), values = case(world_factory)
    if proto.ctx is None:
        proto.ctx = RoundContext()
    queue_readings(world, proto, nodes[0], values)
    ref = PerFrame(world, proto)
    before = {name: getattr(world.log, name) for name in LOG_COUNTERS}
    handed_off = []
    deliver = world.deliver_data

    def recording_deliver(t_us, k):
        handed_off.append(k)
        deliver(t_us, k)

    world.deliver_data = recording_deliver
    t_us = 1_000
    if kind == "slot":
        proto._slot(t_us, tuple(nodes))
        ref.slot(t_us, *nodes, values)
    elif kind == "orphan":
        proto._orphan_flush(t_us, nodes[0])
        ref.orphan(t_us, nodes[0], values)
    else:
        proto._round_finish(t_us, 0)
        ref.finish(t_us, nodes[0], values)
    assert_ledgers_equal(world.ledger, ref.ledger, case.__name__)
    after = {name: getattr(world.log, name) - before[name] for name in LOG_COUNTERS}
    assert after == dict(ref.counts, delivered=len(ref.sunk))
    # the frames that reached the sink, handed over in one call per backlog
    assert handed_off == ([len(ref.sunk)] if ref.sunk else [])
    assert proto.last_forwarded == ref.last
    assert proto.queued[nodes[0]] == 0
    # every case sends something, and the ones named for a death see one
    assert any(world.ledger.consumed)
    if "dies" in case.__name__ or "kills" in case.__name__ or "exactly" in case.__name__:
        assert not world.ledger.alive.all()


# -- the walk's charging rule: a payer left alive pays inline, any other
# charge goes through consume


@pytest.mark.parametrize("payer", [0, 1])
def test_an_exact_payment_goes_through_consume_and_kills_at_the_frame_time(
    world_factory, monkeypatch, payer
):
    world = world_factory([(500.0, 600.0), (300.0, 600.0)])
    ledger = world.ledger
    rx, tx = prices(world, 0, 1)
    # the sender pays exactly its tx, or the receiver exactly its rx
    price = (tx, rx)[payer]
    ledger.energy[payer] = price
    want = charged(ledger, [(0, tx), (1, rx)], 1_000)
    calls = consume_calls(monkeypatch, ledger)
    assert unicast(world, 0, 1, 200.0, 4096, 1_000)
    assert calls == [(payer, price, 1_000)]
    assert not ledger.alive[payer] and ledger.death_time_us[payer] == 1_000
    assert_ledgers_equal(ledger, want)
    # the survivor has more than a 1-bit frame's tx, so it pays inline, and
    # the dead node is not charged at all
    calls.clear()
    unicast(world, 1 - payer, payer, 200.0, 1, 2_000)
    assert calls == []
