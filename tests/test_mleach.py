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


def test_threshold_rejects_bad_arguments():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ch_threshold(p, 0)
    with pytest.raises(ValueError):
        ch_threshold(0.05, -1)


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
    g = build_ch_graph(world.dist, [0, 1, 2], world.bs_id, 900.0)
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
    ctx = RoundContext(0)
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
    ctx = RoundContext(0)
    orphans = proto._assign_members(ctx, [4, 9])
    # node 0 is exactly 100 m from both heads; the smaller id wins, and
    # node 3 sits exactly at the cluster radius: the boundary is inclusive
    assert ctx.clusters == {4: [0, 3], 9: [1]}
    assert orphans == [2, 5, 6, 7, 8]


def test_dead_nodes_neither_join_nor_orphan(world_factory):
    world = formation_world(world_factory)
    for i in (0, 5):
        world.ledger.consume(i, world.cfg.initial_energy_j, 0)
    ctx = RoundContext(0)
    orphans = MleachProtocol(world)._assign_members(ctx, [4, 9])
    assert ctx.clusters == {4: [3], 9: [1]}
    assert orphans == [2, 6, 7, 8]


def test_no_heads_means_everyone_is_orphaned(world_factory):
    world = world_factory([(0.0, 0.0), (50.0, 0.0)])
    proto = MleachProtocol(world)
    ctx = RoundContext(0)
    assert proto._assign_members(ctx, []) == [0, 1]
    assert ctx.clusters == {}


def test_tdma_slots_are_id_ordered(world_factory):
    pos = [(0.0, 0.0)] + [(1150.0, 1150.0)] * 9
    pos[3] = (100.0, 0.0)
    pos[7] = (0.0, 100.0)
    pos[9] = (100.0, 100.0)
    world = world_factory(pos)
    proto = MleachProtocol(world)
    ctx = RoundContext(0)
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
    ctx = RoundContext(0)
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
    ctx = RoundContext(0)
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
    proto.ctx = ctx = RoundContext(0)
    ctx.cluster_heads = [0]
    ctx.routes = {0: [0, world.bs_id]}
    return world, proto


def test_slot_drains_all_pending_readings(world_factory):
    world, proto = relay_world(world_factory)
    proto.pending[1] = [1.0, 2.0, 3.0]
    proto._slot(0, (1, 0))
    assert proto.pending[1] == []
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
    proto.pending[1] = [1.0, 2.0, 3.0]
    proto._slot(0, (1, 0))
    assert world.log.delivered == 1
    assert world.log.dropped_dead == 2
    assert not world.ledger.alive[1]
    assert world.ledger.energy[1] == 0.0


def test_dead_member_slot_sends_nothing(world_factory):
    world, proto = relay_world(world_factory)
    world.ledger.consume(1, world.cfg.initial_energy_j, 0)
    proto.pending[1] = [1.0]
    spent = world.ledger.consumed.copy()
    proto._slot(0, (1, 0))
    assert np.array_equal(world.ledger.consumed, spent)
    assert world.log.delivered == world.log.dropped_dead == 0
    # the queue is left for finish, which counts it as lost with the node
    assert proto.pending[1] == [1.0]
    proto.finish(world.cfg.sim_us)
    assert world.log.dropped_dead == 1


def test_filter_drops_small_changes(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    proto.last_forwarded[1] = 10.0
    proto._head_accept(0, 0, 1, 10.0)
    assert world.log.dropped_filtered == 1
    assert world.log.delivered == 0
    proto._head_accept(0, 0, 1, 10.5)  # change equal to the threshold: dropped
    assert world.log.dropped_filtered == 2
    assert proto.last_forwarded[1] == 10.0


def test_filter_forwards_big_changes_and_advances(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    proto.last_forwarded[1] = 10.0
    proto._head_accept(0, 0, 1, 11.0)
    assert world.log.delivered == 1
    assert proto.last_forwarded[1] == 11.0


def test_filter_always_forwards_first_reading(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    proto._head_accept(0, 0, 1, 0.0)
    assert world.log.delivered == 1
    assert world.log.dropped_filtered == 0


def test_filter_state_is_per_origin(world_factory):
    world, proto = relay_world(world_factory, filter_threshold=0.5)
    proto._head_accept(0, 0, 1, 10.0)
    proto._head_accept(0, 0, 0, 10.0)  # head's own stream is independent
    assert world.log.delivered == 2
    proto._head_accept(0, 0, 1, 10.2)
    proto._head_accept(0, 0, 0, 11.0)
    assert world.log.dropped_filtered == 1
    assert world.log.delivered == 3


def test_routeless_head_drops_as_unreachable(world_factory):
    world, proto = relay_world(world_factory)
    proto.ctx.routes = {0: None}
    proto._head_accept(0, 0, 1, 1.0)
    assert world.log.dropped_unreachable == 1
    assert world.log.delivered == 0


def test_multi_hop_route_charges_every_relay(world_factory):
    world = world_factory([(500.0, 600.0), (100.0, 600.0)])
    proto = MleachProtocol(world)
    proto.ctx = ctx = RoundContext(0)
    ctx.routes = {1: [1, 0, world.bs_id]}
    proto._head_accept(0, 1, 1, 42.0)
    assert world.log.delivered == 1
    assert world.ledger.consumed[1] == world.radio.tx_energy(4096, 400.0)
    expect0 = world.radio.rx_energy(4096) + world.radio.tx_energy(4096, 100.0)
    assert math.isclose(world.ledger.consumed[0], expect0, rel_tol=1e-12)


def test_orphan_flush_filters_then_sends(world_factory):
    world = world_factory([(500.0, 600.0)], filter_threshold=0.1)
    proto = MleachProtocol(world)
    proto.pending[0] = [5.0, 5.05, 6.0]
    proto._orphan_flush(0, 0)
    assert world.log.delivered == 2
    assert world.log.dropped_filtered == 1
    assert proto.pending[0] == []
    assert math.isclose(
        world.ledger.consumed[0], 2 * world.radio.tx_energy(4096, 100.0), rel_tol=1e-12
    )


def test_orphan_out_of_sink_range_drops_unreachable(world_factory):
    world = world_factory([(0.0, 600.0)], radio_range_rr_m=500.0)
    proto = MleachProtocol(world)
    proto.pending[0] = [1.0, 2.0]
    proto._orphan_flush(0, 0)
    assert world.log.dropped_unreachable == 2
    assert world.ledger.consumed[0] == 0.0


def test_dead_orphan_flush_sends_nothing(world_factory):
    world = world_factory([(500.0, 600.0)])
    world.ledger.consume(0, world.cfg.initial_energy_j, 0)
    proto = MleachProtocol(world)
    proto.pending[0] = [1.0]
    spent = world.ledger.total_consumed()
    proto._orphan_flush(0, 0)
    assert world.ledger.total_consumed() == spent
    assert proto.pending[0] == [1.0]
    assert world.log.delivered == world.log.dropped_dead == 0


def test_check_round_rejects_a_node_in_two_clusters():
    ctx = RoundContext(0)
    ctx.clusters = {0: [2, 3], 1: [3]}
    with pytest.raises(InvariantViolation, match="two clusters"):
        check_round(ctx, 500.0)
    ctx.clusters = {0: [2, 3], 1: [4]}
    check_round(ctx, 500.0)


def test_round_finish_flushes_head_backlog(world_factory):
    world, proto = relay_world(world_factory)
    proto.pending[0] = [3.0, 3.05]
    proto._round_finish(100, 0)
    assert proto.pending[0] == []
    assert world.log.delivered == 1  # second reading fails the change filter
    assert world.log.dropped_filtered == 1


def test_full_round_single_member_delivers_one_packet(world_factory):
    # one head, one member, one queued reading: exactly one frame reaches the sink
    world = world_factory([(500.0, 600.0), (450.0, 600.0)], p_ch_fraction=0.5)
    proto = MleachProtocol(world)
    proto.pending[0] = [7.0]
    proto.pending[1] = [8.0]
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
