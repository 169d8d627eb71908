import math

import numpy as np

from mleachsim.dsdv import DsdvProtocol
from mleachsim.engine import US, EventKind, RandomStreams
from mleachsim.kernels import LIVE, NO_ROUTE, ROUTE_BITS, route_key
from mleachsim.simulation import run_simulation

from conftest import small_config


def relay_pair(world_factory):
    """Node 1 bridges node 0 to the sink; only node 1 hears the sink."""
    return world_factory(
        [(100.0, 600.0), (500.0, 600.0)], radio_range_rr_m=450.0
    )


def test_fresh_tables_know_only_self(world_factory):
    proto = DsdvProtocol(world_factory([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]))
    assert proto.known == [1 << 0, 1 << 1, 1 << 2]
    for i in range(3):
        assert proto.key[i] == route_key(-1, NO_ROUTE)
        assert proto.next_hop[i] == -1
    assert proto.key.shape == proto.next_hop.shape == (3,)
    # the data plane's views alias the sink-route arrays
    assert np.shares_memory(proto.sink_key, proto.key)
    assert np.shares_memory(proto.sink_hop, proto.next_hop)


def test_bs_dump_installs_one_hop_routes(world_factory):
    # nodes 0 and 1 hear the sink; node 2 is out of range
    world = world_factory(
        [(500.0, 600.0), (700.0, 600.0), (0.0, 0.0)], radio_range_rr_m=500.0
    )
    proto = DsdvProtocol(world)
    proto._bs_dump(0, None)
    bs = world.bs_id
    for i in (0, 1):
        assert proto.key[i] == route_key(2, 1)
        assert proto.next_hop[i] == bs
        assert world.ledger.consumed[i] == world.radio.rx_energy(64)
    assert proto.key[2] == route_key(-1, NO_ROUTE)
    assert proto.next_hop[2] == -1
    # the sink advertises only itself: no sensor routes are learned
    assert proto.known == [1 << 0, 1 << 1, 1 << 2]
    assert world.ledger.consumed[2] == 0.0


def test_bs_dump_sequence_marches_by_two(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    for want in (2, 4, 6):
        proto._bs_dump(0, None)
        assert proto.bs_seq == want
        assert proto.key[0] == route_key(want, 1)


def dump_energy(world, proto, i):
    """tx cost of node i's dump: its known sensors plus a live sink entry."""
    entries = proto.known[i].bit_count() + (proto.key[i] & ROUTE_BITS == LIVE)
    return world.radio.tx_energy(entries * world.cfg.dsdv_entry_bits, world.cfg.radio_range_rr_m)


def test_node_dump_advertises_only_valid_entries(world_factory):
    # lone node: its table holds just itself, so the dump is one entry long
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto._node_dump(0, 0)
    bits = world.cfg.dsdv_entry_bits
    assert world.ledger.consumed[0] == world.radio.tx_energy(bits, 900.0)
    assert world.ledger.consumed[0] == dump_energy(world, proto, 0)
    assert proto.known[0] == 1
    # a live sink route is one entry more; an invalidated one is not advertised
    for sink, entries in ((route_key(2, 1), 2), (route_key(3, NO_ROUTE), 1)):
        proto.key[0] = sink
        before = float(world.ledger.consumed[0])
        want = dump_energy(world, proto, 0)
        proto._node_dump(0, 0)
        assert want == world.radio.tx_energy(entries * bits, 900.0)
        assert math.isclose(world.ledger.consumed[0] - before, want, rel_tol=1e-12)


def test_node_dump_counts_every_known_sensor(world_factory):
    # three nodes in a line, each hearing only its neighbours
    world = world_factory([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], radio_range_rr_m=400.0)
    proto = DsdvProtocol(world)
    proto._node_dump(0, 0)
    proto._node_dump(0, 1)  # node 1 now knows 0 and passes both to 2
    assert proto.known == [0b011, 0b011, 0b111]
    before = float(world.ledger.consumed[2])
    want = dump_energy(world, proto, 2)
    proto._node_dump(0, 2)
    assert want == world.radio.tx_energy(3 * world.cfg.dsdv_entry_bits, 400.0)
    assert math.isclose(world.ledger.consumed[2] - before, want, rel_tol=1e-12)
    assert proto.known == [0b011, 0b111, 0b111]


def test_node_dump_spreads_routes_one_hop(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)  # node 1 hears the sink (d=100); node 0 is too far (d=500)
    assert proto.key[1] == route_key(2, 1)
    assert proto.key[0] == route_key(-1, NO_ROUTE)
    proto._node_dump(1, 1)
    # node 1's sequence for the sink, one hop longer
    assert proto.key[0] == route_key(2, 2)
    assert proto.next_hop[0] == 1
    assert proto.next_hop[1] == bs
    # node 0 also learned a route to node 1 itself; node 1 heard nothing new
    assert proto.known == [0b11, 0b10]


def test_send_walks_next_hops_to_the_sink(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)
    proto._node_dump(1, 1)
    base0 = float(world.ledger.consumed[0])
    base1 = float(world.ledger.consumed[1])
    proto._send(0, 0)
    assert world.log.delivered == 1
    hop1 = world.radio.tx_energy(4096, 400.0)
    hop2 = world.radio.rx_energy(4096) + world.radio.tx_energy(4096, 100.0)
    assert math.isclose(world.ledger.consumed[0] - base0, hop1, rel_tol=1e-12)
    assert math.isclose(world.ledger.consumed[1] - base1, hop2, rel_tol=1e-12)


def test_send_without_route_drops_unreachable(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto._send(0, 0)
    assert world.log.dropped_unreachable == 1
    assert world.ledger.consumed[0] == 0.0


def test_send_from_dead_node_counts_dropped_dead(world_factory):
    world = world_factory([(500.0, 600.0)])
    world.ledger.consume(0, world.cfg.initial_energy_j, 0)
    proto = DsdvProtocol(world)
    proto._send(0, 0)
    assert world.log.dropped_dead == 1


def test_broken_next_hop_invalidates_route(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)
    proto._node_dump(1, 1)
    world.ledger.consume(1, world.cfg.initial_energy_j, 0)  # relay dies
    assert proto.key[0] == route_key(2, 2)
    proto._send(0, 0)
    assert world.log.dropped_unreachable == 1
    assert world.log.delivered == 0
    # the next (odd) sequence with no metric; the next hop is left as it was
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert proto.next_hop[0] == 1
    assert proto.next_hop[0] != bs
    # an odd (invalidated) sequence refuses further sends without new info
    proto._send(0, 0)
    assert world.log.dropped_unreachable == 2


def test_stale_link_beyond_range_is_broken(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)
    proto._node_dump(1, 1)
    # relay wandered out of range of node 0 since the tables were built
    world.positions[1] = (100.0 + 1000.0, 600.0 + 900.0)
    from mleachsim import kernels

    world.dist = kernels.pairwise_distances(world.positions)
    proto._send(0, 0)
    assert world.log.dropped_unreachable == 1
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert proto.next_hop[0] == 1 and proto.next_hop[1] == bs


def test_fresh_bs_dump_repairs_invalidated_route(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)
    proto.key[0] = route_key(3, NO_ROUTE)  # locally invalidated
    proto._bs_dump(0, None)  # newer even sequence wins over the odd local mark
    assert proto.key[0] == route_key(4, 1)
    assert proto.next_hop[0] == bs
    proto._send(0, 0)
    assert world.log.delivered == 1


def test_readings_become_jittered_send_events(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto.on_readings(0, [1.0, 2.0], 3_000_000)
    fired = [world.queue.pop() for _ in range(2)]
    for t_us, kind, payload in sorted(fired):
        assert kind == EventKind.DATA_SEND
        assert 3_000_000 <= t_us < 4_000_000
    # one send per reading, each carrying only the origin's id
    assert [p for _, _, p in fired] == [0, 0]
    assert len(world.queue) == 0


def test_send_offsets_are_the_draws_of_a_per_reading_loop(world_factory):
    world = world_factory([(500.0, 600.0), (700.0, 600.0)])
    proto = DsdvProtocol(world)
    twin = RandomStreams(world.cfg.rng_seed).get("dsdv")
    sent = []
    world.queue.schedule = lambda t_us, kind, payload: sent.append((t_us, kind, payload))
    want = []
    for i, count, t_us in ((0, 5, 3_000_000), (1, 1, 3_000_000), (0, 3, 4_000_000)):
        proto.on_readings(i, [0.5] * count, t_us)
        for _ in range(count):
            want.append((t_us + int(twin.random() * US), EventKind.DATA_SEND, i))
    assert sent == want
    assert world.streams.get("dsdv").bit_generator.state == twin.bit_generator.state


def test_start_schedules_bs_dumps_and_first_node_dumps(world_factory):
    world = world_factory([(500.0, 600.0), (700.0, 600.0)])
    proto = DsdvProtocol(world)
    proto.start()
    kinds = {}
    while len(world.queue):
        t_us, kind, payload = world.queue.pop()
        kinds.setdefault(kind, []).append((t_us, payload))
    # one sink dump is queued at start, and each queues the next
    assert kinds[EventKind.BS_ROUTE_DUMP] == [(0, None)]
    assert sorted(i for _, i in kinds[EventKind.ROUTE_DUMP]) == [0, 1]
    assert all(0 <= t < proto.interval_us for t, _ in kinds[EventKind.ROUTE_DUMP])
    # a run still makes one sink dump per second
    world = world_factory([(500.0, 600.0), (700.0, 600.0)])
    proto = DsdvProtocol(world)
    fired = []
    real_dump = proto.handlers[EventKind.BS_ROUTE_DUMP]

    def bs_dump(t_us, payload):
        fired.append(t_us)
        real_dump(t_us, payload)

    proto.handlers[EventKind.BS_ROUTE_DUMP] = bs_dump
    world.run(proto)
    assert fired == [t * US for t in range(world.cfg.sim_duration_s)]
    assert proto.bs_seq == 2 * world.cfg.sim_duration_s


def test_small_run_is_loop_free_and_conserves_packets():
    log = run_simulation(small_config(), "dsdv", strict=True)
    assert log.generated > 0
    assert log.delivered > 0
    assert log.conservation_residual() == 0


def test_node_dump_reschedules_until_horizon(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto._node_dump(0, 0)
    assert len(world.queue) == 1
    t_us, kind, payload = world.queue.pop()
    assert kind == EventKind.ROUTE_DUMP
    assert payload == 0
    assert proto.interval_us <= t_us < 2 * proto.interval_us
    # a jittered dump is rescheduled into the interval after its own
    proto._node_dump(t_us, 0)
    t_us, kind, payload = world.queue.pop()
    assert 2 * proto.interval_us <= t_us < 3 * proto.interval_us
    # an interval whose successor would land past the end is not rescheduled
    last = world.cfg.sim_duration_s - 1
    proto._node_dump(last * proto.interval_us, 0)
    assert len(world.queue) == 0


def test_update_interval_past_horizon_leaves_no_events():
    # a first dump drawn past the end of the run is never scheduled
    cfg = small_config(sim_duration_s=2, dsdv_update_interval_s=2.5)
    log = run_simulation(cfg, "dsdv", strict=True)
    assert log.conservation_residual() == 0
