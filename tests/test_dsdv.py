import math

import numpy as np
import pytest

from mleachsim.dsdv import DsdvProtocol
from mleachsim.engine import US, EventKind, RandomStreams
from mleachsim.kernels import LIVE, NO_ROUTE, ROUTE_BITS, route_key
from mleachsim.simulation import World, run_simulation

from conftest import assert_ledgers_equal, charged, consume_calls, small_config


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


def test_dumps_nobody_hears_change_no_route(world_factory):
    # the lone sensor is out of the sink's range, and no other sensor hears it
    world = world_factory([(0.0, 0.0)], radio_range_rr_m=500.0)
    checked = []
    world.check_routes = checked.append
    proto = DsdvProtocol(world)
    proto._bs_dump(0, None)
    assert proto.bs_seq == 2
    assert proto.key[0] == route_key(-1, NO_ROUTE)
    assert proto.next_hop[0] == -1
    assert world.ledger.consumed[0] == 0.0
    assert checked == [proto]  # every sink dump checks the routes
    # with a live sink route to advertise, the sensor pays for a dump nobody hears
    proto.key[0] = route_key(2, 1)
    proto.next_hop[0] = world.bs_id
    want = dump_energy(world, proto, 0)
    proto._node_dump(0, 0)
    assert world.ledger.consumed[0] == want
    assert proto.key[0] == route_key(2, 1)
    assert proto.known == [1]
    # the sink's dump queued its successor; the sensor's went to the next interval's list
    assert world.queue.pop()[:2] == (US, EventKind.BS_ROUTE_DUMP)
    assert len(world.queue) == 0
    assert [i for _, _, i in proto._next_dumps] == [0]


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
    proto._send(0, [(0, 0)])
    assert world.log.delivered == 1
    hop1 = world.radio.tx_energy(4096, 400.0)
    hop2 = world.radio.rx_energy(4096) + world.radio.tx_energy(4096, 100.0)
    assert math.isclose(world.ledger.consumed[0] - base0, hop1, rel_tol=1e-12)
    assert math.isclose(world.ledger.consumed[1] - base1, hop2, rel_tol=1e-12)


def test_send_without_route_drops_unreachable(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto._send(0, [(0, 0)])
    assert world.log.dropped_unreachable == 1
    assert world.ledger.consumed[0] == 0.0


def test_send_from_dead_node_counts_dropped_dead(world_factory):
    world = world_factory([(500.0, 600.0)])
    world.ledger.consume(0, world.cfg.initial_energy_j, 0)
    proto = DsdvProtocol(world)
    proto._send(0, [(0, 0)])
    assert world.log.dropped_dead == 1


def test_broken_next_hop_invalidates_route(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)
    proto._node_dump(1, 1)
    world.ledger.consume(1, world.cfg.initial_energy_j, 0)  # relay dies
    assert proto.key[0] == route_key(2, 2)
    proto._send(0, [(0, 0)])
    assert world.log.dropped_unreachable == 1
    assert world.log.delivered == 0
    # the next (odd) sequence with no metric; the next hop is left as it was
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert proto.next_hop[0] == 1
    assert proto.next_hop[0] != bs
    # an odd (invalidated) sequence refuses further sends without new info
    proto._send(0, [(0, 0)])
    assert world.log.dropped_unreachable == 2


def test_stale_link_beyond_range_is_broken(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)
    proto._node_dump(1, 1)
    # relay wandered out of range of node 0 since the tables were built
    world.positions[1] = (100.0 + 1000.0, 600.0 + 900.0)
    world.invalidate_distances()
    proto._send(0, [(0, 0)])
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
    proto._send(0, [(0, 0)])
    assert world.log.delivered == 1


# -- DsdvProtocol._send's hop walk at the edges: each send against the same
# charges made one consume at a time on a copy of the ledger

BITS = 4096  # small_config's packet size


def routed_relay_pair(world_factory):
    """relay_pair with its routes built: node 0 sends via node 1."""
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    proto._bs_dump(0, None)
    proto._node_dump(1, 1)
    return world, proto


def test_source_that_cannot_pay_tx_dies_and_charges_no_rx(world_factory):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    tx = world.radio.tx_energy(BITS, 400.0)
    ledger.energy[0] = tx / 2
    want = charged(ledger, [(0, tx)], 5)
    proto._send(5, [(5, 0)])
    assert world.log.dropped_dead == 1 and world.log.delivered == 0
    assert not ledger.alive[0] and ledger.death_time_us[0] == 5
    assert_ledgers_equal(ledger, want)


def test_relay_that_cannot_pay_rx_stops_the_frame(world_factory):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    rx = world.radio.rx_energy(BITS)
    ledger.energy[1] = rx / 2
    want = charged(ledger, [(0, world.radio.tx_energy(BITS, 400.0)), (1, rx)], 5)
    proto._send(5, [(5, 0)])
    assert world.log.dropped_dead == 1 and world.log.delivered == 0
    assert ledger.alive[0] and not ledger.alive[1]
    assert_ledgers_equal(ledger, want)


def test_relay_paying_its_exact_residual_receives_then_cannot_send(world_factory):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    rx = world.radio.rx_energy(BITS)
    ledger.energy[1] = rx
    # the rx succeeds and kills the relay; its own tx is never charged
    want = charged(ledger, [(0, world.radio.tx_energy(BITS, 400.0)), (1, rx)], 5)
    assert want.alive[0] and not want.alive[1]
    proto._send(5, [(5, 0)])
    assert world.log.dropped_dead == 1 and world.log.delivered == 0
    assert ledger.death_time_us[1] == 5
    assert_ledgers_equal(ledger, want)


def test_sink_hop_charges_tx_only(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto._bs_dump(0, None)
    want = charged(world.ledger, [(0, world.radio.tx_energy(BITS, 100.0))], 5)
    proto._send(5, [(5, 0)])
    assert world.log.delivered == 1
    assert_ledgers_equal(world.ledger, want)


def test_planted_routing_loop_ends_unreachable_at_the_hop_limit(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    proto.key[:] = route_key(2, 2)
    proto.next_hop[:] = [1, 0]
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    # node_count + 1 = 3 hops are sent and paid for; the fourth is refused
    hops = [(0, 1), (1, 0), (0, 1)]
    want = charged(world.ledger, [c for u, v in hops for c in ((u, tx), (v, rx))], 5)
    proto._send(5, [(5, 0)])
    assert world.log.dropped_unreachable == 1 and world.log.dropped_dead == 0
    assert_ledgers_equal(world.ledger, want)
    # the hop limit drops the frame without invalidating a route
    assert proto.key.tolist() == [route_key(2, 2)] * 2


def test_readings_become_jittered_send_events(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    proto.on_readings(np.array([0]), np.array([2]), 3_000_000)
    # one event carries the second's frames, queued at the second's own instant
    t_us, kind, frames = world.queue.pop()
    assert kind == EventKind.DATA_SEND
    assert t_us == 3_000_000
    assert frames[-1][0] <= frames[0][0]
    for t, _ in frames:
        assert 3_000_000 <= t < 4_000_000
    # one send per reading, each carrying only the origin's id
    assert [i for _, i in frames] == [0, 0]
    assert len(world.queue) == 0


def test_send_offsets_are_the_draws_of_a_per_reading_loop(world_factory):
    world = world_factory([(500.0, 600.0), (700.0, 600.0)])
    proto = DsdvProtocol(world)
    twin = RandomStreams(world.cfg.rng_seed).get("dsdv")
    sent = []
    world.queue.schedule = lambda t_us, kind, payload: sent.append((t_us, kind, payload))
    want = []
    for ids, counts, t_us in (([0, 1], [5, 1], 3_000_000), ([0], [3], 4_000_000)):
        proto.on_readings(np.array(ids), np.array(counts), t_us)
        frames = []
        for i, count in zip(ids, counts):
            for _ in range(count):
                frames.append((t_us + int(twin.random() * US), i))
        # in send order, ties in draw order, the next frame last
        frames = sorted(frames, key=lambda f: f[0])[::-1]
        want.append((t_us, EventKind.DATA_SEND, frames))
    assert sent == want
    assert world.streams.get("dsdv").bit_generator.state == twin.bit_generator.state


def test_on_readings_with_no_reading_queues_an_empty_run(world_factory):
    world = world_factory([(500.0, 600.0), (700.0, 600.0)])
    proto = DsdvProtocol(world)
    state = proto.stream.bit_generator.state
    proto.on_readings(np.array([0, 1]), np.array([0, 0]), 3_000_000)
    proto.on_readings(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4_000_000)
    # each second still gets its run, which sends that second's dumps
    runs = [world.queue.pop() for _ in range(2)]
    assert runs == [(3_000_000, EventKind.DATA_SEND, []), (4_000_000, EventKind.DATA_SEND, [])]
    assert len(world.queue) == 0
    assert proto.stream.bit_generator.state == state


class FixedOffsets:
    """A stand-in for the dsdv stream that hands out the given offsets."""

    def __init__(self, offsets):
        self.offsets = offsets

    def random(self, n):
        assert n == len(self.offsets)
        return np.array(self.offsets)


def test_frames_of_one_microsecond_go_in_id_order(world_factory):
    # node 1 hears the sink; nodes 0 and 2 reach it only through relay 3
    world = world_factory(
        [(450.0, 300.0), (600.0, 750.0), (750.0, 300.0), (600.0, 400.0)],
        radio_range_rr_m=300.0,
    )
    proto = DsdvProtocol(world)
    proto._bs_dump(0, None)
    proto._node_dump(0, 3)
    queue = world.queue
    while len(queue):
        queue.pop()  # the sink's next dump
    proto._next_dumps.clear()  # and the relay's
    bs, ledger = world.bs_id, world.ledger
    assert proto.next_hop.tolist() == [3, bs, 3, bs]
    # the relay can pay for exactly one frame, and dies paying it
    bits = world.cfg.packet_size_bits
    hop = proto.next_hop.tolist()
    tx = {i: world.radio.tx_energy(bits, world.dist_row(hop[i]).item(i)) for i in range(4)}
    ledger.energy[3] = world.radio.rx_energy(bits) + tx[3]
    before = ledger.consumed.copy()
    # node 1's one reading comes first; node 0's two and node 2's one share a microsecond
    proto.stream = FixedOffsets([0.5, 0.5, 0.25, 0.5])
    proto.on_readings(np.array([0, 1, 2]), np.array([2, 1, 1]), 3 * US)
    t_us, kind, frames = queue.pop()
    assert (t_us, kind) == (3 * US, EventKind.DATA_SEND)
    assert frames[-1][0] == 3_250_000
    proto.handlers[kind](t_us, frames)
    assert frames == []
    # the lowest id went first: node 0's first frame used the relay up, its
    # second and node 2's found the relay dead and invalidated their routes
    paid = (np.asarray(ledger.consumed) - before).tolist()
    assert paid[:3] == [tx[0], tx[1], 0.0]
    assert not ledger.alive[3] and ledger.death_time_us[3] == 3_500_000
    assert [proto.key[i] & ROUTE_BITS == LIVE for i in range(4)] == [False, True, False, True]
    assert world.log.delivered == 2 and world.log.dropped_unreachable == 2


def test_run_yields_to_a_dump_queued_at_its_next_frame(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)  # node 1 hears the sink; node 0 has no route yet
    queue = world.queue
    # node 1's dump at 6 us; a sink dump, of a lower kind, is queued at 7 us
    proto._next_dumps.append((6, 0, 1))
    queue.schedule(7, EventKind.BS_ROUTE_DUMP, None)
    frames = [(7, 0), (5, 1)]
    proto._send(5, frames)
    # node 1's frame went at 5 us and its dump at 6 us; node 0's frame waits
    # in the list for the sink's dump, and nothing more is queued
    assert frames == [(7, 0)]
    assert proto.key[0] == route_key(2, 2) and proto.next_hop[0] == 1
    assert world.log.delivered == 1
    assert sorted(e[:2] for e in queue._heap) == [
        (7, EventKind.BS_ROUTE_DUMP),
        (US, EventKind.BS_ROUTE_DUMP),
    ]
    assert [i for _, _, i in proto._dumps + proto._next_dumps] == [1]
    t_us, kind, payload = queue.pop()
    assert t_us == 7
    proto.handlers[kind](t_us, payload)
    proto._send(7, frames)
    # the sink's fresh sequence reached node 1 first; node 0's frame then took its route
    assert proto.key[1] == route_key(4, 1) and proto.next_hop[1] == bs
    assert world.log.delivered == 2 and world.log.dropped_unreachable == 0
    assert frames == []


def test_a_dump_goes_before_a_frame_at_its_microsecond(world_factory):
    world = relay_pair(world_factory)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto._bs_dump(0, None)  # node 1 hears the sink; node 0 has no route yet
    proto._next_dumps.append((7, 0, 1))
    frames = [(7, 0), (5, 1)]
    proto._send(5, frames)
    # node 1's dump at 7 us gave node 0 its route via node 1, which node 0's
    # frame at 7 us then took
    assert frames == []
    assert proto.key[0] == route_key(2, 2) and proto.next_hop[0] == 1
    assert proto.next_hop[1] == bs
    assert world.log.delivered == 2 and world.log.dropped_unreachable == 0
    # what is left is the sink's next dump, queued, and node 1's, listed
    assert [e[:2] for e in world.queue._heap] == [(US, EventKind.BS_ROUTE_DUMP)]
    assert [i for _, _, i in proto._dumps + proto._next_dumps] == [1]


def test_dumps_of_one_microsecond_go_in_draw_order(world_factory):
    # three nodes in a line, each hearing only its neighbours
    world = world_factory([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], radio_range_rr_m=400.0)
    proto = DsdvProtocol(world)
    # drawn in the order 2, 1, 0: node 2's dump reaches node 1 before node 1
    # dumps to node 0, and node 0's own dump comes too late for node 2
    proto._next_dumps[:] = [(9, 0, 2), (9, 1, 1), (9, 2, 0)]
    proto._send(0, [])
    assert proto.known == [0b111, 0b111, 0b110]
    assert proto._next_dumps == []


def test_a_frame_tied_with_a_queued_data_send_goes(world_factory):
    world, proto = routed_relay_pair(world_factory)
    world.queue.schedule(7, EventKind.DATA_SEND, [(7, 1)])
    frames = [(7, 0), (5, 0)]
    proto._send(5, frames)
    # (7, DATA_SEND) sorts at the head's (time, kind), so node 0's second frame goes
    assert frames == []
    assert world.log.delivered == 2


def test_start_schedules_bs_dumps_and_first_node_dumps(world_factory):
    world = world_factory([(500.0, 600.0), (700.0, 600.0)])
    proto = DsdvProtocol(world)
    proto.start()
    # one sink dump is queued at start, and each queues the next; the first
    # node dumps go to the first interval's list, in draw order
    assert world.queue.pop() == (0, EventKind.BS_ROUTE_DUMP, None)
    assert len(world.queue) == 0
    assert [(k, i) for _, k, i in proto._next_dumps] == [(0, 0), (1, 1)]
    assert all(0 <= t < proto.interval_us for t, _, _ in proto._next_dumps)
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
    log = run_simulation(small_config(), "dsdv")
    assert log.generated > 0
    assert log.delivered > 0
    assert log.conservation_residual() == 0


def test_node_dump_reschedules_until_horizon(world_factory):
    world = world_factory([(500.0, 600.0)])
    proto = DsdvProtocol(world)
    dumps = proto._next_dumps
    proto._node_dump(0, 0)
    assert len(world.queue) == 0
    ((t_us, index, i),) = dumps
    assert (index, i) == (0, 0)
    assert proto.interval_us <= t_us < 2 * proto.interval_us
    # a jittered dump is rescheduled into the interval after its own
    proto._node_dump(t_us, 0)
    t_us, index, i = dumps[-1]
    assert (index, i) == (1, 0)
    assert 2 * proto.interval_us <= t_us < 3 * proto.interval_us
    # an interval whose successor would land past the end is not rescheduled
    last = world.cfg.sim_duration_s - 1
    proto._node_dump(last * proto.interval_us, 0)
    assert len(dumps) == 2 and len(world.queue) == 0


def run_logging_dumps(cfg):
    """Run DSDV over cfg; return the run's world and, per run, its time and its dumps."""
    world = World(cfg, "dsdv")
    proto = DsdvProtocol(world)
    runs = []
    send, dump = proto._send, proto._node_dump

    def logged_send(t_us, frames):
        runs.append((t_us, []))
        send(t_us, frames)

    def logged_dump(t_us, i):
        runs[-1][1].append((t_us, i))
        dump(t_us, i)

    proto.handlers[EventKind.DATA_SEND] = logged_send
    proto._node_dump = logged_dump
    world.run(proto)
    return world, runs


def test_a_short_interval_sends_several_dumps_of_a_node_in_one_run():
    cfg = small_config(dsdv_update_interval_s=0.3, sim_duration_s=4)
    world, runs = run_logging_dumps(cfg)
    # one run a second, each sending its own second's dumps in time order
    assert [t for t, _ in runs] == [s * US for s in range(4)]
    for t, dumps in runs:
        times = [d for d, _ in dumps]
        assert times == sorted(times) and t <= times[0] and times[-1] < t + US
    # every node dumps once in each 0.3 s interval of the horizon
    iv = cfg.dsdv_interval_us
    for i in range(cfg.node_count):
        mine = [d for _, dumps in runs for d, j in dumps if j == i]
        assert [d // iv for d in mine] == list(range(len(mine)))
        # every interval that ends by the horizon, and perhaps the one it cuts
        assert cfg.sim_us // iv <= len(mine) <= -(-cfg.sim_us // iv)
    # a second meets two full intervals and two partial ones: a node dumps
    # two to four times in one run, and some node three times or more
    for _, dumps in runs:
        per_node = [sum(j == i for _, j in dumps) for i in range(cfg.node_count)]
        assert min(per_node) >= 2 and max(per_node) >= 3
    assert world.ledger.alive.all()


def test_a_second_with_no_readings_still_sends_its_dumps():
    cfg = small_config(traffic_on_s=0.0, sim_duration_s=4)
    world, runs = run_logging_dumps(cfg)
    assert world.log.generated == 0
    # an empty run each second, each sending every node's dump of that second
    assert [t for t, _ in runs] == [s * US for s in range(4)]
    for t, dumps in runs:
        assert sorted(i for _, i in dumps) == list(range(cfg.node_count))
        assert all(t <= d < t + US for d, _ in dumps)


def test_a_relay_killed_by_its_own_dump_breaks_the_link_for_a_later_frame_of_the_run(
    world_factory,
):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    proto._next_dumps.clear()
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    tx1 = world.radio.tx_energy(BITS, 100.0)
    dump = dump_energy(world, proto, 1)
    # the relay can pay for one frame, then half of its dump at 6 us
    ledger.energy[1] = rx + tx1 + dump / 2
    proto._next_dumps.append((6, 0, 1))
    want = charged(ledger, [(0, tx), (1, rx), (1, tx1)], 5)
    want.consume(1, dump, 6)
    proto._send(5, [(7, 0), (5, 0)])
    assert not ledger.alive[1] and ledger.death_time_us[1] == 6
    # node 0's link was verified by the first frame; the second, in the same
    # run, finds the relay dead, so it breaks the link and pays nothing
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert world.log.delivered == 1
    assert world.log.dropped_unreachable == 1 and world.log.dropped_dead == 0
    assert_ledgers_equal(ledger, want)


def test_update_interval_past_horizon_leaves_no_events():
    # a first dump drawn past the end of the run is never scheduled
    cfg = small_config(sim_duration_s=2, dsdv_update_interval_s=2.5)
    log = run_simulation(cfg, "dsdv")
    assert log.conservation_residual() == 0


# -- the link memo: a hop verified under its sender's key is not checked again
# until the key, the positions or a life changes. Each test sends once to fill
# it, changes one of the three, and holds the next send to a copy of the
# ledger charged one consume at a time.


def sent_as(world, proto, t_us, frames, charges):
    """Send frames in one run; the ledger must equal charges made on a copy."""
    want = charged(world.ledger, charges, t_us)
    proto._send(t_us, frames)
    assert_ledgers_equal(world.ledger, want)


def test_an_adopted_route_is_priced_afresh(world_factory):
    # node 0 hears the sink (350 m) and relay 1 (250 m), and routes via the relay
    world = world_factory([(250.0, 600.0), (500.0, 600.0)], radio_range_rr_m=450.0)
    proto = DsdvProtocol(world)
    bs = world.bs_id
    proto.key[:] = [route_key(2, 2), route_key(2, 1)]
    proto.next_hop[:] = [1, bs]
    tx, rx = world.radio.tx_energy(BITS, 250.0), world.radio.rx_energy(BITS)
    sent_as(world, proto, 5, [(5, 0)], [(0, tx), (1, rx), (1, world.radio.tx_energy(BITS, 100.0))])
    # the sink's dump is one hop shorter at the same sequence: node 0 adopts it
    proto._bs_dump(6, None)
    assert proto.next_hop.tolist() == [bs, bs]
    sent_as(world, proto, 7, [(7, 0)], [(0, world.radio.tx_energy(BITS, 350.0))])
    assert world.log.delivered == 2


def test_an_invalidated_key_is_not_sent_on(world_factory):
    world, proto = routed_relay_pair(world_factory)
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    sent_as(world, proto, 5, [(5, 0)], [(0, tx), (1, rx), (1, world.radio.tx_energy(BITS, 100.0))])
    # node 0's key as a broken link leaves it: the next odd sequence, no metric
    proto.key[0] = route_key(3, NO_ROUTE)
    sent_as(world, proto, 6, [(6, 0)], [])
    assert world.log.delivered == 1 and world.log.dropped_unreachable == 1


def test_a_mobility_step_prices_every_link_afresh(world_factory):
    world, proto = routed_relay_pair(world_factory)
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    sent_as(world, proto, 5, [(5, 0)], [(0, tx), (1, rx), (1, world.radio.tx_energy(BITS, 100.0))])
    # both stay in range of their next hops, at new distances
    world.positions[0] = (300.0, 600.0)
    world.positions[1] = (550.0, 600.0)
    world.invalidate_distances()
    tx0, tx1 = world.radio.tx_energy(BITS, 250.0), world.radio.tx_energy(BITS, 50.0)
    sent_as(world, proto, 6, [(6, 0)], [(0, tx0), (1, rx), (1, tx1)])
    # and a step that takes the relay out of range breaks node 0's link
    world.positions[1] = (1100.0, 1500.0)
    world.invalidate_distances()
    sent_as(world, proto, 7, [(7, 0)], [])
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert world.log.delivered == 2 and world.log.dropped_unreachable == 1


def test_a_death_between_runs_breaks_the_link_to_the_dead(world_factory):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    sent_as(world, proto, 5, [(5, 0)], [(0, tx), (1, rx), (1, world.radio.tx_energy(BITS, 100.0))])
    # the relay cannot pay for its own dump, and dies in the broadcast
    ledger.energy[1] = ledger.energy[1] / 1e12
    proto._node_dump(6, 1)
    assert not ledger.alive[1] and ledger.death_time_us[1] == 6
    sent_as(world, proto, 7, [(7, 0)], [])
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert world.log.delivered == 1 and world.log.dropped_unreachable == 1


def test_a_relay_that_dies_in_a_run_breaks_the_link_for_the_next_frame(world_factory):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    sent_as(world, proto, 5, [(5, 0)], [(0, tx), (1, rx), (1, world.radio.tx_energy(BITS, 100.0))])
    # the relay pays exactly its residual for the first frame's rx and dies
    # there; the second frame, in the same run, finds it dead
    ledger.energy[1] = rx
    sent_as(world, proto, 7, [(8, 0), (7, 0)], [(0, tx), (1, rx)])
    assert not ledger.alive[1] and ledger.death_time_us[1] == 7
    assert proto.key[0] == route_key(3, NO_ROUTE)
    assert world.log.dropped_dead == 1 and world.log.dropped_unreachable == 1


@pytest.mark.parametrize("payer", [0, 1])
def test_an_exact_payment_goes_through_consume_and_kills_at_the_frame_time(
    world_factory, monkeypatch, payer
):
    world, proto = routed_relay_pair(world_factory)
    ledger = world.ledger
    tx, rx = world.radio.tx_energy(BITS, 400.0), world.radio.rx_energy(BITS)
    # node 0 pays exactly its tx, or relay 1 exactly its rx
    ledger.energy[payer] = (tx, rx)[payer]
    calls = consume_calls(monkeypatch, ledger)
    want = charged(ledger, [(0, tx), (1, rx)], 5)
    proto._send(5, [(5, 0)])
    assert calls == [(payer, (tx, rx)[payer], 5)]
    assert not ledger.alive[payer] and ledger.death_time_us[payer] == 5
    if payer == 0:
        # the frame was paid for: it goes on, and the relay, alive, sends it
        want.consume(1, world.radio.tx_energy(BITS, 100.0), 5)
        assert world.log.delivered == 1
    else:
        assert world.log.dropped_dead == 1
    assert_ledgers_equal(ledger, want)


def test_a_payer_with_more_than_the_price_pays_inline(world_factory, monkeypatch):
    world, proto = routed_relay_pair(world_factory)
    calls = consume_calls(monkeypatch, world.ledger)
    proto._send(5, [(6, 0), (5, 0)])
    assert calls == [] and world.log.delivered == 2
