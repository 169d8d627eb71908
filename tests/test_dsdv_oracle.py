"""DSDV route tables cross-checked against a scalar model of the protocol.

The oracle keeps every node's table as a dict of dicts, destination ->
(sequence, metric, next hop), and applies the rules of Perkins & Bhagwat
(SIGCOMM 1994) one entry at a time: a node advertises its even-sequenced,
finite entries; a receiver adopts an entry, one hop longer and via the
sender, iff its sequence is strictly newer, or equal with a strictly
shorter metric, and never for itself; a sender that finds its next hop to
the sink broken marks that entry with the next odd sequence and no metric.

It is driven by a real run. The sink's dumps are replayed on the oracle
with the same listeners; so is every node dump, through a wrapper on
``DsdvProtocol._node_dump``, as a second's run calls it between its
frames. Each stretch of frames between two items of a run that are not
frames (its start, a dump, its end) is walked again, frame by frame at
each frame's own time, on a copy of the ledger taken at the stretch's
start, charging each hop through EnergyLedger.consume. That copy must then
equal the run's ledger bit for bit, arrays and totals, and the frames
must end the same way, so DsdvProtocol._send's inline charges, and the
totals it writes back around each dump, are held to a per-hop consume
walk, clamped charges and deaths on the path included. A run must send
its second's dumps and frames in (time, kind) order, a dump before a
frame at one microsecond, and all of them, as the next queued event is
the next second's; a quarter of the draws put frames and dumps on one
10 ms grid, so that frames share microseconds with dumps. DsdvProtocol
keeps only what a run can observe, and after every dump it must match
the oracle: the packed sink routes decode to the oracle's sink entries
cell for cell, each node's ``known`` bits are the sensors it holds an
advertisable entry for, and each dump is as long as the oracle's
advertised table. The oracle asserts the
invariant that makes this reduction exact: an advertisable entry to a
sensor never stops being advertisable. A second set of draws makes dumps
costly and traffic dense, so that relays die in dumps while their
neighbours still route through them: a sender that finds such a relay
dead must invalidate its route, as it would after any other death.
"""

import dataclasses
import math

import numpy as np

from mleachsim.config import SimConfig
from mleachsim.dsdv import DsdvProtocol
from mleachsim.engine import US, EventKind
from mleachsim.kernels import NO_ROUTE
from mleachsim.simulation import World

from conftest import assert_ledgers_equal, copy_ledger

NO_ENTRY = (-1, int(NO_ROUTE), -1)


def decode(key):
    """(seq, metric) of a packed route key, in Python ints."""
    return key >> 31, 2**31 - 1 - (key & (2**31 - 1))


class Oracle:
    def __init__(self, n):
        self.n = n
        self.bs = n
        self.table = {i: {i: (0, 0, i)} for i in range(n)}
        self.own_seq = [0] * n
        self.bs_seq = 0
        self.adopted = {"newer": 0, "shorter": 0}
        self.invalidated = 0
        self.died_on_path = 0
        # per sender, its sink entry and the mobility step of its last paid hop;
        # the sensors that died in a dump; and sends that found their next
        # hop dead in a dump since they last sent through it, in one step
        self.last_hop = {}
        self.dump_deaths = set()
        self.dead_since_last_hop = 0
        # stretches of more than one frame between two items of a run that
        # are not frames (its start, a dump, its end); dumps sent between
        # two frames of one run, and dumps at the microsecond of a frame of
        # their run
        self.stretches_of_many = 0
        self.dumps_between_frames = 0
        self.dumps_at_a_frame_time = 0
        # whether DsdvProtocol found every live node's known full
        self.saturated = False

    def entry(self, i, d):
        return self.table[i].get(d, NO_ENTRY)

    def advertised(self, i):
        return {
            d: (seq, metric)
            for d, (seq, metric, _) in self.table[i].items()
            if advertisable(seq, metric)
        }

    def merge(self, sender, adv, receivers):
        for r in receivers:
            for d, (seq, metric) in adv.items():
                if d == r:
                    continue
                old_seq, old_metric, _ = self.entry(r, d)
                if seq > old_seq:
                    self.adopted["newer"] += 1
                elif seq == old_seq and metric + 1 < old_metric:
                    self.adopted["shorter"] += 1
                else:
                    continue
                if d != self.bs and advertisable(old_seq, old_metric):
                    assert advertisable(seq, metric + 1), f"node {r} lost its route to {d}"
                self.table[r][d] = (seq, metric + 1, sender)

    def bs_dump(self, survivors):
        self.bs_seq += 2
        if survivors:
            self.merge(self.bs, {self.bs: (self.bs_seq, 0)}, survivors)

    def node_dump(self, i, alive, survivors, bits, entry_bits):
        if not alive[i]:
            return
        self.own_seq[i] += 2
        self.table[i][i] = (self.own_seq[i], 0, i)
        assert bits == len(self.advertised(i)) * entry_bits, f"dump size of node {i}"
        if survivors:
            self.merge(i, self.advertised(i), survivors)

    def send(self, i, ledger, pos, radio, radio_range, bits, t_us, step):
        """Walk i's route to the sink, charging each hop to ledger.

        pos holds every node's (x, y), the sink last, as the send saw them
        at mobility step ``step``. Returns which log counter the send moves.
        """
        if not ledger.alive[i]:
            return "dropped_dead"
        cur, hops = i, 0
        while True:
            seq, metric, nh = self.entry(cur, self.bs)
            if seq < 0 or seq % 2 == 1 or metric >= NO_ROUTE:
                return "dropped_unreachable"
            hops += 1
            if nh < 0 or hops > self.n + 1:
                return "dropped_unreachable"
            dx, dy = pos[cur][0] - pos[nh][0], pos[cur][1] - pos[nh][1]
            d = math.sqrt(dx * dx + dy * dy)
            if d > radio_range or (nh != self.bs and not ledger.alive[nh]):
                unchanged = self.last_hop.get(cur) == (seq, metric, nh, step)
                self.dead_since_last_hop += unchanged and nh in self.dump_deaths
                self.table[cur][self.bs] = (seq + 1, int(NO_ROUTE), nh)
                self.invalidated += 1
                return "dropped_unreachable"
            if not (ledger.alive[cur] and ledger.consume(cur, radio.tx_energy(bits, d), t_us)):
                self.died_on_path += 1
                return "dropped_dead"
            self.last_hop[cur] = (seq, metric, nh, step)
            if nh == self.bs:
                return "reached"
            if not (ledger.alive[nh] and ledger.consume(nh, radio.rx_energy(bits), t_us)):
                self.died_on_path += 1
                return "dropped_dead"
            cur = nh


def advertisable(seq, metric):
    return seq >= 0 and seq % 2 == 0 and metric < NO_ROUTE


def assert_tables_match(proto, oracle, when):
    keys = proto.key.tolist()
    hops = proto.next_hop.tolist()
    for i in range(oracle.n):
        seq, metric = decode(keys[i])
        want = oracle.entry(i, oracle.bs)
        assert (seq, metric, hops[i]) == want, f"node {i} sink route after {when}"
        sensors = {
            d
            for d, (seq, metric, _) in oracle.table[i].items()
            if d != oracle.bs and advertisable(seq, metric)
        }
        bits = proto.known[i]
        assert {d for d in range(oracle.n) if bits >> d & 1} == sensors, f"node {i} after {when}"
        assert bits >> oracle.n == 0


SEND_OUTCOMES = ("dropped_dead", "dropped_unreachable", "reached")


def send_counters(log):
    """The log counters of SEND_OUTCOMES; a frame that reached the sink's radio
    is delivered or congested."""
    return [log.dropped_dead, log.dropped_unreachable, log.delivered + log.dropped_congested]


class GridStream:
    """Stands in for the dsdv stream: its values cut down to whole hundredths.

    With a 1 s update interval, frames and dumps then fall on one 10 ms
    grid, so frames share microseconds with queued dumps. (A 1 ms grid gave
    about 5 shared microseconds in 25 draws, too few to rely on.)
    """

    def __init__(self, stream):
        self.stream = stream

    def random(self, size=None):
        return np.floor(self.stream.random(size) * 100.0) / 100.0


def replay(cfg, on_grid=False):
    """Run DSDV over cfg, checking every table after each dump and each stretch of sends."""
    n = cfg.node_count
    world = World(cfg, "dsdv")
    proto = DsdvProtocol(world)
    if on_grid:
        proto.stream = GridStream(proto.stream)
    oracle = Oracle(n)
    heard = []
    # the run being sent: its frames, the (time, kind) of each item sent,
    # what reached the sink, and the stretch of frames since its last dump
    run = {}

    def broadcast(src, bits, *args):
        survivors = real_broadcast(src, bits, *args)
        heard.append((None if survivors is None else survivors.tolist(), bits))
        return survivors

    def note_dump_deaths(alive):
        oracle.dump_deaths.update(
            i for i, was in enumerate(alive) if was and not world.ledger.alive[i]
        )

    def start_stretch(frames):
        run["shadow"] = copy_ledger(world.ledger)
        run["left"] = len(frames)
        run["counters"] = send_counters(world.log)

    def end_stretch(frames, when):
        """Walk the frames sent since the stretch began on its shadow ledger."""
        # the frames sent are those gone from the list since, in pop order
        sent = run["frames"][len(frames):run["left"]][::-1]
        pos = world.positions.tolist()
        ended = [
            oracle.send(
                i, run["shadow"], pos, world.radio, cfg.radio_range_rr_m,
                cfg.packet_size_bits, t, world.mobility_step,
            )
            for t, i in sent
        ]
        moved = [b - a for a, b in zip(run["counters"], send_counters(world.log))]
        # what reached the sink's radio is handed over at the end of the run
        assert moved[:2] == [ended.count(o) for o in SEND_OUTCOMES[:2]], when
        run["reached"] += ended.count("reached")
        oracle.stretches_of_many += len(sent) > 1
        run["items"] += [(t, EventKind.DATA_SEND) for t, _ in sent]
        assert_ledgers_equal(world.ledger, run["shadow"], when)

    def replayed_dump(t_us, i):
        frames = run["payload"]
        end_stretch(frames, f"the frames before the dump of {i} at {t_us} us")
        alive = world.ledger.alive.tolist()
        heard.clear()
        real_dump(t_us, i)
        note_dump_deaths(alive)
        survivors, bits = heard[0] if heard else (None, None)
        oracle.node_dump(i, alive, survivors, bits, cfg.dsdv_entry_bits)
        assert_tables_match(proto, oracle, f"the dump of {i} at {t_us} us")
        # the dump's time, and how many of the run's frames went before it
        run["dumps"].append((t_us, len(run["items"]) - len(run["dumps"])))
        run["items"].append((t_us, EventKind.ROUTE_DUMP))
        start_stretch(frames)

    def replayed(kind, real_handler):
        def handler(t_us, payload):
            if kind == EventKind.BS_ROUTE_DUMP:
                alive = world.ledger.alive.tolist()
                heard.clear()
                real_handler(t_us, payload)
                note_dump_deaths(alive)
                oracle.bs_dump(heard[0][0])
                assert_tables_match(proto, oracle, f"the sink's dump at {t_us} us")
                return
            run.update(frames=list(payload), payload=payload, items=[], dumps=[], reached=0)
            before = send_counters(world.log)[2]
            start_stretch(payload)
            real_handler(t_us, payload)
            end_stretch(payload, f"the run at {t_us} us")
            assert_tables_match(proto, oracle, f"the run at {t_us} us")
            assert send_counters(world.log)[2] - before == run["reached"], f"run at {t_us} us"
            # the run sent its second's items in (time, kind) order, all of
            # them, as the next whole second's events sort after them
            items = run["items"]
            assert items == sorted(items), f"run at {t_us} us"
            assert all(t_us <= t < t_us + US for t, _ in items), f"run at {t_us} us"
            assert payload == [], f"run at {t_us} us"
            head = world.queue._heap[0]
            assert head[:2] == (t_us + US, EventKind.METRIC_SAMPLE)
            pending = proto._dumps[-1:] or sorted(proto._next_dumps)[:1]
            assert all((d[0], EventKind.ROUTE_DUMP) > head[:2] for d in pending)
            assert not any(e[3] is payload for e in world.queue._heap)
            frames = sum(k == EventKind.DATA_SEND for _, k in items)
            # dumps sent between two frames of the run, and dumps at the
            # microsecond of one of its frames
            oracle.dumps_between_frames += sum(0 < k < frames for _, k in run["dumps"])
            times = {t for t, _ in run["frames"]}
            oracle.dumps_at_a_frame_time += sum(t in times for t, _ in run["dumps"])

        return handler

    real_broadcast = world.broadcast
    world.broadcast = broadcast
    real_dump = proto._node_dump
    proto._node_dump = replayed_dump
    for kind, real_handler in proto.handlers.items():
        proto.handlers[kind] = replayed(kind, real_handler)
    world.run(proto)
    oracle.saturated = proto.saturated
    return oracle


# not digest_sweep.draw_config: the coverage floors below need this fixed, dense 1000 m field
def draw_config(rng, on_grid=False):
    horizon = int(rng.integers(2, 7))
    rr = float(rng.uniform(150.0, 700.0))
    speed = float(rng.uniform(0.0, 60.0))
    return SimConfig(
        field_width_m=1000.0,
        field_height_m=1000.0,
        node_count=int(rng.integers(2, 13)),
        bs_position=(float(rng.uniform(0.0, 1000.0)), float(rng.uniform(0.0, 1000.0))),
        initial_energy_j=float(rng.choice([0.05, 0.5, 50.0])),
        sim_duration_s=horizon,
        round_duration_s=1.0,
        cluster_radius_rc_m=rr / 2,
        radio_range_rr_m=rr,
        mobility_speed_min_mps=speed,
        mobility_speed_max_mps=speed * 2,
        traffic_rate_pps=float(rng.uniform(1.0, 6.0)),
        dsdv_update_interval_s=1.0 if on_grid else float(rng.uniform(0.05, 1.5)),
        rng_seed=int(rng.integers(0, 2**32)),
    )


def test_tables_match_the_scalar_oracle_on_drawn_configs():
    rng = np.random.default_rng(1994)
    adopted = {"newer": 0, "shorter": 0}
    invalidated = 0
    died_on_path = 0
    stretches_of_many = 0
    dumps_between_frames = 0
    dumps_at_a_frame_time = 0
    saturated = 0
    for k in range(100):
        # every fourth draw puts frames and dumps on one grid
        on_grid = k % 4 == 3
        oracle = replay(draw_config(rng, on_grid), on_grid)
        for rule, count in oracle.adopted.items():
            adopted[rule] += count
        invalidated += oracle.invalidated
        died_on_path += oracle.died_on_path
        stretches_of_many += oracle.stretches_of_many
        dumps_between_frames += oracle.dumps_between_frames
        dumps_at_a_frame_time += oracle.dumps_at_a_frame_time
        saturated += oracle.saturated
    # the draws reach both adoption rules, the local invalidation, and sends
    # whose sender or receiver could not pay (the 0.05 J budgets)
    assert adopted["newer"] > 1000
    assert adopted["shorter"] > 100
    assert invalidated > 20
    assert died_on_path > 20
    # stretches of several frames, and dumps sent between two frames of one run
    assert stretches_of_many > 400
    assert dumps_between_frames > 2000
    # dumps at a frame's own microsecond, which go before it (the grid draws)
    assert dumps_at_a_frame_time > 30
    # draws in which every live node came to know every sensor, so that
    # dumps skip the merge, and draws in which that never happened
    assert saturated > 20
    assert 100 - saturated > 20


def test_tables_match_the_scalar_oracle_when_dumps_kill_relays():
    # long dump entries, dense traffic and short intervals: relays die in
    # dumps while their neighbours still send through them in the same step
    rng = np.random.default_rng(2024)
    dead_since_last_hop = 0
    for _ in range(100):
        cfg = dataclasses.replace(
            draw_config(rng),
            dsdv_entry_bits=2000,
            traffic_rate_pps=40.0,
            dsdv_update_interval_s=0.1,
        )
        dead_since_last_hop += replay(cfg).dead_since_last_hop
    # sends that found their next hop dead in a dump since their last hop
    # through it, in one mobility step, with the route unchanged
    assert dead_since_last_hop > 5
