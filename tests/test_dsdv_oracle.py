"""DSDV route tables cross-checked against a scalar model of the protocol.

The oracle keeps every node's table as a dict of dicts, destination ->
(sequence, metric, next hop), and applies the rules of Perkins & Bhagwat
(SIGCOMM 1994) one entry at a time: a node advertises its even-sequenced,
finite entries; a receiver adopts an entry, one hop longer and via the
sender, iff its sequence is strictly newer, or equal with a strictly
shorter metric, and never for itself; a sender that finds its next hop to
the sink broken marks that entry with the next odd sequence and no metric.

It is driven by a real run: every route dump and data send that
DsdvProtocol handles is replayed on the oracle with the same listeners and
the same per-hop outcomes. DsdvProtocol keeps only what a run can observe,
and after every event that must match the oracle: the packed sink routes
decode to the oracle's sink entries cell for cell, each node's ``known``
bits are the sensors it holds an advertisable entry for, and each dump is
as long as the oracle's advertised table. The oracle asserts the invariant
that makes this reduction exact: an advertisable entry to a sensor never
stops being advertisable.
"""

import numpy as np

from mleachsim.config import SimConfig, validate_config
from mleachsim.dsdv import DsdvProtocol
from mleachsim.engine import EventKind
from mleachsim.kernels import NO_ROUTE
from mleachsim.metrics import MetricsLog
from mleachsim.simulation import World

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

    def send(self, i, alive, dist, radio_range, hops_sent):
        """Walk i's route to the sink; hops_sent replays the real unicasts."""
        if not alive[i]:
            return
        alive = list(alive)
        cur, hops = i, 0
        while True:
            seq, metric, nh = self.entry(cur, self.bs)
            if seq < 0 or seq % 2 == 1 or metric >= NO_ROUTE:
                return
            hops += 1
            if nh < 0 or hops > self.n + 1:
                return
            if dist[cur][nh] > radio_range or (nh != self.bs and not alive[nh]):
                self.table[cur][self.bs] = (seq + 1, int(NO_ROUTE), nh)
                self.invalidated += 1
                return
            u, v, ok, alive_u, alive_v = hops_sent.pop(0)
            assert (u, v) == (cur, nh)
            alive[u] = alive_u
            if v != self.bs:
                alive[v] = alive_v
            if not ok or nh == self.bs:
                return
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


def replay(cfg):
    """Run DSDV over cfg, checking every table after each dump and send."""
    n = cfg.node_count
    world = World(cfg, MetricsLog("dsdv", cfg.sim_duration_s, n))
    proto = DsdvProtocol(world)
    oracle = Oracle(n)
    heard = []
    sent = []

    def broadcast(src, bits, *args):
        survivors = real_broadcast(src, bits, *args)
        heard.append((None if survivors is None else survivors.tolist(), bits))
        return survivors

    def unicast(u, v, *args):
        ok = real_unicast(u, v, *args)
        alive = world.ledger.alive
        sent.append((u, v, ok, bool(alive[u]), v == world.bs_id or bool(alive[v])))
        return ok

    def replayed(kind, real_handler):
        def handler(t_us, payload):
            alive = world.ledger.alive.tolist()
            heard.clear()
            sent.clear()
            real_handler(t_us, payload)
            if kind == EventKind.BS_ROUTE_DUMP:
                oracle.bs_dump(heard[0][0])
            elif kind == EventKind.ROUTE_DUMP:
                survivors, bits = heard[0] if heard else (None, None)
                oracle.node_dump(payload, alive, survivors, bits, cfg.dsdv_entry_bits)
            else:
                oracle.send(payload, alive, world.dist.tolist(), cfg.radio_range_rr_m, sent)
                assert sent == []
            assert_tables_match(proto, oracle, f"{kind.name} at {t_us} us")

        return handler

    real_broadcast, real_unicast = world.broadcast, world.unicast
    world.broadcast, world.unicast = broadcast, unicast
    for kind, real_handler in proto.handlers.items():
        proto.handlers[kind] = replayed(kind, real_handler)
    world.run(proto)
    return oracle


def draw_config(rng):
    horizon = int(rng.integers(2, 7))
    rr = float(rng.uniform(150.0, 700.0))
    speed = float(rng.uniform(0.0, 60.0))
    return validate_config(
        SimConfig(
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
            dsdv_update_interval_s=float(rng.uniform(0.05, 1.5)),
            rng_seed=int(rng.integers(0, 2**32)),
        )
    )


def test_tables_match_the_scalar_oracle_on_drawn_configs():
    rng = np.random.default_rng(1994)
    adopted = {"newer": 0, "shorter": 0}
    invalidated = 0
    for _ in range(100):
        oracle = replay(draw_config(rng))
        for rule, count in oracle.adopted.items():
            adopted[rule] += count
        invalidated += oracle.invalidated
    # the draws reach both adoption rules and the local invalidation
    assert adopted["newer"] > 1000
    assert adopted["shorter"] > 100
    assert invalidated > 20
