"""Proactive distance-vector baseline with sequence-numbered routes.

Every node keeps a full routing table (all nodes plus the base station) and
rebroadcasts it once per update interval at a jittered instant. Entries
carry destination-issued sequence numbers: a received entry wins if its
sequence is newer, or equal with a strictly shorter path. Broken next hops
are marked locally with an odd sequence and the packet in flight is
dropped. Data is forwarded hop by hop along next-hop pointers.

A table cell stores its (sequence, metric) pair as one packed int64 key,
``kernels.route_key``: seq * 2**31 + (2**31 - 1 - metric). Keys order as
(seq, -metric) pairs, so the adoption rule is one compare, adv_key > key,
and a route is usable iff ``key & ROUTE_BITS == LIVE``. Sequences never
fall below -1 (no route yet), which that bit test relies on.
"""

from __future__ import annotations

import numpy as np

from .engine import US, EventKind
from .kernels import LIVE, NO_ROUTE, NOT_ADVERTISED, ROUTE_BITS, dsdv_merge, route_key


class DsdvProtocol:
    def __init__(self, world) -> None:
        self.world = world
        self.cfg = world.cfg
        n = world.cfg.node_count
        dests = n + 1
        self.key = np.full((n, dests), route_key(-1, NO_ROUTE), dtype=np.int64)
        self.next_hop = np.full((n, dests), -1, dtype=np.int32)
        np.fill_diagonal(self.key, route_key(0, 0))
        np.fill_diagonal(self.next_hop, np.arange(n))
        # the data plane only reads routes to the sink, one cell at a time:
        # memoryviews over the sink columns, aliasing key and next_hop
        self.sink_key = memoryview(self.key[:, world.bs_id])
        self.sink_hop = memoryview(self.next_hop[:, world.bs_id])
        self.own_seq = np.zeros(n, dtype=np.int64)
        self.bs_seq = 0
        self.interval_us = world.cfg.dsdv_interval_us

    # -- scheduling ----------------------------------------------------------

    def start(self) -> None:
        world = self.world
        stream = world.streams.get("dsdv")
        for t_us in range(0, world.cfg.sim_us, US):
            world.queue.schedule(t_us, EventKind.BS_ROUTE_DUMP, None)
        # first advertisement lands at a per-node jitter within the interval;
        # every node draws its jitter even when it falls past the horizon, so
        # the order of draws on the dsdv stream does not depend on the horizon
        for i in range(world.cfg.node_count):
            jitter = int(stream.random() * self.interval_us)
            if jitter < world.cfg.sim_us:
                world.queue.schedule(jitter, EventKind.ROUTE_DUMP, (i, 0))

    def on_readings(self, i: int, readings: list[float], t_us: int) -> None:
        # one draw call per batch: PCG64 yields the same doubles as a draw per reading
        offsets = self.world.streams.get("dsdv").random(len(readings)).tolist()
        schedule = self.world.queue.schedule
        for u in offsets:
            schedule(t_us + int(u * US), EventKind.DATA_SEND, i)

    def handle(self, kind: EventKind, t_us: int, payload) -> None:
        if kind == EventKind.BS_ROUTE_DUMP:
            self._bs_dump(t_us)
        elif kind == EventKind.ROUTE_DUMP:
            self._node_dump(t_us, *payload)
        elif kind == EventKind.DATA_SEND:
            self._send(t_us, payload)

    def finish(self, t_us: int) -> None:
        pass

    # -- control plane ---------------------------------------------------------

    def _bs_dump(self, t_us: int) -> None:
        """Sink advertises itself; one entry, nothing charged to the sink."""
        world = self.world
        cfg = self.cfg
        self.bs_seq += 2
        survivors = world.broadcast(world.bs_id, cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        if len(survivors) == 0:
            return
        adv_key = np.full(cfg.node_count + 1, NOT_ADVERTISED, dtype=np.int64)
        adv_key[world.bs_id] = route_key(self.bs_seq, 1)
        dsdv_merge(self.key, self.next_hop, adv_key, survivors, world.bs_id)
        if world.strict:
            world.check_routes(self)

    def _node_dump(self, t_us: int, i: int, interval: int) -> None:
        world = self.world
        cfg = self.cfg
        if not world.ledger.alive_mv[i]:
            return
        self.own_seq[i] += 2
        row = self.key[i]
        row[i] = route_key(self.own_seq[i], 0)
        adv_mask = (row & ROUTE_BITS) == LIVE
        entries = int(np.count_nonzero(adv_mask))
        survivors = world.broadcast(i, entries * cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        if survivors is None:
            return
        if len(survivors):
            # one hop further via i, as the receivers would store it
            adv_key = np.where(adv_mask, row - 1, NOT_ADVERTISED)
            dsdv_merge(self.key, self.next_hop, adv_key, survivors, i)
        stream = world.streams.get("dsdv")
        jitter = int(stream.random() * self.interval_us)
        next_t = (interval + 1) * self.interval_us + jitter
        if next_t < world.cfg.sim_us:
            world.queue.schedule(next_t, EventKind.ROUTE_DUMP, (i, interval + 1))

    # -- data plane ----------------------------------------------------------

    def _send(self, t_us: int, i: int) -> None:
        world = self.world
        cfg = self.cfg
        bs = world.bs_id
        alive = world.ledger.alive_mv
        if not alive[i]:
            world.log.dropped_dead += 1
            return
        sink_key = self.sink_key
        sink_hop = self.sink_hop
        dist = world.dist
        cur = i
        hops = 0
        while True:
            key = sink_key[cur]
            if key & ROUTE_BITS != LIVE:
                world.log.dropped_unreachable += 1
                return
            nh = sink_hop[cur]
            hops += 1
            if nh < 0 or hops > cfg.node_count + 1:
                world.log.dropped_unreachable += 1
                return
            if dist.item(cur, nh) > cfg.radio_range_rr_m or (nh != bs and not alive[nh]):
                # stale route: invalidate locally with the next odd sequence, packet is lost
                sink_key[cur] = route_key((key >> 31) + 1, NO_ROUTE)
                world.log.dropped_unreachable += 1
                return
            if not world.unicast(cur, nh, cfg.packet_size_bits, t_us):
                world.log.dropped_dead += 1
                return
            if nh == bs:
                world.deliver_data(t_us, i, None)
                return
            cur = nh
