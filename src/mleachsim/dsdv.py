"""Proactive distance-vector baseline with sequence-numbered routes.

Every node keeps a full routing table (all nodes plus the base station) and
rebroadcasts it once per update interval at a jittered instant. Entries
carry destination-issued sequence numbers: a received entry wins if its
sequence is newer, or equal with a strictly shorter path. Broken next hops
are marked locally with an odd sequence and the packet in flight is
dropped. Data is forwarded hop by hop along next-hop pointers.
"""

from __future__ import annotations

import numpy as np

from .engine import US, EventKind
from .kernels import NO_ROUTE, dsdv_merge


class DsdvProtocol:
    def __init__(self, world) -> None:
        self.world = world
        self.cfg = world.cfg
        n = world.cfg.node_count
        dests = n + 1
        self.metric = np.full((n, dests), NO_ROUTE, dtype=np.int32)
        self.seq = np.full((n, dests), -1, dtype=np.int64)
        self.next_hop = np.full((n, dests), -1, dtype=np.int32)
        for i in range(n):
            self.metric[i, i] = 0
            self.seq[i, i] = 0
            self.next_hop[i, i] = i
        self.own_seq = np.zeros(n, dtype=np.int64)
        self.bs_seq = 0
        self.interval_us = int(round(world.cfg.dsdv_update_interval_s * US))

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
        stream = self.world.streams.get("dsdv")
        for reading in readings:
            offset = int(stream.random() * US)
            self.world.queue.schedule(t_us + offset, EventKind.DATA_SEND, (i, reading))

    def handle(self, kind: EventKind, t_us: int, payload) -> None:
        if kind == EventKind.BS_ROUTE_DUMP:
            self._bs_dump(t_us)
        elif kind == EventKind.ROUTE_DUMP:
            self._node_dump(t_us, *payload)
        elif kind == EventKind.DATA_SEND:
            self._send(t_us, *payload)

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
        dests = cfg.node_count + 1
        adv_metric = np.full(dests, NO_ROUTE, dtype=np.int32)
        adv_seq = np.full(dests, -1, dtype=np.int64)
        adv_mask = np.zeros(dests, dtype=bool)
        adv_metric[world.bs_id] = 0
        adv_seq[world.bs_id] = self.bs_seq
        adv_mask[world.bs_id] = True
        dsdv_merge(
            self.metric, self.seq, self.next_hop,
            survivors, world.bs_id, adv_metric, adv_seq, adv_mask,
        )
        if world.strict:
            world.check_routes(self)

    def _node_dump(self, t_us: int, i: int, interval: int) -> None:
        world = self.world
        cfg = self.cfg
        if not world.ledger.alive[i]:
            return
        self.own_seq[i] += 2
        self.seq[i, i] = self.own_seq[i]
        adv_mask = (self.seq[i] % 2 == 0) & (self.seq[i] >= 0) & (self.metric[i] < NO_ROUTE)
        entries = int(np.count_nonzero(adv_mask))
        survivors = world.broadcast(i, entries * cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        if survivors is None:
            return
        if len(survivors):
            dsdv_merge(
                self.metric, self.seq, self.next_hop,
                survivors, i, self.metric[i], self.seq[i], adv_mask,
            )
        stream = world.streams.get("dsdv")
        jitter = int(stream.random() * self.interval_us)
        next_t = (interval + 1) * self.interval_us + jitter
        if next_t < world.cfg.sim_us:
            world.queue.schedule(next_t, EventKind.ROUTE_DUMP, (i, interval + 1))

    # -- data plane ----------------------------------------------------------

    def _send(self, t_us: int, i: int, reading: float) -> None:
        world = self.world
        cfg = self.cfg
        bs = world.bs_id
        if not world.ledger.alive[i]:
            world.log.dropped_dead += 1
            return
        cur = i
        hops = 0
        while True:
            if (
                self.seq[cur, bs] < 0
                or self.seq[cur, bs] % 2 == 1
                or self.metric[cur, bs] >= NO_ROUTE
            ):
                world.log.dropped_unreachable += 1
                return
            nh = int(self.next_hop[cur, bs])
            hops += 1
            if nh < 0 or hops > cfg.node_count + 1:
                world.log.dropped_unreachable += 1
                return
            broken = float(world.dist[cur, nh]) > cfg.radio_range_rr_m or (
                nh != bs and not world.ledger.alive[nh]
            )
            if broken:
                # stale route: invalidate locally, packet is lost
                self.seq[cur, bs] += 1
                self.metric[cur, bs] = NO_ROUTE
                world.log.dropped_unreachable += 1
                return
            if not world.unicast(cur, nh, cfg.packet_size_bits, t_us):
                world.log.dropped_dead += 1
                return
            if nh == bs:
                world.deliver_data(t_us, i, reading, None)
                return
            cur = nh
