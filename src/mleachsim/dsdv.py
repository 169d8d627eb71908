"""Proactive distance-vector baseline with sequence-numbered routes.

Each node advertises its table once per update interval at a jittered
instant. Entries carry destination-issued sequence numbers: a received
entry wins if its sequence is newer, or equal with a strictly shorter
path. Broken next hops are marked locally with an odd sequence and the
packet in flight is dropped. Data is forwarded hop by hop to the sink.

Only what a run can observe is kept. A node's route to the sink, the one
destination of data, is a next hop and a packed int64 key,
``kernels.route_key``: keys order as (seq, -metric) pairs, so adoption is
adv > key. A route is usable iff ``key & ROUTE_BITS == LIVE``, as sequences
never fall below -1 (no route yet). Routes to sensors show only in a dump's
size, so a node keeps just ``known``, an int whose bit d is set iff it can
advertise a route to sensor d. That is exact: only sink routes
are ever invalidated, and a sensor route is adopted only from an advertised
one, at an even sequence and a loop-free hop count far below NO_ROUTE. It
is advertisable from the first dump that brings it on, so a dump ORs the
sender's bits into each receiver's.
"""

from __future__ import annotations

import numpy as np

from .engine import US, EventKind
from .kernels import LIVE, NO_ROUTE, ROUTE_BITS, dsdv_merge, route_key
from .simulation import REACHED, UNREACHABLE


class DsdvProtocol:
    def __init__(self, world) -> None:
        self.world = world
        self.cfg = world.cfg
        n = world.cfg.node_count
        # routes to the sink, and memoryviews for the data plane's cell reads
        self.key = np.full(n, route_key(-1, NO_ROUTE), dtype=np.int64)
        self.next_hop = np.full(n, -1, dtype=np.int32)
        self.sink_key = memoryview(self.key)
        self.sink_hop = memoryview(self.next_hop)
        # bit d of known[i]: node i can advertise a route to sensor d
        self.known = [1 << i for i in range(n)]
        self.bs_seq = 0
        self.interval_us = world.cfg.dsdv_interval_us
        self.handlers = {
            EventKind.BS_ROUTE_DUMP: self._bs_dump,
            EventKind.ROUTE_DUMP: self._node_dump,
            EventKind.DATA_SEND: self._send,
        }

    # -- scheduling ----------------------------------------------------------

    def start(self) -> None:
        world = self.world
        stream = world.streams.get("dsdv")
        world.queue.schedule(0, EventKind.BS_ROUTE_DUMP, None)
        # first advertisement lands at a per-node jitter within the interval;
        # every node draws its jitter even when it falls past the horizon, so
        # the order of draws on the dsdv stream does not depend on the horizon
        for i in range(world.cfg.node_count):
            jitter = int(stream.random() * self.interval_us)
            if jitter < world.cfg.sim_us:
                world.queue.schedule(jitter, EventKind.ROUTE_DUMP, i)

    def on_readings(self, i: int, readings: list[float], t_us: int) -> None:
        # one draw call per batch: PCG64 yields the same doubles as a draw per reading
        offsets = self.world.streams.get("dsdv").random(len(readings)).tolist()
        schedule = self.world.queue.schedule
        for u in offsets:
            schedule(t_us + int(u * US), EventKind.DATA_SEND, i)

    def finish(self, t_us: int) -> None:
        pass

    # -- control plane ---------------------------------------------------------

    def _bs_dump(self, t_us: int, _payload: None) -> None:
        """Sink advertises itself once a second; one entry, nothing charged to the sink."""
        world = self.world
        cfg = self.cfg
        if t_us + US < cfg.sim_us:
            world.queue.schedule(t_us + US, EventKind.BS_ROUTE_DUMP, None)
        self.bs_seq += 2
        survivors = world.broadcast(world.bs_id, cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        if len(survivors) == 0:
            return
        dsdv_merge(self.key, self.next_hop, route_key(self.bs_seq, 1), survivors, world.bs_id)
        if world.strict:
            world.check_routes(self)

    def _node_dump(self, t_us: int, i: int) -> None:
        world = self.world
        cfg = self.cfg
        if not world.ledger.alive_mv[i]:
            return
        bits = self.known[i]
        sink_key = self.sink_key[i]
        sink_live = sink_key & ROUTE_BITS == LIVE
        entries = bits.bit_count() + sink_live
        survivors = world.broadcast(i, entries * cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        if survivors is None:
            return
        if len(survivors):
            known = self.known
            for r in survivors.tolist():
                known[r] |= bits
            if sink_live:
                # one hop further via i, as the receivers would store it
                dsdv_merge(self.key, self.next_hop, sink_key - 1, survivors, i)
        # the jitter is under one interval, so t_us // interval_us is this dump's interval
        stream = world.streams.get("dsdv")
        jitter = int(stream.random() * self.interval_us)
        next_t = (t_us // self.interval_us + 1) * self.interval_us + jitter
        if next_t < world.cfg.sim_us:
            world.queue.schedule(next_t, EventKind.ROUTE_DUMP, i)

    # -- data plane ----------------------------------------------------------

    def _send(self, t_us: int, i: int) -> None:
        world = self.world
        log = world.log
        if not world.ledger.alive_mv[i]:
            log.dropped_dead += 1
            return
        outcome = world.forward(i, self.sink_key, self.sink_hop, self.cfg.packet_size_bits, t_us)
        if outcome == REACHED:
            world.deliver_data(t_us, i, None)
        elif outcome == UNREACHABLE:
            log.dropped_unreachable += 1
        else:
            log.dropped_dead += 1
