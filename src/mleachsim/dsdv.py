"""Proactive distance-vector baseline with sequence-numbered routes.

Each node advertises its table once per update interval at a jittered
instant. Entries carry destination-issued sequence numbers: a received
entry wins if its sequence is newer, or equal with a strictly shorter
path. Broken next hops are marked locally with an odd sequence and the
packet in flight is dropped. Data is forwarded hop by hop to the sink.

A second's route dumps and data frames go in one run, the second's one
DATA_SEND event. ``on_readings`` queues it at the second's TRAFFIC_GEN
instant with the second's frames, one list in send order. Route dumps are
no events: ``start`` and ``_node_dump`` append each node's next dump to the
next update interval's list, as ``(t_us, index, node)`` with ``index`` its
place in draw order, and ``_send`` sorts that list once, when the current
interval's list runs out. A dump drawn in interval k falls in interval k + 1,
as ``next_t = (t // iv + 1) * iv + jitter`` with ``jitter < iv``, so the
next interval's list is complete by then. ``_send`` merges the second's
dumps and frames in the (time, kind, insertion) order the heap gave them
as one event each. That is exact because every other queued event
(METRIC_SAMPLE, MOBILITY_STEP, BS_ROUTE_DUMP, TRAFFIC_GEN, and SIM_END at
the horizon) sits on a whole second and has a lower kind than ROUTE_DUMP
and DATA_SEND: the run of second s sends just what the heap sent between
TRAFFIC_GEN(s) and the next whole second, and no dump or frame queues an
event. ``_send``'s docstring gives the ties, the draws and the ledger.

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
sender's bits into each receiver's, until every live node knows every
sensor (``saturated``).
"""

from __future__ import annotations

import numpy as np

from .engine import US, EventKind
from .kernels import LIVE, NO_ROUTE, ROUTE_BITS, dsdv_merge, route_key


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
        # set once every live node's known is full: dumps then skip the merge
        self.saturated = False
        # the link memo of _send: per node, the sink key under which its link
        # was last verified (None: not since the last reset) and that link's
        # tx price, valid while (mobility step, deaths) is _links_token
        self._unverified = [None] * n
        self._link_key = [None] * n
        self._link_price = [0.0] * n
        self._links_token = (0, 0)
        self.bs_seq = 0
        self.interval_us = world.cfg.dsdv_interval_us
        self.stream = world.streams.get("dsdv")
        # route dumps as (t_us, index, node): the current interval's still to
        # send, sorted with the next one last, and the next interval's in
        # draw order, index counting its appends
        self._dumps = []
        self._next_dumps = []
        self.handlers = {
            EventKind.BS_ROUTE_DUMP: self._bs_dump,
            EventKind.DATA_SEND: self._send,
        }

    # -- scheduling ----------------------------------------------------------

    def start(self) -> None:
        world = self.world
        world.queue.schedule(0, EventKind.BS_ROUTE_DUMP, None)
        # first advertisement lands at a per-node jitter within the interval;
        # every node draws its jitter even when it falls past the horizon, so
        # the order of draws on the dsdv stream does not depend on the horizon
        dumps = self._next_dumps
        for i in range(world.cfg.node_count):
            jitter = int(self.stream.random() * self.interval_us)
            if jitter < world.cfg.sim_us:
                dumps.append((jitter, len(dumps), i))

    def on_readings(self, ids: np.ndarray, counts: np.ndarray, t_us: int) -> None:
        # one frame per reading at a uniform offset in the second, drawn in id
        # order in one call: PCG64 yields the same doubles as a draw per reading.
        # The send times are made in numpy (astype truncates as int() does).
        # A stable sort by time keeps frames of one microsecond in id order,
        # which was their queue order as one event each; reversed, pop()
        # yields the next frame. The second's one DATA_SEND, queued even with
        # no frame, carries them all and sends the second's dumps too
        times = t_us + (self.stream.random(int(counts.sum())) * US).astype(np.int64)
        order = np.argsort(times, kind="stable")[::-1]
        frames = list(zip(times[order].tolist(), np.repeat(ids, counts)[order].tolist()))
        self.world.queue.schedule(t_us, EventKind.DATA_SEND, frames)

    def finish(self, t_us: int) -> None:
        pass

    # -- control plane ---------------------------------------------------------

    def _bs_dump(self, t_us: int, _payload: None) -> None:
        """Sink advertises itself once a second; one entry, nothing charged to the sink.

        Until every live node's ``known`` is full, it checks whether it now
        is, and sets ``saturated`` once it holds (see ``_node_dump``).
        """
        world = self.world
        cfg = self.cfg
        if t_us + US < cfg.sim_us:
            world.queue.schedule(t_us + US, EventKind.BS_ROUTE_DUMP, None)
        self.bs_seq += 2
        survivors = world.broadcast(world.bs_id, cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        dsdv_merge(self.key, self.next_hop, route_key(self.bs_seq, 1), survivors, world.bs_id)
        if not self.saturated:
            full = (1 << cfg.node_count) - 1
            known = self.known
            alive = np.flatnonzero(world.ledger.alive).tolist()
            self.saturated = all(known[i] == full for i in alive)
        if world.strict:
            world.check_routes(self)

    def _node_dump(self, t_us: int, i: int) -> None:
        """Node i advertises its table, sized by its known sensors and a live sink route.

        ``_send`` calls it at the dump's time, and it appends i's next dump
        to the next interval's list. Each receiver ORs i's ``known`` bits
        into its own, unless ``saturated`` is set: then every live node's
        set is full, so the OR
        can change nothing, and that lasts, as ``known`` only grows, a dead
        node neither dumps (``broadcast`` returns None first) nor receives,
        and no node comes back. A partitioned network never saturates and
        always merges.
        """
        world = self.world
        cfg = self.cfg
        bits = self.known[i]
        sink_key = self.sink_key[i]
        sink_live = sink_key & ROUTE_BITS == LIVE
        entries = bits.bit_count() + sink_live
        survivors = world.broadcast(i, entries * cfg.dsdv_entry_bits, cfg.radio_range_rr_m, t_us)
        if survivors is None:
            return
        if not self.saturated:
            known = self.known
            for r in survivors.tolist():
                known[r] |= bits
        if sink_live:
            # one hop further via i, as the receivers would store it
            dsdv_merge(self.key, self.next_hop, sink_key - 1, survivors, i)
        # the jitter is under one interval, so t_us // interval_us is this
        # dump's interval, and next_t falls in the next one
        jitter = int(self.stream.random() * self.interval_us)
        next_t = (t_us // self.interval_us + 1) * self.interval_us + jitter
        if next_t < world.cfg.sim_us:
            dumps = self._next_dumps
            dumps.append((next_t, len(dumps), i))

    # -- data plane ----------------------------------------------------------

    def _send(self, t_us: int, frames: list[tuple[int, int]]) -> None:
        """Send one second's route dumps and data frames, merged in time order.

        ``frames`` holds ``(t_us, i)`` pairs, the next frame last, as
        ``on_readings`` builds them; the event fires at the second's
        TRAFFIC_GEN instant. The run sends the dumps of ``_dumps`` and the
        frames in (time, kind, insertion) order, each at its own time and
        each dump through ``_node_dump``, until the next item sorts after
        the queue's head by (time, kind), against (its time, ROUTE_DUMP)
        or (its time, DATA_SEND). So each item goes just where it went as
        one event of its own, and that is exact:

        - every other queued event sits on a whole second, and the least
          queued at a run's start is the next second's METRIC_SAMPLE (or
          SIM_END at the horizon). METRIC_SAMPLE, MOBILITY_STEP,
          BS_ROUTE_DUMP and TRAFFIC_GEN have lower kinds than ROUTE_DUMP
          (8) and DATA_SEND (9), so the run of second s sends just what the
          heap sent between TRAFFIC_GEN(s) and the next whole second. No
          item queues an event, so the head is read once per run;
        - ties go as the heap's did. A dump goes before a frame at the same
          microsecond; dumps at one microsecond keep their draw order, their
          index, as one interval's list holds them all; frames at one
          microsecond keep id order, their ``seq`` order as one event each.
          An item goes iff its (time, kind) sorts at or before the head,
          so a frame tied with a queued one-frame DATA_SEND still goes.
          With nothing queued (a direct call), the run stops at the end of
          its own second;
        - the dsdv stream's draws keep their order: ``on_readings`` draws
          first, at TRAFFIC_GEN, then each dump draws its successor's
          jitter as it is sent;
        - everything bound once per run (``World.distances()``, as a walk
          may read any pair, and the ledger's lists) holds for the whole
          run, as positions change only in ``World._move``. The ledger's
          totals are held here, written back to the ledger before each
          dump and read again after it, and written back at the end.
          Distances are bit-identical however they are filled
          (``tests/test_kernels.py``), so broadcasts' rows agree;
        - the frames that reached the sink's radio go to
          ``World.deliver_data`` in one call at the run's end, in the
          order they were sent: one list holds one second's frames, as
          ``on_readings`` offsets are below ``US``, and
          ``BsChannel.admit`` decides k frames as k single frames.

        Per frame, a dead source drops it. Then, per hop, in order: the
        route must be live and the hop count at most node_count + 1; a next
        hop that is dead or out of range breaks the link, which is
        invalidated with the next odd sequence; then the sender, which must
        be alive, pays tx and, unless the next hop is the sink, the
        receiver pays rx. Each outcome bumps its log counter, or counts the
        frame as reached.

        The link memo. Once a hop passes those checks, its sender's key
        and tx price are stored. A later hop from that sender whose key
        equals the stored one runs only the hop-limit check and the
        next-hop read, and pays the stored price. That is exact while
        neither positions nor lives change, as the memo is cleared
        whenever either does, because an unchanged key means an unchanged,
        live route:

        - a key strictly rises at every change of the route. An adoption,
          in a dump, takes adv > key. An invalidation turns a live key at
          even sequence s into (s + 1, NO_ROUTE), which ranks above every
          key at s. Nothing else writes ``key``;
        - the next hop changes only with an adoption, so with the key;
        - the stored key passed the liveness test, and a key that does not
          change stays live;
        - with positions and lives unchanged, the next hop is still alive
          and in range, the sender is still alive, and the price
          ``rx + amp * (d * d)`` reads the same distance.

        So a cached hop takes the branch a full check would take, and
        charges the same price. The memo is cleared when ``(World.mobility_step,
        EnergyLedger.deaths)`` differs from the pair it was filled under,
        which is read once per run, as neither changes in a run except by
        the run's own charges. It is cleared after every charge in the
        run that goes through ``consume``, the only frame charges that can
        kill, and after every dump that moved ``deaths``, as a dump's
        broadcast can kill its sender or a listener that a later frame
        routes through.

        Charges follow ``radio``'s rule: a payer whose residual exceeds the
        price pays inline, ``consume``'s Neumaier and Kahan steps on the
        ledger's lists and totals bound once per run, and stays alive; any
        other charge goes through ``consume``, with the totals written back
        around it. A frame makes about four charges, and the per-call
        overhead of ``consume`` was most of its cost. A path walk shared
        with mleach's data plane cost flood-dsdv 10-12% in each of three
        designs measured. One run a second, in place of an event per frame
        and one per dump, saves each of them a heap push and pop, a
        handler call and those bindings. ``tests/test_dsdv_oracle.py``
        replays every dump on a scalar model and every stretch of frames
        between two dumps as fully checked per-hop ``consume`` calls on a
        copy of the ledger, and holds the two equal bit for bit.
        """
        world = self.world
        log = world.log
        ledger = world.ledger
        alive = ledger.alive_mv
        energy = ledger.energy
        consumed = ledger.consumed
        comp = ledger.consumed_comp
        total = ledger._total
        total_comp = ledger._total_comp
        link_key = self._link_key
        link_price = self._link_price
        unverified = self._unverified
        if self._links_token != (world.mobility_step, ledger.deaths):
            self._links_token = (world.mobility_step, ledger.deaths)
            link_key[:] = unverified
        # rx + amp * (d * d) is RadioModel's tx formula, operation for operation
        radio = world.radio
        bits = self.cfg.packet_size_bits
        rx = radio.e_elec_j_per_bit * bits
        amp = radio.eps_amp_j_per_bit_m2 * bits
        item = world.distances().item
        sink_key = self.sink_key
        sink_hop = self.sink_hop
        bs = world.bs_id
        rr = self.cfg.radio_range_rr_m
        max_hops = self.cfg.node_count + 1
        node_dump = self._node_dump
        dumps = self._dumps
        run_t = t_us
        sunk = 0
        # dumps at or before dump_last, and frames at or before frame_last,
        # sort before the queue's head
        head = world.queue.head()
        if head:
            dump_last = head[0] - (head[1] < EventKind.ROUTE_DUMP)
            frame_last = head[0] - (head[1] < EventKind.DATA_SEND)
        else:
            dump_last = frame_last = (t_us // US + 1) * US - 1
        while True:
            if not dumps and self._next_dumps:
                # every dump of the current interval is sent, so the next
                # interval's list is whole
                dumps = self._dumps = self._next_dumps
                dumps.sort(reverse=True)
                self._next_dumps = []
            # the frames before the next dump, if it goes, else up to frame_last
            dump_goes = dumps and dumps[-1][0] <= dump_last
            last_t = dumps[-1][0] - 1 if dump_goes else frame_last
            while frames:
                t_us, i = frames[-1]
                if t_us > last_t:
                    break
                del frames[-1]
                if not alive[i]:
                    log.dropped_dead += 1
                    continue
                cur = i
                hops = 0
                while True:
                    key = sink_key[cur]
                    hops += 1
                    if key == link_key[cur]:
                        # verified under this key, and nothing has moved or died since
                        if hops > max_hops:
                            log.dropped_unreachable += 1
                            break
                        nh = sink_hop[cur]
                        j = link_price[cur]
                    else:
                        if key & ROUTE_BITS != LIVE or hops > max_hops:
                            log.dropped_unreachable += 1
                            break
                        # dsdv_merge writes the next hop with every live key, so nh >= 0
                        nh = sink_hop[cur]
                        # liveness first: it is the cheaper read, and either failure breaks the link
                        if (nh != bs and not alive[nh]) or (d := item(cur, nh)) > rr:
                            sink_key[cur] = route_key((key >> 31) + 1, NO_ROUTE)
                            log.dropped_unreachable += 1
                            break
                        if not alive[cur]:
                            log.dropped_dead += 1
                            break
                        j = rx + amp * (d * d)
                        link_key[cur] = key
                        link_price[cur] = j
                    # the sender's tx and, unless nh is the sink, the receiver's rx:
                    # nh was alive at the link check, and only cur, never nh, has paid since
                    payer = cur
                    while True:
                        e = energy[payer]
                        if e > j:
                            energy[payer] = e - j
                            s = consumed[payer]
                            t = s + j
                            comp[payer] += (s - t) + j if s >= j else (j - t) + s
                            consumed[payer] = t
                            y = j - total_comp
                            t = total + y
                            total_comp = (t - total) - y
                            total = t
                        else:
                            ledger._total = total
                            ledger._total_comp = total_comp
                            paid = ledger.consume(payer, j, t_us)
                            total = ledger._total
                            total_comp = ledger._total_comp
                            link_key[:] = unverified
                            self._links_token = (world.mobility_step, ledger.deaths)
                            if not paid:
                                payer = -1
                                break
                        if payer == nh or nh == bs:
                            break
                        payer, j = nh, rx
                    if payer < 0:
                        log.dropped_dead += 1
                        break
                    if nh == bs:
                        sunk += 1
                        break
                    cur = nh
            if not dump_goes:
                break
            dump_t, _, i = dumps.pop()
            deaths = ledger.deaths
            ledger._total = total
            ledger._total_comp = total_comp
            node_dump(dump_t, i)
            total = ledger._total
            total_comp = ledger._total_comp
            if ledger.deaths != deaths:
                link_key[:] = unverified
                self._links_token = (world.mobility_step, ledger.deaths)
        ledger._total = total
        ledger._total_comp = total_comp
        if sunk:
            world.deliver_data(run_t, sunk)
