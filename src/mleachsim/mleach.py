"""Round-based clustering protocol with multi-hop head-to-sink routing.

Each round: probabilistic head election with an exclusion window, hello
broadcasts to form clusters, id-ordered TDMA slots for member uplink,
change-filtering at the heads, and shortest-path forwarding over the graph
of heads plus the base station. Members transmit all queued readings in
their slot; heads flush their own readings when the round closes. Orphans
(no head within the cluster radius) send straight to the base station when
it is in radio range.

The head graph is a plain adjacency dict, vertex -> [(neighbor, distance
in meters), ...] ascending by neighbor id, with an edge between any two
vertices within radio range.

The protocol owns its per-node state, indexed by node id: ``exclusion``
(rounds left out of elections), ``last_forwarded`` (the change filter's
last forwarded reading) and ``queued`` (how many readings wait to be sent;
their values are asked of the traffic model only when they are). Who
heads, joins or is orphaned lasts one round and is recorded in that round's
context.

A backlog (a member's slot, an orphan's flush, a head's own queue when the
round closes) is sent at one instant, frame by frame, by ``_walk``, which
also sends heartbeats and is the only place mleach pays for a unicast
frame.

A round's slots and orphan flushes are one list, its plan:
``_build_tdma`` appends a ``(t_us, SLOT_START, index, (member, head))``
item per slot and ``_round_start`` an ``(t_us, ORPHAN_FLUSH, index,
node)`` item per flush, ``index`` counting insertions, so the sorted plan
is the order the heap gave them as one event each. The plan is queued as
one event at its first item, and ``_send_plan`` sends a run of items up
to the next queued event that sorts first and queues the rest again, as
``DsdvProtocol._send`` sends DSDV's frames. That is exact: no item
schedules anything; what an item reads changes only in a queued event
(positions in MOBILITY_STEP, queued counts in TRAFFIC_GEN, the round's
context in ROUND_START) or in earlier items; ties in (time, kind) arise
only inside the plan; and every item sorts before the round's
ROUND_FINISH, 1 µs rounds included (``_send_plan`` gives the details).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import EventKind, InvariantViolation

# a frame's steps are (payer, joules) charges and these markers, which charge nobody
FILTER = -1  # the change filter runs on the frame's reading
NO_ROUTE = -2  # the head has no route: the reading is unreachable
SINK = -3  # the frame reached the sink's radio


def ch_threshold(p: float, r: int) -> float:
    """Election probability for round r of an eligible node.

    Rises over an epoch of ceil(1/p) rounds as the eligible set shrinks,
    reaching 1.0 in the final round so every remaining eligible node is
    elected. The raw formula can exceed 1 by a few ulps at the epoch's last
    round, so the result is clamped into (0, 1]. p is a validated
    ``p_ch_fraction``, in (0, 1), and r counts rounds from 0.
    """
    epoch = math.ceil(1.0 / p)
    return min(1.0, p / (1.0 - p * (r % epoch)))


def run_election(
    exclusion: np.ndarray,
    alive_ids: np.ndarray,
    r: int,
    p: float,
    exclusion_rounds: int,
    epoch_rounds: int,
    stream,
) -> np.ndarray:
    """One round of head election over the ascending alive_ids; the heads, ascending.

    Nodes with exclusion 0 are eligible; every epoch boundary makes all
    eligible again. Eligible nodes draw in id order, one draw each, and a
    round that elects nobody promotes the smallest-id candidate. Heads get
    exclusion_rounds and everyone else's count decays, in place.
    """
    if r % epoch_rounds == 0:
        exclusion[alive_ids] = 0
    excluded = exclusion[alive_ids]
    eligible = alive_ids[excluded == 0]
    elected = eligible[stream.random(len(eligible)) < ch_threshold(p, r)]
    if len(elected) == 0:
        elected = (eligible if len(eligible) else alive_ids)[:1]
    exclusion[alive_ids] = np.maximum(excluded - 1, 0)
    exclusion[elected] = exclusion_rounds
    return elected


def build_ch_graph(
    dist_row, chs: list[int], bs_id: int, rr: float
) -> dict[int, list[tuple[int, float]]]:
    """Adjacency over the given heads plus the base station; edges within rr.

    dist_row(u) gives vertex u's distances to every node by id, as
    ``World.dist_row`` does. Maps each vertex to its (neighbor, distance in
    meters) pairs, ascending by neighbor id so traversal order is
    deterministic.
    """
    verts = sorted([*chs, bs_id])
    return {
        u: [(v, w) for v, w in zip(verts, dist_row(u)[verts].tolist()) if v != u and w <= rr]
        for u in verts
    }


def shortest_route(
    graph: dict[int, list[tuple[int, float]]], src: int, bs_id: int
) -> list[int] | None:
    """Minimum-weight path src -> base station, or None if unreachable.

    Ties break on fewer hops, then on the lexicographically smallest vertex
    sequence. Implemented as Dijkstra keyed on (cost, hops, path): the first
    settled path per vertex is minimal under that order, and extending a
    path never reorders prefixes, so the first pop of the target is optimal.
    """
    if src not in graph:
        return None
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (src,))]
    done: set[int] = set()
    while heap:
        cost, hops, path = heapq.heappop(heap)
        v = path[-1]
        if v in done:
            continue
        done.add(v)
        if v == bs_id:
            return list(path)
        for nbr, w in graph[v]:
            if nbr not in done:
                heapq.heappush(heap, (cost + w, hops + 1, path + (nbr,)))
    return None


@dataclass
class RoundContext:
    cluster_heads: list[int] = field(default_factory=list)
    clusters: dict[int, list[int]] = field(default_factory=dict)
    tdma: dict[int, int] = field(default_factory=dict)
    ch_graph: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    routes: dict[int, list[int] | None] = field(default_factory=dict)


def check_round(ctx: RoundContext, rr: float) -> None:
    """Per-round structure: disjoint clusters, unique slots, graph edges within rr."""
    seen: set[int] = set()
    for ch, members in ctx.clusters.items():
        slots = [ctx.tdma[i] for i in members if i in ctx.tdma]
        if len(set(slots)) != len(slots):
            raise InvariantViolation(f"duplicate TDMA slot in cluster of head {ch}")
        for i in members:
            if i in seen:
                raise InvariantViolation(f"node {i} assigned to two clusters")
            seen.add(i)
    for u, nbrs in ctx.ch_graph.items():
        for v, w in nbrs:
            if w > rr:
                raise InvariantViolation(f"head graph edge {u}-{v} exceeds radio range")


class MleachProtocol:
    def __init__(self, world) -> None:
        self.world = world
        self.cfg = world.cfg
        n = self.cfg.node_count
        self.exclusion = np.zeros(n, dtype=np.int64)
        self.last_forwarded = [-math.inf] * n
        self.queued = np.zeros(n, dtype=np.int64)
        self.ctx: RoundContext | None = None
        self.handlers = {
            EventKind.ROUND_START: self._round_start,
            EventKind.SLOT_START: self._send_plan,
            EventKind.ORPHAN_FLUSH: self._send_plan,
            EventKind.ROUND_FINISH: self._round_finish,
        }

    # -- scheduling ----------------------------------------------------------

    def start(self) -> None:
        # the horizon is a whole number of rounds, so round 0 always runs
        self.world.queue.schedule(0, EventKind.ROUND_START, 0)

    def on_readings(self, ids: np.ndarray, counts: np.ndarray, t_us: int) -> None:
        self.queued[ids] += counts

    def finish(self, t_us: int) -> None:
        # readings still queued when the run ends: a dead node's died with it,
        # a live node's never found a path out
        log = self.world.log
        alive = self.world.ledger.alive
        log.dropped_unreachable += int(self.queued[alive].sum())
        log.dropped_dead += int(self.queued[~alive].sum())
        self.queued[:] = 0

    # -- round phases ----------------------------------------------------------

    def _round_start(self, t_us: int, r: int) -> None:
        world = self.world
        cfg = self.cfg
        ledger = world.ledger
        if r + 1 < cfg.sim_us // cfg.round_us:
            world.queue.schedule(t_us + cfg.round_us, EventKind.ROUND_START, r + 1)
        self.ctx = ctx = RoundContext()

        alive = np.nonzero(ledger.alive)[0]
        if len(alive) == 0:
            world.log.alive_series.append((r, 0))
            world.log.ch_count_series.append((r, 0))
            return

        elected = run_election(
            self.exclusion,
            alive,
            r,
            cfg.p_ch_fraction,
            cfg.ch_exclusion_rounds,
            cfg.epoch_rounds,
            world.streams.get("election"),
        )

        ctx.cluster_heads = chs = self._hello(elected.tolist(), cfg.cluster_radius_rc_m, t_us)

        orphans = self._assign_members(ctx, chs)
        plan: list[tuple[int, EventKind, int, object]] = []
        stranded = self._build_tdma(ctx, t_us, plan)
        self._build_graph_and_routes(ctx, t_us)

        flush = sorted(set(orphans) | set(stranded))
        # bound once: a property and an enum member cost a lookup per read
        round_us = cfg.round_us
        flush_kind = EventKind.ORPHAN_FLUSH
        for rank, i in enumerate(flush):
            offset = (rank + 1) * round_us // (len(flush) + 1)
            plan.append((t_us + offset, flush_kind, len(plan), i))
        if plan:
            # the next item last, so a run takes its items from the end
            plan.sort(reverse=True)
            world.queue.schedule(plan[-1][0], plan[-1][1], plan)
        world.queue.schedule(t_us + round_us - 1, EventKind.ROUND_FINISH, r)

        world.log.alive_series.append((r, int(np.count_nonzero(ledger.alive))))
        world.log.ch_count_series.append((r, len(ctx.cluster_heads)))

    def _hello(self, heads: list[int], radius: float, t_us: int) -> list[int]:
        """Every head broadcasts a hello; returns those still alive after all of them.

        A head that cannot pay its broadcast is silent, and a later head's
        hello can drain an earlier one, so liveness is read only at the end.
        """
        world = self.world
        bits = self.cfg.hello_bits
        heard = [ch for ch in heads if world.broadcast(ch, bits, radius, t_us) is not None]
        return [ch for ch in heard if world.ledger.alive[ch]]

    def _assign_members(self, ctx: RoundContext, chs: list[int]) -> list[int]:
        """Join every alive non-head to its nearest head within the cluster radius.

        Returns the orphans, ascending: alive non-heads with no head in reach.
        """
        world = self.world
        rc = self.cfg.cluster_radius_rc_m
        ctx.clusters = {ch: [] for ch in chs}
        alive = world.ledger.alive.copy()
        alive[chs] = False
        free = np.nonzero(alive)[0]
        if not chs:
            return free.tolist()
        # head rows, heads by free nodes: the heads' hellos filled them
        sub = np.array([world.dist_row(ch) for ch in chs])[:, free]
        nearest = np.argmin(sub, axis=0)  # first minimum: smallest head id wins ties
        near_d = sub[nearest, np.arange(len(free))]
        orphans = []
        for k, i in enumerate(free.tolist()):
            if near_d[k] <= rc:
                ctx.clusters[chs[nearest[k]]].append(i)
            else:
                orphans.append(i)
        return orphans

    def _build_tdma(self, ctx: RoundContext, t_us: int, plan: list) -> list[int]:
        """Assign id-ordered slots, broadcast each cluster's schedule, append the slots to plan.

        Each slot is a ``(t_us, SLOT_START, index, (member, head))`` item of
        the round's plan. Returns members stranded by a head that died
        announcing its schedule; they fall back to direct-to-sink for this
        round.
        """
        world = self.world
        cfg = self.cfg
        stranded: list[int] = []
        for ch in ctx.cluster_heads:
            members = sorted(ctx.clusters[ch])
            ctx.clusters[ch] = members
            m = len(members)
            if m == 0:
                continue
            bits = cfg.schedule_bits_per_cm * m
            if world.broadcast(ch, bits, cfg.cluster_radius_rc_m, t_us) is None:
                ctx.clusters[ch] = []
                stranded.extend(members)
                continue
            slot_us = cfg.round_us // m
            for slot, i in enumerate(members):
                ctx.tdma[i] = slot
                plan.append((t_us + slot * slot_us, EventKind.SLOT_START, len(plan), (i, ch)))
        return stranded

    def _build_graph_and_routes(self, ctx: RoundContext, t_us: int) -> None:
        world = self.world
        rr = self.cfg.radio_range_rr_m
        verts = self._hello(ctx.cluster_heads, rr, t_us)
        ctx.ch_graph = build_ch_graph(world.dist_row, verts, world.bs_id, rr)
        for ch in verts:
            ctx.routes[ch] = shortest_route(ctx.ch_graph, ch, world.bs_id)

    # -- data plane ----------------------------------------------------------

    def _send_plan(self, t_us: int, plan: list[tuple[int, EventKind, int, object]]) -> None:
        """Send a run of the round's plan: each item's slot or orphan flush, in order.

        ``plan`` holds ``(t_us, kind, index, payload)`` items, the next item
        last, as ``_round_start`` builds it; the event fires at the next
        item's time and kind. Each item goes to ``_slot`` (SLOT_START) or
        ``_orphan_flush`` (ORPHAN_FLUSH) at its own time until the next one
        sorts after the queue's head by (time, kind): then the rest of the
        list is queued again at that item's time and kind and the run ends,
        as in ``DsdvProtocol._send``. So each item runs just where it ran as
        one event of its own, and that is exact:

        - no item schedules anything: a slot or a flush charges, counts and
          hands frames to the sink, so the head is read once per run;
        - what an item reads changes only in a queued event or in earlier
          items: positions change in MOBILITY_STEP, queued counts in
          TRAFFIC_GEN (and in the items' own sends), and ``ctx`` in
          ROUND_START, and a run ends before any queued event that sorts
          first. Lives change only by charges, in items or in queued events;
        - ties in (time, kind) arise only inside the list: only
          ``_round_start`` makes these two kinds, and one round's items all
          go before the next round starts. ``index`` is their insertion
          order, which was their ``seq`` as one event each, so the sorted
          list keeps it: at one microsecond slots go before flushes, and
          each kind in the order it was appended;
        - every item of round r sorts before its ROUND_FINISH at
          ``t + round_us - 1``: a slot's offset ``slot * (round_us // m)``
          with ``slot < m`` and a flush's ``(rank + 1) * round_us // (k + 1)``
          with ``rank < k`` are both below ``round_us``, and ROUND_FINISH is
          the later kind. With 1 µs rounds the round's start, every item and
          its ROUND_FINISH fall on one microsecond, in kind order.

        The first item always goes, as its event was the least queued; an
        item tied with the head also goes, as the head can then only be a
        later item of the same plan queued as an event of its own. With
        nothing queued (a direct call), every item goes. ``_slot`` and
        ``_orphan_flush`` keep their own checks of a dead or empty sender.
        A plan per round in place of an event per item saves each item a
        heap push and pop and a handler call, and keeps the heap small. A
        ``table1.cfg`` round plans about 490 items, 70% of them orphan
        flushes, and 4% of those flushes send a frame.
        """
        queue = self.world.queue
        slot_kind = EventKind.SLOT_START
        slot = self._slot
        flush = self._orphan_flush
        # items sorting at or before stop go before the queue's head
        stop = queue.head() or plan[0][:2]
        while plan:
            t_us, kind, _, payload = item = plan.pop()
            if (t_us, kind) > stop:
                plan.append(item)
                queue.schedule(t_us, kind, plan)
                break
            if kind is slot_kind:
                slot(t_us, payload)
            else:
                flush(t_us, payload)

    def _slot(self, t_us: int, member_head: tuple[int, int]) -> None:
        cm, ch = member_head
        world = self.world
        cfg = self.cfg
        # dead since its slot was queued (hearing a schedule or a hello can
        # drain it): the queue is left for finish
        if not world.ledger.alive[cm]:
            return
        # the head's row, which its hello and its other members' slots read
        link = [(cm, ch, world.dist_row(ch).item(cm))]
        n = self.queued.item(cm)
        if not n:
            self._walk(t_us, cm, (None,), self._charges(link, cfg.heartbeat_bits))
            return
        self.queued[cm] = 0
        steps = [*self._charges(link, cfg.packet_size_bits), (FILTER, 0.0), *self._route(ch)]
        world.log.dropped_dead += self._walk(t_us, cm, world.traffic.values(cm, n), steps)

    def _orphan_flush(self, t_us: int, i: int) -> None:
        world = self.world
        cfg = self.cfg
        n = self.queued.item(i)
        if not world.ledger.alive[i] or not n:
            return
        self.queued[i] = 0
        bs = world.bs_id
        # the sink's row, which the head graph and the other orphans read
        d = world.dist_row(bs).item(i)
        if d > cfg.radio_range_rr_m:
            # never read, so not drawn now: the node's later readings walk on past them
            world.traffic.skip(i, n)
            world.log.dropped_unreachable += n
            return
        steps = [(FILTER, 0.0), *self._charges([(i, bs, d)], cfg.packet_size_bits), (SINK, 0.0)]
        values = world.traffic.values(i, n)
        world.log.dropped_dead += self._walk(t_us, i, values, steps, orphan=True)

    def _round_finish(self, t_us: int, _r: int) -> None:
        ctx = self.ctx
        world = self.world
        queued = self.queued
        for ch in ctx.routes:
            n = queued.item(ch)
            if not world.ledger.alive[ch] or not n:
                continue
            queued[ch] = 0
            steps = [(FILTER, 0.0), *self._route(ch)]
            world.log.dropped_dead += self._walk(t_us, ch, world.traffic.values(ch, n), steps)
        if world.strict:
            check_round(ctx, self.cfg.radio_range_rr_m)

    def _charges(self, hops: list[tuple[int, int, float]], bits: int) -> list[tuple[int, float]]:
        """One frame of bits over hops, each (sender, receiver, meters): its charges.

        Every sender pays tx and every receiver but the sink pays rx, in hop
        order, priced by RadioModel's formulas in the same operation order.
        """
        radio = self.world.radio
        bs = self.world.bs_id
        rx = radio.e_elec_j_per_bit * bits
        amp = radio.eps_amp_j_per_bit_m2 * bits
        steps = []
        for u, v, d in hops:
            steps.append((u, rx + amp * (d * d)))
            if v != bs:
                steps.append((v, rx))
        return steps

    def _route(self, ch: int) -> list[tuple[int, float]]:
        """The steps of a frame from head ch past the filter: its route's charges, then SINK."""
        path = self.ctx.routes.get(ch)
        if path is None:
            return [(NO_ROUTE, 0.0)]
        dist_row = self.world.dist_row
        # every route ends at the sink; a backlog is sent at one instant, so
        # each link's distance is read once for all of its frames
        hops = [(u, v, dist_row(u).item(v)) for u, v in zip(path, path[1:])]
        return [*self._charges(hops, self.cfg.packet_size_bits), (SINK, 0.0)]

    def _walk(
        self,
        t_us: int,
        origin: int,
        values: list,
        steps: list[tuple[int, float]],
        orphan: bool = False,
    ) -> int:
        """Send one frame from origin per value along steps; the frames lost to a death.

        Each frame takes steps in order: a (payer, joules) charge fails if
        the payer is dead or cannot pay in full, and loses the frame;
        FILTER runs the change filter on origin's readings (a filtered
        reading is counted); NO_ROUTE counts the reading unreachable; SINK
        counts the frame as reached, and in strict mode raises if its
        change is one the filter should have stopped. An orphan pays every
        charge itself, so once one fails the rest of its backlog is lost
        with it; any other failure loses one frame. The caller counts the
        loss: a heartbeat's value is None, it has no FILTER and carries no
        reading, so its loss counts nowhere. The frames that reached the
        sink go to ``World.deliver_data`` in one call at the end: a backlog
        is sent at one instant, so they all arrive within one second.

        Charges follow ``radio``'s rule, as in ``DsdvProtocol._send``: a
        payer whose residual exceeds the charge pays inline, ``consume``'s
        Neumaier and Kahan steps on the ledger's lists and totals bound
        once per backlog, and stays alive; any other charge goes through
        ``consume``, with the totals written back around it. A ``consume``
        call per charge was the largest cost of mleach's data plane.
        ``tests/test_mleach.py`` replays backlogs as per-frame ``consume``
        calls on a copy of the ledger and holds the two equal bit for bit.
        """
        world = self.world
        ledger = world.ledger
        alive = ledger.alive_mv
        energy = ledger.energy
        consumed = ledger.consumed
        comp = ledger.consumed_comp
        total = ledger._total
        total_comp = ledger._total_comp
        strict = world.strict
        threshold = self.cfg.filter_threshold
        last = self.last_forwarded[origin]
        lost = filtered = unreachable = sunk = 0
        for k, value in enumerate(values):
            for payer, j in steps:
                if payer >= 0:
                    if alive[payer]:
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
                            continue
                        ledger._total = total
                        ledger._total_comp = total_comp
                        paid = ledger.consume(payer, j, t_us)
                        total = ledger._total
                        total_comp = ledger._total_comp
                        if paid:
                            continue
                    lost += 1
                    break
                if payer == FILTER:
                    delta = abs(value - last)
                    if delta > threshold:
                        last = value
                        continue
                    filtered += 1
                    break
                if payer == SINK:
                    if strict and delta <= threshold:
                        raise InvariantViolation(
                            f"filtered-size change from node {origin} reached the sink"
                        )
                    sunk += 1
                else:
                    unreachable += 1
                    break
            else:
                continue
            if orphan and lost:
                lost = len(values) - k
                break
        ledger._total = total
        ledger._total_comp = total_comp
        self.last_forwarded[origin] = last
        log = world.log
        log.dropped_filtered += filtered
        log.dropped_unreachable += unreachable
        if sunk:
            world.deliver_data(t_us, sunk)
        return lost
