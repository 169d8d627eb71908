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
last forwarded reading) and ``pending`` (queued readings). Who heads, joins
or is orphaned lasts one round and is recorded in that round's context.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import EventKind, InvariantViolation


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
        self.pending: list[list[float]] = [[] for _ in range(n)]
        self.ctx: RoundContext | None = None
        self.handlers = {
            EventKind.ROUND_START: self._round_start,
            EventKind.SLOT_START: self._slot,
            EventKind.ORPHAN_FLUSH: self._orphan_flush,
            EventKind.ROUND_FINISH: self._round_finish,
        }

    # -- scheduling ----------------------------------------------------------

    def start(self) -> None:
        # the horizon is a whole number of rounds, so round 0 always runs
        self.world.queue.schedule(0, EventKind.ROUND_START, 0)

    def on_readings(self, i: int, readings: list[float], t_us: int) -> None:
        self.pending[i].extend(readings)

    def finish(self, t_us: int) -> None:
        # readings still queued when the run ends: a dead node's died with it,
        # a live node's never found a path out
        log = self.world.log
        alive = self.world.ledger.alive
        for i, queued in enumerate(self.pending):
            if alive[i]:
                log.dropped_unreachable += len(queued)
            else:
                log.dropped_dead += len(queued)
            queued.clear()

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
        stranded = self._build_tdma(ctx, t_us)
        self._build_graph_and_routes(ctx, t_us)

        flush = sorted(set(orphans) | set(stranded))
        for rank, i in enumerate(flush):
            offset = (rank + 1) * cfg.round_us // (len(flush) + 1)
            world.queue.schedule(t_us + offset, EventKind.ORPHAN_FLUSH, i)
        world.queue.schedule(t_us + cfg.round_us - 1, EventKind.ROUND_FINISH, r)

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

    def _build_tdma(self, ctx: RoundContext, t_us: int) -> list[int]:
        """Assign id-ordered slots and broadcast each cluster's schedule.

        Returns members stranded by a head that died announcing its
        schedule; they fall back to direct-to-sink for this round.
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
                world.queue.schedule(t_us + slot * slot_us, EventKind.SLOT_START, (i, ch))
        return stranded

    def _build_graph_and_routes(self, ctx: RoundContext, t_us: int) -> None:
        world = self.world
        rr = self.cfg.radio_range_rr_m
        verts = self._hello(ctx.cluster_heads, rr, t_us)
        ctx.ch_graph = build_ch_graph(world.dist_row, verts, world.bs_id, rr)
        for ch in verts:
            ctx.routes[ch] = shortest_route(ctx.ch_graph, ch, world.bs_id)

    # -- data plane ----------------------------------------------------------

    def _slot(self, t_us: int, member_head: tuple[int, int]) -> None:
        cm, ch = member_head
        world = self.world
        cfg = self.cfg
        # dead since its slot was queued (hearing a schedule or a hello can
        # drain it): the queue is left for finish
        if not world.ledger.alive[cm]:
            return
        todo = self.pending[cm]
        d = world.distance(cm, ch)
        if not todo:
            world.unicast(cm, ch, d, cfg.heartbeat_bits, t_us)
            return
        self.pending[cm] = []
        # once the member dies, unicast fails at no charge, so the rest drop one by one
        for reading in todo:
            if world.unicast(cm, ch, d, cfg.packet_size_bits, t_us):
                self._head_accept(t_us, ch, cm, reading)
            else:
                world.log.dropped_dead += 1

    def _change(self, origin: int, reading: float) -> float | None:
        """Change filter: the change to forward, or None (counted as filtered)."""
        delta = abs(reading - self.last_forwarded[origin])
        if delta > self.cfg.filter_threshold:
            self.last_forwarded[origin] = reading
            return delta
        self.world.log.dropped_filtered += 1
        return None

    def _head_accept(self, t_us: int, ch: int, origin: int, reading: float) -> None:
        delta = self._change(origin, reading)
        if delta is None:
            return
        world = self.world
        path = self.ctx.routes.get(ch)
        if path is None:
            world.log.dropped_unreachable += 1
            return
        # every route ends at the sink
        for u, v in zip(path, path[1:]):
            if not world.unicast(u, v, world.distance(u, v), self.cfg.packet_size_bits, t_us):
                world.log.dropped_dead += 1
                return
        world.deliver_data(t_us, origin, delta)

    def _orphan_flush(self, t_us: int, i: int) -> None:
        world = self.world
        cfg = self.cfg
        todo = self.pending[i]
        if not world.ledger.alive[i] or not todo:
            return
        self.pending[i] = []
        d = world.distance(i, world.bs_id)
        if d > cfg.radio_range_rr_m:
            world.log.dropped_unreachable += len(todo)
            return
        for idx, reading in enumerate(todo):
            delta = self._change(i, reading)
            if delta is None:
                continue
            if not world.unicast(i, world.bs_id, d, cfg.packet_size_bits, t_us):
                world.log.dropped_dead += len(todo) - idx
                return
            world.deliver_data(t_us, i, delta)

    def _round_finish(self, t_us: int, _r: int) -> None:
        ctx = self.ctx
        world = self.world
        for ch in ctx.routes:
            todo = self.pending[ch]
            if not world.ledger.alive[ch] or not todo:
                continue
            self.pending[ch] = []
            for reading in todo:
                self._head_accept(t_us, ch, ch, reading)
        if world.strict:
            check_round(ctx, self.cfg.radio_range_rr_m)
