"""World assembly, the event loop shared by both protocols, and PROTOCOLS.

A run is one scenario with one protocol named in PROTOCOLS. World(cfg,
name) validates the config, once, and builds the run's log; World.run
runs PROTOCOLS[name](world).

A run owns: node positions (base station as the final row), the energy
ledger (per-node joules in Python lists, alive flags and death times in
numpy; see ``radio``), random-waypoint mobility, On-Off traffic,
distances between nodes, and the event queue. Distances live in one held
(n+1) x (n+1) buffer whose rows are filled on demand, each stamped with
World.mobility_step, the count of position changes, as of its fill:
World.dist_row reads one, World.distances all. Protocol objects plug into
the loop through start/on_readings/finish and a ``handlers`` table by
event kind, and keep their own per-node state. Every broadcast, control
or hello, is paid through World.broadcast. Each protocol's data plane pays its own frames
hop by hop under one charging rule (see ``radio``): a payer that stays
alive pays inline, and any other charge goes through
EnergyLedger.consume. DsdvProtocol._send does so for one run of DSDV
frames, MleachProtocol._walk for one mleach backlog (and its heartbeats). Both
protocols send in runs: a DSDV second's frames and an mleach round's slots
and orphan flushes are each one time-ordered list queued as one event, and
the handler (DsdvProtocol._send, MleachProtocol._send_plan) sends items
until the next one sorts after EventQueue.head(), then queues the rest. A frame
needs a live sender that pays tx; a sensor receiver must be alive and pay
rx, and the sink receives free. The frames of one run or one backlog that
reach the sink's radio are handed to World.deliver_data in one call, and
the sink channel decides them there. Deaths are read from the ledger; the
world learns of none as they happen. Strict mode layers invariant checks
over a run and raises InvariantViolation on the first breach.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .config import SimConfig, validate_config
from .dsdv import DsdvProtocol
from .engine import US, EventKind, EventQueue, InvariantViolation, RandomStreams
from .metrics import MetricsLog
from .mleach import MleachProtocol
from .mobility import MobilityField
from .radio import EnergyLedger, RadioModel
from .traffic import OnOffTraffic

# protocol name -> class, in the order the CLI runs "both"
PROTOCOLS = {"mleach": MleachProtocol, "dsdv": DsdvProtocol}

# strict mode's ledger drift bound: the larger of 1e-9 J and DRIFT_ULPS ulps
# of the total, so 1e-9 J below 2**23 J of total, where one ulp is below
# 1e-9 J, and DRIFT_ULPS ulps from there on; the bound scales with the energy
# unit. No run measured drifted more than one ulp, and a total scaled by
# 2**30 drifts exactly 2**30 times as far
DRIFT_ULPS = 1


class BsChannel:
    """Shared-medium contention at the base station receiver (optional).

    Models the sink-side bottleneck: the radio link itself is lossless, but
    when everyone funnels data into one receiver the MAC around it saturates.
    Arrivals are tallied per second into an exponential moving average
    L_t = (L_{t-1} + bits_t) / 2; a data frame is received with probability
    exp(-(L/C)^k), so losses are negligible below capacity C and collapse
    sharply above it (k controls how sharp). Disabled when capacity is 0:
    then every in-range frame is received and no randomness is drawn.
    Control broadcasts are not affected; only unicast data at the sink.
    Frames come in hand-offs of k, all within one second, and ``admit``
    decides them one by one, as single frames would be decided.
    """

    # uniforms drawn from the stream per call; it has no other reader, so
    # blocks yield the same values in the same order as one draw per frame
    DRAW_BLOCK = 1024

    def __init__(self, capacity_bps: float, collapse_k: float, stream) -> None:
        self.enabled = capacity_bps > 0.0
        self.capacity_bps = capacity_bps
        self.collapse_k = collapse_k
        self.load_ema = 0.0
        self._second = 0
        self._bits = 0.0
        if self.enabled:
            self._roll_to(0)
            self._draw = self._uniforms(stream).__next__

    def _uniforms(self, stream):
        while True:
            yield from stream.random(self.DRAW_BLOCK).tolist()

    def _roll_to(self, t_s: int) -> None:
        while self._second < t_s:
            self.load_ema = 0.5 * (self.load_ema + self._bits)
            self._bits = 0.0
            self._second += 1
        # L changes once a second, so the pass probability does too
        try:
            excess = (self.load_ema / self.capacity_bps) ** self.collapse_k
        except OverflowError:
            # past the largest float exp(-x) is 0.0 anyway: nothing passes
            excess = math.inf
        self.p_pass = math.exp(-excess)

    def admit(self, t_us: int, bits: int, k: int) -> int:
        """How many of k frames of bits, arrived within t_us's second, pass.

        Rolls to that second once, then per frame adds bits to the second's
        sum and draws one uniform, in the order the frames arrived. So k
        frames handed over at once are decided as k calls with one frame
        each would decide them: the stream has no other reader, p_pass
        changes only at a roll, and _roll_to steps one second at a time,
        so it ends in the same state whichever frame of the second rolls
        it. The sum stays frame by frame: one bits * k add rounds
        differently once it passes 2**53.
        """
        if not self.enabled:
            return k
        if t_us // US > self._second:
            self._roll_to(t_us // US)
        draw = self._draw
        p_pass = self.p_pass
        acc = self._bits
        admitted = 0
        for _ in range(k):
            acc += bits
            admitted += draw() < p_pass
        self._bits = acc
        return admitted


class World:
    """Everything a protocol needs to run, plus the loop itself."""

    def __init__(self, cfg: SimConfig, protocol: str, strict: bool = False) -> None:
        """``protocol`` labels the run's log: summary.csv's first column."""
        self.cfg = cfg = validate_config(cfg)
        self.log = MetricsLog(protocol, cfg.sim_duration_s, cfg.node_count)
        self.strict = strict
        n = cfg.node_count
        self.bs_id = cfg.bs_id
        self.streams = RandomStreams(cfg.rng_seed)
        self.queue = EventQueue()
        self.radio = RadioModel(cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)

        # sensors uniformly and independently inside the field, the sink last
        sensor_pos = self.streams.get("placement").random((n, 2))
        sensor_pos[:, 0] *= cfg.field_width_m
        sensor_pos[:, 1] *= cfg.field_height_m
        self.positions = np.vstack([sensor_pos, np.asarray([cfg.bs_position])])
        self.mobility = MobilityField(
            self.positions[:n],
            self.streams.get("mobility"),
            cfg.field_width_m,
            cfg.field_height_m,
            cfg.mobility_speed_min_mps,
            cfg.mobility_speed_max_mps,
            cfg.mobility_pause_s,
        )
        # row i holds the positions of mobility step _row_step[i], the whole
        # buffer those of _full_step; either is fresh while that is mobility_step
        self._dist = np.empty((n + 1, n + 1))
        self._row_step = [-1] * (n + 1)
        self.mobility_step = 0
        self._full_step = -1
        self._in_range = np.empty(n, dtype=bool)

        self.ledger = EnergyLedger(n, cfg.initial_energy_j)
        self.traffic = OnOffTraffic(
            n, cfg.traffic_on_s, cfg.traffic_off_s, cfg.traffic_rate_pps, cfg.rng_seed
        )
        self.channel = BsChannel(
            cfg.bs_mac_capacity_bps,
            cfg.bs_mac_collapse_k,
            self.streams.get("channel"),
        )

    # -- distances -----------------------------------------------------------

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from node i to every node, the sink last, as of now.

        Fills row i alone, if stale; a view valid until positions next change.
        """
        if self._row_step[i] != self.mobility_step:
            kernels.distance_row(self.positions, i, self._dist[i])
            self._row_step[i] = self.mobility_step
        return self._dist[i]

    def distances(self) -> np.ndarray:
        """Every distance between nodes, the sink last, as of now.

        The held buffer, filled whole in one kernel call by the first call
        after positions change; its rows equal dist_row's bit for bit.
        """
        step = self.mobility_step
        if self._full_step != step:
            kernels.pairwise_distances(self.positions, self._dist)
            self._row_step[:] = [step] * len(self._row_step)
            self._full_step = step
        return self._dist

    def invalidate_distances(self) -> None:
        """Mark every distance row stale; call whenever positions change.

        Bumps ``mobility_step``, so a reader that keeps anything derived from
        positions can tell whether they changed since.
        """
        self.mobility_step += 1

    # -- shared helpers ------------------------------------------------------

    def alive_in_range(self, center: int, radius: float) -> np.ndarray:
        """Alive sensor ids within radius of center (center excluded), ascending."""
        n = self.cfg.node_count
        mask = self._in_range
        np.less_equal(self.dist_row(center)[:n], radius, out=mask)
        mask &= self.ledger.alive
        if center < n:
            mask[center] = False
        return np.nonzero(mask)[0]

    # -- what both protocols share: broadcasts and the sink --------------------

    def broadcast(self, src: int, bits: int, radius: float, t_us: int) -> np.ndarray | None:
        """src sends bits to everything within radius; every listener pays rx.

        A sensor sender that is dead or cannot pay the transmission stays
        silent and gets None; the sink sends for free. Returns the ids of
        the listeners that paid in full, ascending.
        """
        ledger = self.ledger
        if src != self.bs_id and not (
            ledger.alive_mv[src] and ledger.consume(src, self.radio.tx_energy(bits, radius), t_us)
        ):
            return None
        listeners = self.alive_in_range(src, radius)
        return ledger.charge_many(listeners, self.radio.rx_energy(bits), t_us)

    def deliver_data(self, t_us: int, k: int) -> None:
        """k data frames reached the sink's radio within t_us's second.

        The channel has final say: each frame is counted delivered in that
        second's bucket or dropped as congested. A protocol hands over all
        the frames of one instant, or one run of DSDV frames, in one call.
        That is exact because nothing reads ``delivered``,
        ``dropped_congested`` or ``bs_buckets`` before the run ends, and
        ``BsChannel.admit`` decides k frames as k single ones.
        """
        admitted = self.channel.admit(t_us, self.cfg.packet_size_bits, k)
        self.log.record_bs_rx(t_us / US, admitted)
        self.log.dropped_congested += k - admitted

    # -- event loop ------------------------------------------------------------

    def run(self, protocol) -> None:
        """Run to SIM_END, calling ``handlers[kind](t_us, payload)`` per event.

        The table joins the world's per-second kinds to ``protocol.handlers``.
        A recurring event queues its own successor, so the queue holds the
        next instance of each, never the whole horizon.
        """
        self.protocol = protocol
        handlers = {
            EventKind.METRIC_SAMPLE: self._sample,
            EventKind.MOBILITY_STEP: self._move,
            EventKind.TRAFFIC_GEN: self._generate,
            **protocol.handlers,
        }
        self.queue.schedule(0, EventKind.METRIC_SAMPLE, 0)
        if self.cfg.sim_duration_s > 1:
            self.queue.schedule(US, EventKind.MOBILITY_STEP, None)
        self.queue.schedule(0, EventKind.TRAFFIC_GEN, 0)
        self.queue.schedule(self.cfg.sim_us, EventKind.SIM_END, None)
        protocol.start()

        while True:
            # looked up per event: a hook may replace pop on the instance
            t_us, kind, payload = self.queue.pop()
            if kind is EventKind.SIM_END:
                break
            handlers[kind](t_us, payload)

        protocol.finish(t_us)
        ledger = self.ledger
        died = ledger.death_time_us[~ledger.alive]
        if len(died):
            # a numpy scalar, the only one any CSV gets, so the one source of
            # summary.csv's np.float64(...) repr that the pins expect. ROADMAP
            # item 1 stores float(...) here, re-pinning them and perfbench's drain pin
            self.log.first_death_s = died.min() / US
        if self.strict:
            self._check_final()

    def _sample(self, t_us: int, t: int) -> None:
        self.log.record_energy(t, self.ledger.total_consumed(), self.ledger.max_consumed())
        if t < self.cfg.sim_duration_s:
            self.queue.schedule(t_us + US, EventKind.METRIC_SAMPLE, t + 1)

    def _move(self, t_us: int, _payload: None) -> None:
        self.mobility.step(self.ledger.alive)
        self.invalidate_distances()
        if t_us + US < self.cfg.sim_us:
            self.queue.schedule(t_us + US, EventKind.MOBILITY_STEP, None)

    def _generate(self, t_us: int, t: int) -> None:
        ids, counts = self.traffic.generate(np.flatnonzero(self.ledger.alive), t)
        self.log.generated += int(counts.sum())
        self.protocol.on_readings(ids, counts, t_us)
        if t + 1 < self.cfg.sim_duration_s:
            self.queue.schedule(t_us + US, EventKind.TRAFFIC_GEN, t + 1)

    # -- strict-mode invariants ------------------------------------------------

    def check_routes(self, proto) -> None:
        """DSDV loop-freedom: every valid route walks to the sink, no revisits."""
        bs = self.bs_id
        sink_key = proto.sink_key
        sink_hop = proto.sink_hop
        for i in np.flatnonzero(self.ledger.alive).tolist():
            cur = i
            visited = {cur}
            while True:
                if sink_key[cur] & kernels.ROUTE_BITS != kernels.LIVE:
                    break
                nh = sink_hop[cur]
                if nh < 0 or nh == bs:
                    break
                if nh in visited:
                    raise InvariantViolation(f"routing loop at node {cur} via {nh}")
                visited.add(nh)
                cur = nh

    def _check_final(self) -> None:
        if len(self.queue) != 0:
            raise InvariantViolation("events remain after the end of the run")
        residual = self.log.conservation_residual()
        if residual != 0:
            raise InvariantViolation(f"packet conservation broken: residual {residual}")
        ledger = self.ledger
        energy = np.asarray(ledger.energy)
        if not np.all(energy >= 0.0):
            raise InvariantViolation("negative residual energy")
        if not np.all(np.asarray(ledger.consumed) >= 0.0):
            raise InvariantViolation("negative consumed energy")
        if not np.array_equal(ledger.alive, energy > 0.0):
            raise InvariantViolation("alive flags disagree with residual energy")
        drift = ledger.conservation_drift()
        total = ledger.total_consumed()
        bound = max(1e-9, DRIFT_ULPS * math.ulp(total))
        if drift > bound:
            raise InvariantViolation(f"energy ledger drift {drift} J exceeds {bound} J")


def run_simulation(cfg: SimConfig, protocol: str, strict: bool = False) -> MetricsLog:
    """Run one protocol over one scenario and return its metrics."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    world = World(cfg, protocol, strict)
    world.run(PROTOCOLS[protocol](world))
    return world.log
