"""Per-layer spans and counts, installed from outside the simulator.

Every wrapper replaces a name where its caller looks it up: a class
attribute for methods, a module global for functions imported by name
(``dsdv.dsdv_merge``, the ``mleach`` helpers, ``simulation.validate_config``),
and the ``kernels`` module attributes that ``simulation`` and ``radio`` read
at call time. Nothing under ``src/`` is edited.

Two kinds of instrumentation are kept apart on purpose:

* ``Spans`` times calls. A span's self time is its duration minus the time
  covered by the spans it caused, so self times of nested layers add up to
  at most the wall time. Only the per-call durations of ``dsdv_merge`` are
  kept, for its percentiles; everything else is summed in memory.
* ``Counts`` counts work that needs extra computation (events by kind,
  queue depth, merged and adopted table cells, failed charges). It runs in
  its own simulation so none of that work lands inside a timed span.

Calls cheaper than a wrapper (``tx_energy``, ``rx_energy``) are not wrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict


def timed_points(m):
    """(span name, owner, attribute) for every timed call site of package m."""
    dsdv_proto = m.dsdv.DsdvProtocol
    mleach_proto = m.mleach.MleachProtocol
    world = m.simulation.World
    return [
        ("engine.pop", m.engine.EventQueue, "pop"),
        ("engine.schedule", m.engine.EventQueue, "schedule"),
        ("kernels.dsdv_merge", m.dsdv, "dsdv_merge"),
        ("kernels.charge_uniform", m.kernels, "charge_uniform"),
        ("kernels.pairwise_distances", m.kernels, "pairwise_distances"),
        ("radio.consume", m.radio.EnergyLedger, "consume"),
        ("radio.charge_many", m.radio.EnergyLedger, "charge_many"),
        ("dsdv.data_send", dsdv_proto, "_send"),
        ("dsdv.route_dump", dsdv_proto, "_node_dump"),
        ("dsdv.bs_route_dump", dsdv_proto, "_bs_dump"),
        ("dsdv.on_readings", dsdv_proto, "on_readings"),
        ("mleach.round_start", mleach_proto, "_round_start"),
        ("mleach.slot", mleach_proto, "_slot"),
        ("mleach.orphan_flush", mleach_proto, "_orphan_flush"),
        ("mleach.round_finish", mleach_proto, "_round_finish"),
        ("mleach.on_readings", mleach_proto, "on_readings"),
        ("mleach.run_election", m.mleach, "run_election"),
        ("mleach.build_ch_graph", m.mleach, "build_ch_graph"),
        ("mleach.shortest_route", m.mleach, "shortest_route"),
        ("simulation.alive_in_range", world, "alive_in_range"),
        ("simulation.deliver_data", world, "deliver_data"),
        ("simulation.check_routes", world, "check_routes"),
        ("simulation.run", world, "run"),
        ("traffic.generate", m.traffic.OnOffTraffic, "generate"),
        ("mobility.step", m.mobility.MobilityField, "step"),
        ("config.load", m.config, "load_config"),
        ("config.validate", m.simulation, "validate_config"),
    ]


class Spans:
    """Self time and call count per span name."""

    SAMPLED = ("kernels.dsdv_merge",)

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # time covered by finished child spans, one slot per open span
        self._child_s = [0.0]

    def install(self, pkg) -> None:
        for name, owner, attr in timed_points(pkg):
            self.self_s[name] += 0.0
            self.calls[name] += 0
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        child_s = self._child_s
        self_s = self.self_s
        calls = self.calls
        samples = self.samples[name] if name in self.SAMPLED else None

        def span(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - child_s.pop()
                child_s[-1] += dt
                calls[name] += 1
                if samples is not None:
                    samples.append(dt)

        return span


class Counts:
    """Exact work counts, gathered in an untimed simulation."""

    def __init__(self) -> None:
        self.events: dict[str, int] = {}
        self.peak_queue = 0
        self.merge_cells = 0
        self.merge_adopted = 0
        self.consume_failed = 0
        self.deliver_calls = 0

    def install(self, pkg) -> None:
        queue_cls = pkg.engine.EventQueue
        self.events = {kind.name: 0 for kind in pkg.engine.EventKind}
        pop, schedule = queue_cls.pop, queue_cls.schedule
        merge = pkg.dsdv.dsdv_merge
        consume = pkg.radio.EnergyLedger.consume
        deliver = pkg.simulation.World.deliver_data
        events = self.events

        def counted_pop(queue):
            item = pop(queue)
            events[item[1].name] += 1
            return item

        def counted_schedule(queue, *args, **kwargs):
            schedule(queue, *args, **kwargs)
            self.peak_queue = max(self.peak_queue, len(queue))

        def counted_merge(metric, seq, next_hop, receivers, *rest):
            # adoption always changes seq or metric, so a changed cell is an adopted one
            before_seq = seq[receivers]
            before_metric = metric[receivers]
            merge(metric, seq, next_hop, receivers, *rest)
            self.merge_cells += before_seq.size
            self.merge_adopted += int(
                ((seq[receivers] != before_seq) | (metric[receivers] != before_metric)).sum()
            )

        def counted_consume(ledger, *args, **kwargs):
            ok = consume(ledger, *args, **kwargs)
            self.consume_failed += not ok
            return ok

        def counted_deliver(world, *args, **kwargs):
            self.deliver_calls += 1
            return deliver(world, *args, **kwargs)

        queue_cls.pop = counted_pop
        queue_cls.schedule = counted_schedule
        pkg.dsdv.dsdv_merge = counted_merge
        pkg.radio.EnergyLedger.consume = counted_consume
        pkg.simulation.World.deliver_data = counted_deliver
