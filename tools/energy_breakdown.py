#!/usr/bin/env python3
"""Where each protocol's energy goes, and why its hottest node is hot.

Runs both protocols over the packaged table1.cfg and credits every event,
by its kind, with the energy the ledger lost while the protocol handled it:
control (hellos, schedules, route dumps) or data (member uplink,
relaying, sends to the sink). For DSDV it also sums the energy paid for
frames that the sink channel then rejects; for mleach it splits the
unreachable drops by where they happen. The split is taken by wrapping the
entries of the protocol's handler table, and DSDV's runs of frames are
queued one frame per event, each at its own time and in the order the run
sends them, so the run itself is unchanged: the printed ratio is the one
acceptance criterion 2 checks.

Usage: PYTHONPATH=src python3 tools/energy_breakdown.py

Both runs take about 11 s together on 2 CPUs with Python 3.11 and numpy
2.4, about 10 s of it the DSDV run.
"""

from importlib import resources

import numpy as np

from mleachsim.config import load_config
from mleachsim.engine import EventKind
from mleachsim.simulation import PROTOCOLS, World

CONTROL = {EventKind.ROUND_START, EventKind.BS_ROUTE_DUMP, EventKind.ROUTE_DUMP}
# mleach's unreachable drops by the event that makes them, printed in the
# kinds' order; what is left was still queued when the run ended
NO_PATH = {
    EventKind.SLOT_START: "heads with no route",
    EventKind.ORPHAN_FLUSH: "orphans out of sink range",
    EventKind.ROUND_FINISH: "heads with no route",
}


def breakdown(cfg, cls):
    """Run one protocol; return its log, world and the energy split."""
    n = cfg.node_count
    world = World(cfg, cls.__name__)
    log = world.log
    proto = cls(world)
    ledger = world.ledger
    spent = {"control": np.zeros(n), "data": np.zeros(n)}
    rejected = np.zeros(n)
    unreachable = dict.fromkeys((NO_PATH[k] for k in sorted(proto.handlers) if k in NO_PATH), 0)

    def credited(kind, handler):
        activity = "control" if kind in CONTROL else "data"
        cause = NO_PATH.get(kind)

        def wrapped(t_us, payload):
            before = np.array(ledger.energy)
            dropped, congested = log.dropped_unreachable, log.dropped_congested
            handler(t_us, payload)
            drop = before - ledger.energy
            spent[activity] += drop
            # each DSDV send is queued as one frame, so all it cost paid for the rejection
            if kind is EventKind.DATA_SEND and log.dropped_congested > congested:
                rejected[:] += drop
            if cause:
                unreachable[cause] += log.dropped_unreachable - dropped
        return wrapped

    schedule = world.queue.schedule

    def one_frame_each(t_us, kind, payload=None):
        # DSDV queues a run of frames as one event: queue them one per event,
        # each at its own time and in pop order, as the run would send them
        if kind is EventKind.DATA_SEND:
            for frame in reversed(payload):
                schedule(frame[0], kind, [frame])
        else:
            schedule(t_us, kind, payload)

    world.queue.schedule = one_frame_each
    for kind, handler in proto.handlers.items():
        proto.handlers[kind] = credited(kind, handler)
    world.run(proto)
    if unreachable:
        unreachable["still queued at the end"] = log.dropped_unreachable - sum(unreachable.values())
    return log, world, spent, rejected, unreachable


def report(name, log, world, spent, rejected, unreachable):
    per = world.ledger.node_consumed()
    hot = int(np.argmax(per))
    print(f"== {name}: peak {per[hot]:.4f} J (node {hot}), mean {per.mean():.4f} J, "
          f"peak/mean {per[hot] / per.mean():.2f}")
    print(f"   generated {log.generated}, delivered {log.delivered}, "
          f"unreachable {log.dropped_unreachable}, filtered {log.dropped_filtered}, "
          f"dead {log.dropped_dead}, rejected by the sink channel {log.dropped_congested}")
    if unreachable:
        print("   unreachable at: " + ", ".join(f"{k} {v}" for k, v in unreachable.items()))
    print(f"   hottest node is {world.dist_row(world.bs_id).item(hot):.0f} m from the sink at the end; "
          + ", ".join(f"{k} {v[hot]:.4f} J" for k, v in sorted(spent.items())))
    if rejected.any():
        print(f"   paid for rejected frames: hottest node {rejected[hot]:.4f} J "
              f"({rejected[hot] / per[hot]:.1%}), all nodes {rejected.sum():.1f} J "
              f"of {per.sum():.1f} J ({rejected.sum() / per.sum():.1%})")
    return log.max_consumed()


def main():
    path = resources.files("mleachsim").joinpath("data/table1.cfg")
    cfg = load_config(str(path))
    peaks = {}
    for name, cls in PROTOCOLS.items():
        peaks[name] = report(name, *breakdown(cfg, cls))
    print(f"max energy ratio mleach/dsdv {peaks['mleach']:.4f} / {peaks['dsdv']:.4f} "
          f"= {peaks['mleach'] / peaks['dsdv']:.7f}")


if __name__ == "__main__":
    main()
