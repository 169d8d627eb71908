#!/usr/bin/env python3
"""Where each protocol's energy goes, and why its hottest node is hot.

Runs both protocols over the packaged table1.cfg and splits every ledger
charge by the activity that made it: control (hellos, schedules, route
dumps) or data (member uplink, relaying, sends to the sink). For DSDV it
also sums the energy paid for frames that the sink channel then rejects;
for mleach it splits the unreachable drops by where they happen. The split
is taken by wrapping the ledger and the protocol handlers from outside, so
the run itself is unchanged: the printed ratio is the one acceptance
criterion 2 checks.

Usage: PYTHONPATH=src python3 tools/energy_breakdown.py

The DSDV run takes about a minute.
"""

from collections import defaultdict
from contextlib import ExitStack
from importlib import resources

import numpy as np

from mleachsim.config import load_config, validate_config
from mleachsim.dsdv import DsdvProtocol
from mleachsim.metrics import MetricsLog
from mleachsim.mleach import MleachProtocol
from mleachsim.radio import EnergyLedger
from mleachsim.simulation import World

ACTIVITY = {
    MleachProtocol: {
        "_round_start": "control",
        "_slot": "data",
        "_round_finish": "data",
        "_orphan_flush": "data",
    },
    DsdvProtocol: {"_bs_dump": "control", "_node_dump": "control", "_send": "data"},
}
UNREACHABLE_AT = {
    "_orphan_flush": "orphans out of sink range",
    "_route": "heads with no route",
    "finish": "still queued at the end",
}


def wrap(stack, cls, name, make):
    stack.callback(setattr, cls, name, getattr(cls, name))
    setattr(cls, name, make(getattr(cls, name)))


def breakdown(cfg, cls):
    """Run one protocol; return its log, world and the energy split."""
    n = cfg.node_count
    spent = defaultdict(lambda: np.zeros(n))
    rejected = np.zeros(n)
    unreachable = defaultdict(int)
    activity = ["other"]

    def consume(f):
        def wrapped(ledger, i, j, now):
            before = ledger.energy[i]
            ok = f(ledger, i, j, now)
            paid = j if ok else before
            spent[activity[0]][i] += paid
            return ok
        return wrapped

    def charge_many(f):
        def wrapped(ledger, ids, amount, now):
            before = ledger.energy[ids].copy()
            paid = f(ledger, ids, amount, now)
            np.add.at(spent[activity[0]], ids, np.where(np.isin(ids, paid), amount, before))
            return paid
        return wrapped

    def tagged(name):
        def make(f):
            def wrapped(proto, *args):
                outer = activity[0]
                activity[0] = ACTIVITY[cls].get(name, outer)
                log = proto.world.log
                dropped, congested = log.dropped_unreachable, log.dropped_congested
                ledger = proto.world.ledger
                before = ledger.energy.copy() if name == "_send" else None
                try:
                    return f(proto, *args)
                finally:
                    if name == "_send":
                        # _send charges every hop of a frame inline: credit each
                        # node the energy it lost over the call
                        drop = before - ledger.energy
                        for i in np.flatnonzero(drop).tolist():
                            spent[activity[0]][i] += drop[i]
                            if log.dropped_congested > congested:
                                rejected[i] += drop[i]
                    activity[0] = outer
                    if name in UNREACHABLE_AT:
                        unreachable[UNREACHABLE_AT[name]] += log.dropped_unreachable - dropped
            return wrapped
        return make

    log = MetricsLog(cls.__name__, cfg.sim_duration_s, n)
    world = World(cfg, log)
    with ExitStack() as stack:
        # every scalar charge outside DSDV's _send goes through consume
        wrap(stack, EnergyLedger, "consume", consume)
        wrap(stack, EnergyLedger, "charge_many", charge_many)
        names = set(ACTIVITY[cls])
        if cls is MleachProtocol:
            names |= set(UNREACHABLE_AT)
        for name in sorted(names):
            wrap(stack, cls, name, tagged(name))
        world.run(cls(world))
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
    print(f"   hottest node is {world.distance(hot, world.bs_id):.0f} m from the sink at the end; "
          + ", ".join(f"{k} {v[hot]:.4f} J" for k, v in sorted(spent.items())))
    if rejected.any():
        print(f"   paid for rejected frames: hottest node {rejected[hot]:.4f} J "
              f"({rejected[hot] / per[hot]:.1%}), all nodes {rejected.sum():.1f} J "
              f"of {per.sum():.1f} J ({rejected.sum() / per.sum():.1%})")
    return log.max_consumed()


def main():
    path = resources.files("mleachsim").joinpath("data/table1.cfg")
    cfg = validate_config(load_config(str(path)))
    peaks = {}
    for name, cls in (("mleach", MleachProtocol), ("dsdv", DsdvProtocol)):
        peaks[name] = report(name, *breakdown(cfg, cls))
    print(f"max energy ratio mleach/dsdv {peaks['mleach']:.4f} / {peaks['dsdv']:.4f} "
          f"= {peaks['mleach'] / peaks['dsdv']:.7f}")


if __name__ == "__main__":
    main()
