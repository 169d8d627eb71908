"""Run one simulation in a fresh interpreter and print one JSON line.

Usage: python3 perfbench/child.py '<spec>'

The spec is a JSON object with ``protocol``, ``strict``, ``config`` (path
of the base config file), ``overrides`` (SimConfig fields), ``mode``
(``plain``, ``trace`` or ``count``) and ``scratch`` (a directory for the
CSV export). Set-up runs from before ``import mleachsim`` to the first
event popped from the queue; the run from there to the return of
``World.run``. Both are given in ``time.monotonic()`` seconds, which every
process on the host shares, and in CPU seconds of this process. The
simulation goes through ``run_simulation``, the same entry point the CLI
uses; the benchmark only hooks ``World.run`` to see the world and the
first event.
"""

import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time


def hook_run(world_cls, seen: dict) -> None:
    """Record the world and the clocks at its first event and at the end."""
    run = world_cls.run

    def hooked_run(world, protocol):
        queue = world.queue

        def first_pop():
            del queue.pop  # back to the class method for every later event
            seen["first_event"] = time.monotonic(), time.process_time()
            return queue.pop()

        queue.pop = first_pop
        seen["world"] = world
        try:
            return run(world, protocol)
        finally:
            seen["run_end"] = time.monotonic(), time.process_time()

    world_cls.run = hooked_run


def digest(log, scratch: str) -> dict:
    """sha256 of energy.csv and throughput.csv, summary.csv by column name."""
    os.makedirs(scratch, exist_ok=True)
    try:
        log.export_csv(scratch)
        out = {}
        for name in ("energy", "throughput"):
            with open(os.path.join(scratch, name + ".csv"), "rb") as fh:
                out[name + "_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(scratch, "summary.csv"), newline="", encoding="utf-8") as fh:
            (out["summary"],) = list(csv.DictReader(fh))
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(spec: dict) -> dict:
    start = time.monotonic(), time.process_time()
    import dataclasses

    import numpy
    import mleachsim
    import mleachsim.dsdv
    import mleachsim.mleach

    seen: dict = {}
    hook_run(mleachsim.simulation.World, seen)
    probe = None
    if spec["mode"] == "trace":
        from spans import Spans

        probe = Spans()
    elif spec["mode"] == "count":
        from spans import Counts

        probe = Counts()
    if probe is not None:
        probe.install(mleachsim)

    cfg = mleachsim.config.load_config(spec["config"])
    cfg = dataclasses.replace(cfg, **spec["overrides"])
    log = mleachsim.run_simulation(cfg, spec["protocol"], strict=spec["strict"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    world = seen["world"]
    (t0, c0), (t1, c1), (t2, c2) = start, seen["first_event"], seen["run_end"]
    result = {
        "stamps": [t0, t1, t2],
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "setup_cpu_s": c1 - c0,
        "run_cpu_s": c2 - c1,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(log, spec["scratch"]),
        "record": {
            "config": mleachsim.serialize_config(world.cfg),
            "implementation": mleachsim.kernels.IMPLEMENTATION,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
    }
    if spec["mode"] == "trace":
        result["spans"] = {
            "self_s": dict(probe.self_s),
            "calls": dict(probe.calls),
            "percentiles_us": {
                name: [float(numpy.percentile(v, q)) * 1e6 if v else 0.0 for q in (50, 99)]
                for name, v in probe.samples.items()
            },
        }
    elif spec["mode"] == "count":
        result["counts"] = {
            "events": probe.events,
            "peak_queue": probe.peak_queue,
            "merge_cells": probe.merge_cells,
            "merge_adopted": probe.merge_adopted,
            "consume_failed": probe.consume_failed,
            "deliver_calls": probe.deliver_calls,
            "deaths": int((~world.ledger.alive).sum()),
            "generated": log.generated,
            "delivered": log.delivered,
            "dropped_filtered": log.dropped_filtered,
        }
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
