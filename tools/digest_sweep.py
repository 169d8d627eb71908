#!/usr/bin/env python3
"""Digest both protocols' output over many seeded random valid configs.

Run mode draws N configs from a seed and runs each with both protocols,
once each; every run checks its own invariants. ``draw_config`` draws
every ``SimConfig`` field: 8-64 nodes over 2-20 s, budgets of 1e-4 to
1e3 J, frame sizes of 1 to 1e6 bits, radio constants from 1e-20 up to
the price at which one 1e4-bit frame sent across the radio range costs
the whole budget (at most 1e-3), the sink channel off or on with its
collapse exponent, the sink at random or placed, speeds up to 80 m/s, and
short and long DSDV update intervals. Every 50th draw is a network of
65-512 nodes over 2-4 s.
``tests/test_strict_property.py`` draws its configs from the same
function. The budgets reach past what a run can spend, so many runs keep
every sensor alive to the end: elections across epochs, waypoint arrivals
and long-lived routes show only there. Runs whose larger frames drain the
sensors at once still come up, so start-up deaths stay covered. Per
run it writes one sha256 over the three CSVs, the ledger's ``consumed``,
``consumed_comp``, ``energy`` and ``death_time_us`` as the bytes of
float64 and int64 arrays (lists or arrays give the same bytes), and its
total, under ``k:protocol``; a run that raises is digested by its
exception. Each draw also digests the ``comparison.csv`` that
``mleach-sim`` writes for its two runs, under ``k:comparison``, unless
either run raised.
Compare mode diffs two digest files, so that a change meant to keep
output bytes can be checked against its parent on every draw. Both
sides run this one copy of the tool, so that they draw the same configs;
only the simulator under ``PYTHONPATH`` differs:

    PYTHONPATH=../parent/src python3 tools/digest_sweep.py --n 600 --out before.json
    PYTHONPATH=src python3 tools/digest_sweep.py --n 600 --out after.json
    PYTHONPATH=src python3 tools/digest_sweep.py --compare before.json after.json

A compare across a change to ``World``'s constructor runs each side's own
copy of the tool, so such a change touches only ``run_digest``'s
construction lines: ``draw_config`` and the digest recipe stay identical.

The draws run in a pool of worker processes, one per CPU. The configs
are all drawn in the calling process and the file is written in key
order, so it holds the same bytes for any number of workers.

Compare mode reads only the two files, so it runs without ``PYTHONPATH``.
It exits with status 1 when any digest differs or is missing.

The sweep cannot reach every branch. A waypoint arrival tie, a speed equal
to the remaining distance, needs a node standing on its target at speed 0,
and speeds are drawn from a continuous range, so no run has one; a change
to that comparison in ``MobilityField.step`` leaves every digest as it was.
``tests/test_state_oracles.py`` starts nodes on their targets and is what
guards that tie.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import sys
import tempfile

import numpy as np

# the simulator is imported only where a config is drawn or run, so that
# compare mode, which reads two JSON files, needs no PYTHONPATH
PROTOCOLS = ("mleach", "dsdv")


def draw_config(rng, nodes=(8, 64), horizons=(2, 20)):
    """One valid config, every ``SimConfig`` field drawn; ``nodes`` and
    ``horizons`` are inclusive ranges. ``rng`` needs only a ``Generator``'s
    scalar ``integers``, ``uniform`` and ``choice``: the property tests
    pass hypothesis draws."""
    from mleachsim.config import SimConfig, validate_config

    horizon = int(rng.integers(horizons[0], horizons[1] + 1))
    budget = float(10.0 ** rng.uniform(-4.0, 3.0))
    rounds = [r for r in (0.5, 1.0, 2.0, float(horizon)) if horizon % r == 0]
    width = float(rng.uniform(200.0, 3000.0))
    height = float(rng.uniform(200.0, 3000.0))
    rr = float(rng.uniform(50.0, 1500.0))
    if rng.integers(0, 2):
        bs = "random"
    else:
        bs = (float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height)))
    # the top decade of each radio constant prices one 1e4-bit frame sent
    # across the radio range at the budget, so that few runs lose every
    # sensor to their first frames
    e_top = min(-3.0, math.log10(budget) - 4.0)
    amp_top = min(-3.0, math.log10(budget) - 4.0 - 2.0 * math.log10(rr))
    speed_min = float(rng.uniform(0.0, 40.0))
    if rng.integers(0, 2):
        interval = float(rng.uniform(0.05, 0.5))
    else:
        interval = float(rng.uniform(0.5, 2.0 * horizon))
    cfg = SimConfig(
        field_width_m=width,
        field_height_m=height,
        node_count=int(rng.integers(nodes[0], nodes[1] + 1)),
        bs_position=bs,
        packet_size_bits=int(10.0 ** rng.uniform(0.0, 6.0)),
        initial_energy_j=budget,
        sim_duration_s=horizon,
        round_duration_s=float(rng.choice(rounds)),
        p_ch_fraction=float(rng.uniform(0.05, 0.5)),
        cluster_radius_rc_m=rr * float(rng.uniform(0.1, 1.0)),
        radio_range_rr_m=rr,
        e_elec_j_per_bit=float(10.0 ** rng.uniform(-20.0, e_top)),
        eps_amp_j_per_bit_m2=float(10.0 ** rng.uniform(-20.0, amp_top)),
        ch_exclusion_rounds=int(rng.integers(0, 5)),
        filter_threshold=float(rng.uniform(0.0, 0.5)),
        mobility_speed_min_mps=speed_min,
        mobility_speed_max_mps=speed_min + float(rng.uniform(0.0, 40.0)),
        mobility_pause_s=float(rng.uniform(0.0, 3.0)),
        traffic_on_s=float(rng.uniform(0.5, 5.0)),
        traffic_off_s=float(rng.uniform(0.0, 5.0)),
        traffic_rate_pps=float(rng.uniform(0.5, 10.0)),
        hello_bits=int(10.0 ** rng.uniform(0.0, 6.0)),
        schedule_bits_per_cm=int(10.0 ** rng.uniform(0.0, 6.0)),
        heartbeat_bits=int(10.0 ** rng.uniform(0.0, 6.0)),
        dsdv_entry_bits=int(10.0 ** rng.uniform(0.0, 6.0)),
        dsdv_update_interval_s=interval,
        bs_mac_capacity_bps=float(rng.choice([0.0, 500.0, 5000.0, 50000.0])),
        bs_mac_collapse_k=float(rng.choice([0.5, 4.0, 50.0, 1000.0])),
        rng_seed=int(rng.integers(0, 2**32)),
    )
    return validate_config(cfg)


def run_digest(cfg, protocol: str, scratch: str):
    """sha256 of one run's CSVs and ledger state, and the run's log (None
    when the run raised)."""
    from mleachsim import simulation

    h = hashlib.sha256()
    try:
        world = simulation.World(cfg, protocol)
        world.run(simulation.PROTOCOLS[protocol](world))
    except Exception as exc:  # a run that now raises must show as a change
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest(), None
    world.log.export_csv(scratch)
    for name in ("energy", "throughput", "summary"):
        with open(os.path.join(scratch, name + ".csv"), "rb") as fh:
            h.update(fh.read())
    ledger = world.ledger
    for arr in (ledger.consumed, ledger.consumed_comp, ledger.energy, ledger.death_time_us):
        h.update(np.asarray(arr).tobytes())
    h.update(repr(ledger.total_consumed()).encode())
    return h.hexdigest(), world.log


def digest_draw(k_cfg) -> dict[str, str]:
    """The digests of draw k's config, one run of every protocol, and of
    the comparison.csv of those runs."""
    from mleachsim.cli import write_comparison

    k, cfg = k_cfg
    digests = {}
    logs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for protocol in PROTOCOLS:
            digests[f"{k}:{protocol}"], logs[protocol] = run_digest(cfg, protocol, scratch)
        if None not in logs.values():
            path = os.path.join(scratch, "comparison.csv")
            write_comparison(path, logs)
            with open(path, "rb") as fh:
                digests[f"{k}:comparison"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def sweep(n: int, seed: int, jobs: int | None = None) -> dict[str, str]:
    """Digests of n drawn configs, run in jobs worker processes (default:
    one per CPU, at most n).

    Every config is drawn here, in the calling process, so the digests do
    not depend on jobs.
    """
    draws = []
    for k in range(n):
        rng = np.random.default_rng([seed, k])
        # every 50th draw is a large network, over a short horizon to stay fast
        draws.append((k, draw_config(rng, (65, 512), (2, 4)) if k % 50 == 49 else draw_config(rng)))
    digests = {}
    with multiprocessing.Pool(jobs or max(1, min(os.cpu_count() or 1, n))) as pool:
        for part in pool.imap_unordered(digest_draw, draws):
            digests.update(part)
    return digests


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    changed = sorted((k for k in a.keys() & b.keys() if a[k] != b[k]), key=_order)
    missing = sorted(a.keys() ^ b.keys(), key=_order)
    for k in changed:
        print(f"changed {k}")
    for k in missing:
        print(f"only in {'first' if k in a else 'second'} {k}")
    print(f"{len(changed)} of {len(a.keys() & b.keys())} digests changed, {len(missing)} unmatched")
    return 1 if changed or missing else 0


def _order(key: str):
    k, name = key.split(":", 1)
    return int(k), name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100, help="number of configs to draw")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config draws")
    parser.add_argument("--out", help="digest file to write (default: standard output)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    text = json.dumps(sweep(args.n, args.seed), indent=0, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
