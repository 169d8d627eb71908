"""Command-line runner: one or both protocols over a config, CSVs out.

Every number printed here is read back out of the run logs that were just
exported, so the console table is recomputable from the CSV artifacts.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
from dataclasses import replace

from .config import ConfigError, load_config, validate_config
from .metrics import SUMMARY_FIELDS, MetricsLog
from .simulation import PROTOCOLS, run_simulation


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else math.nan


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "n/a"
    return f"{x:.6g}"


def comparison_fields(logs: dict[str, MetricsLog]) -> list[tuple[str, object]]:
    m, d = logs["mleach"], logs["dsdv"]
    warm_m = m.default_warmup_s()
    warm_d = d.default_warmup_s()
    return [
        ("mleach_steady_pps", m.steady_state_throughput(warm_m)),
        ("dsdv_steady_pps", d.steady_state_throughput(warm_d)),
        ("throughput_ratio", _ratio(m.steady_state_throughput(warm_m), d.steady_state_throughput(warm_d))),
        ("mleach_avg_energy_j", m.avg_consumed()),
        ("dsdv_avg_energy_j", d.avg_consumed()),
        ("avg_energy_ratio", _ratio(m.avg_consumed(), d.avg_consumed())),
        ("mleach_max_energy_j", m.max_consumed()),
        ("dsdv_max_energy_j", d.max_consumed()),
        ("max_energy_ratio", _ratio(m.max_consumed(), d.max_consumed())),
        ("mleach_first_death_s", m.first_death_s),
        ("dsdv_first_death_s", d.first_death_s),
    ]


def write_comparison(path: str, logs: dict[str, MetricsLog]) -> None:
    rows = comparison_fields(logs)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["metric", "value"])
        for name, value in rows:
            w.writerow([name, repr(float(value)) if isinstance(value, float) else value])


def print_summary(logs: dict[str, MetricsLog]) -> None:
    header = (
        f"{'protocol':<10} {'avg J/node':>12} {'max J/node':>12} {'steady pps':>11} "
        f"{'delivered':>10} {'filtered':>9} {'unreach':>8} {'dead':>6} {'congest':>8}"
    )
    print(header)
    for name, log in logs.items():
        print(
            f"{name:<10} {log.avg_consumed():>12.6g} {log.max_consumed():>12.6g} "
            f"{log.steady_state_throughput(log.default_warmup_s()):>11.6g} "
            f"{log.delivered:>10} {log.dropped_filtered:>9} {log.dropped_unreachable:>8} "
            f"{log.dropped_dead:>6} {log.dropped_congested:>8}"
        )
    if len(logs) == 2:
        pairs = dict(comparison_fields(logs))
        print(
            f"ratios mleach/dsdv: throughput {_fmt(pairs['throughput_ratio'])}, "
            f"max energy {_fmt(pairs['max_energy_ratio'])}, "
            f"avg energy {_fmt(pairs['avg_energy_ratio'])}"
        )
        deaths = ", ".join(
            f"{p} {'none' if logs[p].first_death_s < 0 else _fmt(logs[p].first_death_s) + ' s'}"
            for p in logs
        )
        print(f"first death: {deaths}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mleach-sim",
        description="Deterministic flood-sensor network simulator (clustered vs distance-vector).",
    )
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--protocol", choices=(*PROTOCOLS, "both"), default="both")
    parser.add_argument(
        "--out",
        default=os.environ.get("MLEACH_SIM_OUT", "results"),
        help="output directory (default: $MLEACH_SIM_OUT or ./results)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--repeat", type=int, default=1, help="seed-varied batch size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    try:
        base_cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: invalid config {args.config}:\n{exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        base_cfg = replace(base_cfg, rng_seed=args.seed)

    protocols = tuple(PROTOCOLS) if args.protocol == "both" else (args.protocol,)
    batch_rows: dict[str, list[list]] = {p: [] for p in protocols}
    try:
        # a batch varies only rng_seed, upwards: check the last seed before any run writes
        validate_config(replace(base_cfg, rng_seed=base_cfg.rng_seed + args.repeat - 1))
        for k in range(args.repeat):
            cfg_k = replace(base_cfg, rng_seed=base_cfg.rng_seed + k)
            run_dir = (
                args.out if args.repeat == 1 else os.path.join(args.out, f"seed-{cfg_k.rng_seed}")
            )
            logs: dict[str, MetricsLog] = {}
            for proto in protocols:
                log = run_simulation(cfg_k, proto)
                log.export_csv(os.path.join(run_dir, proto))
                logs[proto] = log
                batch_rows[proto].append(log.summary_values())
            if len(logs) == 2:
                write_comparison(os.path.join(run_dir, "comparison.csv"), logs)
            if args.repeat > 1:
                print(f"== seed {cfg_k.rng_seed} ({run_dir})")
            print_summary(logs)
        if args.repeat > 1:
            _write_batch_summary(args.out, batch_rows)
    except ConfigError as exc:
        print(f"error: invalid config {args.config}:\n{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_batch_summary(out_dir: str, batch_rows: dict[str, list[list]]) -> None:
    """Mean and sample stddev of every numeric summary column across seeds.

    first_death_s is taken over the seeds that had a death; it is -1.0, with
    stddev 0.0, when none did, as a run without one writes it.
    """
    path = os.path.join(out_dir, "batch_summary.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["protocol", "metric", "mean", "stddev"])
        for proto, rows in batch_rows.items():
            for col, name in enumerate(SUMMARY_FIELDS[1:]):
                values = [float(r[col]) for r in rows]
                if name == "first_death_s":
                    values = [v for v in values if v >= 0.0] or [-1.0]
                spread = statistics.stdev(values) if len(values) > 1 else 0.0
                w.writerow([proto, name, repr(statistics.fmean(values)), repr(spread)])
    print(f"batch summary: {path}")


if __name__ == "__main__":
    sys.exit(main())
