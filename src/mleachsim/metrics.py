"""Run measurement: time series, counters, throughput statistics, CSV export.

Every CSV the package writes, the run's and the command line's, goes
through ``write_table``: UTF-8, LF line endings, and every float rendered
as ``repr(v)`` (shortest round-trip form). A numpy ``float64`` subclasses
``float``, so it is rendered by its own repr, ``np.float64(...)``. Rows
come from ordered series, so the output is deterministic byte for byte
for a fixed run.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np


class MetricsLog:
    def __init__(self, protocol: str, duration_s: int, node_count: int) -> None:
        self.protocol = protocol
        self.duration_s = duration_s
        self.node_count = node_count
        self.energy_series: list[tuple[int, float, float]] = []  # (t, total, max node)
        self.bs_buckets = np.zeros(duration_s, dtype=np.int64)
        self.alive_series: list[tuple[int, int]] = []
        self.ch_count_series: list[tuple[int, int]] = []
        self.generated = 0
        self.delivered = 0
        self.dropped_filtered = 0
        self.dropped_unreachable = 0
        self.dropped_dead = 0
        self.dropped_congested = 0
        self.first_death_s: float = -1.0

    # -- recording ---------------------------------------------------------

    def record_energy(self, t_s: int, total_j: float, max_j: float) -> None:
        self.energy_series.append((t_s, total_j, max_j))

    def record_bs_rx(self, t_s: float, k: int) -> None:
        """k frames delivered within second t_s."""
        bucket = math.floor(t_s)
        if not 0 <= bucket < self.duration_s:
            raise ValueError(f"delivery at t={t_s} outside the run")
        self.bs_buckets[bucket] += k
        self.delivered += k

    # -- statistics ----------------------------------------------------------

    def steady_state_throughput(self, t_start_s: int) -> float:
        window = self.bs_buckets[t_start_s:]
        if len(window) == 0:
            raise ValueError("empty throughput window")
        return float(np.mean(window))

    def default_warmup_s(self) -> int:
        return 20 if self.duration_s > 20 else 0

    def conservation_residual(self) -> int:
        drops = (
            self.dropped_filtered
            + self.dropped_unreachable
            + self.dropped_dead
            + self.dropped_congested
        )
        return self.generated - (self.delivered + drops)

    def avg_consumed(self) -> float:
        if not self.energy_series:
            return 0.0
        return self.energy_series[-1][1] / self.node_count

    def max_consumed(self) -> float:
        if not self.energy_series:
            return 0.0
        return self.energy_series[-1][2]

    # -- export --------------------------------------------------------------

    def export_csv(self, out_dir: str) -> None:
        """Write energy.csv, throughput.csv and summary.csv into out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        tables = {
            "energy.csv": (["t_s", "total_j", "max_node_j"], self.energy_series),
            "throughput.csv": (["t_s", "packets"], enumerate(self.bs_buckets.tolist())),
            "summary.csv": (SUMMARY_FIELDS, [[self.protocol, *self.summary_values()]]),
        }
        for name, (header, rows) in tables.items():
            write_table(os.path.join(out_dir, name), header, rows)

    def summary_values(self) -> list:
        """The numbers behind summary.csv, in SUMMARY_FIELDS order after the protocol."""
        return [
            self.avg_consumed(),
            self.max_consumed(),
            self.steady_state_throughput(self.default_warmup_s()),
            self.first_death_s,
            self.generated,
            self.delivered,
            self.dropped_filtered,
            self.dropped_unreachable,
            self.dropped_dead,
            self.dropped_congested,
        ]


def write_table(path: str, header: list, rows) -> None:
    """Write one CSV: the header, then each row with every float as repr(v)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


SUMMARY_FIELDS = [
    "protocol",
    "avg_energy_j",
    "max_energy_j",
    "steady_throughput_pps",
    "first_death_s",
    "generated",
    "delivered",
    "dropped_filtered",
    "dropped_unreachable",
    "dropped_dead",
    "dropped_congested",
]
