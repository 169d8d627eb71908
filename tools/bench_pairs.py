#!/usr/bin/env python3
"""Benchmark a base revision against the work tree in alternating pairs, into one record.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base <rev> --out BENCH_<label>.json [--pairs 10]

Two checkouts are built side by side in a temporary directory, both by
``git archive``: ``pa`` of the base, and ``ch`` of the work tree's files
that git tracks or would track, written as a tree object through a
temporary index. Their names have the same length, because ``setup_s``
moves with the length of the checkout's path. Per workload of
``BENCHMARK.json`` the tool runs ``--pairs`` pairs of untraced
``perfbench/bench.py`` runs of its default length (``run_seconds``), the
base first in odd pairs and second in even ones, then ``TRACED_PAIRS``
alternating pairs of ``--trace 1`` runs: one traced run does not resolve
a layer's change, as one span of one tree read 0.160, 0.122 and 0.125 s
in three runs. Last, ``tools/digest_sweep.py --n 600`` runs on both
sides, with this tree's copy of the tool and only ``PYTHONPATH``
differing, and the two digest files are compared.

The record holds, per workload and end-to-end metric: every pair, each
side's median and quartiles, how many pairs the change won, and the
relative change of the medians. It also holds each side's per-layer
split, each metric's median over its traced runs, its failed and
attempted simulation counts, the sweep's changed and unmatched digest
counts, ``run_seconds``, the base revision, the work tree's ``HEAD``,
the id of the tree measured as ``ch`` and whether it differs from
``HEAD``'s tree, and the host (CPU count, Python, numpy).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("pa", "ch")  # base, change: names of one length
SWEEP_DRAWS = 600
TRACED_PAIRS = 3


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout


def work_tree_id(scratch: Path) -> str:
    """The tree object of the work tree's tracked and unignored files, as they are now."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("add", "--all", env=env)
    return git("write-tree", env=env).strip()


def build_checkouts(base: str, change: str, scratch: Path) -> dict[str, Path]:
    """``git archive`` of the base and of the change, side by side."""
    trees = {}
    for side, rev in zip(SIDES, (base, change)):
        trees[side] = scratch / side
        trees[side].mkdir()
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive, check=True)
    return trees


def read_result(stdout: str) -> dict:
    """bench.py's result, its last line: failed, attempted and metric values."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def bench(tree: Path, workload: str, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", workload, "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {workload} in {tree} failed:\n{proc.stderr}")
    return read_result(proc.stdout)


def quartiles(values: list[float]) -> list[float]:
    """q1, median, q3; every one the value itself for a single value."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """One metric over (base, change) pairs: spread per side, wins, relative change."""
    sides = {}
    for k, side in enumerate(("base", "change")):
        q1, median, q3 = quartiles([p[k] for p in pairs])
        sides[side] = {"median": median, "q1": q1, "q3": q3}
    sign = 1 if better == "higher" else -1
    return {
        "pairs": [list(p) for p in pairs],
        **sides,
        "wins": sum(sign * (c - b) > 0 for b, c in pairs),
        "rel_change": sides["change"]["median"] / sides["base"]["median"] - 1.0
        if sides["base"]["median"] else None,
    }


def summarize_workload(runs: list[tuple[dict, dict]], spec: dict) -> dict:
    """Every end-to-end metric of one workload's (base, change) result pairs."""
    return {
        "failed": {side: sum(r[k]["failed"] for r in runs) for k, side in enumerate(SIDES)},
        "attempted": {side: sum(r[k]["attempted"] for r in runs) for k, side in enumerate(SIDES)},
        "metrics": {
            m["name"]: summarize(
                [(b["metrics"][m["name"]], c["metrics"][m["name"]]) for b, c in runs], m["better"]
            )
            for m in spec["end_to_end"]
        },
    }


def median_split(runs: list[dict]) -> dict:
    """Per-layer metrics of one side's traced runs: each metric's median over the runs."""
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def parse_sweep(text: str) -> dict:
    """The changed, compared and unmatched counts of ``digest_sweep.py --compare``."""
    found = re.search(r"(\d+) of (\d+) digests changed, (\d+) unmatched", text)
    changed, compared, unmatched = map(int, found.groups())
    return {"changed": changed, "compared": compared, "unmatched": unmatched}


def sweep(trees: dict[str, Path], scratch: Path) -> dict:
    tool = str(trees["ch"] / "tools" / "digest_sweep.py")
    files = {}
    for side, tree in trees.items():
        files[side] = str(scratch / f"sweep-{side}.json")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        subprocess.run(
            [sys.executable, tool, "--n", str(SWEEP_DRAWS), "--out", files[side]],
            env=env, check=True,
        )
    proc = subprocess.run(
        [sys.executable, tool, "--compare", files["pa"], files["ch"]],
        capture_output=True, text=True,
    )
    return dict(parse_sweep(proc.stdout), n=SWEEP_DRAWS)


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--out", required=True, help="record file to write")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        tree = work_tree_id(scratch)
        trees = build_checkouts(args.base, tree, scratch)
        record = {
            "base": git("rev-parse", args.base).strip(),
            "head": git("rev-parse", "HEAD").strip(),
            "tree": tree,
            "uncommitted": tree != git("rev-parse", "HEAD^{tree}").strip(),
            "host": host(),
            "run_seconds": spec["run_seconds"],
            "workloads": {},
        }
        for name in (w["name"] for w in spec["workloads"]):
            runs = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                got = {side: bench(trees[side], name, False) for side in order}
                runs.append((got["pa"], got["ch"]))
                print(f"{name} pair {k + 1}: run_s {got['pa']['metrics']['run_s']:.4f} "
                      f"-> {got['ch']['metrics']['run_s']:.4f}", flush=True)
            summary = summarize_workload(runs, spec)
            traced = {side: [] for side in SIDES}
            for k in range(TRACED_PAIRS):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    traced[side].append(bench(trees[side], name, True)["metrics"])
            summary["per_layer"] = {side: median_split(traced[side]) for side in SIDES}
            record["workloads"][name] = summary
        record["sweep"] = sweep(trees, scratch)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
