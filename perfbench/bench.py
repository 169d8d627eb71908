#!/usr/bin/env python3
"""Scenario benchmark for mleachsim: end-to-end times and per-layer spans.

Usage (from the repository root):

    python3 perfbench/bench.py --workload flood-dsdv [--seed 1] [--seconds S]
        [--trace 0|1] [--horizon S]

Each simulation runs in a fresh interpreter, one at a time, with BLAS and
OpenMP pinned to one thread, until ``--seconds`` (default: BENCHMARK.json's
``run_seconds``) of host time have passed. The seed is the scenario's
``rng_seed``; the default is table1's own.

The host's speed wanders by tens of percent within a second, separately on
each CPU, and drifts over minutes. So every untraced simulation runs on one
CPU beside a fixed reference loop (``calibrate.py``, which imports nothing
of the simulator), and the two share that CPU's speed. Times are reported
as the simulation's CPU seconds at the reference speed: CPU seconds times
``REFERENCE_S`` over the loop's CPU seconds per chunk during the same
interval.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it holds the per-layer metrics: one counting simulation,
then untraced and traced simulations in turn, so that the tracing overhead
is measured against untraced runs of the same invocation.

Every simulation's CSVs are checked. For the default seed and horizon they
must match the digests pinned in ``pins.json``; otherwise the simulations
must agree with each other. A simulation that raises or mismatches counts
as failed. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
resolved config, kernel implementation, Python and numpy versions and CPU
count is written to ``.perfbench/<workload>.json``; a record made with
another kernel implementation or toolchain is flagged before it is replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASE_CONFIG = SRC / "mleachsim" / "data" / "table1.cfg"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1  # rng_seed of table1.cfg
CHILD_TIMEOUT_S = 150
# CPU seconds of one reference chunk at the nominal speed: its median on a
# 2-vCPU Xeon VM, where single chunks took 0.014 to 0.047 s.
REFERENCE_S = 0.022
# The simulation and the reference loop share this CPU.
CPU = max(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """table1.cfg plus overrides, run with one protocol."""

    protocol: str
    strict: bool = False
    overrides: dict = field(default_factory=dict)


# Horizons keep one simulation to one to four CPU seconds, so that a
# 30 s run holds several. drain's budget is picked so that about half of
# the sensors die within its horizon, as 2000 J does over table1's 120 s.
WORKLOADS = {
    "flood-dsdv": Workload("dsdv", overrides={"sim_duration_s": 10}),
    "flood-mleach": Workload("mleach", overrides={"sim_duration_s": 40}),
    "drain-dsdv-strict": Workload(
        "dsdv", strict=True, overrides={"sim_duration_s": 10, "initial_energy_j": 150.0}
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def on_one_cpu() -> None:
    os.sched_setaffinity(0, {CPU})


def simulate(
    workload: Workload, overrides: dict, mode: str, reference: bool = False
) -> dict | None:
    """One simulation in a fresh interpreter; None if it failed.

    With `reference`, the reference loop runs beside it on the same CPU,
    and the result gains ``scaled``: set-up and run CPU seconds at the
    reference speed.
    """
    spec = {
        "protocol": workload.protocol,
        "strict": workload.strict,
        "config": str(BASE_CONFIG),
        "overrides": overrides,
        "mode": mode,
        "scratch": str(OUT / f"csv-{os.getpid()}"),
    }
    loop = None
    if reference:
        loop = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, preexec_fn=on_one_cpu,
        )
        if loop.stdout.readline().strip() != "ready":
            loop.kill()
            loop.wait()
            raise RuntimeError("the reference loop did not start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            preexec_fn=on_one_cpu,
        )
    except subprocess.TimeoutExpired:
        print(f"simulation timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        chunks = json.loads(loop.communicate("", timeout=CHILD_TIMEOUT_S)[0]) if loop else None
    if proc.returncode != 0:
        print(f"simulation failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if loop:
        t0, t1, t2 = result["stamps"]
        result["scaled"] = {
            "setup_s": result["setup_cpu_s"] * REFERENCE_S / chunk_cpu_s(chunks, t0, t1),
            "run_s": result["run_cpu_s"] * REFERENCE_S / chunk_cpu_s(chunks, t1, t2),
        }
    return result


def chunk_cpu_s(chunks: list, start: float, end: float) -> float:
    """CPU seconds of one reference chunk while [start, end], weighted by overlap."""
    weights = [max(0.0, min(e, end) - max(s, start)) / (e - s) for s, e, _ in chunks]
    if not sum(weights):
        raise RuntimeError("no reference chunk overlaps the measured interval")
    return sum(w * c for w, (_, _, c) in zip(weights, chunks)) / sum(weights)


def matches(got: dict, want: dict) -> bool:
    """Digest equality; summary values compared by the pinned column names."""
    return (
        got["energy_sha256"] == want["energy_sha256"]
        and got["throughput_sha256"] == want["throughput_sha256"]
        and all(got["summary"].get(k) == v for k, v in want["summary"].items())
    )


def plan(trace: bool):
    """Modes of successive simulations."""
    if trace:
        yield "count"
        while True:
            yield "plain"
            yield "trace"
    while True:
        yield "plain"


def measure(
    workload: Workload, overrides: dict, seconds: float, trace: bool, pin: dict | None
) -> tuple[list[dict], int, int]:
    """Simulate for `seconds`; return (results with correct output, attempted, failed).

    Stops once the time is up and every mode of the plan has been
    attempted, or early when every simulation so far failed. The results
    are empty unless every mode has one. Untraced simulations run beside
    the reference loop; traced ones and the untraced ones they are compared
    with run alone, so that span times are not shared with it.
    """
    steps = plan(trace)
    wanted = {"count", "plain", "trace"} if trace else {"plain"}
    runs: list[dict | None] = []
    deadline = time.monotonic() + seconds
    while True:
        mode = next(steps)
        result = simulate(workload, overrides, mode, reference=not trace)
        runs.append(result and dict(result, mode=mode))
        if len(runs) >= len(wanted) and (
            time.monotonic() >= deadline or all(r is None for r in runs)
        ):
            break

    ok = [r for r in runs if r is not None]
    if pin is None and ok:
        common = Counter(json.dumps(r["digest"], sort_keys=True) for r in ok)
        pin = json.loads(common.most_common(1)[0][0])
    good = [r for r in ok if matches(r["digest"], pin)]
    complete = wanted <= {r["mode"] for r in good}
    return (good if complete else []), len(runs), len(runs) - len(good)


def end_to_end(results: list[dict]) -> dict:
    """Medians over the simulations; times are CPU seconds at the reference speed."""
    return {
        "run_s": statistics.median(r["scaled"]["run_s"] for r in results),
        "setup_s": statistics.median(r["scaled"]["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(results: list[dict]) -> dict:
    plain = [r for r in results if r["mode"] == "plain"]
    traced = [r for r in results if r["mode"] == "trace"]
    counts = next(r["counts"] for r in results if r["mode"] == "count")
    spans = [r["spans"] for r in traced]
    out: dict[str, float] = {}
    for name in spans[0]["self_s"]:
        out[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in spans)
        out[f"{name}.calls"] = spans[0]["calls"][name]
    for i, q in enumerate(("p50", "p99")):
        out[f"kernels.dsdv_merge.{q}_us"] = statistics.median(
            s["percentiles_us"]["kernels.dsdv_merge"][i] for s in spans
        )
    events = counts["events"]
    for kind, n in events.items():
        out[f"engine.events.{kind}"] = n
    out["engine.peak_queue"] = counts["peak_queue"]
    out["kernels.dsdv_merge.cells"] = counts["merge_cells"]
    out["kernels.dsdv_merge.adopted_ratio"] = ratio(counts["merge_adopted"], counts["merge_cells"])
    out["radio.consume.failed"] = counts["consume_failed"]
    out["radio.deaths"] = counts["deaths"]
    out["dsdv.delivered_ratio"] = ratio(counts["delivered"], events["DATA_SEND"])
    out["mleach.filtered_ratio"] = ratio(counts["dropped_filtered"], counts["generated"])
    out["simulation.admitted_ratio"] = ratio(counts["delivered"], counts["deliver_calls"])
    out["traffic.readings"] = counts["generated"]
    out["trace_overhead"] = statistics.median(r["run_s"] for r in traced) / statistics.median(
        r["run_s"] for r in plain
    )
    return out


def calls_agree(results: list[dict]) -> bool:
    calls = {json.dumps(r["spans"]["calls"], sort_keys=True) for r in results if r["mode"] == "trace"}
    return len(calls) <= 1


def write_record(name: str, record: dict) -> None:
    """Store the run record; flag a change of kernel implementation or toolchain."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        for key in ("implementation", "python", "numpy", "nproc"):
            if before.get(key) != record[key]:
                print(
                    f"FLAG: {key} changed since the last {name} run "
                    f"({before.get(key)} -> {record[key]}); the two are not comparable"
                )
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"min {min(values):.4g}, q1 {q1:.4g}, median {q2:.4g}, q3 {q3:.4g}, n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, help="simulated seconds (default: the workload's)")
    args = parser.parse_args(argv)

    if not (SRC / "mleachsim" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    overrides = dict(workload.overrides, rng_seed=args.seed)
    if args.horizon is not None:
        overrides["sim_duration_s"] = args.horizon
    pinned = args.seed == DEFAULT_SEED and overrides["sim_duration_s"] == workload.overrides[
        "sim_duration_s"
    ]
    pin = json.loads((HERE / "pins.json").read_text())[args.workload] if pinned else None

    # untimed warm-up: byte-compile the package and fill the file cache
    warm = subprocess.run(
        [sys.executable, "-c", "import mleachsim.dsdv, mleachsim.mleach"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(f"cannot import the simulator:\n{warm.stderr}", file=sys.stderr)
        return 2

    results, attempted, failed = measure(workload, overrides, seconds, bool(args.trace), pin)
    if not results:
        print("no simulation finished with the expected output", file=sys.stderr)
        return 1
    if args.trace and not calls_agree(results):
        failed += 1
        print("span call counts differ between traced simulations")

    record = dict(results[0]["record"], workload=args.workload, seed=args.seed)
    print(f"workload {args.workload}  seed {args.seed}  horizon {overrides['sim_duration_s']} s")
    print(f"kernels {record['implementation']}  python {record['python']}  "
          f"numpy {record['numpy']}  nproc {record['nproc']}")
    print(f"output check: {'pinned digests' if pin else 'the simulations agree'}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = per_layer(results)
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            print(f"{name:40s} {values[name]:.6g} {units[name]}")
    else:
        values = end_to_end(results)
        names = [m["name"] for m in spec["end_to_end"]]
        for name in names:
            print(f"{name:12s} {values[name]:.6g} {units[name]}")
        print("per simulation:")
        for key in ("run_s", "setup_s"):
            print(f"  {key} scaled:    {spread([r['scaled'][key] for r in results])}")
            print(f"  {key} CPU:       {spread([r[key.replace('_s', '_cpu_s')] for r in results])}")
            print(f"  {key} wall:      {spread([r[key] for r in results])}")
        print(f"  peak_rss_mb:   {spread([r['peak_rss_mb'] for r in results])}")
    print(f"fail_ratio   {failed}/{attempted} = {failed / attempted:.3g}")
    write_record(args.workload, dict(record, metrics=values, attempted=attempted, failed=failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
