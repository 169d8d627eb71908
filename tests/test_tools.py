"""The scripts under tools/ on small configs."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mleachsim import simulation
from mleachsim.config import SimConfig
from mleachsim.dsdv import DsdvProtocol
from mleachsim.mleach import MleachProtocol

from conftest import assert_ledgers_equal, load_module, small_config

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("cls", [MleachProtocol, DsdvProtocol])
def test_energy_breakdown_accounts_for_every_joule(cls):
    tool = load_module(TOOLS / "energy_breakdown.py", "energy_breakdown")
    # the sink channel on, so that DSDV pays for frames the sink rejects
    cfg = small_config(bs_mac_capacity_bps=5000.0, sim_duration_s=6)
    log, world, spent, rejected, _ = tool.breakdown(cfg, cls)
    total = world.ledger.total_consumed()
    assert set(spent) == {"control", "data"}
    assert spent["data"].sum() > 0.0
    assert abs(math.fsum(math.fsum(v) for v in spent.values()) - total) <= 1e-9
    if cls is DsdvProtocol:
        assert log.dropped_congested > 0
        # the split of a run of one event per dump and one per frame: a dump
        # credited as data, or a frame dropped at a tie, moves it
        assert spent["control"].sum() == pytest.approx(20.88615040005857, rel=1e-12)
        assert spent["data"].sum() == pytest.approx(11.408218240979409, rel=1e-12)
        assert rejected.sum() == pytest.approx(8.50183778561825, rel=1e-12)


def test_energy_breakdown_runs_dsdv_one_frame_per_event_to_the_same_end(monkeypatch):
    # and mleach one round-plan item per event: both send lists in runs
    tool = load_module(TOOLS / "energy_breakdown.py", "energy_breakdown")
    cfg = small_config(bs_mac_capacity_bps=5000.0, sim_duration_s=6)
    sent = []  # frames or plan items sent per event
    for cls, name in ((DsdvProtocol, "_send"), (MleachProtocol, "_send_plan")):

        def counted(proto, t_us, items, send=getattr(cls, name)):
            before = len(items)
            send(proto, t_us, items)
            sent.append(before - len(items))

        monkeypatch.setattr(cls, name, counted)
        sent.clear()
        log, world, *_ = tool.breakdown(cfg, cls)
        # one item per event; DSDV's runs of the seconds themselves send none
        assert set(sent) - {0} == {1}
        assert sent.count(0) == (cfg.sim_duration_s if cls is DsdvProtocol else 0)
        items = sum(sent)
        sent.clear()
        plain = simulation.World(cfg, cls.__name__)
        plain.run(cls(plain))
        # the plain run sends the same items in runs of several per event
        assert sum(sent) == items and max(sent) > 1
        assert log.dropped_congested > 0
        assert_ledgers_equal(world.ledger, plain.ledger, cls.__name__)
        for name in (
            "generated", "delivered", "dropped_filtered", "dropped_unreachable",
            "dropped_dead", "dropped_congested", "first_death_s",
        ):
            assert getattr(log, name) == getattr(plain.log, name), (cls.__name__, name)
        assert log.bs_buckets.tolist() == plain.log.bs_buckets.tolist()
        assert log.energy_series == plain.log.energy_series


def test_energy_breakdown_splits_every_unreachable_drop(capsys):
    tool = load_module(TOOLS / "energy_breakdown.py", "energy_breakdown")
    # a wide field with the sink in a corner: orphans out of range, heads
    # with no route to it, and readings still queued when the run ends
    cfg = small_config(
        sim_duration_s=6,
        field_width_m=3000.0,
        field_height_m=3000.0,
        bs_position=(0.0, 0.0),
        node_count=40,
    )
    result = tool.breakdown(cfg, MleachProtocol)
    log, unreachable = result[0], result[4]
    assert list(unreachable) == [
        "heads with no route",
        "orphans out of sink range",
        "still queued at the end",
    ]
    # the split a run of one event per slot and per flush gives
    assert list(unreachable.values()) == [34, 190, 16]
    assert sum(unreachable.values()) == log.dropped_unreachable
    tool.report("mleach", *result)
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "   unreachable at: " + ", ".join(f"{k} {v}" for k, v in unreachable.items())


def test_digest_sweep_smoke(tmp_path, capsys):
    tool = load_module(TOOLS / "digest_sweep.py", "digest_sweep")
    out = tmp_path / "digests.json"
    assert tool.main(["--n", "2", "--out", str(out)]) == 0
    digests = json.loads(out.read_text())
    runs = [f"{k}:{p}" for k in range(2) for p in ("dsdv", "mleach", "comparison")]
    assert sorted(digests) == sorted(runs)
    # the tool keeps its own copy of the names, as compare mode imports no
    # simulator; a protocol added to the registry must still be swept
    assert tool.PROTOCOLS == tuple(simulation.PROTOCOLS)
    assert tool.main(["--compare", str(out), str(out)]) == 0
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(dict(digests, **{"1:mleach": "0" * 64})))
    capsys.readouterr()
    assert tool.main(["--compare", str(out), str(other)]) == 1
    report = capsys.readouterr().out
    assert "changed 1:mleach" in report
    assert "1 of 6 digests changed, 0 unmatched" in report


def test_digest_sweep_compares_without_the_simulator(tmp_path):
    # compare mode only reads JSON, so it must run with no src/ on the path
    digests = {f"0:{p}": p for p in ("dsdv", "mleach", "comparison")}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(digests))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def compare(other):
        b.write_text(json.dumps(other))
        cmd = [sys.executable, str(TOOLS / "digest_sweep.py"), "--compare", str(a), str(b)]
        return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)

    same = compare(digests)
    assert same.returncode == 0, same.stderr
    changed = compare(dict(digests, **{"0:dsdv": "x"}))
    assert changed.returncode == 1, changed.stderr
    assert "changed 0:dsdv" in changed.stdout


def test_digest_sweep_writes_the_same_bytes_for_any_jobs():
    tool = load_module(TOOLS / "digest_sweep.py", "digest_sweep")
    one = json.dumps(tool.sweep(3, 0, 1), sort_keys=True)
    assert len(json.loads(one)) == 9
    assert json.dumps(tool.sweep(3, 0, 2), sort_keys=True) == one


def test_digest_sweep_draws_every_config_field():
    tool = load_module(TOOLS / "digest_sweep.py", "digest_sweep")
    draws = [tool.draw_config(np.random.default_rng([0, k])) for k in range(50)]
    for field in fields(SimConfig):
        assert len({getattr(cfg, field.name) for cfg in draws}) > 1, field.name


def bench_stdout(run_s, setup_s, rss, failed=0):
    """What perfbench/bench.py prints for an untraced run: lines, then the result."""
    metrics = {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
    result = {
        "correct": failed == 0,
        "attempted": 9,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return f"workload flood-dsdv  seed 1  horizon 10 s\nrun_s 0.5 s\n{json.dumps(result)}\n"


def test_bench_pairs_summarizes_canned_pairs():
    tool = load_module(TOOLS / "bench_pairs.py", "bench_pairs")
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    base = [(0.56, 0.160, 40.6), (0.57, 0.161, 40.5), (0.55, 0.159, 40.6), (0.58, 0.162, 40.7)]
    change = [(0.50, 0.161, 38.8), (0.49, 0.160, 38.9), (0.56, 0.162, 38.8), (0.48, 0.160, 38.7)]
    runs = [
        (tool.read_result(bench_stdout(*b)), tool.read_result(bench_stdout(*c, failed=k == 3)))
        for k, (b, c) in enumerate(zip(base, change))
    ]
    summary = tool.summarize_workload(runs, spec)
    assert summary["failed"] == {"pa": 0, "ch": 1}
    assert summary["attempted"] == {"pa": 36, "ch": 36}
    run_s = summary["metrics"]["run_s"]
    assert run_s["pairs"] == [[b[0], c[0]] for b, c in zip(base, change)]
    # inclusive quartiles of 0.55, 0.56, 0.57, 0.58 and of 0.48, 0.49, 0.50, 0.56
    assert run_s["base"] == pytest.approx({"q1": 0.5575, "median": 0.565, "q3": 0.5725})
    assert run_s["change"] == pytest.approx({"q1": 0.4875, "median": 0.495, "q3": 0.515})
    assert run_s["wins"] == 3  # the third pair went the other way
    assert run_s["rel_change"] == pytest.approx(0.495 / 0.565 - 1.0)
    # a lower value wins for every end-to-end metric; a tie is no win
    setup_s = summary["metrics"]["setup_s"]
    assert setup_s["wins"] == 2
    assert summary["metrics"]["peak_rss_mb"]["wins"] == 4
    assert tool.summarize([(2.0, 3.0), (2.0, 1.0)], "higher")["wins"] == 1
    assert tool.summarize([(1.0, 1.0)], "lower")["wins"] == 0
    assert tool.summarize([(0.5, 0.4)], "lower")["base"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_bench_pairs_takes_each_layer_metric_as_the_median_of_the_traced_runs():
    tool = load_module(TOOLS / "bench_pairs.py", "bench_pairs")
    runs = [
        {"dsdv.data_send.self_s": 0.160, "dsdv.data_send.calls": 9, "trace_overhead": 1.02},
        {"dsdv.data_send.self_s": 0.122, "dsdv.data_send.calls": 9, "trace_overhead": 1.05},
        {"dsdv.data_send.self_s": 0.125, "dsdv.data_send.calls": 9, "trace_overhead": 1.01},
    ]
    # each metric on its own: the medians come from different runs
    assert tool.median_split(runs) == {
        "dsdv.data_send.self_s": 0.125, "dsdv.data_send.calls": 9, "trace_overhead": 1.02,
    }
    assert tool.TRACED_PAIRS == 3
    assert tool.median_split(runs[:1]) == runs[0]


def test_bench_pairs_passes_its_seed_to_every_run_and_records_it(tmp_path, monkeypatch):
    tool = load_module(TOOLS / "bench_pairs.py", "bench_pairs")
    workloads = [w["name"] for w in json.loads((TOOLS.parent / "BENCHMARK.json").read_text())[
        "workloads"
    ]]
    runs = []

    def run(argv, **kwargs):
        runs.append((argv, kwargs["cwd"].name))
        return subprocess.CompletedProcess(argv, 0, stdout=bench_stdout(0.5, 0.16, 40.0), stderr="")

    monkeypatch.setattr(tool.subprocess, "run", run)
    monkeypatch.setattr(tool, "work_tree_id", lambda scratch: "t" * 40)
    monkeypatch.setattr(
        tool, "build_checkouts", lambda base, tree, scratch: {s: scratch / s for s in tool.SIDES}
    )
    monkeypatch.setattr(tool, "git", lambda *args, **kwargs: "r" * 40 + "\n")
    monkeypatch.setattr(tool, "sweep", lambda trees, scratch: {"changed": 0})
    per_workload = 2 * (2 + tool.TRACED_PAIRS)  # two pairs, then the traced ones
    for seed, args in ((11, ["--seed", "11"]), (1, [])):
        runs.clear()
        out = tmp_path / f"seed{seed}.json"
        assert tool.main(["--base", "HEAD~1", "--out", str(out), "--pairs", "2", *args]) == 0
        # both sides, untraced and traced, every workload: each run at the seed
        assert len(runs) == len(workloads) * per_workload
        for k, (argv, side) in enumerate(runs):
            trace = int(k % per_workload >= 4)
            assert argv[1:] == [
                "perfbench/bench.py", "--workload", workloads[k // per_workload],
                "--trace", str(trace), "--seed", str(seed),
            ]
        assert sorted(side for _, side in runs[:per_workload]) == sorted(tool.SIDES * 5)
        record = json.loads(out.read_text())
        assert record["seed"] == seed
        assert sorted(record["workloads"]) == sorted(workloads)


def test_bench_pairs_reads_the_sweep_comparison():
    tool = load_module(TOOLS / "bench_pairs.py", "bench_pairs")
    text = "changed 3:dsdv:plain\n1 of 3000 digests changed, 2 unmatched\n"
    assert tool.parse_sweep(text) == {"changed": 1, "compared": 3000, "unmatched": 2}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_names_the_measured_tree(tmp_path, monkeypatch):
    tool = load_module(TOOLS / "bench_pairs.py", "bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.setattr(tool, "ROOT", repo)
    ident = ["-c", "user.name=t", "-c", "user.email=t@t"]
    (repo / ".gitignore").write_text("*.out\n")
    (repo / "a.py").write_text("a = 1\n")
    tool.git("init", "-q")
    tool.git("add", "--all")
    tool.git(*ident, "commit", "-q", "-m", "a")
    head_tree = tool.git("rev-parse", "HEAD^{tree}").strip()
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    # a clean tree is HEAD's tree; an ignored file changes nothing
    (repo / "run.out").write_text("x\n")
    assert tool.work_tree_id(scratch) == head_tree
    # an edit and a new, unignored file are measured, and the real index is untouched
    (repo / "a.py").write_text("a = 2\n")
    (repo / "b.py").write_text("b = 1\n")
    changed = tool.work_tree_id(scratch)
    assert changed != head_tree
    assert tool.git("ls-tree", "--name-only", changed).split() == [".gitignore", "a.py", "b.py"]
    assert tool.git("show", f"{changed}:a.py") == "a = 2\n"
    assert tool.git("diff", "--cached", "--name-only") == ""
