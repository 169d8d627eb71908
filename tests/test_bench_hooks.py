"""perfbench's hook points, checked in tier-1.

The benchmark wraps simulator names from outside (``perfbench/spans.py``)
and hooks ``World.run`` to time the first event (``perfbench/child.py``).
Its own tests are outside ``testpaths``, so without these checks a rename
under ``src/`` would break tracing and fail nothing in tier-1. Neither
``Spans.install`` nor ``Counts.install`` is called: both patch the classes
for the whole process.
"""

import inspect
import json
import re
from pathlib import Path

import mleachsim
import mleachsim.dsdv  # timed_points reads the protocol modules off the package
import mleachsim.mleach
from mleachsim.engine import EventKind
from mleachsim.simulation import World, run_simulation

from conftest import load_module, small_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_timed_point_resolves():
    spans = load_module(PERFBENCH / "spans.py", "perfbench_spans")
    for name, owner, attr in spans.timed_points(mleachsim):
        assert callable(getattr(owner, attr, None)), name


def test_every_name_counts_reads_resolves():
    spans = load_module(PERFBENCH / "spans.py", "perfbench_spans")
    source = inspect.getsource(spans.Counts.install)
    dotted = set(re.findall(r"\bpkg((?:\.\w+)+)", source))
    queue_attrs = set(re.findall(r"\bqueue_cls\.(\w+)", source))
    assert ".radio.EnergyLedger.consume" in dotted
    assert queue_attrs == {"pop", "schedule"}
    for path in dotted:
        obj = mleachsim
        for part in path.split(".")[1:]:
            obj = getattr(obj, part)
    for attr in queue_attrs:
        assert callable(getattr(mleachsim.engine.EventQueue, attr))
    # every per-kind event count the benchmark declares names a kind
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {
        m["name"].removeprefix("engine.events.")
        for m in spec["per_layer"]
        if m["name"].startswith("engine.events.")
    }
    assert kinds == {kind.name for kind in EventKind}


def test_hook_run_sees_the_first_event_and_the_end(monkeypatch):
    child = load_module(PERFBENCH / "child.py", "perfbench_child")
    monkeypatch.setattr(World, "run", World.run)  # restored after the test
    seen = {}
    child.hook_run(World, seen)
    log = run_simulation(small_config(sim_duration_s=2), "dsdv")
    assert log.generated > 0
    assert isinstance(seen["world"], World)
    (t1, c1), (t2, c2) = seen["first_event"], seen["run_end"]
    assert t1 <= t2 and c1 <= c2
    # the one-shot pop removed itself, so later events used the class's
    assert "pop" not in vars(seen["world"].queue)
