"""Acceptance gate: the eight reproduction criteria for the reference scenario.

Each test is one criterion, pass or fail, with its tolerance pinned as a
module constant. The shared fixture runs both protocols once over the
packaged scenario (512 nodes, 7500 x 7500 m, 120 s); each run checks its
own structural invariants, as every run does.
"""

import filecmp
import math
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mleachsim.cli import comparison_fields, print_summary
from mleachsim.config import load_config, validate_config
from mleachsim.dsdv import DsdvProtocol
from mleachsim.engine import RandomStreams
from mleachsim.mleach import (
    MleachProtocol,
    build_ch_graph,
    ch_threshold,
    run_election,
    shortest_route,
)
from mleachsim.radio import RadioModel
from mleachsim.simulation import World, run_simulation
from mleachsim import kernels

from energy_fit import energy_fit_r2

STEADY_WINDOW_START_S = 20
STEADY_RANGE_PPS = (300.0, 500.0)  # 400 pps +/- 25%
MIN_THROUGHPUT_RATIO = 1.5
MAX_ENERGY_RATIO = 1.20
REFERENCE_MAX_ENERGY_RATIO = 0.0880945  # README's reference run, as printed (6 digits)
REFERENCE_ABS_TOL = 5e-8  # half a unit in the last printed digit
MIN_LINEARITY_R2 = 0.98
RADIO_REL_TOL = 1e-12
FAIRNESS_EPOCHS = 200
ORACLE_GRAPHS = 1000
MAX_LEDGER_DRIFT_J = 1e-9
RUNTIME_BUDGET_S = 60.0


def load_reference_config():
    path = resources.files("mleachsim").joinpath("data/table1.cfg")
    return validate_config(load_config(str(path)))


@pytest.fixture(scope="module")
def table1():
    """Both protocols over the packaged scenario, each run checking its invariants."""
    cfg = load_reference_config()
    runs = {}
    for name, cls in (("mleach", MleachProtocol), ("dsdv", DsdvProtocol)):
        world = World(cfg, name)
        log = world.log
        started = time.perf_counter()
        world.run(cls(world))
        runs[name] = {
            "log": log,
            "world": world,
            "runtime_s": time.perf_counter() - started,
        }
    return cfg, runs


def test_criterion_1_steady_throughput(table1):
    _, runs = table1
    m = runs["mleach"]["log"].steady_state_throughput(STEADY_WINDOW_START_S)
    d = runs["dsdv"]["log"].steady_state_throughput(STEADY_WINDOW_START_S)
    assert STEADY_RANGE_PPS[0] <= m <= STEADY_RANGE_PPS[1]
    assert d < m
    assert m / d >= MIN_THROUGHPUT_RATIO
    assert runs["mleach"]["runtime_s"] < RUNTIME_BUDGET_S
    assert runs["dsdv"]["runtime_s"] < RUNTIME_BUDGET_S


def test_criterion_2_max_energy_parity(table1):
    """mleach's peak per-node energy over DSDV's, against the documented figure.

    The ratio stays under the pinned 1.20 ceiling (the clustered protocol's
    hottest node burns at most 20% more than the baseline's) and equals the
    reference ratio the README gives for this scenario. The ratio is not
    held near parity: no document in the repo gives a parity figure, and on
    this scenario mleach leaves most readings unsent while DSDV's hottest
    relay pays for frames the sink channel rejects (README, "Tests";
    `tools/energy_breakdown.py` prints the split). If the paper's energy
    figure is added and shows parity, reaching it is a model change, and
    the reference moves with it.
    """
    _, runs = table1
    ratio = runs["mleach"]["log"].max_consumed() / runs["dsdv"]["log"].max_consumed()
    assert ratio <= MAX_ENERGY_RATIO
    assert ratio == pytest.approx(REFERENCE_MAX_ENERGY_RATIO, abs=REFERENCE_ABS_TOL)


def test_criterion_3_energy_linearity(table1):
    cfg, runs = table1
    for name in ("mleach", "dsdv"):
        r2 = energy_fit_r2(runs[name]["log"], STEADY_WINDOW_START_S, cfg.sim_duration_s)
        assert r2 >= MIN_LINEARITY_R2, f"{name} energy fit R^2 {r2}"


def test_criterion_4_radio_reference_values():
    radio = RadioModel()
    cases = [
        (radio.tx_energy(4096, 100.0), 5.120e-3),
        (radio.tx_energy(4096, 0.0), 2.048e-4),
        (radio.rx_energy(4096), 2.048e-4),
    ]
    for got, want in cases:
        assert abs(got - want) / want <= RADIO_REL_TOL


class ZeroDraws:
    def random(self, size):
        return np.zeros(size)


def test_criterion_5_election_thresholds_and_fairness():
    assert ch_threshold(0.05, 0) == 0.05
    assert ch_threshold(0.05, 10) == 0.10
    assert ch_threshold(0.05, 19) == 1.0
    # a node still excluded is not elected, even when every draw is 0.0
    exclusion = np.array([0, 0, 5, 0], dtype=np.int64)
    elected = run_election(exclusion, np.arange(4), 7, 0.05, 19, 20, ZeroDraws())
    assert elected.tolist() == [0, 1, 3]

    n, p, epoch = 128, 0.05, 20
    exclusion = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    stream = RandomStreams(99).get("election")
    terms = np.zeros((FAIRNESS_EPOCHS, n), dtype=int)
    for r in range(FAIRNESS_EPOCHS * epoch):
        if r % epoch == epoch - 1:
            eligible_at_final = set(np.flatnonzero(exclusion == 0).tolist())
        else:
            eligible_at_final = None
        elected = run_election(exclusion, alive, r, p, 19, epoch, stream)
        for i in elected:
            terms[r // epoch, i] += 1
        if eligible_at_final is not None:
            assert eligible_at_final <= set(elected.tolist())  # threshold 1.0 sweeps the G set
    assert terms.max() == 1  # nobody heads twice within one epoch


def brute_force_cost(graph, src, bs):
    best = [math.inf]
    visited = {src}

    def dfs(v, cost):
        if cost >= best[0]:
            return
        if v == bs:
            best[0] = cost
            return
        for n, w in graph[v]:
            if n not in visited:
                visited.add(n)
                dfs(n, cost + w)
                visited.remove(n)

    dfs(src, 0.0)
    return best[0] if best[0] < math.inf else None


def test_criterion_6_routing_matches_exhaustive_search():
    rng = np.random.default_rng(777)
    graphs = agreements = checks = 0
    while graphs < ORACLE_GRAPHS:
        k = int(rng.integers(2, 9))
        pos = rng.uniform(0.0, 100.0, size=(k + 1, 2))
        reach = float(rng.uniform(25.0, 120.0))
        dist = kernels.pairwise_distances(pos)
        graph = build_ch_graph(dist.__getitem__, list(range(k)), k, reach)
        graphs += 1
        for src in range(k):
            want = brute_force_cost(graph, src, k)
            got = shortest_route(graph, src, k)
            checks += 1
            if want is None:
                agreements += got is None
                continue
            cost = sum(
                next(w for n, w in graph[u] if n == v)
                for u, v in zip(got, got[1:])
            )
            agreements += cost == want
    assert graphs == ORACLE_GRAPHS
    assert agreements == checks  # 100% agreement

    # reference configuration: relaying via 2 is half the cost of relaying via 1
    fig = {
        1: [(4, 2.0), (9, 2.5)],
        2: [(4, 1.0), (9, 1.5)],
        3: [(9, 1.0)],
        4: [(1, 2.0), (2, 1.0)],
        9: [(1, 2.5), (2, 1.5), (3, 1.0)],
    }
    assert shortest_route(fig, 4, 9) == [4, 2, 9]


def test_criterion_7_structural_invariants(table1):
    # the fixture already ran with per-round and final checks enabled; a
    # violation would have errored every test here. Re-assert the end state.
    _, runs = table1
    for name in ("mleach", "dsdv"):
        log = runs[name]["log"]
        world = runs[name]["world"]
        assert log.conservation_residual() == 0
        drops = (
            log.dropped_filtered
            + log.dropped_unreachable
            + log.dropped_dead
            + log.dropped_congested
        )
        assert log.generated == log.delivered + drops
        ledger = world.ledger
        assert ledger.conservation_drift() <= MAX_LEDGER_DRIFT_J
        energy = np.asarray(ledger.energy)
        assert (energy >= 0.0).all()
        assert np.array_equal(ledger.alive, energy > 0.0)


def test_criterion_8_byte_identical_reruns(table1, tmp_path):
    cfg, runs = table1
    for name in ("mleach", "dsdv"):
        first = tmp_path / "a" / name
        second = tmp_path / "b" / name
        runs[name]["log"].export_csv(str(first))
        run_simulation(cfg, name).export_csv(str(second))
        for artifact in ("energy.csv", "throughput.csv", "summary.csv"):
            assert filecmp.cmp(first / artifact, second / artifact, shallow=False), (
                f"{name}/{artifact} differs between identical runs"
            )


# -- the README's figures for this scenario, from the fixture's two logs -----

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_sample_output_and_seed_1_row_match_the_runs(table1, capsys):
    _, runs = table1
    logs = {name: runs[name]["log"] for name in ("mleach", "dsdv")}
    print_summary(logs)
    printed = capsys.readouterr().out
    text = README.read_text()
    start = text.index("```\nprotocol ")
    assert printed == text[start + 4 : text.index("```", start + 4)]
    fields = dict(comparison_fields(logs))
    row = (
        f"| 1 | {fields['mleach_steady_pps']:.2f} | {fields['dsdv_steady_pps']:.2f} "
        f"| {fields['throughput_ratio']:.3f} | {fields['max_energy_ratio']:.4f} |"
    )
    assert row == "| 1 | 407.73 | 223.89 | 1.821 | 0.0881 |"
    assert row in text.splitlines()
