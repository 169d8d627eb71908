"""Strict mode holds, and changes no byte, on drawn valid configs.

Configs come from ``tools/digest_sweep.py::draw_config``, the digest
sweep's sampler, with hypothesis drawing each value so that its boundary
values and shrinking apply. Every ``SimConfig`` field is drawn: tiny
budgets (about a fifth of the small runs have deaths), frame sizes and
radio constants over many decades, a sink out of range, the sink channel
with collapse exponents high enough that its power overflows, high
mobility and long update intervals. Strict mode raises InvariantViolation
on the first breach. Draws of 1-16 nodes over 2-6 s cover the corners; on
them a plain and a strict run of each protocol must give one digest of
CSVs and ledger.
Draws of 17-64 nodes over 2-12 s reach multi-hop routes, several elections
per run and deaths late in a run, which the small draws rarely do.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from mleachsim.simulation import run_simulation

from conftest import load_module

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SWEEP = load_module(TOOLS / "digest_sweep.py", "digest_sweep")


@st.composite
def small_configs(draw, nodes=(1, 16), horizons=(2, 6)):
    # the scalar Generator calls draw_config makes, as hypothesis draws
    rng = SimpleNamespace(
        integers=lambda lo, hi: draw(st.integers(lo, hi - 1)),
        uniform=lambda lo, hi: draw(st.floats(lo, hi)),
        choice=lambda options: draw(st.sampled_from(options)),
    )
    return SWEEP.draw_config(rng, nodes, horizons)


def assert_strict_runs_hold(cfg):
    for protocol in ("mleach", "dsdv"):
        log = run_simulation(cfg, protocol, strict=True)
        assert log.conservation_residual() == 0
        assert log.max_consumed() <= cfg.initial_energy_j * (1.0 + 1e-9)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cfg=small_configs())
def test_strict_runs_hold_for_small_valid_configs(cfg):
    assert_strict_runs_hold(cfg)
    with tempfile.TemporaryDirectory() as scratch:
        for protocol in ("mleach", "dsdv"):
            plain = SWEEP.run_digest(cfg, protocol, False, scratch)
            assert plain == SWEEP.run_digest(cfg, protocol, True, scratch), protocol


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(cfg=small_configs(nodes=(17, 64), horizons=(2, 12)))
def test_strict_runs_hold_for_larger_valid_configs(cfg):
    assert_strict_runs_hold(cfg)
