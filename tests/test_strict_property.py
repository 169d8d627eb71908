"""Every run's invariant checks hold on drawn valid configs.

Configs come from ``tools/digest_sweep.py::draw_config``, the digest
sweep's sampler, with hypothesis drawing each value so that its boundary
values and shrinking apply. Every ``SimConfig`` field is drawn: tiny
budgets (about a fifth of the small runs have deaths), frame sizes and
radio constants over many decades, a sink out of range, the sink channel
with collapse exponents high enough that its power overflows, high
mobility and long update intervals. A run raises InvariantViolation on the
first breach of its checks; each draw runs each protocol once, and its log
must also balance its packet books and keep every node within its budget.
Draws of 1-16 nodes over 2-6 s cover the corners.
Draws of 17-64 nodes over 2-12 s reach multi-hop routes, several elections
per run and deaths late in a run, which the small draws rarely do.
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mleachsim.simulation import PROTOCOLS, World, run_simulation

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


def assert_runs_hold(cfg):
    for protocol in ("mleach", "dsdv"):
        log = run_simulation(cfg, protocol)
        assert log.conservation_residual() == 0
        assert log.max_consumed() <= cfg.initial_energy_j * (1.0 + 1e-9)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cfg=small_configs())
def test_strict_runs_hold_for_small_valid_configs(cfg):
    assert_runs_hold(cfg)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(cfg=small_configs(nodes=(17, 64), horizons=(2, 12)))
def test_strict_runs_hold_for_larger_valid_configs(cfg):
    assert_runs_hold(cfg)


# -- runs agree with themselves across a change of units ------------------------
# Multiplying by a power of two is exact away from overflow and subnormals,
# so scaling every energy by 2**30, or every length by 2**7 with eps_amp
# divided by 2**14, must scale a run's joules or positions exactly and leave
# everything else as it was. Draws of draw_config's defaults from one
# Generator each; the energy draws include totals past 2**23 J, where one
# ulp of the total is more than 1e-9 J.

ENERGY_SCALE = 2.0**30
LENGTH_SCALE = 2.0**7


def run_world(cfg, protocol):
    world = World(cfg, protocol)
    world.run(PROTOCOLS[protocol](world))
    return world


def log_counts(log):
    return (
        log.generated, log.delivered, log.dropped_filtered, log.dropped_unreachable,
        log.dropped_dead, log.dropped_congested, log.first_death_s,
        log.alive_series, log.ch_count_series, log.bs_buckets.tolist(),
    )


def assert_scaled_run(base, scaled, joules, meters):
    """scaled is base with every joule times ``joules`` and every position times ``meters``."""
    a, b = base.ledger, scaled.ledger
    for name in ("energy", "consumed", "consumed_comp"):
        assert np.array_equal(np.asarray(getattr(a, name)) * joules, getattr(b, name)), name
    assert np.array_equal(a.death_time_us, b.death_time_us)
    assert a.total_consumed() * joules == b.total_consumed()
    assert a.conservation_drift() * joules == b.conservation_drift()
    assert np.array_equal(base.positions * meters, scaled.positions)
    assert log_counts(base.log) == log_counts(scaled.log)
    assert [(t, x * joules, y * joules) for t, x, y in base.log.energy_series] == (
        scaled.log.energy_series
    )


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_energy_times_2_30_scales_every_joule_exactly(protocol):
    rng = np.random.default_rng(7)
    past_2_23 = 0
    for _ in range(60):
        cfg = SWEEP.draw_config(rng)
        big = dataclasses.replace(
            cfg,
            e_elec_j_per_bit=cfg.e_elec_j_per_bit * ENERGY_SCALE,
            eps_amp_j_per_bit_m2=cfg.eps_amp_j_per_bit_m2 * ENERGY_SCALE,
            initial_energy_j=cfg.initial_energy_j * ENERGY_SCALE,
        )
        scaled = run_world(big, protocol)
        assert_scaled_run(run_world(cfg, protocol), scaled, ENERGY_SCALE, 1.0)
        past_2_23 += scaled.ledger.total_consumed() > 2.0**23
    assert past_2_23 > 20


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_geometry_times_2_7_changes_nothing_but_positions(protocol):
    rng = np.random.default_rng(11)
    for _ in range(30):
        cfg = SWEEP.draw_config(rng)
        bs = cfg.bs_position
        wide = dataclasses.replace(
            cfg,
            field_width_m=cfg.field_width_m * LENGTH_SCALE,
            field_height_m=cfg.field_height_m * LENGTH_SCALE,
            cluster_radius_rc_m=cfg.cluster_radius_rc_m * LENGTH_SCALE,
            radio_range_rr_m=cfg.radio_range_rr_m * LENGTH_SCALE,
            mobility_speed_min_mps=cfg.mobility_speed_min_mps * LENGTH_SCALE,
            mobility_speed_max_mps=cfg.mobility_speed_max_mps * LENGTH_SCALE,
            bs_position=bs if isinstance(bs, str) else tuple(v * LENGTH_SCALE for v in bs),
            eps_amp_j_per_bit_m2=cfg.eps_amp_j_per_bit_m2 / LENGTH_SCALE**2,
        )
        assert_scaled_run(run_world(cfg, protocol), run_world(wide, protocol), 1.0, LENGTH_SCALE)
