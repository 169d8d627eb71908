"""Strict mode holds for small valid configs, not only for the reference one.

Draws cover tiny energy budgets (most runs have deaths), a sink out of radio
range, the sink channel on with collapse exponents of 0.5 to 1000 (high
enough that the channel's power overflows), high mobility and update
intervals up to twice the horizon. Strict mode raises InvariantViolation
on the first breach. Draws of 1-16 nodes over 2-6 s cover the corners;
draws of 17-64 nodes over 2-12 s reach multi-hop routes, several elections
per run and deaths late in a run, which the small draws rarely do.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mleachsim.config import SimConfig, validate_config
from mleachsim.simulation import run_simulation


@st.composite
def small_configs(draw, nodes=(1, 16), horizons=(2, 6)):
    horizon = draw(st.integers(*horizons))
    rounds = [r for r in (0.5, 1.0, 2.0, float(horizon)) if horizon % r == 0]
    width = draw(st.floats(200.0, 3000.0))
    height = draw(st.floats(200.0, 3000.0))
    rr = draw(st.floats(50.0, 1500.0))
    bs = draw(
        st.one_of(
            st.just("random"),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
                lambda f: (f[0] * width, f[1] * height)
            ),
        )
    )
    speed_min = draw(st.floats(0.0, 30.0))
    return SimConfig(
        field_width_m=width,
        field_height_m=height,
        node_count=draw(st.integers(*nodes)),
        bs_position=bs,
        initial_energy_j=draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 1.0, 500.0])),
        sim_duration_s=horizon,
        round_duration_s=draw(st.sampled_from(rounds)),
        p_ch_fraction=draw(st.floats(0.05, 0.5)),
        cluster_radius_rc_m=rr * draw(st.floats(0.1, 1.0)),
        radio_range_rr_m=rr,
        ch_exclusion_rounds=draw(st.integers(0, 4)),
        filter_threshold=draw(st.floats(0.0, 0.5)),
        mobility_speed_min_mps=speed_min,
        mobility_speed_max_mps=speed_min + draw(st.floats(0.0, 30.0)),
        mobility_pause_s=draw(st.floats(0.0, 3.0)),
        traffic_on_s=draw(st.floats(0.5, 5.0)),
        traffic_off_s=draw(st.floats(0.0, 5.0)),
        traffic_rate_pps=draw(st.floats(0.5, 10.0)),
        dsdv_update_interval_s=draw(st.floats(0.1, 2.0 * horizon)),
        bs_mac_capacity_bps=draw(st.sampled_from([0.0, 500.0, 5000.0, 50000.0])),
        bs_mac_collapse_k=draw(st.sampled_from([0.5, 4.0, 50.0, 1000.0])),
        rng_seed=draw(st.integers(0, 2**32)),
    )


def assert_strict_runs_hold(cfg):
    cfg = validate_config(cfg)
    for protocol in ("mleach", "dsdv"):
        log = run_simulation(cfg, protocol, strict=True)
        assert log.conservation_residual() == 0
        assert log.max_consumed() <= cfg.initial_energy_j * (1.0 + 1e-9)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cfg=small_configs())
def test_strict_runs_hold_for_small_valid_configs(cfg):
    assert_strict_runs_hold(cfg)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(cfg=small_configs(nodes=(17, 64), horizons=(2, 12)))
def test_strict_runs_hold_for_larger_valid_configs(cfg):
    assert_strict_runs_hold(cfg)
