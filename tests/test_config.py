import math

import numpy as np
import pytest

from mleachsim.config import (
    ConfigError,
    SimConfig,
    load_config,
    parse_config,
    serialize_config,
    validate_config,
)

from conftest import small_config


def test_defaults_validate_clean():
    cfg = validate_config(SimConfig())
    assert cfg.node_count == 512
    assert cfg.bs_id == 512
    assert isinstance(cfg.bs_position, tuple)


def test_serialize_parse_round_trip_is_exact():
    cfg = validate_config(SimConfig(rng_seed=99))
    text = serialize_config(cfg)
    back = parse_config(text)
    for name in ("eps_amp_j_per_bit_m2", "e_elec_j_per_bit", "round_duration_s"):
        assert getattr(back, name) == getattr(cfg, name)
    assert back.bs_position == cfg.bs_position
    assert back == cfg


def test_parse_comments_and_blanks():
    cfg = parse_config("node_count = 8  # small\n\n# full-line comment\nrng_seed = 5\n")
    assert cfg.node_count == 8
    assert cfg.rng_seed == 5


def test_parse_unknown_key_names_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("node_count = 8\nbogus_key = 1\n")
    assert "line 2" in str(exc.value)
    assert "bogus_key" in str(exc.value)


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("rng_seed = 1\nrng_seed = 2\n")
    assert "duplicate" in str(exc.value)


def test_parse_bad_value_names_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("node_count = twelve\n")
    msg = str(exc.value)
    assert "line 1" in msg and "node_count" in msg


def test_parse_collects_all_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("a = 1\nnode_count = x\njust text\n")
    assert len(exc.value.errors) == 3


def test_int_fields_reject_floats():
    with pytest.raises(ConfigError):
        parse_config("packet_size_bits = 4096.5\n")


@pytest.mark.parametrize(
    "field",
    [
        "node_count",
        "packet_size_bits",
        "sim_duration_s",
        "ch_exclusion_rounds",
        "hello_bits",
        "schedule_bits_per_cm",
        "heartbeat_bits",
        "dsdv_entry_bits",
        "rng_seed",
    ],
)
def test_validate_rejects_a_non_integer_in_an_int_field(field):
    value = getattr(small_config(), field)
    for bad in (float(value), value + 0.5, True):
        with pytest.raises(ConfigError) as exc:
            validate_config(small_config(**{field: bad}))
        assert f"{field} must be an integer" in exc.value.errors, bad
    # a numpy integer passes, and runs as a Python one would
    cfg = validate_config(small_config(**{field: np.int64(value)}))
    assert type(getattr(cfg, field)) is int
    assert cfg == validate_config(small_config())


def test_bs_position_forms():
    assert parse_config("bs_position = random\n").bs_position == "random"
    assert parse_config("bs_position = 10,20\n").bs_position == (10.0, 20.0)
    with pytest.raises(ConfigError):
        parse_config("bs_position = 10\n")


def test_validate_rejects_nonpositive_node_count():
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(node_count=0))
    assert "node_count must be positive" in str(exc.value)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("field_width_m", 0.0, "field_width_m must be positive"),
        ("mobility_pause_s", -1.0, "mobility_pause_s must not be negative"),
        ("p_ch_fraction", 1.0, "p_ch_fraction must be in (0, 1)"),
        ("mobility_speed_max_mps", 0.25, "mobility_speed_max_mps must be >= mobility_speed_min_mps"),
        ("round_duration_s", 1e-7, "round_duration_s too small to represent in microseconds"),
        ("bs_position", "corner", "bs_position must be 'random' or a concrete point"),
        # non-finite floats would crash a run, break strict invariants, or deliver nothing
        ("traffic_rate_pps", math.nan, "traffic_rate_pps must be finite"),
        ("traffic_rate_pps", math.inf, "traffic_rate_pps must be finite"),
        ("round_duration_s", math.nan, "round_duration_s must be finite"),
        ("round_duration_s", math.inf, "round_duration_s must be finite"),
        ("dsdv_update_interval_s", math.inf, "dsdv_update_interval_s must be finite"),
        ("initial_energy_j", math.nan, "initial_energy_j must be finite"),
        ("radio_range_rr_m", math.nan, "radio_range_rr_m must be finite"),
        ("filter_threshold", math.nan, "filter_threshold must be finite"),
        ("field_height_m", -math.inf, "field_height_m must be finite"),
    ],
)
def test_validate_rejection_names_its_field(field, value, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(small_config(**{field: value}))
    assert message in exc.value.errors


def test_validate_rejects_rc_above_rr():
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(cluster_radius_rc_m=2000.0, radio_range_rr_m=1500.0))
    assert "Rc" in str(exc.value)


def test_validate_rejects_both_phases_zero():
    with pytest.raises(ConfigError):
        validate_config(SimConfig(traffic_on_s=0.0, traffic_off_s=0.0))


def test_validate_allows_always_on_traffic():
    cfg = validate_config(SimConfig(traffic_on_s=10.0, traffic_off_s=0.0))
    assert cfg.traffic_off_s == 0.0


def test_validate_requires_whole_rounds():
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(sim_duration_s=121, round_duration_s=2.0))
    assert "multiple" in str(exc.value)


def test_validate_rejects_dsdv_interval_below_one_microsecond():
    # rounds to 0 us: every sensor would re-dump at t=0 until it died
    with pytest.raises(ConfigError) as exc:
        validate_config(small_config(dsdv_update_interval_s=1e-7, sim_duration_s=2))
    assert "dsdv_update_interval_s too small to represent in microseconds" in str(exc.value)
    # 0.5 us rounds half to even, to 0; 0.6 us rounds to 1 us and runs
    with pytest.raises(ConfigError):
        validate_config(small_config(dsdv_update_interval_s=5e-7))
    validate_config(small_config(dsdv_update_interval_s=6e-7))


def test_validate_seed_bounds():
    with pytest.raises(ConfigError):
        validate_config(SimConfig(rng_seed=2**64))
    validate_config(SimConfig(rng_seed=2**64 - 1))


def test_validate_bs_inside_field():
    with pytest.raises(ConfigError):
        validate_config(SimConfig(bs_position=(9000.0, 10.0)))


def test_random_bs_resolution_is_seeded_and_idempotent():
    a = validate_config(SimConfig(rng_seed=11))
    b = validate_config(SimConfig(rng_seed=11))
    c = validate_config(SimConfig(rng_seed=12))
    assert a.bs_position == b.bs_position
    assert a.bs_position != c.bs_position
    assert 0.0 <= a.bs_position[0] <= a.field_width_m
    assert 0.0 <= a.bs_position[1] <= a.field_height_m
    again = validate_config(a)
    assert again.bs_position == a.bs_position


def test_epoch_rounds_derivation():
    assert SimConfig(p_ch_fraction=0.05).epoch_rounds == 20
    assert SimConfig(p_ch_fraction=0.3).epoch_rounds == 4


def test_shipped_reference_config_loads(tmp_path):
    from importlib.resources import files

    path = files("mleachsim").joinpath("data/table1.cfg")
    cfg = validate_config(parse_config(path.read_text(encoding="utf-8")))
    assert cfg.node_count == 512
    assert cfg.sim_duration_s == 120
    assert cfg.packet_size_bits == 4096
    assert cfg.initial_energy_j == 172800.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "nope.cfg"))
