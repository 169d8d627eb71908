"""Scenario configuration: parsing, validation, serialization.

Config files are flat UTF-8 ``key = value`` lines. ``#`` starts a comment,
blank lines are ignored, and any key not defined below is an error. Every
key maps 1:1 onto a ``SimConfig`` field; omitted keys keep their defaults.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    """Raised with every violated constraint, one message per line."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = errors
        super().__init__("\n".join(errors))


@dataclass
class SimConfig:
    """Full scenario description.

    Defaults encode the reference flood scenario: a 7500 x 7500 m field,
    512 nodes, 512-byte data packets, a 172800 J per-node budget, and a
    120 s horizon. ``bs_position`` is either a concrete ``(x, y)`` or the
    string ``random``, resolved during validation from the bs-placement
    stream.

    ``bs_mac_capacity_bps`` is an optional congestion extension (0 turns it
    off): when set, data frames arriving at the base station contend for a
    shared receive channel and are lost with a utilization-dependent
    probability (see ``simulation.BsChannel``). The radio model itself stays
    lossless within range.
    """

    field_width_m: float = 7500.0
    field_height_m: float = 7500.0
    node_count: int = 512
    bs_position: str | tuple[float, float] = "random"
    packet_size_bits: int = 4096
    initial_energy_j: float = 172800.0
    sim_duration_s: int = 120
    round_duration_s: float = 2.0
    p_ch_fraction: float = 0.05
    cluster_radius_rc_m: float = 500.0
    radio_range_rr_m: float = 1500.0
    e_elec_j_per_bit: float = 50e-9
    eps_amp_j_per_bit_m2: float = 120e-12
    filter_threshold: float = 0.1
    ch_exclusion_rounds: int = 19
    mobility_speed_min_mps: float = 0.5
    mobility_speed_max_mps: float = 2.0
    mobility_pause_s: float = 5.0
    traffic_on_s: float = 10.0
    traffic_off_s: float = 10.0
    traffic_rate_pps: float = 2.0
    hello_bits: int = 128
    schedule_bits_per_cm: int = 64
    heartbeat_bits: int = 64
    dsdv_entry_bits: int = 64
    dsdv_update_interval_s: float = 1.0
    bs_mac_capacity_bps: float = 0.0
    bs_mac_collapse_k: float = 4.0
    rng_seed: int = 1

    # -- derived quantities ------------------------------------------------

    @property
    def round_us(self) -> int:
        return round(self.round_duration_s * 1_000_000)

    @property
    def dsdv_interval_us(self) -> int:
        return round(self.dsdv_update_interval_s * 1_000_000)

    @property
    def sim_us(self) -> int:
        return self.sim_duration_s * 1_000_000

    @property
    def epoch_rounds(self) -> int:
        return math.ceil(1.0 / self.p_ch_fraction)

    @property
    def bs_id(self) -> int:
        return self.node_count


def _parse_bs_position(text: str) -> str | tuple[float, float]:
    if text == "random":
        return "random"
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected 'random' or 'x,y'")
    return (float(parts[0]), float(parts[1]))


def parse_config(text: str) -> SimConfig:
    """Parse config text into an unvalidated SimConfig."""
    known = {f.name for f in fields(SimConfig)}
    # annotations are strings here (from __future__ import annotations)
    ints = {f.name for f in fields(SimConfig) if f.type == "int"}
    values: dict[str, object] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            if key == "bs_position":
                values[key] = _parse_bs_position(value)
            elif key in ints:
                values[key] = int(value)
            else:
                values[key] = float(value)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    return SimConfig(**values)


def load_config(path: str) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def validate_config(cfg: SimConfig) -> SimConfig:
    """Check every invariant; resolve a random BS position to a point.

    Returns a new, fully concrete SimConfig. Validation is idempotent: a
    config that already carries a concrete BS position passes through
    unchanged.
    """
    e: list[str] = []

    def positive(name: str) -> None:
        if getattr(cfg, name) <= 0:
            e.append(f"{name} must be positive")

    def non_negative(name: str) -> None:
        if getattr(cfg, name) < 0:
            e.append(f"{name} must not be negative")

    # NaN passes every comparison below, and NaN or inf breaks the rounding
    # to microseconds, so non-finite floats are rejected before either
    finite = {
        f.name: math.isfinite(getattr(cfg, f.name)) for f in fields(SimConfig) if f.type == "float"
    }
    e.extend(f"{name} must be finite" for name, ok in finite.items() if not ok)
    # a float (even 4.0) or a bool runs with fractional counts or fails in World
    ints = {f.name: getattr(cfg, f.name) for f in fields(SimConfig) if f.type == "int"}
    e.extend(
        f"{name} must be an integer"
        for name, v in ints.items()
        if isinstance(v, bool) or not isinstance(v, numbers.Integral)
    )
    if cfg.node_count <= 0:
        e.append("node_count must be positive")
    for name in (
        "field_width_m",
        "field_height_m",
        "packet_size_bits",
        "initial_energy_j",
        "sim_duration_s",
        "round_duration_s",
        "cluster_radius_rc_m",
        "radio_range_rr_m",
        "e_elec_j_per_bit",
        "eps_amp_j_per_bit_m2",
        "traffic_rate_pps",
        "hello_bits",
        "schedule_bits_per_cm",
        "heartbeat_bits",
        "dsdv_entry_bits",
        "dsdv_update_interval_s",
        "bs_mac_collapse_k",
    ):
        positive(name)
    for name in (
        "filter_threshold",
        "ch_exclusion_rounds",
        "mobility_speed_min_mps",
        "mobility_pause_s",
        "traffic_on_s",
        "traffic_off_s",
        "bs_mac_capacity_bps",
    ):
        non_negative(name)

    if not 0.0 < cfg.p_ch_fraction < 1.0:
        e.append("p_ch_fraction must be in (0, 1)")
    if cfg.cluster_radius_rc_m > cfg.radio_range_rr_m:
        e.append("Rc must not exceed Rr (cluster_radius_rc_m > radio_range_rr_m)")
    if cfg.mobility_speed_max_mps < cfg.mobility_speed_min_mps:
        e.append("mobility_speed_max_mps must be >= mobility_speed_min_mps")
    if cfg.traffic_on_s == 0 and cfg.traffic_off_s == 0:
        e.append("traffic_on_s and traffic_off_s cannot both be zero")
    if cfg.round_duration_s > 0 and finite["round_duration_s"]:
        if cfg.round_us <= 0:
            e.append("round_duration_s too small to represent in microseconds")
        elif cfg.sim_duration_s > 0 and cfg.sim_us % cfg.round_us != 0:
            e.append("sim_duration_s must be an integer multiple of round_duration_s")
    if (
        cfg.dsdv_update_interval_s > 0
        and finite["dsdv_update_interval_s"]
        and cfg.dsdv_interval_us <= 0
    ):
        e.append("dsdv_update_interval_s too small to represent in microseconds")
    if not 0 <= cfg.rng_seed < 2**64:
        e.append("rng_seed must fit in 64 bits")

    bs = cfg.bs_position
    if isinstance(bs, str):
        if bs != "random":
            e.append("bs_position must be 'random' or a concrete point")
    else:
        x, y = bs
        if not (0.0 <= x <= cfg.field_width_m and 0.0 <= y <= cfg.field_height_m):
            e.append("bs_position must lie inside the field")

    if e:
        raise ConfigError(e)
    # as Python ints, numpy ones run as the same values parsed from a file do
    cfg = replace(cfg, **{name: int(v) for name, v in ints.items()})

    if isinstance(cfg.bs_position, str):
        from .engine import RandomStreams

        stream = RandomStreams(cfg.rng_seed).get("bs-placement")
        point = (
            float(stream.random() * cfg.field_width_m),
            float(stream.random() * cfg.field_height_m),
        )
        return replace(cfg, bs_position=point)
    return cfg


def serialize_config(cfg: SimConfig) -> str:
    """Render a config as parseable text. repr keeps floats exact."""
    lines = []
    for f in fields(SimConfig):
        value = getattr(cfg, f.name)
        if f.name == "bs_position":
            value = value if isinstance(value, str) else f"{value[0]!r},{value[1]!r}"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
