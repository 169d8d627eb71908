import math

import numpy as np
import pytest

from mleachsim.engine import RandomStreams
from mleachsim.mobility import MobilityField, WaypointState, step_waypoint


def fixed_stream():
    return np.random.default_rng(11)


def test_step_moves_along_segment():
    wp = WaypointState(target=(10.0, 0.0), speed=4.0)
    new = step_waypoint((0.0, 0.0), wp, fixed_stream(), 100, 100, 1, 5, 0.0)
    assert new == (4.0, 0.0)
    assert wp.target == (10.0, 0.0)  # leg not finished, target untouched


def test_overshoot_clamps_to_target_and_redraws():
    wp = WaypointState(target=(3.0, 4.0), speed=50.0)
    new = step_waypoint((0.0, 0.0), wp, fixed_stream(), 100, 100, 1, 5, 2.0)
    assert new == (3.0, 4.0)
    assert wp.pause_remaining_s == 2.0
    assert wp.target != (3.0, 4.0)
    assert 1.0 <= wp.speed <= 5.0


def test_pause_holds_position_then_resumes():
    wp = WaypointState(target=(10.0, 0.0), speed=2.0, pause_remaining_s=1.5)
    stream = fixed_stream()
    p1 = step_waypoint((5.0, 5.0), wp, stream, 100, 100, 1, 5, 0.0)
    assert p1 == (5.0, 5.0)
    assert wp.pause_remaining_s == 0.5
    p2 = step_waypoint(p1, wp, stream, 100, 100, 1, 5, 0.0)
    assert p2 == (5.0, 5.0)
    assert wp.pause_remaining_s == 0.0
    p3 = step_waypoint(p2, wp, stream, 100, 100, 1, 5, 0.0)
    assert p3 != (5.0, 5.0)


def make_field(n=32, width=400.0, height=300.0, seed=7, pause=1.0):
    stream = RandomStreams(seed).get("mobility")
    pos = np.column_stack(
        [stream.random(n) * width, stream.random(n) * height]
    )
    return MobilityField(pos, stream, width, height, 1.0, 10.0, pause)


def test_positions_stay_in_bounds():
    field = make_field()
    alive = np.ones(32, dtype=bool)
    for _ in range(500):
        field.step(alive)
        assert (field.positions[:, 0] >= 0).all()
        assert (field.positions[:, 0] <= field.width).all()
        assert (field.positions[:, 1] >= 0).all()
        assert (field.positions[:, 1] <= field.height).all()


def test_step_never_exceeds_speed():
    field = make_field(pause=0.0)
    alive = np.ones(32, dtype=bool)
    for _ in range(200):
        before = field.positions.copy()
        speeds = np.array([wp.speed for wp in field.waypoints])
        field.step(alive)
        moved = np.hypot(*(field.positions - before).T)
        assert (moved <= speeds + 1e-9).all()


def test_dead_nodes_stay_put():
    field = make_field()
    alive = np.ones(32, dtype=bool)
    alive[::2] = False
    frozen = field.positions[::2].copy()
    for _ in range(50):
        field.step(alive)
    assert np.array_equal(field.positions[::2], frozen)


def test_same_seed_same_trajectories():
    a, b = make_field(seed=9), make_field(seed=9)
    alive = np.ones(32, dtype=bool)
    for _ in range(100):
        a.step(alive)
        b.step(alive)
    assert np.array_equal(a.positions, b.positions)


def test_different_seed_diverges():
    a, b = make_field(seed=1), make_field(seed=2)
    alive = np.ones(32, dtype=bool)
    a.step(alive)
    b.step(alive)
    assert not np.array_equal(a.positions, b.positions)


def test_long_run_mean_displacement_reasonable():
    # with speeds in [1, 10] and short pauses the fleet should keep moving
    field = make_field(n=64, width=1000.0, height=1000.0, pause=1.0)
    alive = np.ones(64, dtype=bool)
    total = 0.0
    for _ in range(300):
        before = field.positions.copy()
        field.step(alive)
        total += float(np.hypot(*(field.positions - before).T).mean())
    mean_per_step = total / 300
    assert 0.5 < mean_per_step < 10.0


def test_zero_pause_redraw_keeps_walking():
    wp = WaypointState(target=(1.0, 0.0), speed=5.0)
    stream = fixed_stream()
    p = step_waypoint((0.0, 0.0), wp, stream, 50, 50, 2, 2, 0.0)
    assert p == (1.0, 0.0)
    assert wp.pause_remaining_s == 0.0
    p2 = step_waypoint(p, wp, stream, 50, 50, 2, 2, 0.0)
    assert 0.0 < math.dist(p, p2) <= 2.0 + 1e-12
