import math

import numpy as np

from mleachsim.engine import RandomStreams
from mleachsim.mobility import MobilityField

ALIVE = np.ones(1, dtype=bool)


def one_node(pos, target, speed, pause_left=0.0, size=100, speeds=(1, 5), pause_s=0.0):
    """A one-node field on a fixed stream, its current leg set by hand."""
    stream = np.random.default_rng(11)
    field = MobilityField(np.array([pos], dtype=float), stream, size, size, *speeds, pause_s)
    field.target[0] = target
    field.speed[0] = speed
    field.pause[0] = pause_left
    return field


def at(field):
    return tuple(field.positions[0].tolist())


def test_step_moves_along_segment():
    field = one_node((0.0, 0.0), (10.0, 0.0), 4.0)
    field.step(ALIVE)
    assert at(field) == (4.0, 0.0)
    assert tuple(field.target[0]) == (10.0, 0.0)  # leg not finished, target untouched


def test_overshoot_clamps_to_target_and_redraws():
    field = one_node((0.0, 0.0), (3.0, 4.0), 50.0, pause_s=2.0)
    field.step(ALIVE)
    assert at(field) == (3.0, 4.0)
    assert field.pause[0] == 2.0
    assert tuple(field.target[0]) != (3.0, 4.0)
    assert 1.0 <= field.speed[0] <= 5.0


def test_pause_holds_position_then_resumes():
    field = one_node((5.0, 5.0), (10.0, 0.0), 2.0, pause_left=1.5)
    field.step(ALIVE)
    assert at(field) == (5.0, 5.0)
    assert field.pause[0] == 0.5
    field.step(ALIVE)
    assert at(field) == (5.0, 5.0)
    assert field.pause[0] == 0.0
    field.step(ALIVE)
    assert at(field) != (5.0, 5.0)


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
        speeds = field.speed.copy()
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
    field = one_node((0.0, 0.0), (1.0, 0.0), 5.0, size=50, speeds=(2, 2))
    field.step(ALIVE)
    p = at(field)
    assert p == (1.0, 0.0)
    assert field.pause[0] == 0.0
    field.step(ALIVE)
    p2 = at(field)
    assert 0.0 < math.dist(p, p2) <= 2.0 + 1e-12
