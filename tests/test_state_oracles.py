"""Array-held node state cross-checked against scalar, node-by-node models.

Mobility and the head election step every node at once on arrays, and
traffic draws all of a node's readings for one second in one call. Each is
checked here, bit for bit, against a reference that walks the nodes one at
a time in id order and draws one scalar at a time from its own copy of the
same PCG64 stream:

* random waypoint (Broch et al., MobiCom 1998): a live node with a pause
  left counts it down by one second and stays put; otherwise it walks
  toward its target at its speed, and if the speed covers the remaining
  distance it lands on the target, starts the pause and draws its next
  leg as (x, y, speed);
* LEACH election (Heinzelman et al., HICSS 2000) with an exclusion window:
  an epoch boundary clears the window of every alive node, each eligible
  node draws once against the round's threshold, a round with no winner
  promotes the smallest eligible id (or the smallest alive id if none is
  eligible), heads get the full window and the others' windows decay;
* On-Off readings: a node in its On phase adds the rate to its carried
  remainder, emits the whole part as readings and keeps the fraction; each
  reading is the previous one plus one draw mapped onto [-1, 1].

Both models must also leave their streams in the same state, so the array
code draws exactly as many numbers, in the same order.
"""

import math

import numpy as np
import pytest

from mleachsim.mleach import ch_threshold, run_election
from mleachsim.mobility import MobilityField
from mleachsim.traffic import OnOffTraffic


# -- random waypoint -----------------------------------------------------------


class ScalarWaypoints:
    """One [target, speed, pause] record per node, stepped one node at a time."""

    def __init__(self, positions, stream, width, height, speed_min, speed_max, pause_s):
        self.positions = [tuple(p) for p in positions.tolist()]
        self.stream = stream
        self.width, self.height = width, height
        self.speed_min, self.speed_max = speed_min, speed_max
        self.pause_s = pause_s
        self.legs = [[*self.draw_leg(), 0.0] for _ in self.positions]

    def draw_leg(self):
        tx = self.stream.random() * self.width
        ty = self.stream.random() * self.height
        speed = self.speed_min + self.stream.random() * (self.speed_max - self.speed_min)
        return (tx, ty), speed

    def step(self, alive):
        for i, leg in enumerate(self.legs):
            if not alive[i]:
                continue
            target, speed, pause = leg
            if pause > 0.0:
                leg[2] = max(0.0, pause - 1.0)
                continue
            x, y = self.positions[i]
            dx = target[0] - x
            dy = target[1] - y
            remaining = math.sqrt(dx * dx + dy * dy)
            if speed >= remaining:
                self.positions[i] = target
                leg[0], leg[1] = self.draw_leg()
                leg[2] = self.pause_s
                continue
            scale = speed / remaining
            self.positions[i] = (x + dx * scale, y + dy * scale)


def assert_same_waypoints(field, ref):
    assert np.array_equal(field.positions, np.array(ref.positions))
    assert np.array_equal(field.target, np.array([leg[0] for leg in ref.legs]))
    assert np.array_equal(field.speed, np.array([leg[1] for leg in ref.legs]))
    assert np.array_equal(field.pause, np.array([leg[2] for leg in ref.legs]))
    assert field.stream.bit_generator.state == ref.stream.bit_generator.state


MOBILITY_CASES = {
    # name: (width, height, speed_min, speed_max, pause_s)
    "pauses": (400.0, 300.0, 1.0, 10.0, 2.5),
    "fast-arrivals": (60.0, 40.0, 20.0, 80.0, 1.0),
    "no-pause": (100.0, 100.0, 5.0, 30.0, 0.0),
    "fixed-speed": (200.0, 200.0, 7.0, 7.0, 0.5),
    "standing-still": (200.0, 200.0, 0.0, 0.0, 1.0),
}


@pytest.mark.parametrize("case", sorted(MOBILITY_CASES))
def test_mobility_matches_scalar_walk(case):
    width, height, smin, smax, pause_s = MOBILITY_CASES[case]
    n, steps = 40, 120
    rng = np.random.default_rng(5)
    start = rng.random((n, 2)) * (width, height)
    field = MobilityField(
        start.copy(), np.random.default_rng(2024), width, height, smin, smax, pause_s
    )
    ref = ScalarWaypoints(
        start, np.random.default_rng(2024), width, height, smin, smax, pause_s
    )
    assert_same_waypoints(field, ref)
    # a few nodes start on their target, and one is dead from the outset
    for i in (3, 17, 29):
        field.positions[i] = field.target[i]
        ref.positions[i] = ref.legs[i][0]
    alive = np.ones(n, dtype=bool)
    alive[11] = False
    arrivals = 0
    for _ in range(steps):
        alive &= rng.random(n) > 0.01  # deaths are final
        before = ref.stream.bit_generator.state["state"]["state"]
        field.step(alive)
        ref.step(alive)
        assert_same_waypoints(field, ref)
        arrivals += before != ref.stream.bit_generator.state["state"]["state"]
    assert arrivals > 0  # some step redrew a leg
    assert np.array_equal(field.positions[11], start[11])


# -- head election ---------------------------------------------------------------


def scalar_election(exclusion, alive_ids, r, p, exclusion_rounds, epoch_rounds, stream):
    """Node by node, one draw per eligible node; returns (heads, fallback used)."""
    if r % epoch_rounds == 0:
        for i in alive_ids:
            exclusion[i] = 0
    elected = []
    for i in alive_ids:
        if exclusion[i] == 0 and stream.random() < ch_threshold(p, r):
            elected.append(i)
    fallback = not elected
    if fallback:
        pool = [i for i in alive_ids if exclusion[i] == 0] or list(alive_ids)
        elected.append(min(pool))
    for i in alive_ids:
        if i in elected:
            exclusion[i] = exclusion_rounds
        elif exclusion[i] > 0:
            exclusion[i] -= 1
    return elected, fallback


ELECTION_CASES = {
    # name: (p, exclusion_rounds, epoch_rounds); epoch_rounds is ceil(1/p) as
    # configured, except where it is stretched so the window outlasts the ramp
    "table1": (0.05, 19, 20),
    "no-exclusion": (0.2, 0, 5),
    "short-epochs": (0.3, 2, 4),
    "nobody-eligible": (0.5, 6, 9),
}


@pytest.mark.parametrize("case", sorted(ELECTION_CASES))
def test_election_matches_scalar_rounds(case):
    p, exclusion_rounds, epoch_rounds = ELECTION_CASES[case]
    n, rounds = 30, 200
    rng = np.random.default_rng(7)
    exclusion = np.zeros(n, dtype=np.int64)
    ref_exclusion = [0] * n
    stream, ref_stream = np.random.default_rng(99), np.random.default_rng(99)
    alive = np.ones(n, dtype=bool)
    fallbacks = none_eligible = 0
    for r in range(rounds):
        if r > rounds // 2:
            alive &= rng.random(n) > 0.02  # deaths are final
            if not alive.any():
                break
        alive_ids = np.flatnonzero(alive)
        ref_alive = alive_ids.tolist()
        if r % epoch_rounds and all(ref_exclusion[i] for i in ref_alive):
            none_eligible += 1
        heads = run_election(exclusion, alive_ids, r, p, exclusion_rounds, epoch_rounds, stream)
        want, fallback = scalar_election(
            ref_exclusion, ref_alive, r, p, exclusion_rounds, epoch_rounds, ref_stream
        )
        fallbacks += fallback
        assert heads.tolist() == want, f"round {r}"
        assert exclusion.tolist() == ref_exclusion, f"round {r}"
        assert stream.bit_generator.state == ref_stream.bit_generator.state
    assert r >= 2 * epoch_rounds  # the run crossed epoch boundaries
    if case == "nobody-eligible":
        assert none_eligible > 0 and fallbacks > 0


# -- On-Off readings -------------------------------------------------------------


def is_on(traffic, i, t_s):
    return (t_s + traffic.phase_offset[i]) % traffic.cycle_s < traffic.on_s


def scalar_generate(traffic, i, t_s):
    """One draw per reading, on the numpy scalars of the traffic's arrays."""
    if not is_on(traffic, i, t_s):
        return []
    traffic.acc[i] += traffic.rate_pps
    n = math.floor(traffic.acc[i])
    traffic.acc[i] -= n
    gen = traffic._gen[i]
    out = []
    for _ in range(n):
        traffic.reading[i] += gen.random() * 2.0 - 1.0
        out.append(float(traffic.reading[i]))
    return out


TRAFFIC_CASES = {
    # name: (on_s, off_s, rate_pps)
    "table1-like": (10.0, 5.0, 7.3),
    "slow-fractional": (3.0, 2.0, 0.4),
    "always-on": (60.0, 0.0, 2.5),
    "short-cycles": (0.5, 1.5, 1.7),
    "whole-rate": (4.0, 4.0, 3.0),
}


@pytest.mark.parametrize("case", sorted(TRAFFIC_CASES))
def test_traffic_matches_draw_per_reading(case):
    on_s, off_s, rate = TRAFFIC_CASES[case]
    n, seconds = 12, 90
    traffic = OnOffTraffic(n, on_s, off_s, rate, seed=41)
    ref = OnOffTraffic(n, on_s, off_s, rate, seed=41)
    silent = off = 0
    for t in range(seconds):
        ids, counts = traffic.generate(np.arange(n), t)
        assert ids.tolist() == sorted(ids.tolist()) and (counts > 0).all()
        emitted = dict(zip(ids.tolist(), counts.tolist()))
        for i in range(n):
            on = is_on(ref, i, t)
            want = scalar_generate(ref, i, t)
            # the values are drawn at once here; the mleach tests draw them later
            got = traffic.values(i, emitted.get(i, 0))
            assert got == want, f"node {i} at {t} s"
            assert all(type(v) is float for v in got)
            off += not on
            silent += on and not want
        assert np.array_equal(traffic.acc, ref.acc)
        assert np.array_equal(traffic.reading, ref.reading)
        for g, h in zip(traffic._gen, ref._gen):
            assert g.bit_generator.state == h.bit_generator.state
    assert (off > 0) == (off_s > 0)
    assert (silent > 0) == (rate < 1.0)
