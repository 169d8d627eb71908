"""Every distance a run reads, against the scalar formula at that instant.

World fills distance rows on demand into one held buffer and, once a
mobility step has filled a share of the node count in rows, fills the rest
in one go through ``kernels.pairwise_distances``. Whichever path filled it,
each row a protocol reads through ``World.dist_row``, and each pair through
``World.distance``, must equal ``math.sqrt(dx*dx + dy*dy)`` over the
positions as they stand when it is read: after every mobility step, for
dead sensors, which stop moving, for paused nodes and for the sink row.

The cases put each protocol on both sides of the switch: DSDV dumps from
every node each second and always crosses it; mleach reads about one row
per head and crosses it only when heads are many for the node count.
"""

import math

import pytest

from mleachsim import kernels
from mleachsim.simulation import PROTOCOLS, World

from conftest import small_config


def scalar_distance(pos, u, v):
    dx = pos[u][0] - pos[v][0]
    dy = pos[u][1] - pos[v][1]
    return math.sqrt(dx * dx + dy * dy)


def checked_run(cfg, protocol, monkeypatch):
    """Run with every distance read checked; what the reads and fills covered."""
    world = World(cfg, protocol, strict=True)
    seen = {"rows": 0, "pairs": 0, "sink": 0, "dead": 0, "paused": 0, "full_fills": 0}
    real_row, real_distance = world.dist_row, world.distance
    real_fill = kernels.pairwise_distances

    def note(ids):
        """Count the reads that touched the sink, a dead sensor or a paused one."""
        sensors = [i for i in ids if i != world.bs_id]
        seen["sink"] += len(sensors) < len(ids)
        seen["dead"] += not world.ledger.alive[sensors].all()
        seen["paused"] += (world.mobility.pause[sensors] > 0).any()

    def dist_row(i):
        row = real_row(i).tolist()
        pos = world.positions.tolist()
        assert row == [scalar_distance(pos, i, j) for j in range(len(pos))], f"row {i}"
        seen["rows"] += 1
        note(range(len(pos)))  # a row holds every node
        return real_row(i)

    def distance(u, v):
        d = real_distance(u, v)
        assert d == scalar_distance(world.positions.tolist(), u, v), f"pair {u}, {v}"
        seen["pairs"] += 1
        note([u, v])
        return d

    def full_fill(*args):
        seen["full_fills"] += 1
        return real_fill(*args)

    world.dist_row, world.distance = dist_row, distance
    monkeypatch.setattr(kernels, "pairwise_distances", full_fill)
    world.run(PROTOCOLS[protocol](world))
    seen["deaths"] = int((~world.ledger.alive).sum())
    return seen


@pytest.mark.parametrize(
    "protocol, node_count, p_ch, budget_j, crosses",
    [
        # many heads on few nodes: more rows a step than the share
        ("mleach", 24, 0.4, 1.0, True),
        ("mleach", 200, 0.05, 3.0, False),
        ("dsdv", 24, 0.05, 1.0, True),
        ("dsdv", 200, 0.05, 8.0, True),
    ],
)
def test_every_distance_read_matches_the_scalar_formula(
    protocol, node_count, p_ch, budget_j, crosses, monkeypatch
):
    cfg = small_config(
        node_count=node_count,
        sim_duration_s=6,
        p_ch_fraction=p_ch,
        # some sensors die within the horizon, and some live to its end
        initial_energy_j=budget_j,
        # fast legs in a small field: nodes arrive and pause often
        mobility_speed_min_mps=150.0,
        mobility_speed_max_mps=400.0,
        mobility_pause_s=2.0,
        bs_mac_capacity_bps=2e5,
    )
    seen = checked_run(cfg, protocol, monkeypatch)
    assert seen["rows"] > 0 and seen["pairs"] > 0
    assert seen["sink"] > 0 and seen["dead"] > 0 and seen["paused"] > 0
    assert 0 < seen["deaths"] < node_count
    assert (seen["full_fills"] > 0) == crosses
