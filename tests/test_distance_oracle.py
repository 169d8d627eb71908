"""Every distance a run reads, against the scalar formula at that instant.

World holds distances in one buffer and has two reads of it:
``World.dist_row`` fills one row on demand through ``kernels.distance_row``,
and ``World.distances`` fills the whole buffer, at most once per mobility
step, through ``kernels.pairwise_distances``. Each row a protocol reads, and
the whole matrix at its first read after each mobility step, must equal
``math.sqrt(dx*dx + dy*dy)`` over the positions as they stand when it is
read: after every mobility step, for dead sensors, which stop moving, for
paused nodes and for the sink row. A later read of the matrix in the same
step must see the positions unchanged.

Each fill is counted too: within a step no row is filled twice, and none
after the whole buffer. mleach reads rows only, one per head and the
sink's, so it never fills the whole buffer, even with many heads for the
node count; DSDV's walk reads the matrix and fills it.
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
    world = World(cfg, protocol)
    seen = {"rows": 0, "matrices": 0, "sink": 0, "dead": 0, "paused": 0, "full_fills": 0}
    real_row, real_matrix = world.dist_row, world.distances
    real_invalidate = world.invalidate_distances
    real_row_fill, real_fill = kernels.distance_row, kernels.pairwise_distances
    # this step's row fills, whether the whole buffer is filled, and the
    # positions its matrix was checked at (None until its first read)
    step = {"rows": set(), "full": False, "checked": None}

    def note(sink_row):
        """Count the reads of the sink's row, and those that touched a dead
        sensor or a paused one: both reads cover every node."""
        sensors = slice(0, world.bs_id)
        seen["sink"] += sink_row
        seen["dead"] += not world.ledger.alive[sensors].all()
        seen["paused"] += (world.mobility.pause[sensors] > 0).any()

    def dist_row(i):
        row = real_row(i).tolist()
        pos = world.positions.tolist()
        assert row == [scalar_distance(pos, i, j) for j in range(len(pos))], f"row {i}"
        seen["rows"] += 1
        note(i == world.bs_id)
        return real_row(i)

    def distances():
        matrix = real_matrix()
        pos = world.positions.tolist()
        if step["checked"] is None:
            for i, row in enumerate(matrix.tolist()):
                assert row == [scalar_distance(pos, i, j) for j in range(len(pos))], f"row {i}"
            step["checked"] = pos
        else:
            assert pos == step["checked"], "positions moved within a step"
        seen["matrices"] += 1
        note(True)
        return matrix

    def invalidate_distances():
        real_invalidate()
        step.update(rows=set(), full=False, checked=None)

    def row_fill(pos, i, out):
        assert not step["full"], f"row {i} filled after the whole buffer"
        assert i not in step["rows"], f"row {i} filled twice in one step"
        step["rows"].add(i)
        return real_row_fill(pos, i, out)

    def full_fill(*args):
        assert not step["full"], "whole buffer filled twice in one step"
        step["full"] = True
        seen["full_fills"] += 1
        return real_fill(*args)

    world.dist_row, world.distances = dist_row, distances
    world.invalidate_distances = invalidate_distances
    monkeypatch.setattr(kernels, "distance_row", row_fill)
    monkeypatch.setattr(kernels, "pairwise_distances", full_fill)
    world.run(PROTOCOLS[protocol](world))
    seen["deaths"] = int((~world.ledger.alive).sum())
    return seen


@pytest.mark.parametrize(
    "protocol, node_count, p_ch, budget_j, fills",
    [
        # many heads on few nodes: a row for a large share of them each step
        ("mleach", 24, 0.4, 1.0, False),
        ("mleach", 200, 0.05, 3.0, False),
        ("dsdv", 24, 0.05, 1.0, True),
        ("dsdv", 200, 0.05, 8.0, True),
    ],
)
def test_every_distance_read_matches_the_scalar_formula(
    protocol, node_count, p_ch, budget_j, fills, monkeypatch
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
    assert seen["rows"] > 0
    assert seen["sink"] > 0 and seen["dead"] > 0 and seen["paused"] > 0
    assert 0 < seen["deaths"] < node_count
    assert (seen["matrices"] > 0) == fills
    assert (seen["full_fills"] > 0) == fills
