"""Route optimality cross-checked against exhaustive path enumeration.

Head graphs never exceed a handful of vertices, so every simple path can be
enumerated and the true minimum under (cost, hops, lexicographic path) found
by brute force. The router must agree on the full key, not just the cost.
"""

import math

import numpy as np

from mleachsim import kernels
from mleachsim.mleach import build_ch_graph, shortest_route


def enumerate_paths(graph, src, bs):
    """Every simple src->bs path as (cost, hops, path), costs summed in path order."""
    if src not in graph:
        return []
    out = []
    path = [src]
    visited = {src}

    def dfs(v, cost):
        if v == bs:
            out.append((cost, len(path) - 1, tuple(path)))
            return
        for n, w in graph[v]:
            if n not in visited:
                visited.add(n)
                path.append(n)
                dfs(n, cost + w)
                path.pop()
                visited.remove(n)

    dfs(src, 0.0)
    return out


def oracle_route(graph, src, bs):
    paths = enumerate_paths(graph, src, bs)
    return min(paths) if paths else None


def random_graph(rng):
    k = int(rng.integers(2, 9))
    pos = rng.uniform(0.0, 100.0, size=(k + 1, 2))
    reach = float(rng.uniform(25.0, 120.0))
    dist = kernels.pairwise_distances(pos)
    return build_ch_graph(dist.__getitem__, list(range(k)), k, reach), k


def check_graph(graph, k):
    checked = 0
    for src in range(k):
        want = oracle_route(graph, src, k)
        got = shortest_route(graph, src, k)
        if want is None:
            assert got is None
        else:
            cost, hops, path = want
            assert got == list(path)
            got_cost = 0.0
            for u, v in zip(got, got[1:]):
                got_cost += next(w for n, w in graph[u] if n == v)
            assert got_cost == cost
        checked += 1
    return checked


def test_router_matches_oracle_on_random_geometry():
    rng = np.random.default_rng(2024)
    compared = 0
    for _ in range(300):
        compared += check_graph(*random_graph(rng))
    assert compared > 1000


def test_router_matches_oracle_on_tie_heavy_grids():
    # regular polygons force many exactly equal edge weights
    for k in (4, 6, 8):
        angles = np.linspace(0.0, 2 * math.pi, k, endpoint=False)
        pos = np.column_stack([np.cos(angles), np.sin(angles)]) * 50.0 + 50.0
        pos = np.vstack([pos, [[50.0, 50.0]]])  # sink at the center
        for reach in (40.0, 60.0, 80.0, 120.0):
            dist = kernels.pairwise_distances(pos)
            graph = build_ch_graph(dist.__getitem__, list(range(k)), k, reach)
            check_graph(graph, k)


def test_router_matches_oracle_on_a_line():
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    dist = kernels.pairwise_distances(pos)
    for reach in (10.0, 15.0, 25.0, 100.0):
        graph = build_ch_graph(dist.__getitem__, [0, 1, 2], 3, reach)
        check_graph(graph, 3)


def test_disconnected_source_agrees_with_oracle():
    pos = np.array([[0.0, 0.0], [500.0, 0.0], [510.0, 0.0]])
    dist = kernels.pairwise_distances(pos)
    graph = build_ch_graph(dist.__getitem__, [0, 1], 2, 50.0)
    assert oracle_route(graph, 0, 2) is None
    assert shortest_route(graph, 0, 2) is None
    assert shortest_route(graph, 1, 2) == [1, 2]
