"""Domain types: mleach node state, the cluster-head graph, placement.

Node ids are 0..node_count-1. The base station is not a node: it is addressed
by the sentinel id ``node_count`` (one past the last node) so that position
arrays can carry it as their final row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class NodeState:
    """Per-node state of the clustering protocol, kept across rounds.

    Positions and residual energies live in arrays owned by the world and
    the ledger, and who heads or joins which cluster lasts one round, so
    it lives in that round's context. ``last_forwarded_reading`` starts
    at -inf so a node's first reading always clears the change filter.
    """

    id: int
    exclusion_remaining: int = 0
    last_forwarded_reading: float = float("-inf")
    pending: list[float] = field(default_factory=list)

    @property
    def in_g(self) -> bool:
        """Eligible for election: not excluded by a recent head term."""
        return self.exclusion_remaining == 0


class ChGraph:
    """Undirected graph over alive cluster heads plus the base station.

    Edges connect vertices within radio range; weights are distances in
    meters. Adjacency lists are kept sorted by neighbor id so traversal
    order is deterministic.
    """

    def __init__(self, vertices: list[int]) -> None:
        self.vertices = sorted(vertices)
        self.adj: dict[int, list[tuple[int, float]]] = {v: [] for v in self.vertices}

    def add_edge(self, u: int, v: int, w: float) -> None:
        if u == v:
            raise ValueError("self-loops not allowed")
        self.adj[u].append((v, w))
        self.adj[v].append((u, w))

    def sort_adjacency(self) -> None:
        for lst in self.adj.values():
            lst.sort()

    def edges(self) -> list[tuple[int, int, float]]:
        out = []
        for u in self.vertices:
            for v, w in self.adj[u]:
                if u < v:
                    out.append((u, v, w))
        return out


def place_nodes(
    n: int, width: float, height: float, stream: np.random.Generator
) -> np.ndarray:
    """Draw initial node positions uniformly and independently inside the field."""
    pos = stream.random((n, 2))
    pos[:, 0] *= width
    pos[:, 1] *= height
    return pos
