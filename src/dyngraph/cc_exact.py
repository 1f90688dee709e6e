"""Deterministic dynamic counter of small connected components.

Maintains the exact number of components of size at most k = ceil(1/eps)
under edge updates with at most two size-capped BFS calls per update.
Since at most nis(G)/k components can be larger than k, the count also
approximates the full component count within eps * nis(G) additively.
"""

from __future__ import annotations

import math

from .graph_core import DynamicGraph
from .oracles import fast_nscc


class SmallCcCounter:
    """Exact count of components of size <= k, attached to a DynamicGraph.

    The counter owns the update path, so callers must not mutate the graph
    separately.  Insert and delete share one rule: how many small components
    adding (u, v) to the graph without it removes.  An insert subtracts that
    before adding the edge, a delete adds it back after removing the edge.
    ``bfs_calls`` counts every capped BFS run since construction.
    """

    def __init__(self, graph: DynamicGraph, eps: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        self.graph = graph
        self.k = math.ceil(1 / eps)
        self.c_bar = fast_nscc(*graph.edge_view(), graph.n, self.k)
        self.bfs_calls = 0

    def estimate(self) -> int:
        return self.c_bar

    def on_insert(self, u: int, v: int) -> bool:
        """Insert (u, v) and update the count; a present edge is a no-op returning False."""
        if self.graph.has_edge(u, v):
            return False
        self.c_bar -= self._joined(u, v)
        self.graph.insert_edge(u, v)
        return True

    def on_delete(self, u: int, v: int) -> bool:
        """Delete (u, v) and update the count; an absent edge is a no-op returning False."""
        if not self.graph.delete_edge(u, v):
            return False
        self.c_bar += self._joined(u, v)
        return True

    def _joined(self, u: int, v: int) -> int:
        """Small components (0, 1 or 2) that adding (u, v) removes; the graph lacks it."""
        g = self.graph
        k = self.k
        s_u, _ = g.bfs_limited(u, k + 1)
        if g.bfs_reached(v):
            self.bfs_calls += 1
            return 0  # one component, small or large: the edge closes a cycle
        s_v, _ = g.bfs_limited(v, k + 1)
        self.bfs_calls += 2
        if s_u + s_v <= k:
            return 1  # two small components merge into a small one
        return (s_u <= k) + (s_v <= k)  # the joined one is large: small ones go
