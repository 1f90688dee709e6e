"""Deterministic dynamic counter of small connected components.

Maintains the exact number of components of size at most k = ceil(1/eps)
under edge updates with at most three size-capped BFS calls per update.
Since at most nis(G)/k components can be larger than k, the count also
approximates the full component count within eps * nis(G) additively.
"""

from __future__ import annotations

import math

from .graph_core import DynamicGraph
from .oracles import fast_nscc


class SmallCcCounter:
    """Exact count of components of size <= k, attached to a DynamicGraph.

    The counter owns the update path: ``on_insert``/``on_delete`` run the
    before-BFS calls, apply the edge to the graph, then run the after-BFS
    calls, so callers must not mutate the graph separately.  ``bfs_calls``
    counts every capped BFS run since construction.
    """

    def __init__(self, graph: DynamicGraph, eps: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        self.graph = graph
        self.eps = eps
        self.k = math.ceil(1 / eps)
        self.c_bar = fast_nscc(*graph.edge_view(), graph.n, self.k)
        self.bfs_calls = 0

    def estimate(self) -> int:
        return self.c_bar

    def on_insert(self, u: int, v: int) -> bool:
        """Insert (u, v) into the graph and update the count.

        No-op (returns False) if the edge is already present.
        """
        g = self.graph
        if g.has_edge(u, v):
            return False
        k = self.k
        cap = k + 1
        s_u0, _ = g.bfs_limited(u, cap)
        s_v0, _ = g.bfs_limited(v, cap)
        g.insert_edge(u, v)
        calls = 2
        u_small = s_u0 <= k
        v_small = s_v0 <= k
        if u_small and v_small:
            s_u1, _ = g.bfs_limited(u, cap)
            calls = 3
            if s_u1 > k:
                self.c_bar -= 2  # two small components merged into a large one
            elif s_u1 != s_u0:
                self.c_bar -= 1  # merged into one small component
            # s_u1 == s_u0: endpoints were already in the same component
        elif u_small != v_small:
            self.c_bar -= 1  # a small component was absorbed by a large one
        self.bfs_calls += calls
        return True

    def on_delete(self, u: int, v: int) -> bool:
        """Delete (u, v) from the graph and update the count; mirror of insert."""
        g = self.graph
        if not g.has_edge(u, v):
            return False
        k = self.k
        cap = k + 1
        s_u0, _ = g.bfs_limited(u, cap)
        g.delete_edge(u, v)
        s_u1, _ = g.bfs_limited(u, cap)
        s_v1, _ = g.bfs_limited(v, cap)
        u_small = s_u1 <= k
        v_small = s_v1 <= k
        if u_small and v_small:
            if s_u0 > k:
                self.c_bar += 2  # a large component split into two small ones
            elif s_u0 != s_u1:
                self.c_bar += 1
            # s_u0 == s_u1: the edge was not a bridge
        elif u_small != v_small:
            self.c_bar += 1
        self.bfs_calls += 3
        return True
