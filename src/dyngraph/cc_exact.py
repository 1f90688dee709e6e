"""Deterministic dynamic counter of small connected components.

Maintains the exact number of components of size at most k = ceil(1/eps)
under edge updates with at most two size-capped BFS calls per update.
Since at most nis(G)/k components can be larger than k, the count also
approximates the full component count within eps * nis(G) additively.

Counters of nested graphs G_i ⊆ G_j with one k (the MSF threshold levels)
can share what a capped BFS found: the counter of G_j takes the counter of
G_i, which has just applied the same update (u, v), as ``below``.  Every
graph here is taken without (u, v), and a component of G_i lies inside a
component of G_j, so for i < j:

1. u and v connected in G_i => connected in G_j: adding (u, v) removes
   no small component of G_j, with no BFS.
2. x's component of G_i has more than k vertices => so has x's
   component of G_j.
3. Both endpoints known large (read on G_i) => nothing to remove in G_j,
   with no BFS.
4. Exactly one endpoint known large (read on G_i) => one capped BFS from
   the other endpoint in G_j.  If it closes with <= k vertices, that
   component cannot hold the large endpoint, so adding (u, v) removes
   it: 1.  Otherwise both are large in G_j: 0, and fact 3 holds from G_j
   up.
"""

from __future__ import annotations

import math

from .graph_core import DynamicGraph, check_edge
from .oracles import fast_nscc


class SmallCcCounter:
    """Exact count of components of size <= k, attached to a DynamicGraph.

    The counter owns the update path, so callers must not mutate the graph
    separately.  Insert and delete share one rule: how many small components
    adding (u, v) to the graph without it removes.  An insert subtracts that
    before adding the edge, a delete adds it back after removing the edge.
    Alone, the rule runs a capped BFS from u and, unless it reaches v, one
    from v.  Given ``below`` (a counter with the same k on a subgraph, that
    has just applied the same update), it starts from what ``below`` found
    (the module docstring's facts 1-4): 0, 1 or 2 BFS calls from the
    endpoints ``below`` left open.  ``bfs_calls`` counts every capped BFS run
    since construction.
    """

    def __init__(self, graph: DynamicGraph, eps: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        self.graph = graph
        self.k = math.ceil(1 / eps)
        self.c_bar = fast_nscc(*graph.edge_view(), graph.n, self.k)
        self.bfs_calls = 0
        # endpoints of the last update that may still lie in a small component
        # without the other one in a supergraph: () once connected or both large
        self._open: tuple[int, ...] = ()

    def estimate(self) -> int:
        return self.c_bar

    def on_insert(self, u: int, v: int, below: SmallCcCounter | None = None) -> bool:
        """Insert (u, v) and update the count; a present edge is a no-op returning False."""
        g = self.graph
        check_edge(u, v, g.n)
        if v in g.adj[u]:
            return False
        self.c_bar -= self._joined(u, v, below)
        g.insert_edge(u, v)
        return True

    def on_delete(self, u: int, v: int, below: SmallCcCounter | None = None) -> bool:
        """Delete (u, v) and update the count; an absent edge is a no-op returning False."""
        if not self.graph.delete_edge(u, v):
            return False
        self.c_bar += self._joined(u, v, below)
        return True

    def _joined(self, u: int, v: int, below: SmallCcCounter | None) -> int:
        """Small components (0, 1 or 2) that adding (u, v) removes; the graph lacks it."""
        g = self.graph
        k = self.k
        if below is not None and len(below._open) < 2:
            open_ = self._open = below._open
            if not open_:
                return 0  # connected or both large below, so here too
            s, _ = g.bfs_limited(open_[0], k + 1)
            self.bfs_calls += 1
            if s <= k:
                return 1  # small, so apart from the other endpoint's large component
            self._open = ()
            return 0
        s_u, _ = g.bfs_limited(u, k + 1)
        if g.bfs_reached(v):
            self.bfs_calls += 1
            self._open = ()
            return 0  # one component, small or large: the edge closes a cycle
        s_v, _ = g.bfs_limited(v, k + 1)
        self.bfs_calls += 2
        if s_u <= k:
            self._open = (u, v) if s_v <= k else (u,)
        else:
            self._open = (v,) if s_v <= k else ()
        if s_u + s_v <= k:
            return 1  # two small components merge into a small one
        return (s_u <= k) + (s_v <= k)  # the joined one is large: small ones go
