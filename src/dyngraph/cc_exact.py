"""Deterministic dynamic counter of small connected components.

Maintains the exact number of components of size at most k = ceil(1/eps)
under edge updates with at most two size-capped BFS calls per update.
Since at most nis(G)/k components can be larger than k, the count also
approximates the full component count within eps * nis(G) additively.

Beside the count, the counter keeps one flag per vertex, set iff the
vertex's component has more than k vertices, so that only a delete in a
large component runs a BFS that can hit the cap (``SmallCcCounter``).

Counters of nested graphs G_i ⊆ G_j with one k (the MSF threshold levels) can
share what G_i's counter found: the counter of G_j takes the counter of G_i,
which has just applied the same update (u, v), as ``below``, or at a delete's
first level the level under it, which never held (u, v), with its stale
``_connected`` cleared.  Every graph here is taken without (u, v), and a
component of G_i lies inside a component of G_j, so for i < j:

1. u and v connected in G_i => connected in G_j: the update changes no
   count or flag of G_j, with no BFS.
2. x's component of G_i has more than k vertices => so has x's
   component of G_j.
3. Both endpoints large in G_i => nothing to change in G_j, with no BFS.
4. Exactly one endpoint large in G_i => one capped BFS from the other
   endpoint in G_j.  If it closes with <= k vertices, that component
   cannot hold the large endpoint, so the edge joins or splits off a small
   component: 1.  Otherwise both are large in G_j: 0.

The flags answer facts 2-3 at every level: an insert reads G_j's own flags,
which still describe G_j without (u, v), and a delete reads ``below``'s,
which it has just brought up to date for G_i without (u, v), or which the
update never touched.  Only facts 1 and 4 still pass up: ``below`` says
whether it found u and v connected, and a delete in a large component of G_j
runs fact 4's one BFS when ``below`` flags exactly one endpoint large.
"""

from __future__ import annotations

import math

import numpy as np

from .graph_core import DynamicGraph, check_edge
from .oracles import fast_component_labels


class SmallCcCounter:
    """Exact count of components of size <= k of a DynamicGraph, or of one level of it.

    The counter owns the update path, so callers must not mutate the graph
    separately.  Given ``keys`` (``DynamicGraph.bfs_limited``'s), it counts the
    edges of first level <= ``level``, all that its every BFS reads; the store's owner
    then runs ``_join`` before it stores an edge and ``_split`` after it
    drops one, and passes ``labels`` (a component label below n per vertex)
    in place of the construction's labelling.  ``large`` holds one flag per
    vertex (its component has more than k vertices), kept exact with the
    count.  An insert reads the endpoints' flags: both large, no BFS; one
    large, one closed BFS of the small side, whose vertices are flagged
    large; both small, a closed BFS from u and, unless it reaches v, one
    from v, flagging both sides large if they join into more than k
    vertices.  A delete in a small component runs one closed BFS from u; in
    a large one, a capped BFS from u and, unless it reaches v, one from v,
    and each side that closes at <= k vertices is flagged small.  Given
    ``below`` (a counter with the same k on a subgraph without the edge,
    that has just applied the same update or has ``_connected`` False),
    ``_join`` and ``_split`` start from what it found (the module
    docstring's facts 1-4).  ``bfs_calls`` counts every capped BFS run since
    construction.
    """

    def __init__(self, graph: DynamicGraph, eps: float, keys=None, level=0, labels=None):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        self.graph = graph
        self.k = k = math.ceil(1 / eps)
        self._keys, self._level = keys, level  # the filter of every bfs_limited call
        if labels is None:
            labels = fast_component_labels(*graph.edge_view(), graph.n)
        sizes = np.bincount(labels, minlength=graph.n)
        self.c_bar = int(np.count_nonzero(sizes[sizes > 0] <= k))
        self.large = bytearray((sizes[labels] > k).tobytes())
        self.bfs_calls = 0
        # whether the last update found u and v connected in the graph without (u, v)
        self._connected = False

    def estimate(self) -> int:
        return self.c_bar

    def on_insert(self, u: int, v: int) -> bool:
        """Insert (u, v) and update the count; a present edge is a no-op returning False."""
        g = self.graph
        check_edge(u, v, g.n)
        if v in g.adj[u]:
            return False
        self._join(u, v, None)
        g._append(u, v)
        return True

    def on_delete(self, u: int, v: int) -> bool:
        """Delete (u, v) and update the count; an absent edge is a no-op returning False."""
        if not self.graph.delete_edge(u, v):
            return False
        self._split(u, v, None)
        return True

    def _join(self, u: int, v: int, below: SmallCcCounter | None) -> None:
        """Count and flags for adding (u, v); the graph lacks it."""
        g, large, cap = self.graph, self.large, self.k + 1
        self._connected = False
        if large[u] or large[v]:
            if large[u] and large[v]:
                return  # two large components make one
            # closes on the small side
            g.bfs_limited(v if large[u] else u, cap, self._keys, self._level)
            self.bfs_calls += 1
            self.c_bar -= 1  # which joins the large one
            for x in g.discovered:
                large[x] = 1
            return
        if below is not None and below._connected:
            self._connected = True
            return  # connected below, so here too: the edge closes a cycle
        s_u, _ = g.bfs_limited(u, cap, self._keys, self._level)
        if g._mark[v] == g._epoch:
            self.bfs_calls += 1
            self._connected = True
            return  # one small component: the edge closes a cycle
        side_u = g.discovered
        s_v, _ = g.bfs_limited(v, cap, self._keys, self._level)
        self.bfs_calls += 2
        if s_u + s_v <= self.k:
            self.c_bar -= 1  # two small components merge into a small one
            return
        self.c_bar -= 2  # two small components merge into a large one
        for x in side_u:
            large[x] = 1
        for x in g.discovered:
            large[x] = 1

    def _split(self, u: int, v: int, below: SmallCcCounter | None) -> None:
        """Count and flags for removing (u, v); the graph already lacks it."""
        g, large, cap = self.graph, self.large, self.k + 1
        if below is not None and below._connected:
            self._connected = True
            return  # connected below, so here too: one component as before
        if not large[u]:
            # closes: the component has at most k vertices
            g.bfs_limited(u, cap, self._keys, self._level)
            self.bfs_calls += 1
            self._connected = g._mark[v] == g._epoch
            if not self._connected:
                self.c_bar += 1  # one small component splits into two
            return
        self._connected = False
        if below is not None:
            lu, lv = below.large[u], below.large[v]  # already for G_i without (u, v)
            if lu and lv:
                return  # both sides large below, so here too
            if lu or lv:
                s, _ = g.bfs_limited(v if lu else u, cap, self._keys, self._level)
                self.bfs_calls += 1
                if s <= self.k:
                    self.c_bar += 1  # a small side splits off the large one
                    for x in g.discovered:
                        large[x] = 0
                return
        s_u, _ = g.bfs_limited(u, cap, self._keys, self._level)
        if g._mark[v] == g._epoch:
            self.bfs_calls += 1
            self._connected = True
            return  # still one large component
        side_u = g.discovered
        s_v, _ = g.bfs_limited(v, cap, self._keys, self._level)
        self.bfs_calls += 2
        if s_u <= self.k:
            self.c_bar += 1
            for x in side_u:
                large[x] = 0
        if s_v <= self.k:
            self.c_bar += 1
            for x in g.discovered:
                large[x] = 0
