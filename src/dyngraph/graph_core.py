"""Fixed-vertex-set dynamic simple graph with budget-limited BFS.

The graph supports constant-expected-time edge insertion/deletion and keeps
running counters (edge count, per-vertex degree, number of non-isolated
vertices) exactly in sync with a flat edge store, read through zero-copy
numpy views.  ``bfs_limited``, the primitive the component-count estimators
are built on, explores a component of the graph, or of its edges at or
below a level given per-vertex lists of (level, neighbour) keys, from a
start vertex but never discovers more than ``vertex_cap`` vertices;
``discovered`` lists them.  A filtered level reads only its own entries, in
(level, id) order, so its cost does not grow with the degree above it.
``check_edge`` is the one pair rule each structure applies before any state change;
``parse_stream`` names a refused pair by it: ``self-loop (u, u) rejected`` or
``vertex out of range: (u, v) for n=N``.  ``check_vertex`` is its form for reads.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

import numpy as np


def check_edge(u: int, v: int, n: int) -> None:
    """Raise ValueError unless (u, v) is an edge on vertices 0..n-1 with u != v."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {u}) rejected")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range: ({u}, {v}) for n={n}")


def check_vertex(v: int, n: int) -> None:
    """Raise ValueError unless v is a vertex of 0..n-1."""
    if not 0 <= v < n:
        raise ValueError(f"vertex out of range: {v} for n={n}")


class UpdateOp(NamedTuple):
    """One operation of an update stream: an immutable record, equal by value.

    ``kind`` is ``"i"`` (insert), ``"d"`` (delete) or ``"q"`` (query).
    ``w`` is the edge weight for weighted insertions; unweighted streams
    always carry weight 1.  Nothing is checked here: ``parse_stream`` checks
    each line's kind, pair and weight, and a structure checks what it applies.
    """

    kind: str
    u: int = -1
    v: int = -1
    w: float = 1.0


class DynamicGraph:
    """Undirected simple graph on a fixed vertex set {0, ..., n-1}.

    ``adj[u]`` maps each neighbour ``v`` to the slot of (u, v) in the flat
    edge arrays, which hand the edge list to vectorized checkers in O(1).  A
    delete moves the last edge into the gap and re-points its two entries.
    The arrays are ``array("q")``; growing builds a new array, as resizing in
    place raises BufferError under an edge_view.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adj: list[dict[int, int]] = [{} for _ in range(n)]
        self.m = 0
        self.nis = 0  # number of vertices with degree >= 1
        # flat edge store: (u, v) with u < v at slot adj[u][v], swap-delete on removal
        self._eu = array("q", bytes(8 * 16))
        self._ev = array("q", bytes(8 * 16))
        # scratch marks for bfs_limited; epoch trick avoids O(n) clears, -1 is no epoch
        self._mark = [-1] * n
        self._epoch = 0
        self.discovered: list[int] = []  # the last bfs_limited call's vertices, in order

    def degree(self, v: int) -> int:
        check_vertex(v, self.n)
        return len(self.adj[v])

    def bfs_reached(self, x: int) -> bool:
        """Whether the last ``bfs_limited`` call discovered ``x``."""
        check_vertex(x, self.n)
        return self._mark[x] == self._epoch

    def has_edge(self, u: int, v: int) -> bool:
        check_edge(u, v, self.n)
        return v in self.adj[u]

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert (u, v); returns False if the edge was already present."""
        check_edge(u, v, self.n)
        if v in self.adj[u]:
            return False
        self._append(u, v)
        return True

    def _append(self, u: int, v: int) -> None:
        """Store (u, v) unchecked: the caller has checked the pair and that it is absent."""
        i = self.m
        au = self.adj[u]
        au[v] = i
        av = self.adj[v]
        av[u] = i
        if len(au) == 1:
            self.nis += 1
        if len(av) == 1:
            self.nis += 1
        if u > v:
            u, v = v, u
        if i == len(self._eu):
            self._eu = self._eu + array("q", bytes(8 * i))
            self._ev = self._ev + array("q", bytes(8 * i))
        self._eu[i] = u
        self._ev[i] = v
        self.m = i + 1

    def _load(self, eu: np.ndarray, ev: np.ndarray) -> None:
        """Store checked, distinct pairs (eu[i], ev[i]), eu < ev, in order in this empty graph."""
        adj = self.adj
        for i, (u, v) in enumerate(zip(eu.tolist(), ev.tolist())):
            adj[u][v] = adj[v][u] = i
        self.m = len(eu)
        self.nis = sum(map(bool, adj))
        pad = bytes(8 * 16)  # room for the next _append
        self._eu = array("q", eu.astype(np.int64).tobytes() + pad)
        self._ev = array("q", ev.astype(np.int64).tobytes() + pad)

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete (u, v); returns False if the edge was absent."""
        check_edge(u, v, self.n)
        return self._drop(u, v) is not None

    def _drop(self, u: int, v: int) -> int | None:
        """Delete the checked pair (u, v); the slot it held, now the last edge's, or None."""
        adj = self.adj
        au = adj[u]
        if v not in au:
            return None
        i = au.pop(v)
        av = adj[v]
        del av[u]
        if not au:
            self.nis -= 1
        if not av:
            self.nis -= 1
        last = self.m - 1
        if i != last:
            eu, ev = self._eu, self._ev
            lu = eu[i] = eu[last]
            lv = ev[i] = ev[last]
            adj[lu][lv] = adj[lv][lu] = i
        self.m = last
        return i

    def edge_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Live, read-only int64 views of the current edge endpoints."""
        m = self.m
        eu, ev = np.frombuffer(self._eu, np.int64, m), np.frombuffer(self._ev, np.int64, m)
        eu.flags.writeable = ev.flags.writeable = False
        return eu, ev

    def edges(self) -> list[tuple[int, int]]:
        """Snapshot of the edge list as (u, v) pairs with u < v."""
        return list(zip(self._eu[: self.m], self._ev[: self.m]))

    def bfs_limited(self, start: int, vertex_cap: int, keys=None, level=0) -> tuple[int, bool]:
        """Explore the component of ``start``, discovering at most ``vertex_cap`` vertices.

        Returns ``(reached, closed)`` where ``reached`` is
        ``min(component size, vertex_cap)`` and ``closed`` is True iff the
        whole component was exhausted.  Only edges among the discovered
        vertices are ever scanned.  Discovery is in FIFO queue order, each
        ``adj[x]`` in insertion order (a re-inserted neighbour comes last), so
        which vertices a capped call marks, and with them the callers' BFS
        work counters, depend on it.  ``discovered`` then lists the marked
        vertices in that order, ``reached`` of them, until the next call.
        Given ``keys``, per vertex x the sorted ints ``first_level * n + y``,
        one per edge (x, y), it searches the edges of first level <= ``level``
        only: it reads ``keys[x]`` while a key is below ``(level + 1) * n``,
        so x's neighbours in (level, id) order, and no entry above its level.
        """
        check_vertex(start, self.n)
        if vertex_cap < 1:
            raise ValueError("vertex_cap must be >= 1")
        epoch = self._epoch = self._epoch + 1
        mark = self._mark
        adj = self.adj
        mark[start] = epoch
        queue = self.discovered = [start]
        discovered = 1
        if keys is None:
            for x in queue:  # appending while iterating is defined for lists
                for w in adj[x]:
                    if mark[w] != epoch:
                        if discovered == vertex_cap:
                            return vertex_cap, False
                        mark[w] = epoch
                        queue.append(w)
                        discovered += 1
            return discovered, True
        n, limit = self.n, (level + 1) * self.n
        for x in queue:
            for key in keys[x]:
                if key >= limit:
                    break
                w = key % n
                if mark[w] != epoch:
                    if discovered == vertex_cap:
                        return vertex_cap, False
                    mark[w] = epoch
                    queue.append(w)
                    discovered += 1
        return discovered, True
