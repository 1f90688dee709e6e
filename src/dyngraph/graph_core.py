"""Fixed-vertex-set dynamic simple graph with budget-limited BFS.

The graph supports constant-expected-time edge insertion/deletion and keeps
running counters (edge count, per-vertex degree, number of non-isolated
vertices) exactly in sync with the edge set.  ``bfs_limited`` explores a
component from a start vertex but never discovers more than ``vertex_cap``
vertices, which is the primitive the component-count estimators are built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SelfLoopError(ValueError):
    """Raised when an operation would create a self-loop."""


@dataclass(frozen=True)
class UpdateOp:
    """One operation of an update stream.

    ``kind`` is ``"i"`` (insert), ``"d"`` (delete) or ``"q"`` (query).
    ``w`` is the edge weight for weighted insertions; unweighted streams
    always carry weight 1.
    """

    kind: str
    u: int = -1
    v: int = -1
    w: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("i", "d", "q"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind != "q" and self.u == self.v:
            raise SelfLoopError(f"self-loop op on vertex {self.u}")


class DynamicGraph:
    """Undirected simple graph on a fixed vertex set {0, ..., n-1}.

    Adjacency is one hash set per vertex.  Besides the sets, flat edge
    arrays (with swap-delete and a position index) are maintained so that
    the current edge list can be handed to vectorized checkers in O(1).
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.m = 0
        self.nis = 0  # number of vertices with degree >= 1
        # flat edge store: (u, v) with u < v, swap-delete on removal
        cap = 16
        self._eu = np.zeros(cap, dtype=np.int64)
        self._ev = np.zeros(cap, dtype=np.int64)
        self._epos: dict[tuple[int, int], int] = {}
        # scratch marks for bfs_limited; epoch trick avoids O(n) clears
        self._mark = [0] * n
        self._epoch = 0
        self.bfs_marks_last = 0

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def check_pair(self, u: int, v: int) -> None:
        """Raise ValueError unless both endpoints lie in {0, ..., n-1}."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v}) for n={self.n}")

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert (u, v); returns False if the edge was already present."""
        if u == v:
            raise SelfLoopError(f"self-loop ({u}, {u}) rejected")
        self.check_pair(u, v)
        au = self.adj[u]
        if v in au:
            return False
        au.add(v)
        av = self.adj[v]
        av.add(u)
        if len(au) == 1:
            self.nis += 1
        if len(av) == 1:
            self.nis += 1
        if u > v:
            u, v = v, u
        i = self.m
        if i == len(self._eu):
            self._eu = np.resize(self._eu, 2 * i)
            self._ev = np.resize(self._ev, 2 * i)
        self._eu[i] = u
        self._ev[i] = v
        self._epos[(u, v)] = i
        self.m = i + 1
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete (u, v); returns False if the edge was absent."""
        self.check_pair(u, v)
        au = self.adj[u]
        if v not in au:
            return False
        au.discard(v)
        av = self.adj[v]
        av.discard(u)
        if not au:
            self.nis -= 1
        if not av:
            self.nis -= 1
        if u > v:
            u, v = v, u
        i = self._epos.pop((u, v))
        last = self.m - 1
        if i != last:
            lu = int(self._eu[last])
            lv = int(self._ev[last])
            self._eu[i] = lu
            self._ev[i] = lv
            self._epos[(lu, lv)] = i
        self.m = last
        return True

    def edge_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Live views of the current edge endpoints (read-only by convention)."""
        return self._eu[: self.m], self._ev[: self.m]

    def edges(self) -> list[tuple[int, int]]:
        """Snapshot of the edge list as (u, v) pairs with u < v."""
        return list(zip(self._eu[: self.m].tolist(), self._ev[: self.m].tolist()))

    def bfs_limited(self, start: int, vertex_cap: int) -> tuple[int, bool]:
        """Explore the component of ``start``, discovering at most ``vertex_cap`` vertices.

        Returns ``(reached, closed)`` where ``reached`` is
        ``min(component size, vertex_cap)`` and ``closed`` is True iff the
        whole component was exhausted.  Only edges among the discovered
        vertices are ever scanned.
        """
        if vertex_cap < 1:
            raise ValueError("vertex_cap must be >= 1")
        self._epoch += 1
        epoch = self._epoch
        mark = self._mark
        adj = self.adj
        mark[start] = epoch
        queue = [start]
        discovered = 1
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for w in adj[x]:
                if mark[w] != epoch:
                    if discovered == vertex_cap:
                        self.bfs_marks_last = discovered
                        return vertex_cap, False
                    mark[w] = epoch
                    queue.append(w)
                    discovered += 1
        self.bfs_marks_last = discovered
        return discovered, True
