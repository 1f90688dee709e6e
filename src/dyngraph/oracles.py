"""Brute-force ground truth for tests and the CLI verifier.

Everything here recomputes from scratch on plain edge lists and is kept
independent of the maintained structures.  ``exact_ncc`` has two routes
(union-find and BFS) so the oracles can cross-check each other.
``small_component_counts`` answers every checkpoint of a whole update stream
in one offline pass (a segment tree over the checkpoint steps and a union-find
with rollback); ``dyngraph run`` takes its cc-exact and cc-random checkpoint
values from it.  The ``fast_*`` helpers are vectorized equivalents that check
one graph at a time: ``run``'s coloring and msf checkpoints on its shadow
store, the counters' starting values, ``cc_random`` phase boundaries and
the adaptive stream generator.  Component labels come from a numpy
hook-and-jump kernel, the MSF weight from scipy's MST.  All of them are
asserted against the pure routes in the tests.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

Edge = tuple[int, int]
WeightedEdge = tuple[int, int, float]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]  # path halving
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def exact_ncc(edges: list[Edge], n: int) -> int:
    """Number of connected components, via union-find."""
    uf = _UnionFind(n)
    comps = n
    for u, v in edges:
        if uf.union(u, v):
            comps -= 1
    return comps


def exact_ncc_bfs(edges: list[Edge], n: int) -> int:
    """Second, independent route for exact_ncc (adjacency-list BFS)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    return comps


def exact_nis(edges: list[Edge], n: int) -> int:
    """Number of non-isolated vertices."""
    touched = set()
    for u, v in edges:
        touched.add(u)
        touched.add(v)
    return len(touched)


def exact_nscc(edges: list[Edge], n: int, k: int) -> int:
    """Number of connected components of size at most k."""
    uf = _UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return sum(1 for v in range(n) if uf.find(v) == v and uf.size[v] <= k)


def exact_msf_weight(weighted_edges: list[WeightedEdge], n: int) -> float:
    """Minimum spanning forest weight, via Kruskal."""
    uf = _UnionFind(n)
    total = 0.0
    for u, v, w in sorted(weighted_edges, key=lambda e: e[2]):
        if uf.union(u, v):
            total += w
    return total


def exact_integer_msf_identity(weighted_edges: list[WeightedEdge], n: int, W: int) -> float:
    """MSF weight from threshold-subgraph component counts, integer weights only.

    Computes n - W * c^(W) + sum_{i=1}^{W-1} c^(i) where c^(i) is the number
    of components of the subgraph of edges with weight <= i.  The summation
    deliberately starts at i=1: a hypothetical i=0 term would add the n
    components of the empty subgraph and break the identity (checked against
    Kruskal in the tests).
    """
    for _, _, w in weighted_edges:
        if w != int(w) or not (1 <= w <= W):
            raise ValueError(f"integer identity requires weights in 1..{W}, got {w}")
    total = float(n)
    for i in range(1, W + 1):
        sub = [(u, v) for u, v, w in weighted_edges if w <= i]
        c_i = exact_ncc(sub, n)
        total += -W * c_i if i == W else c_i
    return total


def is_proper_coloring(edges: list[Edge], colors, delta: int) -> bool:
    """True iff no edge is monochromatic and all colors lie in [1, delta+1]."""
    for c in colors:
        if not 1 <= c <= delta + 1:
            return False
    return all(colors[u] != colors[v] for u, v in edges)


def small_component_counts(n: int, ops, k: int, steps) -> dict[int, int]:
    """Number of components of size at most k after each of ``steps`` updates.

    Offline dynamic connectivity over the whole op list.  Step s is the graph
    after the first s updates (``q`` ops are skipped); a duplicate insert and
    an absent delete are no-ops, as in ``DynamicGraph``.  An edge lives over
    the steps [insert, delete), and that range of the sorted distinct
    ``steps`` is split over the O(log L) nodes of a segment tree on those L
    leaves.  A depth-first walk applies a node's unions to a union-by-size
    union-find without path compression, so each union is undone by
    resetting one parent, and rolls them back on the way out; at a leaf the
    running count is that step's answer.  O((m log L + L) log n) for m edge
    lifetimes.  With k >= n the count is the component count.
    """
    leaves = sorted(set(steps))
    lifetimes: list[tuple[Edge, int, int]] = []  # (edge, first step, first step without it)
    born: dict[Edge, int] = {}
    step = 0
    for op in ops:
        if op.kind == "q":
            continue
        step += 1
        edge = (op.u, op.v) if op.u < op.v else (op.v, op.u)
        if op.kind == "i":
            born.setdefault(edge, step)
        elif edge in born:
            lifetimes.append((edge, born.pop(edge), step))
    end = max([step, *leaves]) + 1
    lifetimes += [(edge, first, end) for edge, first in born.items()]

    size = 1 << max(0, len(leaves) - 1).bit_length()
    node_edges: list[list[Edge]] = [[] for _ in range(2 * size)]
    for edge, first, stop in lifetimes:
        lo = bisect_left(leaves, first) + size
        hi = bisect_left(leaves, stop) + size
        while lo < hi:
            if lo & 1:
                node_edges[lo].append(edge)
                lo += 1
            if hi & 1:
                hi -= 1
                node_edges[hi].append(edge)
            lo >>= 1
            hi >>= 1

    parent = list(range(n))
    comp_size = [1] * n
    out: dict[int, int] = {}

    def walk(node: int, first_leaf: int, width: int, count: int) -> None:
        absorbed = []  # roots this node hung below another, in union order
        for u, v in node_edges[node]:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                continue
            su, sv = comp_size[u], comp_size[v]
            if su < sv:
                u, v, su, sv = v, u, sv, su
            count += (su + sv <= k) - (su <= k) - (sv <= k)
            parent[v] = u
            comp_size[u] = su + sv
            absorbed.append(v)
        if width == 1:
            out[leaves[first_leaf]] = count
        else:
            half = width >> 1
            walk(2 * node, first_leaf, half, count)
            if first_leaf + half < len(leaves):
                walk(2 * node + 1, first_leaf + half, half, count)
        for v in reversed(absorbed):
            comp_size[parent[v]] -= comp_size[v]
            parent[v] = v

    if leaves:
        walk(1, 0, size, n if k >= 1 else 0)
    return out


# ---------------------------------------------------------------------------
# Vectorized fast paths (per-step verification loops).  Same mathematical
# functions as above, computed with numpy (the MST with scipy.sparse.csgraph);
# cross-validated against the pure routes in tests/test_oracles.py.


def fast_component_labels(eu: np.ndarray, ev: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex component label: the smallest vertex of the component.

    Hook-and-jump (the Shiloach-Vishkin pattern): ``parent`` starts as the
    identity and every round (1) keeps the edges whose endpoints have
    different roots, (2) hooks the larger root of each onto the smaller one
    and (3) pointer-jumps until every vertex points at its root.  A vertex
    only ever points at a smaller vertex of its component, so the smallest
    one stays a root and ends as the label.  Each round removes at least one
    root from every component that still has two, so the loop ends.  Observed
    hooking rounds: at most 11 on random-order paths up to n = 10^5 (seeds
    0-4), 2 on zigzag paths (0, n-1, 1, n-2, ...).  The edge arrays are only
    read.
    """
    parent = np.arange(n)
    ra, rb = eu, ev
    while True:
        live = ra != rb
        if not live.any():
            return parent
        eu, ev, ra, rb = eu[live], ev[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        ra, rb = parent[eu], parent[ev]


def fast_component_sizes(eu: np.ndarray, ev: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex size of the containing component."""
    labels = fast_component_labels(eu, ev, n)
    return np.bincount(labels)[labels]


def fast_ncc(eu: np.ndarray, ev: np.ndarray, n: int) -> int:
    labels = fast_component_labels(eu, ev, n)
    return int(np.count_nonzero(labels == np.arange(n)))


def fast_nscc(eu: np.ndarray, ev: np.ndarray, n: int, k: int) -> int:
    labels = fast_component_labels(eu, ev, n)
    counts = np.bincount(labels, minlength=n)
    return int(np.count_nonzero(counts[labels == np.arange(n)] <= k))


def fast_msf_weight(eu: np.ndarray, ev: np.ndarray, w: np.ndarray, n: int) -> float:
    if len(eu) == 0:
        return 0.0
    from scipy.sparse import coo_matrix  # scipy serves only this oracle
    from scipy.sparse.csgraph import minimum_spanning_tree

    g = coo_matrix((w, (eu, ev)), shape=(n, n))
    return float(minimum_spanning_tree(g).sum())
