"""Brute-force ground truth for tests and the CLI verifier.

Everything here recomputes from scratch on plain edge lists and is kept
independent of the maintained structures.  ``exact_ncc`` has two routes
(union-find and BFS) so the oracles can cross-check each other.
Two offline passes answer every checkpoint of a whole update stream at
once: ``small_component_counts`` (a segment tree over the checkpoint steps
and a union-find with rollback) gives ``dyngraph run`` its cc-exact and
cc-random checkpoint values, and ``msf_weights`` (Eppstein's divide and
conquer over the checkpoint steps) its msf-det and msf-rand ones.  The
``fast_*`` helpers are vectorized equivalents that check one graph at a
time: ``SmallCcCounter``'s starting labels and the adaptive stream
generator (the randomized estimators start from ``cc_random._label_levels``).
Their labels come from a numpy kernel, ``hook_and_jump``, which
``cc_random._label_levels`` also runs on nested graphs, each level started
from the flat labels of the one below; each of its rounds pointer-jumps
only the roots it hooked, then flattens with one full gather.
``fast_msf_weight`` is only the array form of ``exact_msf_weight``, kept
because perfbench's msf workloads call it.
Nothing here needs more than numpy.  All of them are asserted against the
pure routes in the tests.
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


def msf_weights(n: int, ops, steps) -> dict[int, float]:
    """Minimum spanning forest weight after each of ``steps`` updates.

    Offline dynamic MSF (D. Eppstein, J. Algorithms 17, 1994) with the step
    rules of ``small_component_counts``; a duplicate insert keeps the first
    weight.  Each edge key is one slot whose weight is +inf while the edge is
    absent.  The recursion halves the sorted distinct ``steps``; a node's
    dynamic edges change weight between two of its steps, its static ones
    do not.  Kruskal with the dynamic edges taken first finds the static
    edges that every MSF of the node uses: they are contracted into its base
    weight.  Kruskal on the other static edges alone finds those that none
    uses: they are dropped, as is every absent static edge.  Relabelling only
    the vertices a remaining edge touches keeps a node's graph O(its dynamic
    edges).  A leaf has no dynamic edge, so its base is the answer.
    """
    leaves = sorted(set(steps))
    inf = float("inf")
    key_of: dict[Edge, int] = {}
    changes: list[dict[int, float]] = [{} for _ in leaves]  # key -> weight, since the leaf before
    live: dict[Edge, float] = {}
    step = 0
    for op in ops:
        if op.kind == "q":
            continue
        step += 1
        leaf = bisect_left(leaves, step)  # the first leaf that sees this update
        if leaf == len(leaves):
            break
        edge = (op.u, op.v) if op.u < op.v else (op.v, op.u)
        if op.kind == "i" and edge not in live:
            live[edge] = op.w
        elif op.kind == "d" and edge in live:
            del live[edge]
        else:
            continue  # a duplicate insert or an absent delete
        changes[leaf][key_of.setdefault(edge, len(key_of))] = live.get(edge, inf)
    weight = [inf] * len(key_of)  # each key's weight at the leaf the walk is at
    out: dict[int, float] = {}

    def solve(lo: int, hi: int, edges: list[tuple[int, int, int]], base: float) -> None:
        for key, w in changes[lo].items():  # a no-op on a left child
            weight[key] = w
        ids: dict[int, int] = {}
        edges = [(ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)), key)
                 for a, b, key in edges]
        dynamic = set().union(*changes[lo + 1:hi])
        static = sorted((e for e in edges if e[2] not in dynamic and weight[e[2]] < inf),
                        key=lambda e: weight[e[2]])
        joined, contracted = _UnionFind(len(ids)), _UnionFind(len(ids))
        for a, b, key in edges:
            if key in dynamic:
                joined.union(a, b)
        rest = []
        for a, b, key in static:
            if joined.union(a, b):
                contracted.union(a, b)
                base += weight[key]
            else:
                rest.append((a, b, key))
        if hi - lo == 1:
            out[leaves[lo]] = base
            return
        label = [contracted.find(x) for x in range(len(ids))]
        kept = [(label[a], label[b], key) for a, b, key in edges if key in dynamic]
        forest = _UnionFind(len(ids))
        for a, b, key in rest:
            if forest.union(label[a], label[b]):
                kept.append((label[a], label[b], key))
        mid = (lo + hi) // 2
        solve(lo, mid, kept, base)
        solve(mid, hi, kept, base)

    if leaves:
        solve(0, len(leaves), [(u, v, key) for (u, v), key in key_of.items()], 0.0)
    return out


# ---------------------------------------------------------------------------
# Vectorized fast paths (per-step verification loops).  Same mathematical
# functions as above, computed with numpy; cross-validated against the pure
# routes in tests/test_oracles.py.


def hook_and_jump(parent: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """The labels of ``parent``'s graph plus the edges (eu, ev); ``parent`` may be overwritten.

    Hook-and-jump (the Shiloach-Vishkin pattern).  ``parent`` must be flat:
    it points every vertex at the smallest vertex of its component
    (``np.arange(n)`` for no edges).  Every round starts flat and (1) keeps
    the edges whose endpoints have different roots, (2) hooks the larger
    root of each onto the smaller one and (3) pointer-jumps the hooked roots
    alone, at most one per live edge, until each points at its new root.
    Only a hooked root can sit deeper than one step: any other vertex points
    at a root or at a hooked root, so (4) one full gather makes the array
    flat again, and the edges' roots follow through ``parent``.  A vertex
    only ever points at a smaller vertex of its component, so the smallest
    one stays a root and ends as the label.  Each round removes at least
    one root from every component that still has two, so the loop ends.
    Observed hooking rounds from ``np.arange(n)``: at most 11 on
    random-order paths up to n = 10^5 (seeds 0-4), 2 on zigzag paths (0,
    n-1, 1, n-2, ...).  The edge arrays are only read.
    """
    ra, rb = parent[eu], parent[ev]
    while True:
        live = ra != rb
        if not live.any():
            return parent
        ra, rb = ra[live], rb[live]
        hooked = np.maximum(ra, rb)
        np.minimum.at(parent, hooked, np.minimum(ra, rb))
        up = parent[hooked]
        while True:
            jumped = parent[up]
            if np.array_equal(jumped, up):
                break
            parent[hooked] = up = jumped
        parent = parent[parent]
        ra, rb = parent[ra], parent[rb]


def fast_component_labels(eu: np.ndarray, ev: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex component label: the smallest vertex of the component."""
    return hook_and_jump(np.arange(n), eu, ev)


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
    return exact_msf_weight(list(zip(eu.tolist(), ev.tolist(), w.tolist())), n)
