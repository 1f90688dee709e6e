"""Brute-force ground truth for tests and the CLI verifier.

Everything here recomputes from scratch on plain edge lists and is kept
independent of the maintained structures.  ``exact_ncc`` has two routes
(union-find and BFS) so the oracles can cross-check each other.
Two offline passes answer every checkpoint of a whole update stream at
once, with one recursion that halves the checkpoint steps over ``_spans``,
the stretches of each edge's life: ``small_component_counts`` (a
union-find with rollback) gives ``dyngraph run`` its cc-exact and cc-random
checkpoint values, and ``msf_weights`` (Eppstein's offline dynamic MSF) its
msf-det and msf-rand ones.  The ``fast_*`` helpers are vectorized
equivalents that check one graph at a time: ``SmallCcCounter``'s starting
labels and the adaptive stream generator (the randomized estimators start
from ``cc_random._label_levels``).
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
from operator import itemgetter

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


def _spans(ops, leaves) -> list[tuple[int, int, float, int, int]]:
    """One ``(u, v, w, a, b)`` per stretch of an edge's life, present at ``leaves[a:b]``.

    ``leaves`` are sorted distinct steps; step s is the graph after the first
    s updates.  The step rules of both offline passes, as in ``DynamicGraph``:
    a ``q`` op is not an update, a duplicate insert is a no-op that keeps the
    first weight, and an absent delete is a no-op.  A reinserted edge starts
    another stretch, with its own weight.  A stretch that no leaf sees is
    dropped, so 0 <= a < b <= len(leaves).
    """
    spans = []
    born: dict[Edge, tuple[float, int]] = {}  # live edge -> (weight, first leaf that sees it)
    step = 0
    for op in ops:
        if op.kind == "q":
            continue
        step += 1
        at = bisect_left(leaves, step)  # the first leaf that sees this update
        edge = (op.u, op.v) if op.u < op.v else (op.v, op.u)
        if op.kind == "i":
            born.setdefault(edge, (op.w, at))
        elif edge in born:
            w, a = born.pop(edge)
            if a < at:
                spans.append((*edge, w, a, at))
    end = len(leaves)
    spans += [(*edge, w, a, end) for edge, (w, a) in born.items() if a < end]
    return spans


def small_component_counts(n: int, ops, k: int, steps) -> dict[int, int]:
    """Number of components of size at most k after each of ``steps`` updates.

    Offline dynamic connectivity over ``_spans``.  The recursion halves the
    sorted distinct ``steps``; at each node a span that covers all of the
    node's steps is unioned, and any other is handed on to the halves it
    reaches into.  The union-find is by size without path compression, so
    each union is undone by resetting one parent, and the node rolls its
    unions back on the way out; at a leaf the running count is that step's
    answer.  A span reaches at most four nodes of each level, so over L
    leaves this is O((m log L + L) log n) for m spans.  With k >= n the count
    is the component count.
    """
    leaves = sorted(set(steps))
    parent = list(range(n))
    comp_size = [1] * n
    out: dict[int, int] = {}

    def walk(lo: int, hi: int, spans, count: int) -> None:
        mid = (lo + hi) >> 1
        left, right = [], []
        absorbed = []  # roots this node hung below another, in union order
        for span in spans:
            u, v, _, a, b = span
            if a > lo or b < hi:
                if a < mid:
                    left.append(span)
                if b > mid:
                    right.append(span)
                continue
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
        if hi - lo == 1:
            out[leaves[lo]] = count
        else:
            walk(lo, mid, left, count)
            walk(mid, hi, right, count)
        for v in reversed(absorbed):
            comp_size[parent[v]] -= comp_size[v]
            parent[v] = v

    if leaves:
        walk(0, len(leaves), _spans(ops, leaves), n if k >= 1 else 0)
    return out


def msf_weights(n: int, ops, steps) -> dict[int, float]:
    """Minimum spanning forest weight after each of ``steps`` updates.

    Offline dynamic MSF (D. Eppstein, J. Algorithms 17, 1994) over
    ``_spans``, with the recursion of ``small_component_counts``: at each
    node a span that covers all of the node's steps is static, and any
    other is dynamic and handed on to the halves it reaches into.  Kruskal
    with the dynamic spans taken first finds the static ones that every
    MSF of the node uses: they are contracted into its base weight.
    Kruskal on the other static spans alone finds those that none uses:
    they are dropped, and the rest go on to both halves.  Relabelling only
    the vertices a span touches keeps a node's graph O(its dynamic spans).
    A leaf has no dynamic span, so its base is the answer.
    """
    leaves = sorted(set(steps))
    out: dict[int, float] = {}

    def solve(lo: int, hi: int, spans, base: float) -> None:
        ids: dict[int, int] = {}
        spans = [(ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids)), w, a, b)
                 for u, v, w, a, b in spans]
        joined, contracted = _UnionFind(len(ids)), _UnionFind(len(ids))
        static, dynamic = [], []
        for span in spans:
            if span[3] > lo or span[4] < hi:
                dynamic.append(span)
                joined.union(span[0], span[1])
            else:
                static.append(span)
        rest = []
        for span in sorted(static, key=itemgetter(2)):
            if joined.union(span[0], span[1]):
                contracted.union(span[0], span[1])
                base += span[2]
            else:
                rest.append(span)
        if hi - lo == 1:
            out[leaves[lo]] = base
            return
        label = [contracted.find(x) for x in range(len(ids))]
        forest = _UnionFind(len(ids))
        kept = dynamic + [s for s in rest if forest.union(label[s[0]], label[s[1]])]
        mid = (lo + hi) >> 1
        left, right = [], []
        for u, v, w, a, b in kept:
            span = (label[u], label[v], w, a, b)
            if a < mid:
                left.append(span)
            if b > mid:
                right.append(span)
        solve(lo, mid, left, base)
        solve(mid, hi, right, base)

    if leaves:
        solve(0, len(leaves), _spans(ops, leaves), 0.0)
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
