"""(1+eps)-approximate minimum-spanning-forest weight under edge updates.

For weights in [1, W], the combiner of Chazelle, Rubinfeld and Trevisan,
X = n - top*c_r + sum(lambda_i*c_i) with top = (1 + eps/2)**r and the
lambdas summing to top - 1, sandwiches the MSF weight M: M <= X <=
(1 + eps/2)*M, for c_i the component count of G_i, the edges of weight
<= l_i (geometrically spaced, l_r = W).  An edge lies in every G_i from the
first that admits its weight up, so an update hits one level and every
level above it.  Both estimators keep one edge store, the full graph and
each edge's first level: an update makes one store edit, and level i is
the store's edges of first level <= i.

The deterministic estimator keeps one exact small-component counter per
level, whose capped BFS reads only its level's edges, in (level, id) order
off sorted per-vertex keys: at most (k + 1)(k + 2) per BFS, at any degree.
It walks the hit levels bottom-up and hands each level the counter below it,
whose findings in G_i without (u, v) spare BFS calls in the levels G_j above
(the four facts of ``cc_exact``): an insert reads facts 2-4 off G_j's own
flags, so only fact 1 (u and v connected in G_i) passes up; a delete in a
large component of G_j reads them off G_i's updated flags.  A delete's first
level f > 0 reads level f - 1's flags too, as G_{f-1} never holds (u, v), but
not its stale ``_connected``, which the walk clears.  The error is derived:
level i's counter misses only the L_i components of G_i with more
than k vertices, each spanning k or more forest edges of weight >= 1, and
G_i's forest is no larger than G's MSF, so L_i <= M/k.  The estimate
X + top*L_r - sum(lambda_i*L_i) is then within [1 - (top - 1)/k,
1 + eps/2 + top/k]*M, and k = ceil(2*top/eps) <= ceil(4W/eps) gives (1 +- eps).

The randomized estimator runs the one phase clock of ``cc_random`` for all
levels: an update a level misses moves its Thr by at most 2 and its count
by 0, so by the budget there it counts as one update, and every level
re-samples at the same update, in one pass.  With each c_i within eps'*Thr,
the estimate is within (2*top - 1)*eps'*Thr of X: equality when c_r is
under- and every other c_i over-estimated by eps'*Thr.  As Thr <= 2M + 2, at
eps' = eps/(4W) that allows about eps*M (1.07*eps*M at eps 0.5, W 4), over
the eps*M/2 of room above X: (1 +- eps) is observed, not derived.

An update failing ``graph_core.check_edge`` or with a weight outside [1, W]
raises ``ValueError`` before any change; a duplicate insert or an absent
delete returns False and changes nothing.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .cc_exact import SmallCcCounter
from .cc_random import _label_levels, _PhaseClock
from .graph_core import DynamicGraph, check_edge

WeightedEdge = tuple[int, int, float]


@dataclass(frozen=True)
class MsfConfig:
    """Threshold levels and combiner weights for a given (eps, W)."""

    eps: float
    W: float
    r: int
    thresholds: tuple[float, ...]  # l_0 .. l_r, with l_r clamped to W
    lambdas: tuple[float, ...]     # lambda_0 .. lambda_{r-1}
    top_coeff: float               # (1 + eps/2) ** r

    @classmethod
    def from_params(cls, eps: float, W: float) -> "MsfConfig":
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if not 1 <= W < math.inf:
            raise ValueError(f"W must be finite and >= 1, got {W}")
        base = 1.0 + eps / 2.0
        r = 0 if W == 1 else math.ceil(math.log(W) / math.log(base))
        thresholds = tuple(base**i for i in range(r)) + (float(W),)
        lambdas = tuple(base ** (i + 1) - base**i for i in range(r))
        return cls(eps=eps, W=float(W), r=r, thresholds=thresholds,
                   lambdas=lambdas, top_coeff=base**r)


def combine(config: MsfConfig, counts, n: int) -> float:
    """The combiner X of the level counts: M <= X <= (1 + eps/2)*M given exact counts."""
    if len(counts) != config.r + 1:
        raise ValueError(f"expected {config.r + 1} counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    total = n - counts[config.r] * config.top_coeff
    for lam, c in zip(config.lambdas, counts):
        total += lam * c
    return float(total)


class _MsfEstimatorBase:
    """Config and the one store: ``graph``, and ``_lvl[j]`` the first level of slot j's edge.

    An insert appends to both; ``_remove`` mirrors the graph's swap-delete.
    """

    def __init__(self, n: int, eps: float, W: float, initial_edges):
        self.config = MsfConfig.from_params(eps, W)
        self.n = n
        self.graph = DynamicGraph(n)
        edges = list(initial_edges or ())
        u, v, w = (np.array(c) for c in (zip(*edges, strict=True) if edges else ((), (), ())))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (u == v) | (lo < 0) | (hi >= n) | ~((1.0 <= w) & (w <= W))  # a NaN weight too
        if bad.any():
            self._admits(*edges[int(bad.argmax())])  # raises that edge's ValueError
        first = np.sort(np.unique(lo * n + hi, return_index=True)[1])  # a pair's first weight
        lo, hi, w = lo[first], hi[first], w[first]
        self.graph._load(lo, hi)
        self._lvl = array("q", np.searchsorted(self.config.thresholds, w).tobytes())

    def _admits(self, u: int, v: int, w: float) -> int | None:
        """Check (u, v, w); the first level admitting w, or None if (u, v) is present."""
        check_edge(u, v, self.n)
        if not 1.0 <= w <= self.config.W:
            raise ValueError(f"weight {w} outside [1, {self.config.W}]")
        if v in self.graph.adj[u]:
            return None
        return bisect_left(self.config.thresholds, w)

    def _remove(self, u: int, v: int) -> int | None:
        """Delete (u, v), checking the pair once; its first level, or None if it was absent."""
        check_edge(u, v, self.n)
        i = self.graph._drop(u, v)
        if i is None:
            return None
        lvl = self._lvl
        first, lvl[i] = lvl[i], lvl[-1]  # the graph moved its last edge into slot i
        del lvl[-1]
        return first


class DeterministicMsfEstimator(_MsfEstimatorBase):
    """Worst-case deterministic (1+eps)-approximation of the MSF weight.

    The store starts with ``initial_edges``, duplicates skipped, and
    ``_keys[x]`` lists first level * n + y for each edge (x, y) below the
    top level r, sorted: level r reads the plain adjacency.
    ``levels[i]``, labelled in one warm-started pass, counts level i at
    k = ceil(2*top/eps), the module docstring's bound.  An update runs each
    level's half of a ``SmallCcCounter`` update, from the first level that
    admits (insert) or holds (delete) the edge up, before the store takes the
    edge or after it drops it: at most two BFS per level, none once u and v
    are connected in a level below, and at a delete's first level none if the
    level below, which never holds the edge, flags both endpoints large, one
    if it flags one.
    """

    def __init__(self, n: int, eps: float, W: float,
                 initial_edges: list[WeightedEdge] | None = None):
        super().__init__(n, eps, W, initial_edges)
        r, lvl = self.config.r, np.array(self._lvl)
        eu, ev = self.graph.edge_view()
        low = lvl < r  # level r reads the plain adjacency
        a, b, key = eu[low], ev[low], lvl[low] * n
        src, top = np.concatenate((a, b)), r * n  # vertex * top + key: by vertex, then key
        flat = (np.sort(src * top + np.concatenate((key + b, key + a))) % top).tolist()
        ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
        self._keys = [flat[a:b] for a, b in zip([0] + ends, ends)]
        full = np.arange(n)
        self.levels = []
        for i, (slot, nis_l, labels) in enumerate(_label_levels(n, eu, ev, lvl, r + 1)):
            full[:nis_l] = labels
            self.levels.append(SmallCcCounter(self.graph, eps / (2.0 * self.config.top_coeff),
                                              self._keys if i < r else None, i, full[slot]))

    def insert(self, u: int, v: int, w: float) -> bool:
        first = self._admits(u, v, w)
        if first is None:
            return False
        self._walk(SmallCcCounter._join, first, u, v)
        self.graph._append(u, v)
        self._lvl.append(first)
        if first < self.config.r:
            key = first * self.n
            insort(self._keys[u], key + v)
            insort(self._keys[v], key + u)
        return True

    def delete(self, u: int, v: int) -> bool:
        first = self._remove(u, v)
        if first is None:
            return False
        if first < self.config.r:
            key, ku, kv = first * self.n, self._keys[u], self._keys[v]
            del ku[bisect_left(ku, key + v)]
            del kv[bisect_left(kv, key + u)]
        self._walk(SmallCcCounter._split, first, u, v)
        return True

    def _walk(self, update, first: int, u: int, v: int) -> None:
        """Apply ``update`` to each level from ``first`` up, handing it the level below."""
        below = self.levels[first - 1] if first else None  # lacks (u, v) too
        if below is not None:
            below._connected = False  # of an older update
        for level in self.levels[first:]:
            update(level, u, v, below)
            below = level

    def estimate(self) -> float:
        return combine(self.config, [level.estimate() for level in self.levels], self.n)


class RandomizedMsfEstimator(_MsfEstimatorBase, _PhaseClock):
    """Sampling-based estimate of the MSF weight, valid against adaptive adversaries.

    Each level is a view of the one store, and all run on the one phase
    clock of ``cc_random`` with error eps' = eps/(4W) and failure
    probability p_prime/(r+1), from one generator: ``i`` updates, Thr the
    full graph's nis before each.  When a phase ends,
    ``cc_random._estimate_levels`` re-estimates every level (``counts``) in
    one pass and ``samples`` grows by the vertices drawn.  The combined
    error bound is in the module docstring.  ``use_fast_sizes`` accepts only True.
    """

    def __init__(self, n: int, eps: float, W: float, p_prime: float,
                 seed: int | None = None,
                 initial_edges: list[WeightedEdge] | None = None,
                 use_fast_sizes: bool = True):
        # the keyword stays while perfbench/workloads.py passes it, and goes
        # with the next change to the benchmark
        if not use_fast_sizes:
            raise ValueError("use_fast_sizes=False: the per-sample boundary route was removed")
        if not 0 < p_prime < 1:
            raise ValueError(f"p_prime must be in (0, 1), got {p_prime}")
        _MsfEstimatorBase.__init__(self, n, eps, W, initial_edges)
        _PhaseClock.__init__(self, eps / (4.0 * W), p_prime, self.config.r + 1, seed)

    def _levels(self) -> np.ndarray:
        return np.array(self._lvl)

    def insert(self, u: int, v: int, w: float) -> bool:
        first = self._admits(u, v, w)
        if first is None:
            return False
        thr = self.graph.nis
        self.graph._append(u, v)
        self._lvl.append(first)
        self._tick(thr)
        return True

    def delete(self, u: int, v: int) -> bool:
        thr = self.graph.nis
        if self._remove(u, v) is None:
            return False
        self._tick(thr)
        return True

    def estimate(self) -> float:
        return combine(self.config, self.counts, self.n)
