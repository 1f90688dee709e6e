"""(1+eps)-approximate minimum-spanning-forest weight under edge updates.

The MSF weight of a graph with weights in [1, W] is sandwiched by a weighted
sum of component counts of threshold subgraphs (edges of weight <= l_i for
geometrically spaced l_i).  Each threshold subgraph carries its own dynamic
component-count estimator: the deterministic variant uses the exact
small-component counter, the randomized variant the phased sampling
estimator.  An update reaches only the subgraphs that admit or hold its edge.
The randomized levels share one phase clock over the full update sequence:
an update a level misses moves its Thr by at most 2 and its count by 0, so
by the budget in ``cc_random`` it counts as one update there too, and every
level re-samples at the same update.

The threshold subgraphs are the only edge store: the top one (l_r = W) holds
every edge.  They nest, so an update hits one level and every level above
it.  The deterministic estimator walks the hit levels bottom-up and carries
what each level's capped BFS found in its graph G_i without (u, v) to the
levels G_j above it (the four facts of ``cc_exact``): (1) u and v connected
in G_i are connected in G_j, which then needs no BFS; (2) a component of
more than k vertices in G_i lies in one in G_j; (3) with both endpoints
large in G_i, G_j needs no BFS; (4) with one large in G_i, G_j needs one
BFS, from the other endpoint.

An update failing ``graph_core.check_edge`` or with a weight outside [1, W]
raises ``ValueError`` before any change; a duplicate insert or an absent
delete returns False and changes nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cc_exact import SmallCcCounter
from .cc_random import PhasedCcEstimator
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
    """Weighted component-count sum estimating the MSF weight.

    With exact counts c_i per level the result X satisfies
    M <= X <= (1 + eps/2) * M for the true MSF weight M.
    """
    if len(counts) != config.r + 1:
        raise ValueError(f"expected {config.r + 1} counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    total = n - counts[config.r] * config.top_coeff
    for lam, c in zip(config.lambdas, counts):
        total += lam * c
    return float(total)


class _MsfEstimatorBase:
    """Config and threshold graphs shared by both estimators.

    Graph i holds the edges of weight <= l_i from ``initial_edges``, duplicates
    skipped; subclasses build one component-count estimator per graph in ``levels``.
    """

    def __init__(self, n: int, eps: float, W: float,
                 initial_edges: list[WeightedEdge] | None):
        self.config = MsfConfig.from_params(eps, W)
        self.n = n
        self._graphs = [DynamicGraph(n) for _ in self.config.thresholds]
        self._full = self._graphs[-1]
        for u, v, w in initial_edges or ():
            first = self._admits(u, v, w)
            if first is not None:
                for g in self._graphs[first:]:
                    g.insert_edge(u, v)

    def _admits(self, u: int, v: int, w: float) -> int | None:
        """Check (u, v, w); the first level admitting w, or None if (u, v) is present."""
        check_edge(u, v, self.n)
        if not 1.0 <= w <= self.config.W:
            raise ValueError(f"weight {w} outside [1, {self.config.W}]")
        if v in self._full.adj[u]:
            return None
        return bisect_left(self.config.thresholds, w)

    def _holds(self, u: int, v: int) -> int | None:
        """Check (u, v); the first level whose graph holds it, or None if absent."""
        check_edge(u, v, self.n)
        if v not in self._full.adj[u]:
            return None
        return next(i for i, g in enumerate(self._graphs) if v in g.adj[u])


class DeterministicMsfEstimator(_MsfEstimatorBase):
    """Worst-case deterministic (1+eps)-approximation of the MSF weight.

    Per level the exact small-component counter runs with error parameter
    eps/(4W), so every level has the same k.  An update touches every level
    from the first that admits (insert) or holds (delete) the edge, bottom
    up, and hands each level the one below it, whose findings in G_i (facts
    1-4 above, each read on G_i without (u, v)) spare BFS calls at G_j: no
    BFS once u and v are connected or both large in G_i, one while exactly
    one endpoint is large, else at most two.
    """

    def __init__(self, n: int, eps: float, W: float,
                 initial_edges: list[WeightedEdge] | None = None):
        super().__init__(n, eps, W, initial_edges)
        self.levels = [SmallCcCounter(g, eps / (4.0 * W)) for g in self._graphs]

    def insert(self, u: int, v: int, w: float) -> bool:
        return self._walk(SmallCcCounter.on_insert, self._admits(u, v, w), u, v)

    def delete(self, u: int, v: int) -> bool:
        return self._walk(SmallCcCounter.on_delete, self._holds(u, v), u, v)

    def _walk(self, update, first: int | None, u: int, v: int) -> bool:
        """Apply ``update`` to each level from ``first`` up, handing it the level below."""
        if first is None:
            return False
        below = None
        for level in self.levels[first:]:
            update(level, u, v, below=below)
            below = level
        return True

    def estimate(self) -> float:
        return combine(self.config, [level.estimate() for level in self.levels], self.n)


class RandomizedMsfEstimator(_MsfEstimatorBase):
    """Sampling-based (1+eps)-approximation, valid against adaptive adversaries.

    Each level runs the phased estimator with error eps/(4W) and failure
    probability p_prime/(r+1) on its own threshold graph, all drawing from
    one generator, and Thr is the full graph's nis before the update.  The
    levels share one phase clock, ``i`` updates old (module docstring): an
    update edits only the graphs that admit or hold its edge, and when the
    phase runs out every level re-samples, bottom-up and with the same psi
    (``PhasedCcEstimator.resample``).  At eps' = eps/(4W) a phase lasts about
    (3/4) eps' Thr updates.
    ``use_fast_sizes`` accepts only True, the route every boundary takes.
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
        super().__init__(n, eps, W, initial_edges)
        rng = np.random.default_rng(seed)
        self.levels = [
            PhasedCcEstimator(g, eps / (4.0 * W), p_prime / len(self._graphs), seed=rng,
                              enclosing=self._full)
            for g in self._graphs
        ]
        self.i = 0
        self._until_boundary = self.levels[-1].phase_len

    def insert(self, u: int, v: int, w: float) -> bool:
        return self._apply(DynamicGraph.insert_edge, self._admits(u, v, w), u, v)

    def delete(self, u: int, v: int) -> bool:
        return self._apply(DynamicGraph.delete_edge, self._holds(u, v), u, v)

    def _apply(self, edit, first: int | None, u: int, v: int) -> bool:
        """Edit (u, v) in the graphs from ``first`` up, then advance the shared clock."""
        if first is None:
            return False
        thr = self._full.nis
        for g in self._graphs[first:]:
            edit(g, u, v)
        self.i += 1
        self._until_boundary -= 1
        if self._until_boundary <= 0:
            for level in self.levels:
                level.resample(thr)
            self._until_boundary = self.levels[-1].phase_len
        return True

    def estimate(self) -> float:
        return combine(self.config, [level.estimate() for level in self.levels], self.n)
