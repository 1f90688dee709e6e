"""(1+eps)-approximate minimum-spanning-forest weight under edge updates.

The MSF weight of a graph with weights in [1, W] is sandwiched by a weighted
sum of component counts of threshold subgraphs (edges of weight <= l_i for
geometrically spaced l_i).  Each threshold subgraph carries its own dynamic
component-count estimator: the deterministic variant uses the exact
small-component counter, the randomized variant the phased sampling
estimator.  Estimators of subgraphs untouched by an update advance their
update counters by two anyway, standing in for a same-vertex insert/delete
pair, so all phase schedules stay aligned with the full update sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cc_exact import SmallCcCounter
from .cc_random import PhasedCcEstimator
from .graph_core import DynamicGraph, UpdateOp

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
        if W < 1:
            raise ValueError("W must be >= 1")
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
    """Config, edge weights and threshold graphs shared by both estimators.

    Graph i holds the edges of weight <= l_i, seeded from ``initial_edges``;
    subclasses build one component-count estimator per graph in ``levels``.
    """

    def __init__(self, n: int, eps: float, W: float,
                 initial_edges: list[WeightedEdge] | None):
        self.config = MsfConfig.from_params(eps, W)
        self.n = n
        self._weights: dict[tuple[int, int], float] = {}
        self._graphs = [DynamicGraph(n) for _ in self.config.thresholds]
        for u, v, w in initial_edges or ():
            key = self._register(u, v, w)
            for g, hit in zip(self._graphs, self._hits(w)):
                if hit:
                    g.insert_edge(*key)

    def _hits(self, w: float) -> list[bool]:
        """Per level, whether its threshold admits an edge of weight w."""
        return [w <= thr for thr in self.config.thresholds]

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid edge ({u}, {v}) for n={self.n}")
        return (u, v) if u < v else (v, u)

    def _register(self, u: int, v: int, w: float) -> tuple[int, int]:
        key = self._key(u, v)
        if not 1.0 <= w <= self.config.W:
            raise ValueError(f"weight {w} outside [1, {self.config.W}]")
        if key in self._weights:
            raise ValueError(f"edge {key} already present")
        self._weights[key] = w
        return key

    def _unregister(self, u: int, v: int) -> float:
        key = self._key(u, v)
        w = self._weights.pop(key, None)
        if w is None:
            raise ValueError(f"edge {key} not present")
        return w


class DeterministicMsfEstimator(_MsfEstimatorBase):
    """Worst-case deterministic (1+eps)-approximation of the MSF weight.

    Per level the exact small-component counter runs with error parameter
    eps/(4W); an update touches every level whose threshold admits the
    edge's weight.
    """

    def __init__(self, n: int, eps: float, W: float,
                 initial_edges: list[WeightedEdge] | None = None):
        super().__init__(n, eps, W, initial_edges)
        self.levels = [SmallCcCounter(g, eps / (4.0 * W)) for g in self._graphs]

    def insert(self, u: int, v: int, w: float) -> None:
        self._register(u, v, w)
        for level, hit in zip(self.levels, self._hits(w)):
            if hit:
                level.on_insert(u, v)

    def delete(self, u: int, v: int) -> None:
        w = self._unregister(u, v)
        for level, hit in zip(self.levels, self._hits(w)):
            if hit:
                level.on_delete(u, v)

    def estimate(self) -> float:
        return combine(self.config, [level.estimate() for level in self.levels], self.n)


class RandomizedMsfEstimator(_MsfEstimatorBase):
    """Sampling-based (1+eps)-approximation, valid against adaptive adversaries.

    Each level runs the phased estimator with error eps/(4W) and failure
    probability p_prime/(r+1); the Thr parameter shared by all levels is the
    non-isolated-vertex count of the full graph just before each update.
    """

    def __init__(self, n: int, eps: float, W: float, p_prime: float,
                 seed: int | None = None,
                 initial_edges: list[WeightedEdge] | None = None,
                 use_fast_sizes: bool = False):
        super().__init__(n, eps, W, initial_edges)
        rng = np.random.default_rng(seed)
        self._full = self._graphs[-1]  # the top threshold admits every weight
        # every level sees the same Thr stream: nis of the full graph
        self.levels = [
            PhasedCcEstimator(g, eps / (4.0 * W), p_prime / len(self._graphs),
                              thr0=self._full.nis, rng=rng,
                              use_fast_sizes=use_fast_sizes)
            for g in self._graphs
        ]

    def insert(self, u: int, v: int, w: float) -> None:
        self._register(u, v, w)
        self._route(UpdateOp("i", u, v, w))

    def delete(self, u: int, v: int) -> None:
        self._route(UpdateOp("d", u, v, self._unregister(u, v)))

    def _route(self, op: UpdateOp) -> None:
        """Apply op to every admitting level's graph, then advance every level."""
        thr = self._full.nis
        hits = self._hits(op.w)
        for level, hit in zip(self.levels, hits):
            if hit:
                if op.kind == "i":
                    level.graph.insert_edge(op.u, op.v)
                else:
                    level.graph.delete_edge(op.u, op.v)
        for level, hit in zip(self.levels, hits):
            if hit:
                level.on_update(op, thr)
            else:
                level.tick(thr)

    def estimate(self) -> float:
        return combine(self.config, [level.estimate() for level in self.levels], self.n)
