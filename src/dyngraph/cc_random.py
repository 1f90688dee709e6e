"""Randomized component-count estimation: static sampling core + phased dynamic wrapper.

The static estimator samples non-isolated vertices, sizes each one's
component with a capped BFS, and averages inverse sizes; components larger
than the cap are treated as contributing zero, which biases the estimate by
at most eps*nis/2 while Hoeffding bounds the sampling error by the same
amount.  The dynamic estimator re-runs the static one at phase boundaries
and relies on the fact that one update changes the component count by at
most one in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import DynamicGraph, UpdateOp
from .nonzero_sampler import NonZeroSampler
from .oracles import fast_component_sizes, fast_ncc

MODE_THR = "thr"        # additive error eps' * Thr(G), Thr supplied per update
MODE_ABSOLUTE = "absolute"  # additive error eps' * n, no Thr needed


@dataclass(frozen=True)
class StaticEstimateConfig:
    eps: float
    p: float
    samples: int
    cap: int

    @classmethod
    def from_error(cls, eps: float, p: float) -> "StaticEstimateConfig":
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if not 0 < p < 1:
            raise ValueError("p must be in (0, 1)")
        samples = math.ceil(2.0 * math.log(2.0 / p) / (eps * eps))
        cap = math.ceil(2.0 / eps)
        return cls(eps=eps, p=p, samples=samples, cap=cap)


def static_estimate_nis(
    graph: DynamicGraph,
    sampler: NonZeroSampler,
    cfg: StaticEstimateConfig,
    rng: np.random.Generator,
    component_sizes: np.ndarray | None = None,
) -> float:
    """Estimate the number of components spanned by non-isolated vertices.

    Draws cfg.samples vertices from the sampler; each contributes the inverse
    of its component size when the capped BFS exhausts the component, else 0.
    With probability >= 1 - cfg.p the result is within cfg.eps * nis of the
    true count.  ``component_sizes`` short-circuits the per-sample BFS with a
    precomputed size array; it produces the same value for the same rng state
    (the sampler draw stream is identical either way).
    """
    nis = sampler.nis
    if nis == 0:
        return 0.0
    cap = cfg.cap
    if component_sizes is not None:
        us = sampler.sample_many(rng, cfg.samples)
        sizes = component_sizes[us]
        total = float(np.where(sizes <= cap, 1.0 / sizes, 0.0).sum())
    else:
        total = 0.0
        for _ in range(cfg.samples):
            u = sampler.sample(rng)
            reached, closed = graph.bfs_limited(u, cap)
            if closed:
                total += 1.0 / reached
    return nis * total / cfg.samples


class PhasedCcEstimator:
    """Dynamic component-count estimator, re-sampled at phase boundaries.

    In "thr" mode every update supplies Thr, an upper bound on the number of
    non-isolated vertices just before the update that moves by at most 2 per
    update; the estimate stays within eps' * Thr of the truth with
    probability 1 - p per phase.  In "absolute" mode the bound is eps' * n.
    The estimate is frozen between boundaries, so queries leak no randomness
    mid-phase and an adaptive adversary gains nothing.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        eps_prime: float,
        p: float,
        thr0: int | None = None,
        mode: str = MODE_THR,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        use_fast_sizes: bool = False,
    ):
        if mode not in (MODE_THR, MODE_ABSOLUTE):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0 < eps_prime <= 1:
            raise ValueError("eps_prime must be in (0, 1]")
        self.graph = graph
        self.mode = mode
        self.eps_prime = eps_prime
        self.p = p
        self.cfg = StaticEstimateConfig.from_error(eps_prime / 4.0, p)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.use_fast_sizes = use_fast_sizes

        nis = graph.nis
        self.gamma = nis
        self.c_bar = float(fast_ncc(*graph.edge_view(), graph.n))
        if mode == MODE_THR:
            if thr0 is None:
                raise ValueError("thr0 is required in thr mode")
            if thr0 < nis:
                raise ValueError(f"thr0={thr0} below nis={nis}")
            self.psi = thr0
            self._prev_thr = thr0
        else:
            self.psi = graph.n
            self._prev_thr = None
        self.i = 0
        self.phase_len = max(1, math.ceil(eps_prime * self.psi / 4.0))
        self._until_boundary = self.phase_len

        self.sampler = NonZeroSampler(graph.n)
        for v in range(graph.n):
            d = graph.degree(v)
            if d:
                self.sampler.update(v, d)

    def estimate(self) -> float:
        return self.c_bar

    def on_update(self, op: UpdateOp, thr: int | None = None) -> None:
        """Account for one update already applied to the graph.

        ``thr`` is the Thr value for this update (thr mode only), i.e. an
        upper bound on nis of the graph *before* the update.
        """
        if op.kind not in ("i", "d"):
            raise ValueError("queries are not updates")
        self._validate_thr(thr, op)
        delta = 1 if op.kind == "i" else -1
        self.sampler.update(op.u, delta)
        self.sampler.update(op.v, delta)
        if self.sampler.nis != self.graph.nis:
            raise ValueError("update op does not match the graph state")
        if self.mode == MODE_THR:
            self._prev_thr = thr
        self._advance(thr)

    def tick(self, thr: int | None = None, count: int = 2) -> None:
        """Advance the update counter without a graph change.

        Used to keep estimators on threshold subgraphs in lockstep with the
        full update sequence; boundaries fire exactly as for real updates.
        """
        self._validate_thr(thr, None)
        if self.mode == MODE_THR:
            self._prev_thr = thr
        for _ in range(count):
            self._advance(thr)

    def _validate_thr(self, thr: int | None, op: UpdateOp | None) -> None:
        if self.mode != MODE_THR:
            return
        if thr is None:
            raise ValueError("thr is required in thr mode")
        if abs(thr - self._prev_thr) > 2:
            raise ValueError(f"thr moved by more than 2: {self._prev_thr} -> {thr}")
        nis_before = self.graph.nis
        if op is not None:
            # reconstruct nis of the graph as it was before this update
            endpoints = (op.u, op.v)
            if op.kind == "i":
                nis_before -= sum(1 for x in endpoints if self.graph.degree(x) == 1)
            else:
                nis_before += sum(1 for x in endpoints if self.graph.degree(x) == 0)
        if thr < nis_before:
            raise ValueError(f"thr={thr} below nis={nis_before}")

    def _advance(self, thr: int | None) -> None:
        self.gamma = self.graph.nis
        self.i += 1
        self._until_boundary -= 1
        if self._until_boundary > 0:
            return
        sizes = None
        if self.use_fast_sizes and self.sampler.nis > 0:
            eu, ev = self.graph.edge_view()
            sizes = fast_component_sizes(eu, ev, self.graph.n)
        b = static_estimate_nis(self.graph, self.sampler, self.cfg, self.rng, sizes)
        self.c_bar = b + self.graph.n - self.gamma
        self.psi = thr if self.mode == MODE_THR else self.graph.n
        self.phase_len = max(1, math.ceil(self.eps_prime * self.psi / 4.0))
        self._until_boundary = self.phase_len
