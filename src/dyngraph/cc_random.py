"""Randomized component-count estimation: static sampling core + phased dynamic wrapper.

The static estimator samples non-isolated vertices, sizes each one's
component with a capped BFS, and averages inverse sizes; components larger
than the cap are treated as contributing zero, which biases the estimate by
at most eps*nis/2 while Hoeffding bounds the sampling error by the same
amount.  The dynamic estimator re-estimates at phase boundaries and relies
on the fact that one update changes the component count by at most one in
between; its error scale Thr is the nis of an enclosing graph (by default
its own) read before each update.  Given every component's size, a boundary
takes one multinomial draw over the component sizes 2..cap and "above cap"
instead of one draw per sample: the estimate depends only on how many
samples land in each size class, so the draw has the distribution of the
per-sample loop (the inverse-size estimator of Chazelle, Rubinfeld and
Trevisan, SICOMP 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import DynamicGraph, UpdateOp
from .nonzero_sampler import NonZeroSampler
from .oracles import fast_component_sizes, fast_ncc


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
) -> float:
    """Estimate the number of components spanned by non-isolated vertices.

    Draws cfg.samples vertices from the sampler; each contributes the inverse
    of its component size when the capped BFS exhausts the component, else 0.
    With probability >= 1 - cfg.p the result is within cfg.eps * nis of the
    true count.
    """
    nis = sampler.nis
    if nis == 0:
        return 0.0
    cap = cfg.cap
    total = 0.0
    for _ in range(cfg.samples):
        u = sampler.sample(rng)
        reached, closed = graph.bfs_limited(u, cap)
        if closed:
            total += 1.0 / reached
    return nis * total / cfg.samples


def _size_class_estimate(
    sizes: np.ndarray, nis: int, cfg: StaticEstimateConfig, rng: np.random.Generator
) -> float:
    """``static_estimate_nis`` drawn per size class from per-vertex component sizes.

    Class s = 2..cap holds the non-isolated vertices in components of s
    vertices, and the last class those in larger components.  The number of
    cfg.samples uniform draws that land in each class is multinomial with
    shares counts / nis, and a draw in class s contributes 1/s (0 in the last
    class), so one multinomial draw replaces the per-sample loop in O(cap).
    """
    cap = cfg.cap
    counts = np.bincount(sizes, minlength=cap + 1)[2 : cap + 1]
    draws = rng.multinomial(cfg.samples, np.append(counts, nis - counts.sum()) / nis)
    total = float(draws[:-1] @ (1.0 / np.arange(2, cap + 1)))
    return nis * total / cfg.samples


class PhasedCcEstimator:
    """Dynamic component-count estimator, re-sampled at phase boundaries.

    The estimator owns its graph: ``on_update`` applies each insert or delete
    itself, so callers must not mutate the graph separately.  Thr, the error
    scale, is the nis of ``enclosing`` just before each update; it defaults to
    the graph itself, and an estimator of a subgraph passes the graph it lies
    in, which changes by one edge per update.  The estimate stays within
    eps' * Thr of the truth with probability 1 - p per phase and is frozen
    between boundaries, so queries leak no randomness mid-phase and an
    adaptive adversary gains nothing.  A boundary draws cfg.samples vertices
    of the graph's nis: it numbers the non-isolated vertices 0..nis-1 from the
    edge view, labels their components once (O(n) for the numbering, O(nis +
    m) for the labelling), and draws how many samples land in each size
    class, in one multinomial draw.  Everything is read from ``graph``; no
    second copy of its degrees is kept.  ``samples`` counts every vertex drawn
    at a boundary since construction.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        eps_prime: float,
        p: float,
        seed: int | np.random.Generator | None = None,
        enclosing: DynamicGraph | None = None,
    ):
        if not 0 < eps_prime <= 1:
            raise ValueError("eps_prime must be in (0, 1]")
        enclosing = graph if enclosing is None else enclosing
        if enclosing.n != graph.n or enclosing.nis < graph.nis:
            raise ValueError("enclosing graph needs the same n and at least the graph's nis")
        self.graph = graph
        self.enclosing = enclosing
        self.eps_prime = eps_prime
        self.cfg = StaticEstimateConfig.from_error(eps_prime / 4.0, p)
        self.rng = np.random.default_rng(seed)  # a Generator passes through as is

        self.c_bar = float(fast_ncc(*graph.edge_view(), graph.n))
        self.psi = enclosing.nis
        self.i = 0
        self.samples = 0
        self.phase_len = max(1, math.ceil(eps_prime * self.psi / 4.0))
        self._until_boundary = self.phase_len

    def estimate(self) -> float:
        return self.c_bar

    def on_update(self, op: UpdateOp) -> bool:
        """Apply one insert or delete to the graph and advance the phase.

        A duplicate insert or an absent delete is a no-op: it returns False
        and changes nothing.
        """
        if op.kind not in ("i", "d"):
            raise ValueError("queries are not updates")
        thr = self.enclosing.nis
        g = self.graph
        insert = op.kind == "i"
        if not (g.insert_edge(op.u, op.v) if insert else g.delete_edge(op.u, op.v)):
            return False
        self._advance(thr)
        return True

    def tick(self) -> None:
        """Advance the update counter by two without a graph change.

        Keeps estimators on threshold subgraphs in lockstep with the full
        update sequence, standing in for a same-vertex insert/delete pair;
        boundaries fire exactly as for real updates.
        """
        thr = self.enclosing.nis
        self._advance(thr)
        self._advance(thr)

    def _advance(self, thr: int) -> None:
        self.i += 1
        self._until_boundary -= 1
        if self._until_boundary > 0:
            return
        b = 0.0
        g = self.graph
        nis = g.nis
        if nis > 0:  # a graph without edges draws nothing
            self.samples += self.cfg.samples
            eu, ev = g.edge_view()
            slot = np.zeros(g.n, dtype=np.int64)
            slot[eu] = 1
            slot[ev] = 1
            slot = np.cumsum(slot) - 1  # non-isolated vertices -> 0..nis-1
            sizes = fast_component_sizes(slot[eu], slot[ev], nis)
            b = _size_class_estimate(sizes, nis, self.cfg, self.rng)
        self.c_bar = b + g.n - nis
        self.psi = thr
        self.phase_len = max(1, math.ceil(self.eps_prime * self.psi / 4.0))
        self._until_boundary = self.phase_len
