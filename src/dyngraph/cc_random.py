"""Randomized component-count estimation: static sampling core + phased dynamic wrapper.

The static estimator samples non-isolated vertices, sizes each one's
component with a capped BFS, and averages inverse sizes; components larger
than the cap are treated as contributing zero, which biases the estimate by
at most eps*nis/2 while Hoeffding bounds the sampling error by the same
amount.  Given every component's size, a boundary takes one multinomial
draw over the component sizes 2..cap and "above cap" instead of one draw
per sample: the estimate depends only on how many samples land in each size
class, so the draw has the distribution of the per-sample loop (the
inverse-size estimator of Chazelle, Rubinfeld and Trevisan, SICOMP 2005).
One routine, ``_estimate_levels``, does this for nested graphs at once: the
phased estimator passes one level, the randomized MSF its r + 1 levels.  Its
labelling pass, ``_label_levels``, also labels the deterministic MSF's levels.

The dynamic estimator re-estimates at phase boundaries and keeps the
estimate frozen in between.  Its allowance is eps'*Thr, where Thr is the
nis of an enclosing graph (by default its own) read before each update.
Let psi be Thr before the update that fires a boundary and L the phase
length set there; the next boundary fires L updates later.  k updates
after the boundary (0 <= k <= L - 1) the error is at most the sum of:

- the static estimate's error, (eps'/4)*nis of the graph after the boundary
  update, with probability 1 - p.  That nis is at most psi + 2: the update
  adds at most two non-isolated vertices, and the graph lies in the
  enclosing one;
- a drift of at most 1 per applied update, since one insert or delete moves
  the component count by at most one.  A ``tick`` is an update of the
  enclosing graph that misses this graph: it counts as one update, with
  drift 0.

Thr falls by at most 2 per update of the enclosing graph, ticks included,
so the allowance k updates on is at least eps'*(psi - 2k).  Both sides are
worst at k = L - 1, so the budget is

    eps'*(psi + 2)/4 + (L - 1) <= eps'*(psi - 2*(L - 1)),

and ``_phase_len`` takes the largest L that meets it,
L = 1 + floor(eps'*(3*psi - 2) / (4*(1 + 2*eps'))), which is at least 1
for psi >= 1.  At psi = 0 the boundary graph has at most one edge, whose
count the static estimate gets exactly.  The first phase starts from the
exact count, so it spends less than a later one.  This length spends the
whole allowance: anything else that lets the published value lag the graph
must be paid for out of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import DynamicGraph, UpdateOp
from .nonzero_sampler import NonZeroSampler
from .oracles import fast_component_sizes  # noqa: F401  perfbench/test_smoke.py reads it here
from .oracles import fast_ncc, hook_and_jump


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


def _label_levels(n: int, eu: np.ndarray, ev: np.ndarray, lvl: np.ndarray, nlev: int):
    """Label nested graphs G_0 <= ... <= G_{nlev-1} bottom up, in one warm-started pass.

    Edge j lies in G_lvl[j] and every level above.  The vertices are
    numbered once, by the lowest level at which they have an edge, so the
    nis non-isolated vertices of each level are the numbers 0..nis-1.
    Bottom up, each level starts ``hook_and_jump`` from the labels of the
    level below, whose roots are component minima in every level above, and
    adds only its own edges.  Yields ``(slot, nis, labels)`` per level, the
    labels of the numbers 0..nis-1, valid until the next level overwrites
    them; vertex x has number ``slot[x]``.
    """
    first = np.full(n, nlev, dtype=lvl.dtype)  # ufunc.at is slow when it must cast
    np.minimum.at(first, eu, lvl)
    np.minimum.at(first, ev, lvl)
    small = np.min_scalar_type(nlev)  # levels of this dtype sort by radix
    slot = np.empty(n, dtype=np.int64)
    slot[np.argsort(first.astype(small), kind="stable")] = np.arange(n)
    nis = np.cumsum(np.bincount(first, minlength=nlev + 1))[:nlev].tolist()
    order = np.argsort(lvl.astype(small), kind="stable")
    su, sv = slot[eu[order]], slot[ev[order]]
    ends = np.cumsum(np.bincount(lvl, minlength=nlev)).tolist()
    labels = np.arange(nis[-1])
    start = 0
    for stop, nis_l in zip(ends, nis):
        if stop:
            labels[:nis_l] = hook_and_jump(labels[:nis_l], su[start:stop], sv[start:stop])
        yield slot, nis_l, labels[:nis_l]
        start = stop


def _estimate_levels(n: int, eu: np.ndarray, ev: np.ndarray, lvl: np.ndarray, nlev: int,
                     cfg: StaticEstimateConfig, rng: np.random.Generator
                     ) -> tuple[list[float], int]:
    """Component-count estimates of nested graphs labelled by ``_label_levels``, and samples drawn.

    Each level with an edge draws its size classes from ``rng``.
    """
    estimates, drawn = [], 0
    for _, nis_l, level in _label_levels(n, eu, ev, lvl, nlev):
        b = 0.0
        if nis_l:  # a level without edges draws nothing
            b = _size_class_estimate(np.bincount(level)[level], nis_l, cfg, rng)
            drawn += cfg.samples
        estimates.append(b + n - nis_l)
    return estimates, drawn


def _phase_len(eps_prime: float, psi: int) -> int:
    """The longest phase the error budget (module docstring) allows at Thr = psi."""
    return max(1, 1 + math.floor(eps_prime * (3 * psi - 2) / (4.0 * (1.0 + 2.0 * eps_prime))))


class PhasedCcEstimator:
    """Dynamic component-count estimator, re-sampled at phase boundaries.

    The estimator owns its graph: ``on_update`` applies each insert or delete
    itself, so callers must not mutate the graph separately.  Thr, the error
    scale, is the nis of ``enclosing`` just before each update; it defaults to
    the graph itself, and an estimator of a subgraph passes the graph it lies
    in, which changes by one edge per update.  The estimate stays within
    eps' * Thr of the truth with probability 1 - p per phase and is frozen
    between boundaries, so queries leak no randomness mid-phase and an
    adaptive adversary gains nothing.  A phase that starts at Thr = psi lasts
    ``phase_len`` = 1 + floor(eps'(3 psi - 2) / (4 (1 + 2 eps'))) updates,
    the longest the error budget in the module docstring allows: about
    (3/4) eps' psi for small eps', and psi/4 at eps' = 1.  A boundary draws
    cfg.samples vertices of the graph's nis as ``_estimate_levels`` with one
    level: O(n) to number the non-isolated vertices, O(nis + m) to label
    them, one multinomial draw.  ``samples`` counts every vertex drawn at a
    boundary since construction.
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
        self.phase_len = _phase_len(eps_prime, self.psi)
        self._until_boundary = self.phase_len

    def estimate(self) -> float:
        return self.c_bar

    def on_update(self, op: UpdateOp) -> bool:
        """Apply one insert or delete to the graph and advance the phase.

        A duplicate insert or an absent delete is a no-op: it returns False
        and changes nothing.  The graph checks the pair; any kind other than
        ``"i"`` or ``"d"`` raises ValueError.
        """
        thr = self.enclosing.nis
        kind = op.kind
        if kind == "i":
            applied = self.graph.insert_edge(op.u, op.v)
        elif kind == "d":
            applied = self.graph.delete_edge(op.u, op.v)
        else:
            raise ValueError(f"op kind {kind!r} is not an insert or a delete")
        if not applied:
            return False
        self._advance(thr)
        return True

    def tick(self) -> None:
        """Count one update of the enclosing graph that misses this graph.

        Call it before the enclosing graph changes.  It moves Thr by at most
        2 and the count by 0, so it spends one update of the budget (module
        docstring), and boundaries fire exactly as for applied updates.
        """
        self._advance(self.enclosing.nis)

    def _advance(self, thr: int) -> None:
        """Count one update; at a phase's end re-estimate and start a phase at Thr = thr."""
        self.i += 1
        self._until_boundary -= 1
        if self._until_boundary <= 0:
            eu, ev = self.graph.edge_view()
            (self.c_bar,), drawn = _estimate_levels(self.graph.n, eu, ev, np.zeros_like(eu), 1,
                                                    self.cfg, self.rng)
            self.samples += drawn
            self.psi = thr
            self.phase_len = _phase_len(self.eps_prime, thr)
            self._until_boundary = self.phase_len
