"""Fully dynamic proper (delta+1)-vertex coloring in expected amortized constant time.

The bound holds against an oblivious adversary: the update sequence is fixed
in advance, independently of the structure's random ranks and color draws.

Every vertex gets a static random rank, and each edge is stored once, in the
insertion-ordered set L of its higher-ranked end (a dict of None values).  A
vertex's higher-ranked side H_v is kept only as a color multiplicity book
(C_H) and a count |H_v|; everything about the L side, and the list of colors
blank for v, is recomputed on demand in time O(|L_v| + delta).  When an
inserted edge joins two same-colored endpoints, the more recently colored one
is recolored with a color sampled from a restricted set of blank and
singly-used-below colors, which may cascade along a path of strictly
decreasing ranks until a blank color is drawn.  A drawn index names a unique
color in the order of L_v and a blank color in palette order; neither order
changes the draw's law.  A high-degree step builds the median split and the
unique-color list only when its B blanks are at most ceil(|chosen|/2): with
more, every index it can draw names a blank, so the law is unchanged.

Ranks are dense: vertex v's rank is its position 0..n-1 in the order of
(r_v, v), where r_v is a uniform 64-bit draw, so ties in r_v are broken by
vertex id, ranks are distinct and totally ordered, and each is a small int.
``seed`` is an int or None; each color is numpy's scalar ``integers`` draw,
reproduced from the PCG64 raw stream, so a seed gives the colors it always gave.
Each recoloring step marks the vertices it visits, so that the next step can
split its L set into seen and fresh neighbors.  A low-degree step
(2*deg < delta) always ends the path, so it marks nothing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph_core import check_edge, check_vertex


class DeltaBoundError(ValueError):
    """An insertion would push an endpoint's degree above the promised bound."""


class InvariantError(RuntimeError):
    """A runtime-checked internal invariant failed."""


class RecolorStats(NamedTuple):
    """Work accounting for one update's recoloring cascade: an immutable record, zeros if none."""

    path_length: int = 0
    total_work: int = 0  # sum over the path of (1 + |L_v|)
    good_steps: int = 0  # a low-degree step is neither good nor bad
    bad_steps: int = 0


_NO_RECOLOR = RecolorStats()  # what every insert without a cascade returns


class _Draws:
    """numpy's scalar ``Generator.integers(low, high)``, read straight off PCG64's raw stream.

    For 1 < h = high - low <= 2**32 numpy takes 32-bit halves of a raw output,
    low half first, keeping the high half for the next draw, and returns the
    high word of x*h, redrawing while its low word is below (2**32 - h) % h.
    Doing that here skips numpy's per-call cost; other ranges go to numpy.
    """

    def __init__(self, gen: np.random.Generator):
        bitgen = gen.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(f"color draws read a PCG64 stream, not {type(bitgen).__name__}")
        state = bitgen.state  # take over the generator's buffered half
        self._half = state["uinteger"] if state["has_uint32"] else None
        bitgen.state = {**state, "has_uint32": 0, "uinteger": 0}
        self._gen, self._raw = gen, bitgen.random_raw

    def integers(self, low: int, high: int):
        h = high - low
        if not 1 < h <= 1 << 32:
            return self._gen.integers(low, high)
        while True:
            x, self._half = self._half, None
            if x is None:
                r = self._raw()
                x, self._half = r & 0xFFFFFFFF, r >> 32
            m = x * h
            if m & 0xFFFFFFFF >= ((1 << 32) - h) % h:
                return low + (m >> 32)


class Coloring:
    """Proper (delta+1)-coloring of a delta-bounded dynamic graph.

    It owns its adjacency and is driven directly with ``insert``/``delete``.
    Each edge sits once, in the ordered set ``L`` of its higher-ranked end,
    whose order decides which vertex a color draw names; the lower end keeps
    only a count (``hdeg``) and the edge's color in its book ``mu``, the one
    color book there is.  A high-degree step names its j-th blank color (used
    neither in ``mu[v]`` nor on L_v) by walking the palette 1..delta+1; it
    sorts ranks for the median split and lists unique colors only when its
    blanks B <= ceil(|chosen|/2), since otherwise the draw can only name a
    blank (the law is unchanged).
    Expected amortized constant work per update assumes an oblivious
    adversary.  Every color draw checks that its sample set is large enough
    and raises ``InvariantError`` if not; ``strict`` accepts only True.
    ``seed`` is an int or None; each color is numpy's scalar ``integers`` draw,
    read off the PCG64 raw stream, so a seed gives the colors it always gave.
    ``colors`` is a numpy snapshot of the current colors, built on each
    access; ``color_of`` reads one vertex without a copy.
    """

    def __init__(
        self,
        n: int,
        delta: int,
        seed: int | None = None,
        strict: bool = True,
    ):
        if n < 1:
            raise ValueError("need n >= 1")
        if delta < 1:
            raise ValueError("delta must be >= 1")
        if not strict:  # the keyword stays while perfbench/workloads.py passes it
            raise ValueError("strict=False: the sample-set size check always runs")
        self.n = n
        self.delta = delta
        self.palette = delta + 1
        gen = np.random.default_rng(seed)

        r64 = gen.integers(0, 2**64, size=n, dtype=np.uint64)
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(r64, kind="stable")] = np.arange(n)  # stable: ties keep id order
        self.rank: list[int] = rank.tolist()
        self._chi: list[int] = gen.integers(
            1, self.palette + 1, size=n, dtype=np.int64).tolist()
        self.rng = _Draws(gen)
        self.tau: list[int] = [0] * n  # update count at each vertex's last recolor

        self.L: list[dict[int, None]] = [{} for _ in range(n)]  # insertion-ordered sets
        self.hdeg: list[int] = [0] * n  # |H_v|: neighbors ranked above v
        # mu[v]: color -> number of H_v neighbors using it (the C_H book)
        self.mu: list[dict[int, int]] = [{} for _ in range(n)]

        self._vis = bytearray(n)
        self._cnt = [0] * (self.palette + 1)  # scratch: color -> count in L_v

        self.updates = 0
        self.recolor_events = 0
        self.total_recolor_work = 0
        self.setcolor_calls = 0

    # -- basic queries ------------------------------------------------------

    def degree(self, v: int) -> int:
        check_vertex(v, self.n)
        return len(self.L[v]) + self.hdeg[v]

    def color_of(self, v: int) -> int:
        check_vertex(v, self.n)
        return self._chi[v]

    @property
    def colors(self) -> np.ndarray:
        return np.array(self._chi, dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        check_edge(u, v, self.n)
        return u in self.L[v] if self.rank[u] < self.rank[v] else v in self.L[u]

    def edges(self) -> list[tuple[int, int]]:
        """Current edge set, each edge once as (min id, max id)."""
        return [(u, w) if u < w else (w, u) for w in range(self.n) for u in self.L[w]]

    # -- updates ------------------------------------------------------------

    def insert(self, u: int, v: int) -> RecolorStats:
        """Insert edge (u, v), recoloring an endpoint if colors collide.

        Both endpoints must have degree < delta beforehand; a duplicate edge
        is a no-op returning empty stats.  If the cascade raises, as a failed
        ``InvariantError`` check does, the edge, the colors and the books are
        rolled back and ``updates`` uncounted before the error propagates;
        only ``setcolor_calls`` and the generator's state keep what happened.
        """
        check_edge(u, v, self.n)
        lo, hi = (u, v) if self.rank[u] < self.rank[v] else (v, u)
        L, hdeg, delta = self.L, self.hdeg, self.delta
        if lo in L[hi]:
            return _NO_RECOLOR
        if len(L[u]) + hdeg[u] >= delta:
            raise DeltaBoundError(f"degree of {u} would exceed delta={delta}")
        if len(L[v]) + hdeg[v] >= delta:
            raise DeltaBoundError(f"degree of {v} would exceed delta={delta}")
        self.updates += 1
        L[hi][lo] = None
        hdeg[lo] += 1
        chi = self._chi
        mu = self.mu[lo]
        c = chi[hi]
        mu[c] = mu.get(c, 0) + 1
        if chi[u] != chi[v]:
            return _NO_RECOLOR
        tu, tv = self.tau[u], self.tau[v]
        try:
            return self._recolor(u if tu > tv or (tu == tv and u > v) else v)
        except BaseException:  # _recolor restored the colors: drop the edge again
            self.updates -= 1
            del L[hi][lo]
            hdeg[lo] -= 1
            mu[c] -= 1
            if not mu[c]:
                del mu[c]
            raise

    def delete(self, u: int, v: int) -> bool:
        """Delete edge (u, v); never recolors. An absent edge is a no-op returning False."""
        check_edge(u, v, self.n)
        lo, hi = (u, v) if self.rank[u] < self.rank[v] else (v, u)
        l_hi = self.L[hi]
        if lo not in l_hi:
            return False
        self.updates += 1
        del l_hi[lo]
        self.hdeg[lo] -= 1
        c = self._chi[hi]
        mu = self.mu[lo]
        count = mu[c]
        if count == 1:
            del mu[c]
        else:
            mu[c] = count - 1
        return True

    def rebuild(self, new_delta: int) -> "Coloring":
        """Fresh structure over the current edge set with palette [1, new_delta+1]."""
        edges = self.edges()
        if any(self.degree(v) > new_delta for v in range(self.n)):
            raise DeltaBoundError("current max degree exceeds new_delta")
        child_seed = int(self.rng.integers(0, 2**63))
        fresh = Coloring(self.n, new_delta, seed=child_seed)
        for a, b in edges:
            fresh.insert(a, b)
        return fresh

    # -- internals ----------------------------------------------------------

    def _recolor(self, v0: int) -> RecolorStats:
        """Recoloring cascade starting at v0; ranks strictly decrease along it.

        A raise undoes every step (colors, times and the books of L_v), in
        reverse, and leaves no marks behind for the next cascade.
        """
        marked: list[int] = []
        steps: list[tuple[int, int, int]] = []  # (v, old color, old tau) per recolored v
        chi, tau, rank, L, mus = self._chi, self.tau, self.rank, self.L, self.mu
        now = self.updates
        length = work = good = bad = 0
        v = v0
        try:
            while True:
                new, next_v, branch = self._set_color(v, marked)
                Lv = L[v]
                length += 1
                work += 1 + len(Lv)
                if branch == 1:
                    good += 1
                elif branch == 2:
                    bad += 1
                old = chi[v]
                steps.append((v, old, tau[v]))
                chi[v] = new
                tau[v] = now
                if new != old:
                    for w in Lv:  # v's colour moves from old to new in each C_H(w) book
                        mu = mus[w]
                        count = mu[old]
                        if count == 1:
                            del mu[old]
                        else:
                            mu[old] = count - 1
                        mu[new] = mu.get(new, 0) + 1
                if next_v is None:
                    break
                if rank[next_v] >= rank[v]:
                    raise InvariantError("recoloring path must descend in rank")
                v = next_v
        except BaseException:
            for v, old, t in reversed(steps):
                new, chi[v], tau[v] = chi[v], old, t
                if new != old:
                    for w in L[v]:
                        mu = mus[w]
                        mu[old] = mu.get(old, 0) + 1
                        mu[new] -= 1
                        if not mu[new]:
                            del mu[new]
            raise
        finally:
            vis = self._vis
            for x in marked:
                vis[x] = 0
        self.recolor_events += 1
        self.total_recolor_work += work
        return RecolorStats(length, work, good, bad)

    def _set_color(self, v: int, marked: list[int]) -> tuple[int, int | None, int]:
        """Pick a new color for v; returns (color, next path vertex or None, branch).

        branch: 0 = low-degree blank sampling, 1 = fresh-neighbor branch,
        2 = seen-neighbor branch.  The caller still holds v's old color.
        Only branches 1 and 2 mark v and L_v in ``marked``: a low-degree step
        ends the path, so no later step reads its marks.
        """
        self.setcolor_calls += 1
        Lv = self.L[v]
        len_l = len(Lv)
        chi = self._chi
        mu_v = self.mu[v]
        if 2 * (len_l + self.hdeg[v]) < self.delta:
            used = {chi[u] for u in Lv}
            blanks = self.palette - len(mu_v) - len(used.difference(mu_v))
            if 2 * blanks < self.delta + 2:  # checked first: with no blank, the draws never end
                raise InvariantError(
                    f"sample set of size {blanks} below delta/2+1 (delta={self.delta})")
            while True:
                c = int(self.rng.integers(1, self.palette + 1))
                if c not in used and c not in mu_v:
                    return c, None, 0
        vis = self._vis
        if not vis[v]:
            vis[v] = 1
            marked.append(v)
        cnt = self._cnt
        touched: list[int] = []  # the colors of L_v, each once
        l_old: list[int] = []
        l_new: list[int] = []
        l_only = 0  # colors used in L_v and not in H_v
        for u in Lv:
            if vis[u]:
                l_old.append(u)
            else:
                vis[u] = 1
                marked.append(u)
                l_new.append(u)
            c = chi[u]
            k = cnt[c]
            if not k:
                touched.append(c)
                if c not in mu_v:
                    l_only += 1
            cnt[c] = k + 1
        try:
            if 10 * len(l_new) >= len_l:
                chosen = l_new
                branch = 1
            else:
                chosen = l_old
                branch = 2
            blanks = self.palette - len(mu_v) - l_only
            half = (len(chosen) + 1) // 2  # |sub|: ranks are distinct
            # with blanks > half every j < s is a blank, so uniq is never read
            s = min(blanks, half + 1)
            if chosen and blanks <= half:
                rank = self.rank
                median = sorted([rank[u] for u in chosen])[half - 1]
                # unique colors: used by exactly one vertex of L_v, by no vertex
                # of H_v, with that vertex inside sub (chosen at or below the median)
                uniq = [u for u in chosen
                        if rank[u] <= median and cnt[chi[u]] == 1 and chi[u] not in mu_v]
                s = min(blanks + len(uniq), half + 1)
            if 100 * (s - 1) < len_l:
                raise InvariantError(f"sample set of size {s} below |L_v|/100+1 (|L_v|={len_l})")
            j = int(self.rng.integers(0, s))
            if j >= blanks:
                w = uniq[j - blanks]
                return chi[w], w, branch
            # the j-th blank in palette order: used neither in H_v nor in L_v
            for c in range(1, self.palette + 1):
                if cnt[c] or c in mu_v:
                    continue
                if not j:
                    return c, None, branch
                j -= 1
            raise InvariantError("blank color index out of range")
        finally:
            for c in touched:
                cnt[c] = 0
