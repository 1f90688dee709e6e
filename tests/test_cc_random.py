import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngraph import cc_random
from dyngraph.cc_random import (
    PhasedCcEstimator,
    StaticEstimateConfig,
    _phase_len,
    _size_class_estimate,
    static_estimate_nis,
)
from dyngraph.graph_core import DynamicGraph, UpdateOp
from dyngraph.nonzero_sampler import NonZeroSampler
from dyngraph.oracles import fast_component_sizes, fast_ncc
from dyngraph.streams import adaptive_adversary_step


def sampler_for(g):
    s = NonZeroSampler(g.n)
    for v in range(g.n):
        if g.degree(v):
            s.update(v, g.degree(v))
    return s


def test_config_formulas():
    cfg = StaticEstimateConfig.from_error(0.1, 0.05)
    assert cfg.samples == math.ceil(2 * math.log(2 / 0.05) / 0.1**2) == 738
    assert cfg.cap == 20
    with pytest.raises(ValueError):
        StaticEstimateConfig.from_error(0.0, 0.05)
    with pytest.raises(ValueError):
        StaticEstimateConfig.from_error(0.1, 1.0)


def test_static_estimate_no_nonisolated_vertices():
    g = DynamicGraph(10)
    cfg = StaticEstimateConfig.from_error(0.5, 0.1)
    assert static_estimate_nis(g, sampler_for(g), cfg, np.random.default_rng(0)) == 0.0


def test_static_estimate_single_pair_is_exact():
    g = DynamicGraph(4)
    g.insert_edge(1, 2)
    cfg = StaticEstimateConfig.from_error(0.5, 0.1)  # cap = 4 >= 2
    b = static_estimate_nis(g, sampler_for(g), cfg, np.random.default_rng(3))
    assert b == 1.0  # every sample contributes 1/2, nis = 2


def test_static_estimate_error_bound_on_disjoint_edges():
    n = 300
    g = DynamicGraph(n)
    for i in range(0, n, 2):
        g.insert_edge(i, i + 1)
    s = sampler_for(g)
    cfg = StaticEstimateConfig.from_error(0.1, 0.05)
    hits = 0
    trials = 40
    for t in range(trials):
        b = static_estimate_nis(g, s, cfg, np.random.default_rng(t))
        if abs(b - n / 2) <= 0.1 * n:
            hits += 1
    assert hits >= 0.9 * trials


def paths(n, lengths):
    """A graph on n vertices made of vertex-disjoint paths with these vertex counts."""
    g = DynamicGraph(n)
    start = 0
    for k in lengths:
        for u in range(start, start + k - 1):
            g.insert_edge(u, u + 1)
        start += k
    return g


class RecordingRng:
    """Passes draws through to a Generator and keeps every multinomial result."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def multinomial(self, n, pvals):
        out = self.rng.multinomial(n, pvals)
        self.draws.append(out)
        return out


def test_size_class_draw_agrees_with_per_sample_route():
    # cap 8: classes 2, 3, 5 and 8 below it, 12 and 20 above it
    cfg = StaticEstimateConfig.from_error(0.25, 0.1)
    assert cfg.cap == 8
    g = paths(80, [2, 2, 3, 5, 8, 12, 20])
    s = sampler_for(g)
    nis = g.nis
    sizes = fast_component_sizes(*g.edge_view(), g.n)
    counts = np.bincount(sizes, minlength=cfg.cap + 1)[2 : cfg.cap + 1]
    shares = np.append(counts, nis - counts.sum()) / nis
    seeds = range(400)
    per_sample = np.array([static_estimate_nis(g, s, cfg, np.random.default_rng(t))
                           for t in seeds])
    recorded = [RecordingRng(np.random.default_rng(t)) for t in seeds]
    by_class = np.array([_size_class_estimate(sizes, nis, cfg, r) for r in recorded])

    truth = 5.0  # the components of at most cap vertices
    # one estimate's spread: nis * sd(contribution) / sqrt(samples)
    contribution = np.append(1.0 / np.arange(2, cfg.cap + 1), 0.0)
    sd = nis * math.sqrt(shares @ contribution**2 - (shares @ contribution) ** 2)
    sd /= math.sqrt(cfg.samples)
    for est in (per_sample, by_class):
        assert abs(est.mean() - truth) < 4 * sd / math.sqrt(len(seeds))
        assert 0.85 * sd < est.std() < 1.15 * sd
    draws = np.array([d for r in recorded for d in r.draws])
    assert draws.shape == (len(seeds), cfg.cap)  # classes 2..cap plus the one above cap
    assert (draws.sum(axis=1) == cfg.samples).all()
    total = len(seeds) * cfg.samples
    share_sd = np.sqrt(shares * (1 - shares) / total)
    assert (np.abs(draws.sum(axis=0) / total - shares) <= 4 * share_sd).all()
    assert (draws[:, shares == 0] == 0).all()


def test_size_class_draw_single_pair_is_exact():
    g = paths(4, [2])
    cfg = StaticEstimateConfig.from_error(0.5, 0.1)
    sizes = fast_component_sizes(*g.edge_view(), g.n)
    assert _size_class_estimate(sizes, g.nis, cfg, np.random.default_rng(3)) == 1.0


def test_size_class_draw_components_above_cap_give_zero():
    g = paths(30, [9, 10, 11])
    cfg = StaticEstimateConfig.from_error(0.25, 0.1)  # cap 8
    sizes = fast_component_sizes(*g.edge_view(), g.n)
    assert _size_class_estimate(sizes, g.nis, cfg, np.random.default_rng(0)) == 0.0


def test_size_class_draw_with_empty_last_class():
    # every vertex lies in a component of at most cap; summed left to right the
    # class shares of these sizes come to 1.0000000000000002
    lengths = [4, 5, 5, 6, 6, 7, 7, 8]
    g = paths(48, lengths)
    cfg = StaticEstimateConfig.from_error(0.25, 0.1)  # cap 8
    sizes = fast_component_sizes(*g.edge_view(), g.n)
    rng = RecordingRng(np.random.default_rng(1))
    b = _size_class_estimate(sizes, g.nis, cfg, rng)
    (draws,) = rng.draws
    assert draws[-1] == 0 and draws.sum() == cfg.samples
    assert b == pytest.approx(len(lengths), rel=0.5)


def test_boundary_on_graph_without_edges_draws_nothing():
    g = paths(6, [2])
    est = PhasedCcEstimator(g, 0.5, 0.2, seed=3)
    assert est.phase_len == 1
    before = (est.samples, est.rng.bit_generator.state)
    assert est.on_update(UpdateOp("d", 0, 1))  # the boundary sees nis 0
    assert (est.samples, est.rng.bit_generator.state) == before
    assert est.estimate() == 6.0
    assert est.on_update(UpdateOp("i", 2, 3))  # a non-empty boundary draws cfg.samples
    assert est.samples == est.cfg.samples
    assert est.estimate() == 5.0


def test_boundary_on_non_isolated_vertices_matches_labelling_all_n(monkeypatch):
    # 300 vertices, components on a scattered tenth of them, the rest isolated
    rng = np.random.default_rng(2)
    used = rng.permutation(300)[:40]
    g = DynamicGraph(300)
    for a, b in zip(used[:-1], used[1:]):
        if rng.random() < 0.7:
            g.insert_edge(int(a), int(b))
    est = PhasedCcEstimator(g, 0.1, 0.1, seed=9)
    assert est.phase_len == 3 and est.cfg.cap == 80
    u, v = int(used[0]), int(used[-1])
    kind, back = ("d", "i") if g.has_edge(u, v) else ("i", "d")
    for k in (kind, back):  # two updates that leave the graph as it was, short of the boundary
        assert est.on_update(UpdateOp(k, u, v))
    assert est.samples == 0
    rng_all_n = np.random.default_rng(0)
    rng_all_n.bit_generator.state = est.rng.bit_generator.state
    sizes_seen = []
    draw = cc_random._size_class_estimate

    def recording_sizes(sizes, nis, cfg, rng):
        sizes_seen.append(sizes)
        return draw(sizes, nis, cfg, rng)

    monkeypatch.setattr(cc_random, "_size_class_estimate", recording_sizes)
    assert est.on_update(UpdateOp(kind, u, v))

    (compact,) = sizes_seen  # the boundary labelled the nis non-isolated vertices only
    assert len(compact) == g.nis <= len(used)
    full = fast_component_sizes(*g.edge_view(), g.n)
    cap = est.cfg.cap
    classes = [np.bincount(x, minlength=cap + 1)[2 : cap + 1] for x in (compact, full)]
    assert np.array_equal(*classes) and classes[0].sum() == g.nis
    b = _size_class_estimate(full, g.nis, est.cfg, rng_all_n)
    assert est.estimate() == b + g.n - g.nis
    assert est.rng.bit_generator.state == rng_all_n.bit_generator.state


def test_preprocess_empty_graph():
    g = DynamicGraph(12)
    est = PhasedCcEstimator(g, 0.5, 0.1, seed=0)
    assert est.estimate() == 12.0
    assert est.graph.nis == 0


def test_preprocess_exact_at_step_zero():
    rng = np.random.default_rng(1)
    g = DynamicGraph(40)
    for _ in range(50):
        u, v = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        if u != v:
            g.insert_edge(u, v)
    est = PhasedCcEstimator(g, 0.3, 0.1, seed=1)
    assert est.estimate() == fast_ncc(*g.edge_view(), 40)


def test_preprocess_thr_validation():
    g = DynamicGraph(5)
    g.insert_edge(0, 1)
    assert PhasedCcEstimator(g, 0.5, 0.1, seed=0).psi == 2  # Thr is the graph's nis


def test_estimate_frozen_between_boundaries():
    g = DynamicGraph(200)
    for i in range(0, 100, 2):
        g.insert_edge(i, i + 1)
    est = PhasedCcEstimator(g, 0.5, 0.2, seed=2)
    assert est.phase_len == 1 + math.floor(0.5 * (3 * 100 - 2) / (4 * (1 + 2 * 0.5))) == 19
    values = []
    for step in range(est.phase_len):
        u, v = 100 + 2 * step, 101 + 2 * step
        assert est.on_update(UpdateOp("i", u, v))
        values.append(est.estimate())
    # constant strictly inside the phase, refreshed exactly at the boundary
    assert len(set(values[:-1])) == 1


def budget_overrun(eps_p, psi, L):
    """Static error at nis <= psi + 2 plus L - 1 updates of drift, minus the allowance then."""
    return eps_p * (psi + 2) / 4 + (L - 1) - eps_p * (psi - 2 * (L - 1))


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0, max_value=1, exclude_min=True), st.integers(1, 10**9))
def test_phase_len_is_the_longest_phase_the_budget_allows(eps_p, psi):
    L = _phase_len(eps_p, psi)
    slack = 1e-9 * (1 + eps_p * psi)  # float rounding in the formula and in this check
    assert L >= 1
    assert budget_overrun(eps_p, psi, L) <= slack
    assert budget_overrun(eps_p, psi, L + 1) > -slack


@pytest.mark.parametrize("eps_p", [1 / 8, 1 / 4, 1 / 2, 1.0])
def test_adaptive_adversary_stays_inside_eps_thr_at_every_step(eps_p):
    n, m0, steps = 600, 480, 1000
    rng = np.random.default_rng(21)
    g = DynamicGraph(n)
    while g.m < m0:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            g.insert_edge(u, v)
    est = PhasedCcEstimator(g, eps_p, 0.01, seed=22)
    longest = est.phase_len
    outside = checks = 0
    for _ in range(steps):
        thr = g.nis
        op = adaptive_adversary_step(g, est.estimate(), rng)
        if op is None:
            continue
        assert est.on_update(op)
        longest = max(longest, est.phase_len)
        checks += 1
        outside += abs(est.estimate() - fast_ncc(*g.edge_view(), n)) > eps_p * thr
    assert longest > 1 and checks >= steps // 2  # frozen stretches were checked
    assert outside == 0


def test_phase_len_one_recomputes_every_update():
    g = DynamicGraph(6)
    est = PhasedCcEstimator(g, 0.5, 0.2, seed=3)
    assert est.phase_len == 1
    est.on_update(UpdateOp("i", 0, 1))
    assert est.estimate() == 5.0  # exact: one pair + four singletons
    assert est.psi == 0  # Thr is the nis before the update


def test_deleting_everything_resets_estimate_to_n():
    g = DynamicGraph(8)
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    for u, v in pairs:
        g.insert_edge(u, v)
    est = PhasedCcEstimator(g, 1.0, 0.2, seed=4)
    # phase_len = 1 + floor(1.0 * (3 * 8 - 2) / (4 * 3)) = 2: boundary fires on the last deletion
    for u, v in pairs:
        est.on_update(UpdateOp("d", u, v))
    assert est.estimate() == 8.0  # b=0 plus n - nis with nis = 0


def test_tick_advances_counter_and_fires_boundaries():
    g = DynamicGraph(10)
    g.insert_edge(0, 1)
    est = PhasedCcEstimator(g, 1.0, 0.2, seed=5)
    assert est.phase_len == 1
    est.tick()  # one update that changes nothing counts once
    assert (est.i, est.samples, est.psi) == (1, est.cfg.samples, 2)
    assert est.estimate() == 9.0  # re-sampled: one pair is exact
    assert est.on_update(UpdateOp("i", 2, 3))
    est.tick()  # Thr is the graph's own nis, now 4
    assert (est.i, est.samples, est.psi) == (3, 3 * est.cfg.samples, 4)
    assert est.estimate() == 8.0


def test_thr_contract_violations_raise():
    est = PhasedCcEstimator(DynamicGraph(10), 0.5, 0.1, seed=6)
    with pytest.raises(ValueError):
        est.on_update(UpdateOp("q"))


def test_on_update_rejects_another_kind_and_a_self_loop():
    g = DynamicGraph(4)
    est = PhasedCcEstimator(g, 0.5, 0.1, seed=8)
    est.on_update(UpdateOp("i", 0, 1))
    before = (g.edges(), est.i, est.estimate())
    for op, message in [(UpdateOp("x", 0, 1), "op kind 'x' is not an insert or a delete"),
                        (UpdateOp("i", 1, 1), "self-loop (1, 1) rejected")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            est.on_update(op)
        assert (g.edges(), est.i, est.estimate()) == before


def test_duplicate_insert_and_absent_delete_are_noops():
    g = DynamicGraph(4)
    est = PhasedCcEstimator(g, 0.5, 0.1, seed=8)
    for u, v in [(0, 1), (1, 2)]:
        assert est.on_update(UpdateOp("i", u, v))
    before = (g.edges(), g.nis, est.i, est.estimate())
    assert not est.on_update(UpdateOp("i", 0, 1))  # duplicate
    assert not est.on_update(UpdateOp("i", 1, 0))  # duplicate, reversed
    assert not est.on_update(UpdateOp("d", 2, 3))  # absent
    assert (g.edges(), g.nis, est.i, est.estimate()) == before
    assert est.on_update(UpdateOp("d", 0, 1))  # a valid delete still goes through
    assert (g.m, est.i) == (1, before[2] + 1)


def churn(seed, n=150, m0=120, steps=600, eps_p=0.3, p=0.1, use_ticks=False):
    rng = np.random.default_rng(seed)
    g = DynamicGraph(n)
    edges = []
    while len(edges) < m0:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and g.insert_edge(u, v):
            edges.append((min(u, v), max(u, v)))
    est = PhasedCcEstimator(g, eps_p, p, seed=seed + 100)
    viol = checks = 0
    for step in range(steps):
        thr = g.nis
        if use_ticks and step % 7 == 0:
            est.tick()
        elif rng.random() < 0.5 and edges:
            i = int(rng.integers(0, len(edges)))
            u, v = edges[i]
            edges[i] = edges[-1]
            edges.pop()
            assert est.on_update(UpdateOp("d", u, v))
        else:
            while True:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v and not g.has_edge(u, v):
                    edges.append((min(u, v), max(u, v)))
                    break
            assert est.on_update(UpdateOp("i", u, v))
        truth = fast_ncc(*g.edge_view(), n)
        allowed = eps_p * thr
        checks += 1
        if abs(est.estimate() - truth) > allowed:
            viol += 1
    return viol, checks


def test_churn_envelope_mostly_holds():
    viol = checks = 0
    for seed in range(5):
        v, c = churn(seed)
        viol += v
        checks += c
    assert viol <= 0.1 * checks


def test_churn_envelope_mostly_holds_with_size_class_draws(monkeypatch):
    # Every boundary must go through the size-class draw, and the envelope
    # must hold on what those draws give.
    draws = []
    real = cc_random._size_class_estimate

    def counted(sizes, nis, cfg, rng):
        b = real(sizes, nis, cfg, rng)
        draws.append((nis, b))
        return b

    monkeypatch.setattr(cc_random, "_size_class_estimate", counted)
    viol = checks = 0
    for seed in range(5):
        before = len(draws)
        v, c = churn(seed)
        assert len(draws) > before
        viol += v
        checks += c
    assert all(0 <= b <= nis for nis, b in draws)
    assert viol <= 0.1 * checks


def test_churn_with_interleaved_ticks():
    viol, checks = churn(11, use_ticks=True)
    assert viol <= 0.1 * checks
