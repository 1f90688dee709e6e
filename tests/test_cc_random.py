import math

import numpy as np
import pytest

from dyngraph.cc_random import (
    MODE_THR,
    PhasedCcEstimator,
    StaticEstimateConfig,
    static_estimate_nis,
)
from dyngraph.graph_core import DynamicGraph, UpdateOp
from dyngraph.nonzero_sampler import NonZeroSampler
from dyngraph.oracles import fast_component_sizes, fast_ncc


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


def test_static_estimate_fast_path_bit_equal():
    rng = np.random.default_rng(5)
    g = DynamicGraph(150)
    for _ in range(200):
        u, v = int(rng.integers(0, 150)), int(rng.integers(0, 150))
        if u != v:
            g.insert_edge(u, v)
    s = sampler_for(g)
    cfg = StaticEstimateConfig.from_error(0.2, 0.1)
    sizes = fast_component_sizes(*g.edge_view(), g.n)
    b_scalar = static_estimate_nis(g, s, cfg, np.random.default_rng(42))
    b_fast = static_estimate_nis(g, s, cfg, np.random.default_rng(42), sizes)
    assert b_scalar == b_fast


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


def test_preprocess_empty_graph():
    g = DynamicGraph(12)
    est = PhasedCcEstimator(g, 0.5, 0.1, thr0=0, seed=0)
    assert est.estimate() == 12.0
    assert est.gamma == 0


def test_preprocess_exact_at_step_zero():
    rng = np.random.default_rng(1)
    g = DynamicGraph(40)
    for _ in range(50):
        u, v = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        if u != v:
            g.insert_edge(u, v)
    est = PhasedCcEstimator(g, 0.3, 0.1, thr0=g.nis, seed=1)
    assert est.estimate() == fast_ncc(*g.edge_view(), 40)


def test_absolute_mode_uses_n_for_phase_budget():
    # the absolute bound eps' * n is Thr mode with Thr = n throughout
    g = DynamicGraph(30)
    est = PhasedCcEstimator(g, 0.5, 0.1, thr0=30, seed=0)
    assert est.psi == 30
    assert est.phase_len == math.ceil(0.5 * 30 / 4)


def test_preprocess_thr_validation():
    g = DynamicGraph(5)
    g.insert_edge(0, 1)
    with pytest.raises(ValueError):
        PhasedCcEstimator(g, 0.5, 0.1, thr0=1, seed=0)  # below nis = 2
    with pytest.raises(ValueError):
        PhasedCcEstimator(g, 0.5, 0.1, mode=MODE_THR, seed=0)  # thr0 missing


def test_estimate_frozen_between_boundaries():
    g = DynamicGraph(200)
    for i in range(0, 100, 2):
        g.insert_edge(i, i + 1)
    est = PhasedCcEstimator(g, 0.5, 0.2, thr0=g.nis, seed=2)
    assert est.phase_len == math.ceil(0.5 * 100 / 4)
    values = []
    for step in range(est.phase_len):
        u, v = 100 + 2 * step, 101 + 2 * step
        thr = g.nis
        g.insert_edge(u, v)
        est.on_update(UpdateOp("i", u, v), thr)
        values.append(est.estimate())
    # constant strictly inside the phase, refreshed exactly at the boundary
    assert len(set(values[:-1])) == 1


def test_phase_len_one_recomputes_every_update():
    g = DynamicGraph(6)
    est = PhasedCcEstimator(g, 0.5, 0.2, thr0=0, seed=3)
    assert est.phase_len == 1
    g.insert_edge(0, 1)
    est.on_update(UpdateOp("i", 0, 1), 0)
    assert est.estimate() == 5.0  # exact: one pair + four singletons


def test_deleting_everything_resets_estimate_to_n():
    g = DynamicGraph(8)
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    for u, v in pairs:
        g.insert_edge(u, v)
    est = PhasedCcEstimator(g, 1.0, 0.2, thr0=8, seed=4)
    # phase_len = ceil(1.0 * 8 / 4) = 2: boundary fires on the last deletion
    for u, v in pairs:
        thr = g.nis
        g.delete_edge(u, v)
        est.on_update(UpdateOp("d", u, v), thr)
    assert est.estimate() == 8.0  # b=0 plus n - gamma with gamma = 0


def test_tick_advances_counter_and_fires_boundaries():
    g = DynamicGraph(10)
    g.insert_edge(0, 1)
    est = PhasedCcEstimator(g, 1.0, 0.2, thr0=4, seed=5)
    assert est.phase_len == 1
    before = est.i
    est.tick(4)
    assert est.i == before + 2


def test_thr_contract_violations_raise():
    g = DynamicGraph(10)
    est = PhasedCcEstimator(g, 0.5, 0.1, thr0=0, seed=6)
    g.insert_edge(0, 1)
    with pytest.raises(ValueError):
        est.on_update(UpdateOp("i", 0, 1), thr=5)  # jumped by more than 2
    est2 = PhasedCcEstimator(g, 0.5, 0.1, thr0=2, seed=6)
    g.insert_edge(2, 3)
    with pytest.raises(ValueError):
        est2.on_update(UpdateOp("i", 2, 3), thr=1)  # below nis before update
    with pytest.raises(ValueError):
        est2.on_update(UpdateOp("q"), thr=2)


def test_sampler_desync_detected():
    g = DynamicGraph(6)
    est = PhasedCcEstimator(g, 0.5, 0.1, thr0=0, seed=7)
    with pytest.raises(ValueError):
        # op was never applied to the graph
        est.on_update(UpdateOp("i", 0, 1), thr=0)


def test_unapplied_op_raises_at_that_op():
    g = DynamicGraph(4)
    est = PhasedCcEstimator(g, 0.5, 0.1, thr0=0, seed=8)
    for u, v in [(0, 1), (1, 2)]:
        thr = g.nis
        assert g.insert_edge(u, v)
        est.on_update(UpdateOp("i", u, v), thr)
    thr = g.nis
    assert not g.insert_edge(0, 1)  # the graph ignores the duplicate
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        est.on_update(UpdateOp("i", 0, 1), thr)
    # an absent delete would drive the sampler's degree counts negative
    g2 = DynamicGraph(4)
    est2 = PhasedCcEstimator(g2, 0.5, 0.1, thr0=0, seed=8)
    assert not g2.delete_edge(2, 3)
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        est2.on_update(UpdateOp("d", 2, 3), 2)


def churn(seed, n=150, m0=120, steps=600, eps_p=0.3, p=0.1, fixed_thr=None,
          use_ticks=False):
    rng = np.random.default_rng(seed)
    g = DynamicGraph(n)
    edges = []
    while len(edges) < m0:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and g.insert_edge(u, v):
            edges.append((min(u, v), max(u, v)))
    thr0 = g.nis if fixed_thr is None else fixed_thr
    est = PhasedCcEstimator(g, eps_p, p, thr0=thr0, seed=seed + 100)
    viol = checks = 0
    for step in range(steps):
        thr = g.nis if fixed_thr is None else fixed_thr
        if use_ticks and step % 7 == 0:
            est.tick(thr)
        elif rng.random() < 0.5 and edges:
            i = int(rng.integers(0, len(edges)))
            u, v = edges[i]
            edges[i] = edges[-1]
            edges.pop()
            g.delete_edge(u, v)
            est.on_update(UpdateOp("d", u, v), thr)
        else:
            while True:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v and g.insert_edge(u, v):
                    edges.append((min(u, v), max(u, v)))
                    break
            est.on_update(UpdateOp("i", u, v), thr)
        assert est.gamma == g.nis
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


def test_churn_with_interleaved_ticks():
    viol, checks = churn(11, use_ticks=True)
    assert viol <= 0.1 * checks


def test_absolute_mode_envelope():
    viol, checks = churn(13, fixed_thr=150)  # Thr = n
    assert viol <= 0.1 * checks
