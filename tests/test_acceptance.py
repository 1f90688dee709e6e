"""Acceptance suite: every guarantee is exercised at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
immediately; they also appear via -v as one test per criterion).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.stats import chi2

from dyngraph.cc_exact import SmallCcCounter
from dyngraph.cc_random import PhasedCcEstimator, StaticEstimateConfig, static_estimate_nis
from dyngraph.coloring import Coloring
from dyngraph.graph_core import DynamicGraph, UpdateOp
from dyngraph.msf_weight import DeterministicMsfEstimator, MsfConfig, RandomizedMsfEstimator, combine
from dyngraph.nonzero_sampler import NonZeroSampler
from dyngraph import oracles
from dyngraph.streams import adaptive_adversary_step


def report(criterion: int, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d}: {verdict} [{time.time() - started:5.1f}s] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _insert_candidate(rng, n, shadow, struct=None, delta=None, tries=96):
    for _ in range(tries):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v or shadow.has_edge(u, v):
            continue
        if struct is not None and (struct.degree(u) >= delta or struct.degree(v) >= delta):
            continue
        return u, v
    return None


# ---------------------------------------------------------------------------
# Criteria 1 + 2: coloring validity and the sample-set size bound, one run.


@pytest.fixture(scope="module")
def coloring_run():
    n, delta, steps = 500, 16, 100_000
    target_m = n * delta // 4
    struct = Coloring(n, delta, seed=101, strict=True)  # strict: criterion 2
    shadow = DynamicGraph(n)
    rng = np.random.default_rng(101)
    started = time.time()
    violations = 0
    warmed = False
    for _ in range(steps):
        warmed = warmed or shadow.m >= target_m
        do_insert = not warmed or (shadow.m < target_m and rng.random() < 0.5)
        if do_insert:
            pair = _insert_candidate(rng, n, shadow, struct, delta)
            if pair is None:
                do_insert = False
            else:
                struct.insert(*pair)
                shadow.insert_edge(*pair)
        if not do_insert and shadow.m:
            eu, ev = shadow.edge_view()
            i = int(rng.integers(0, shadow.m))
            u, v = int(eu[i]), int(ev[i])
            struct.delete(u, v)
            shadow.delete_edge(u, v)
        eu, ev = shadow.edge_view()
        colors = struct.colors
        if shadow.m and not bool((colors[eu] != colors[ev]).all()):
            violations += 1
        if not bool(((colors >= 1) & (colors <= delta + 1)).all()):
            violations += 1
    return {
        "violations": violations,
        "updates": struct.updates,
        "setcolor_calls": struct.setcolor_calls,
        "recolor_events": struct.recolor_events,
        "elapsed": time.time() - started,
        "started": started,
    }


def test_criterion_01_coloring_validity(coloring_run):
    r = coloring_run
    report(
        1,
        r["violations"] == 0 and r["updates"] >= 100_000 * 0.95,
        f"proper (delta+1)-coloring after each of {r['updates']} updates "
        f"(n=500, delta=16): {r['violations']} violations",
        r["started"],
    )


def test_criterion_02_sample_set_size_bound(coloring_run):
    # strict mode raises InvariantError on any bound violation, so reaching
    # here with a completed run means zero violations across all draws
    r = coloring_run
    report(
        2,
        r["setcolor_calls"] > 500,
        f"sample-set bound held at every one of {r['setcolor_calls']} color draws "
        f"({r['recolor_events']} recoloring events)",
        r["started"],
    )


def test_criterion_03_work_flat_across_delta():
    started = time.time()
    n, churn_steps, seeds = 2000, 20_000, 5
    means = {}
    for delta in (16, 64, 256):
        target_m = n * delta // 4
        per_seed = []
        for seed in range(seeds):
            struct = Coloring(n, delta, seed=300 + seed, strict=True)
            shadow = DynamicGraph(n)
            rng = np.random.default_rng(900 + seed)
            while shadow.m < target_m:
                pair = _insert_candidate(rng, n, shadow, struct, delta)
                struct.insert(*pair)
                shadow.insert_edge(*pair)
            work_before = struct.total_recolor_work
            for _ in range(churn_steps):
                if rng.random() < 0.5 and shadow.m:
                    eu, ev = shadow.edge_view()
                    i = int(rng.integers(0, shadow.m))
                    u, v = int(eu[i]), int(ev[i])
                    struct.delete(u, v)
                    shadow.delete_edge(u, v)
                else:
                    pair = _insert_candidate(rng, n, shadow, struct, delta)
                    if pair is not None:
                        struct.insert(*pair)
                        shadow.insert_edge(*pair)
            per_seed.append((struct.total_recolor_work - work_before) / churn_steps)
        means[delta] = float(np.mean(per_seed))
    factor = max(means.values()) / max(min(means.values()), 1e-12)
    report(
        3,
        factor <= 3.0,
        f"mean recoloring work per update across delta sweep {means} "
        f"(m = n*delta/4, {seeds} seeds): max/min factor {factor:.2f} <= 3",
        started,
    )


def test_criterion_04_small_component_counter_exact():
    started = time.time()
    n, eps, steps, target_m = 300, 0.2, 50_000, 240
    g = DynamicGraph(n)
    counter = SmallCcCounter(g, eps)
    rng = np.random.default_rng(404)
    mismatches = envelope_violations = 0
    warmed = False
    for step in range(steps):
        warmed = warmed or g.m >= target_m
        do_insert = not warmed or (g.m < target_m and rng.random() < 0.5)
        if do_insert:
            pair = _insert_candidate(rng, n, g)
            if pair is None:
                do_insert = False
            else:
                counter.on_insert(*pair)
        if not do_insert and g.m:
            eu, ev = g.edge_view()
            i = int(rng.integers(0, g.m))
            counter.on_delete(int(eu[i]), int(ev[i]))
        eu, ev = g.edge_view()
        want = oracles.fast_nscc(eu, ev, n, counter.k)
        if counter.estimate() != want:
            mismatches += 1
        if abs(counter.estimate() - oracles.fast_ncc(eu, ev, n)) > eps * g.nis:
            envelope_violations += 1
        if step % 5000 == 0:  # slow pure-python oracle as a second route
            edges = g.edges()
            assert want == oracles.exact_nscc(edges, n, counter.k)
    report(
        4,
        mismatches == 0 and envelope_violations == 0,
        f"exact small-component count at every one of {steps} updates "
        f"(n=300, k={counter.k}); {mismatches} mismatches, "
        f"{envelope_violations} envelope violations",
        started,
    )


def test_criterion_05_deterministic_msf_envelope():
    started = time.time()
    n, W, eps, steps, target_m = 400, 4, 0.25, 50_000, 500
    est = DeterministicMsfEstimator(n, eps, W)
    shadow = DynamicGraph(n)
    weights: dict[tuple[int, int], float] = {}
    rng = np.random.default_rng(505)
    violations = 0
    warmed = False
    for step in range(steps):
        warmed = warmed or shadow.m >= target_m
        do_insert = not warmed or (shadow.m < target_m and rng.random() < 0.5)
        if do_insert:
            pair = _insert_candidate(rng, n, shadow)
            if pair is None:
                do_insert = False
            else:
                w = float(rng.integers(1, W + 1))
                est.insert(*pair, w)
                shadow.insert_edge(*pair)
                weights[pair if pair[0] < pair[1] else (pair[1], pair[0])] = w
        if not do_insert and shadow.m:
            eu, ev = shadow.edge_view()
            i = int(rng.integers(0, shadow.m))
            u, v = int(eu[i]), int(ev[i])
            est.delete(u, v)
            shadow.delete_edge(u, v)
            weights.pop((min(u, v), max(u, v)))
        eu, ev = shadow.edge_view()
        warr = np.array([weights[k] for k in zip(eu.tolist(), ev.tolist())])
        m_true = oracles.fast_msf_weight(eu, ev, warr, n)
        value = est.estimate()
        if not (1 - eps) * m_true - 1e-9 <= value <= (1 + eps) * m_true + 1e-9:
            violations += 1
        if step % 10_000 == 0:  # pure Kruskal as a second oracle route
            wedges = [(u, v, w) for (u, v), w in weights.items()]
            assert abs(oracles.exact_msf_weight(wedges, n) - m_true) < 1e-9
    report(
        5,
        violations == 0,
        f"(1±{eps}) envelope against the MSF oracle at every one of {steps} "
        f"updates (n={n}, W={W}, integer weights): {violations} violations",
        started,
    )


def test_criterion_06_exact_count_sandwich():
    started = time.time()
    rng = np.random.default_rng(606)
    violations = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 41))
        W = int(rng.integers(1, 5))
        eps = float(rng.choice([0.1, 0.25, 0.5]))
        edges = {}
        for _ in range(int(rng.integers(0, 70))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                edges[(min(u, v), max(u, v))] = float(rng.integers(1, W + 1))
        wedges = [(u, v, w) for (u, v), w in edges.items()]
        cfg = MsfConfig.from_params(eps, W)
        counts = [
            oracles.exact_ncc([(u, v) for u, v, w in wedges if w <= thr], n)
            for thr in cfg.thresholds
        ]
        x = combine(cfg, counts, n)
        m_true = oracles.exact_msf_weight(wedges, n)
        if not m_true - 1e-9 <= x <= (1 + eps / 2) * m_true + 1e-9:
            violations += 1
    report(
        6,
        violations == 0,
        f"M <= X <= (1+eps/2)M with exact counts on {trials} random weighted "
        f"graphs: {violations} violations",
        started,
    )


def test_criterion_07_integer_weight_identity():
    started = time.time()
    rng = np.random.default_rng(707)
    violations = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 51))
        W = int(rng.integers(1, 6))
        edges = {}
        for _ in range(int(rng.integers(0, 90))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                edges[(min(u, v), max(u, v))] = float(rng.integers(1, W + 1))
        wedges = [(u, v, w) for (u, v), w in edges.items()]
        ident = oracles.exact_integer_msf_identity(wedges, n, W)
        if abs(ident - oracles.exact_msf_weight(wedges, n)) > 1e-9:
            violations += 1
    report(
        7,
        violations == 0,
        f"threshold-count identity equals Kruskal exactly on {trials} random "
        f"integer-weight graphs: {violations} violations",
        started,
    )


def test_criterion_08_static_estimator_contract():
    started = time.time()
    n = 1000  # 500 disjoint edges
    g = DynamicGraph(n)
    for i in range(0, n, 2):
        g.insert_edge(i, i + 1)
    sampler = NonZeroSampler(n)
    for v in range(n):
        sampler.update(v, 1)
    cfg = StaticEstimateConfig.from_error(0.1, 0.05)
    trials, hits = 200, 0
    for t in range(trials):
        b = static_estimate_nis(g, sampler, cfg, np.random.default_rng(8000 + t))
        if abs(b - 500) <= 0.1 * g.nis:
            hits += 1
    report(
        8,
        hits >= 0.9 * trials,
        f"|estimate - 500| <= 100 in {hits}/{trials} trials "
        f"(eps=0.1, p=0.05, {cfg.samples} samples per trial)",
        started,
    )


def _phased_run(seed: int, adaptive: bool, n=2000, m0=1500, steps=2000,
                eps_p=0.2, p=0.05, check_every=4):
    rng = np.random.default_rng(seed)
    g = DynamicGraph(n)
    while g.m < m0:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            g.insert_edge(u, v)
    est = PhasedCcEstimator(g, eps_p, p, seed=seed + 5000, use_fast_sizes=True)
    viol = checks = 0
    for step in range(steps):
        thr = g.nis
        if adaptive:
            op = adaptive_adversary_step(g, est.estimate(), rng)
            if op is None:
                continue
        elif rng.random() < 0.5 and g.m:
            eu, ev = g.edge_view()
            i = int(rng.integers(0, g.m))
            op = UpdateOp("d", int(eu[i]), int(ev[i]))
        else:
            while True:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v and not g.has_edge(u, v):
                    break
            op = UpdateOp("i", u, v)
        est.on_update(op)
        if (step + 1) % check_every == 0:
            truth = oracles.fast_ncc(*g.edge_view(), n)
            checks += 1
            if abs(est.estimate() - truth) > eps_p * thr:
                viol += 1
    return viol, checks


def test_criterion_09_phased_estimator_both_adversaries():
    started = time.time()
    results = {}
    for label, adaptive in (("random", False), ("adaptive", True)):
        viol = checks = 0
        for seed in range(20):
            v, c = _phased_run(seed, adaptive)
            viol += v
            checks += c
        results[label] = (viol, checks)
    ok = all(viol <= 0.1 * checks for viol, checks in results.values())
    detail = ", ".join(
        f"{label}: {viol}/{checks} outside eps'*Thr ({viol / checks:.1%})"
        for label, (viol, checks) in results.items()
    )
    report(9, ok, f"n=2000 churn, eps'=0.2, p=0.05, 20 seeds each; {detail}", started)


def test_criterion_10_randomized_msf():
    started = time.time()
    n, W, eps, pp = 3000, 2, 0.5, 0.05
    m0, steps, check_every = 2500, 1200, 25
    viol = checks = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        edges: dict[tuple[int, int], float] = {}
        keys: list[tuple[int, int]] = []
        while len(edges) < m0:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u != v and key not in edges:
                edges[key] = float(rng.integers(1, W + 1))
                keys.append(key)
        init = [(u, v, w) for (u, v), w in edges.items()]
        est = RandomizedMsfEstimator(n, eps, W, pp, seed=seed, initial_edges=init,
                                     use_fast_sizes=True)
        for step in range(steps):
            if rng.random() < 0.5 and keys:
                i = int(rng.integers(0, len(keys)))
                key = keys[i]
                keys[i] = keys[-1]
                keys.pop()
                est.delete(*key)
                del edges[key]
            else:
                while True:
                    u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                    key = (min(u, v), max(u, v))
                    if u != v and key not in edges:
                        break
                w = float(rng.integers(1, W + 1))
                est.insert(u, v, w)
                edges[key] = w
                keys.append(key)
            if (step + 1) % check_every == 0:
                eu = np.fromiter((k[0] for k in edges), dtype=np.int64, count=len(edges))
                ev = np.fromiter((k[1] for k in edges), dtype=np.int64, count=len(edges))
                warr = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
                m_true = oracles.fast_msf_weight(eu, ev, warr, n)
                checks += 1
                if not (1 - eps) * m_true - 1e-9 <= est.estimate() <= (1 + eps) * m_true + 1e-9:
                    viol += 1
    report(
        10,
        checks > 0 and viol <= 0.1 * checks,
        f"randomized MSF within (1±{eps}) of Kruskal at {checks - viol}/{checks} "
        f"checkpoints (n={n}, W={W}, p'={pp}, 20 seeds)",
        started,
    )


def test_criterion_11_sampler_invariants_and_uniformity():
    started = time.time()
    rng = np.random.default_rng(111)
    s = NonZeroSampler(50)
    values = [0] * 50
    max_touches = 0
    for _ in range(10_000):
        u = int(rng.integers(0, 50))
        delta = int(rng.choice([-1, 1]))
        if values[u] + delta < 0:
            continue
        s.update(u, delta)
        values[u] += delta
        max_touches = max(max_touches, s.last_touches)
    structure_ok = s.nis == sum(1 for x in values if x)
    for u, val in enumerate(values):
        p = int(s._pos[u])
        if val:
            structure_ok &= 0 <= p < s.nis and int(s._elems[p]) == u and int(s._vals[p]) == val
        else:
            structure_ok &= p == -1

    s2 = NonZeroSampler(10)
    for u in (2, 5, 8):
        s2.update(u, 3)
    draws = s2.sample_many(np.random.default_rng(211), 100_000)
    observed = np.array([(draws == u).sum() for u in (2, 5, 8)], dtype=float)
    expected = len(draws) / 3.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(chi2.sf(stat, df=2))
    sample_touches_ok = True
    for _ in range(100):
        s2.sample(rng)
        sample_touches_ok &= s2.last_touches <= 8
    report(
        11,
        structure_ok and max_touches <= 8 and p_value > 0.01 and sample_touches_ok,
        f"sampler structure exact after 10^4 updates, max {max_touches} touches/op, "
        f"uniformity chi-square p={p_value:.3f} over 10^5 draws",
        started,
    )
