import hashlib
import re
from bisect import bisect_left

import numpy as np
import pytest

from dyngraph.msf_weight import (
    DeterministicMsfEstimator,
    MsfConfig,
    RandomizedMsfEstimator,
    combine,
)
from dyngraph.oracles import exact_msf_weight, exact_ncc, fast_nscc
from dyngraph.streams import gen_sliding_window


def test_config_geometry():
    cfg = MsfConfig.from_params(0.5, 4.0)
    base = 1.25
    assert cfg.r == 7  # ceil(log_1.25(4)) = ceil(6.21)
    assert cfg.thresholds[0] == 1.0
    assert cfg.thresholds[-1] == 4.0  # clamped to W
    assert cfg.thresholds[-2] == pytest.approx(base**6)
    assert all(lam > 0 for lam in cfg.lambdas)
    assert len(cfg.lambdas) == cfg.r
    for i, lam in enumerate(cfg.lambdas):
        assert lam == pytest.approx(base ** (i + 1) - base**i)


def test_config_unit_weight_range():
    cfg = MsfConfig.from_params(0.25, 1.0)
    assert cfg.r == 0
    assert cfg.thresholds == (1.0,)
    assert cfg.lambdas == ()
    with pytest.raises(ValueError):
        MsfConfig.from_params(0.0, 2.0)
    with pytest.raises(ValueError):
        MsfConfig.from_params(0.5, 0.5)


@pytest.mark.parametrize("W", [float("inf"), float("nan")])
def test_config_rejects_non_finite_W(W):
    with pytest.raises(ValueError, match="W must be finite"):
        MsfConfig.from_params(0.5, W)


def test_combine_empty_graph_telescopes_to_zero():
    for eps, W in ((0.1, 4.0), (0.5, 3.0), (0.25, 1.0)):
        cfg = MsfConfig.from_params(eps, W)
        n = 17
        assert combine(cfg, [n] * (cfg.r + 1), n) == pytest.approx(0.0, abs=1e-9)


def test_combine_single_unit_edge():
    cfg = MsfConfig.from_params(0.25, 2.0)
    # n=2, one weight-1 edge: every threshold subgraph has 1 component
    counts = [1] * (cfg.r + 1)
    x = combine(cfg, counts, 2)
    assert 1.0 - 1e-9 <= x <= (1 + 0.125) * 1.0 + 1e-9


def test_combine_validates_inputs():
    cfg = MsfConfig.from_params(0.5, 2.0)
    with pytest.raises(ValueError):
        combine(cfg, [1], 4)
    with pytest.raises(ValueError):
        combine(cfg, [-1] * (cfg.r + 1), 4)


def random_weighted_graph(rng, n, m, W, integer=True):
    edges = {}
    for _ in range(m):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if integer:
            edges[key] = float(rng.integers(1, int(W) + 1))
        else:
            edges[key] = 1.0 + float(rng.random()) * (W - 1)
    return [(u, v, w) for (u, v), w in edges.items()]


def test_combine_sandwich_with_exact_counts():
    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(2, 40))
        W = int(rng.integers(1, 5))
        eps = float(rng.choice([0.1, 0.25, 0.5]))
        wedges = random_weighted_graph(rng, n, int(rng.integers(0, 70)), W,
                                       integer=bool(rng.integers(0, 2)))
        cfg = MsfConfig.from_params(eps, W)
        counts = [
            exact_ncc([(u, v) for u, v, w in wedges if w <= thr], n)
            for thr in cfg.thresholds
        ]
        x = combine(cfg, counts, n)
        m_true = exact_msf_weight(wedges, n)
        assert m_true - 1e-9 <= x <= (1 + eps / 2) * m_true + 1e-9


def test_deterministic_level_nesting_and_routing():
    est = DeterministicMsfEstimator(10, 0.5, 4.0)
    est.insert(0, 1, 1.0)
    est.insert(2, 3, 4.0)  # heaviest: only levels with threshold >= 4
    for i, (thr, level) in enumerate(zip(est.config.thresholds, est.levels)):
        has_light = level.graph.has_edge(0, 1)
        has_heavy = level.graph.has_edge(2, 3)
        assert has_light  # weight 1 is in every level
        assert has_heavy == (4.0 <= thr)
    # nesting: every level's edges are contained in the next level's
    for a, b in zip(est.levels, est.levels[1:]):
        ea = set(map(tuple, zip(*[x.tolist() for x in a.graph.edge_view()])))
        eb = set(map(tuple, zip(*[x.tolist() for x in b.graph.edge_view()])))
        assert ea <= eb


def test_deterministic_weight_validation_and_duplicates():
    est = DeterministicMsfEstimator(6, 0.25, 3.0)
    with pytest.raises(ValueError):
        est.insert(0, 1, 0.5)
    with pytest.raises(ValueError):
        est.insert(0, 1, 3.5)
    assert est.insert(0, 1, 2.0)
    state = [(level.graph.edges(), level.bfs_calls, level.estimate()) for level in est.levels]
    assert not est.insert(1, 0, 1.0)  # duplicate edge, even with another weight
    assert not est.delete(2, 3)  # absent edge
    assert [(level.graph.edges(), level.bfs_calls, level.estimate())
            for level in est.levels] == state
    assert est.delete(1, 0)


def test_deterministic_unit_weights_track_forest_size():
    n, eps = 50, 0.5
    est = DeterministicMsfEstimator(n, eps, 1.0)
    assert len(est.levels) == 1
    rng = np.random.default_rng(2)
    edges = set()
    for _ in range(120):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        key = (min(u, v), max(u, v))
        if u == v or key in edges:
            continue
        est.insert(u, v, 1.0)
        edges.add(key)
        forest = n - exact_ncc(sorted(edges), n)
        assert (1 - eps) * forest - 1e-9 <= est.estimate() <= (1 + eps) * forest + 1e-9


def test_deterministic_envelope_zero_violations_fuzz():
    n, W, eps = 50, 4, 0.25
    est = DeterministicMsfEstimator(n, eps, W)
    rng = np.random.default_rng(3)
    edges = {}
    for step in range(1200):
        if edges and rng.random() < 0.5:
            key = list(edges)[int(rng.integers(0, len(edges)))]
            est.delete(*key)
            del edges[key]
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                continue
            w = float(rng.integers(1, W + 1))
            est.insert(u, v, w)
            edges[key] = w
        m_true = exact_msf_weight([(u, v, w) for (u, v), w in edges.items()], n)
        est_val = est.estimate()
        assert (1 - eps) * m_true - 1e-9 <= est_val <= (1 + eps) * m_true + 1e-9


def test_deterministic_initial_edges_preprocessing():
    wedges = [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 4.0)]
    est = DeterministicMsfEstimator(6, 0.25, 4.0, initial_edges=wedges)
    m_true = exact_msf_weight(wedges, 6)
    assert (1 - 0.25) * m_true <= est.estimate() <= (1 + 0.25) * m_true


def _bfs_per_level(est, update):
    """BFS calls each level ran during ``update()``."""
    before = [level.bfs_calls for level in est.levels]
    update()
    return [level.bfs_calls - b for level, b in zip(est.levels, before)]


@pytest.mark.parametrize("n,eps,W,seed", [
    (30, 0.8, 2.0, 1), (40, 0.5, 3.0, 2), (25, 0.9, 4.0, 3), (60, 0.6, 1.5, 4),
])
def test_deterministic_nested_walk_fuzz(n, eps, W, seed):
    # every level's count against the oracle after every update, and the BFS
    # calls against the same levels run one by one with the lone-counter rule
    est = DeterministicMsfEstimator(n, eps, W)
    ref = DeterministicMsfEstimator(n, eps, W)
    k = est.levels[0].k
    rng = np.random.default_rng(seed)
    edges = {}
    nested_total = ref_total = 0
    for _ in range(400):
        if edges and rng.random() < 0.4:
            (u, v), w = list(edges.items())[int(rng.integers(0, len(edges)))]
            del edges[(u, v)]
            u, v = (u, v) if rng.random() < 0.5 else (v, u)
            calls = _bfs_per_level(est, lambda: est.delete(u, v))
            lone = [level.on_delete for level in ref.levels]
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                continue
            w = float(rng.choice([1.0, rng.uniform(1.0, W), W]))
            edges[key] = w
            calls = _bfs_per_level(est, lambda: est.insert(u, v, w))
            lone = [level.on_insert for level in ref.levels]
        first = bisect_left(est.config.thresholds, w)
        ref_calls = _bfs_per_level(ref, lambda: [op(u, v) for op in lone[first:]])
        assert calls[:first] == ref_calls[:first] == [0] * first
        assert all(c <= 2 for c in calls)
        assert sum(calls) <= sum(ref_calls)
        nested_total += sum(calls)
        ref_total += sum(ref_calls)
        for level, other in zip(est.levels, ref.levels):
            assert level.estimate() == other.estimate() == \
                fast_nscc(*level.graph.edge_view(), n, k)
        assert est.estimate() == ref.estimate()
    assert nested_total < ref_total


def _nested_levels(edges):
    """eps 0.8, W 2: k = 10 and four levels with thresholds 1, 1.4, 1.4**2, 2."""
    est = DeterministicMsfEstimator(40, 0.8, 2.0, initial_edges=edges)
    assert est.levels[0].k == 10
    assert est.config.thresholds == pytest.approx((1.0, 1.4, 1.96, 2.0))
    return est


def _path(first, count, w):
    return [(x, x + 1, w) for x in range(first, first + count - 1)]


def _check_counts(est):
    for level in est.levels:
        assert level.estimate() == fast_nscc(*level.graph.edge_view(), 40, level.k)


def test_deterministic_connected_at_first_level_takes_one_bfs():
    est = _nested_levels([(0, 2, 1.0), (2, 1, 1.0)])
    assert _bfs_per_level(est, lambda: est.insert(0, 1, 1.0)) == [1, 0, 0, 0]
    assert _bfs_per_level(est, lambda: est.delete(1, 0)) == [1, 0, 0, 0]
    _check_counts(est)


def test_deterministic_both_large_at_first_level_takes_two_bfs():
    est = _nested_levels(_path(0, 11, 1.0) + _path(11, 11, 1.0))
    before = [level.estimate() for level in est.levels]
    assert _bfs_per_level(est, lambda: est.insert(5, 16, 1.0)) == [2, 0, 0, 0]
    assert [level.estimate() for level in est.levels] == before
    assert _bfs_per_level(est, lambda: est.delete(16, 5)) == [2, 0, 0, 0]
    _check_counts(est)


def test_deterministic_one_large_endpoint_takes_one_bfs_per_level():
    # u = 0 lies in an 11-vertex path at every level; v = 20 is alone at level 0,
    # in 3 vertices from level 1 and in 12 (large) from level 2 on
    est = _nested_levels(_path(0, 11, 1.0) + _path(20, 3, 1.4) + _path(22, 10, 1.9))
    before = [level.estimate() for level in est.levels]
    assert _bfs_per_level(est, lambda: est.insert(0, 20, 1.0)) == [2, 1, 1, 0]
    # v's small component joins u's large one at levels 0 and 1 only
    assert [b - level.estimate() for b, level in zip(before, est.levels)] == [1, 1, 0, 0]
    assert _bfs_per_level(est, lambda: est.delete(0, 20)) == [2, 1, 1, 0]
    assert [level.estimate() for level in est.levels] == before
    _check_counts(est)


def test_randomized_light_edges_update_all_levels():
    est = RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0)
    counters = [level.i for level in est.levels]
    est.insert(0, 1, 1.0)  # light: a real update at every level
    assert all(level.i == c + 1 for level, c in zip(est.levels, counters))
    assert all(level.graph.has_edge(0, 1) for level in est.levels)


def test_randomized_heavy_edge_ticks_light_levels():
    est = RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0)
    est.insert(0, 1, 2.0)  # heavy for every level except the last
    for thr, level in zip(est.config.thresholds, est.levels):
        if 2.0 <= thr:
            assert level.i == 1 and level.graph.has_edge(0, 1)
        else:
            assert level.i == 2 and not level.graph.has_edge(0, 1)


def test_randomized_envelope_fuzz():
    n, W, eps, pp = 120, 2, 0.5, 0.1
    rng = np.random.default_rng(4)
    init = random_weighted_graph(rng, n, 150, W)
    est = RandomizedMsfEstimator(n, eps, W, pp, seed=5, initial_edges=init)
    edges = {(u, v): w for u, v, w in init}
    viol = checks = 0
    for step in range(400):
        if edges and rng.random() < 0.5:
            key = list(edges)[int(rng.integers(0, len(edges)))]
            est.delete(*key)
            del edges[key]
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                continue
            w = float(rng.integers(1, W + 1))
            est.insert(u, v, w)
            edges[key] = w
        m_true = exact_msf_weight([(u, v, w) for (u, v), w in edges.items()], n)
        checks += 1
        if not (1 - eps) * m_true - 1e-9 <= est.estimate() <= (1 + eps) * m_true + 1e-9:
            viol += 1
    assert viol <= 0.1 * checks


def test_randomized_levels_share_thr_stream():
    est = RandomizedMsfEstimator(10, 0.5, 2.0, 0.1, seed=1)
    est.insert(0, 1, 1.0)
    est.insert(2, 3, 2.0)
    est.delete(0, 1)
    # all levels saw exactly three updates' worth of counter advances
    assert len({level.i for level in est.levels}) <= 2  # ticks add 2, updates 1
    for level in est.levels:
        assert level.psi == 4  # nis of the full graph before the delete


@pytest.mark.parametrize("make", [
    lambda: DeterministicMsfEstimator(5, 0.25, 4.0),
    lambda: RandomizedMsfEstimator(5, 0.5, 4.0, 0.1, seed=0),
], ids=["deterministic", "randomized"])
def test_invalid_vertices_rejected_before_any_state_change(make):
    est = make()
    empty = est.estimate()
    for u, v in ((-1, 2), (2, -1), (5, 2), (2, 5), (2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"({u}, {v})")):
            est.insert(u, v, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"({u}, {v})")):
            est.delete(u, v)
    assert all(level.graph.m == 0 and level.graph.nis == 0 for level in est.levels)
    assert est.estimate() == empty
    est.insert(1, 2, 1.0)
    assert all(level.graph.has_edge(1, 2) for level in est.levels)
    assert 0.5 <= est.estimate() <= 1.5  # MSF weight 1 within the (1 +- eps) envelope
    est.delete(2, 1)
    assert all(level.graph.m == 0 for level in est.levels)


def _window_from_initial_edges(make, record):
    """sha256 over ``record(est)`` after each update of a seeded sliding window.

    The edges inserted before the first delete are ``initial_edges``.
    """
    stream = gen_sliding_window(120, 2000, 100, mode="msf", W=2.0, seed=3)
    first = next(i for i, op in enumerate(stream.ops) if op.kind == "d")
    est = make([(op.u, op.v, op.w) for op in stream.ops[:first] if op.kind == "i"])
    h = hashlib.sha256()
    for op in stream.ops[first:]:
        if op.kind == "q":
            continue
        if op.kind == "i":
            est.insert(op.u, op.v, op.w)
        else:
            est.delete(op.u, op.v)
        h.update(repr(record(est)).encode())
    return h.hexdigest()


def test_deterministic_from_initial_edges_pinned():
    def make(init):
        return DeterministicMsfEstimator(120, 0.8, 2.0, initial_edges=init)

    # the estimates and the BFS work are pinned apart: the work can change alone
    assert _window_from_initial_edges(make, lambda est: est.estimate()) == \
        "a5ee7532c1425b8344e4c147e0ebc0cb8570d6057d3de94ca5fca1b1270c2313"
    assert _window_from_initial_edges(
        make, lambda est: sum(level.bfs_calls for level in est.levels)) == \
        "fdd67fc3d6bcaa3f61a534b1576f3d4db3dc9d281ff280ab29784d529ffde874"


def test_randomized_from_initial_edges_pinned():
    digest = _window_from_initial_edges(
        lambda init: RandomizedMsfEstimator(120, 0.8, 2.0, 0.1, seed=5, initial_edges=init),
        lambda est: (est.estimate(), [(level.i, level.psi) for level in est.levels]))
    assert digest == "8beae71cdf04ba1b7ec5887560d56cf9b43ef4e63c01dfc4cf1c215ad5768113"


def test_randomized_rejects_the_removed_per_sample_route():
    with pytest.raises(ValueError, match="per-sample boundary route"):
        RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0, use_fast_sizes=False)
    assert RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0, use_fast_sizes=True).levels
