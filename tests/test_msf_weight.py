import hashlib
import math
import re
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngraph import cc_random
from dyngraph.cc_exact import SmallCcCounter
from dyngraph.cc_random import PhasedCcEstimator, _phase_len
from dyngraph.graph_core import DynamicGraph
from dyngraph.msf_weight import (
    DeterministicMsfEstimator,
    MsfConfig,
    RandomizedMsfEstimator,
    combine,
)
from dyngraph.oracles import (exact_msf_weight, exact_ncc, fast_component_sizes, fast_ncc,
                              fast_nscc)
from dyngraph.streams import adaptive_adversary_step, gen_sliding_window


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.1, 0.25, 0.5, 0.9]), st.floats(1.0, 8.0), st.integers(0, 200),
       st.floats(0.0, 10.0), st.data())
def test_combine_error_is_at_most_2top_minus_1_times_the_level_error(eps, W, n, err, data):
    # Per-level errors of at most err move the combined estimate by at most
    # (2*top - 1)*err, since the lambdas sum to top - 1; c_r under- and every
    # other count over-estimated by err reaches it.
    cfg = MsfConfig.from_params(eps, W)
    top, levels = cfg.top_coeff, cfg.r + 1
    assert sum(cfg.lambdas) == pytest.approx(top - 1)
    exact = [err + c for c in data.draw(st.lists(st.integers(0, n), min_size=levels,
                                                  max_size=levels))]
    shift = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=levels, max_size=levels))
    x = combine(cfg, exact, n)
    tol = 1e-9 * (1 + top * (n + err) * levels)
    bound = (2 * top - 1) * err
    assert abs(combine(cfg, [c + f * err for c, f in zip(exact, shift)], n) - x) <= bound + tol
    worst = [c + err for c in exact[:-1]] + [exact[-1] - err]
    assert combine(cfg, worst, n) - x == pytest.approx(bound, abs=tol)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("W", [1.0, 1.5, 2.0, 3.0, 4.0, 8.0])
def test_deterministic_k_is_ceil_2top_over_eps_at_every_level(eps, W):
    # the combiner's budget (module docstring) sets k, never above the old ceil(4W/eps)
    est = DeterministicMsfEstimator(4, eps, W)
    top = est.config.top_coeff
    assert len(est.levels) == est.config.r + 1
    assert top == 1.0 if W == 1.0 else top > 1.0
    k = math.ceil(2 * top / eps)
    assert [level.k for level in est.levels] == [k] * len(est.levels)
    assert k <= math.ceil(4 * W / eps)
    if (eps, W) == (0.25, 4.0):
        assert k == 33


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([0.25, 0.5, 0.75, 0.9]), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
       st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(0, 5),
       st.integers(0, 2**32 - 1))
def test_deterministic_error_stays_in_the_derived_bound(eps, W, sizes, spare, seed):
    # Components of k + 1 .. k + 3 vertices, each a random tree plus a few
    # chords, are the ones the counter misses: the combined estimate at the
    # new k meets (1 - (top - 1)/k)*M <= X <= (1 + eps/2 + top/k)*M, so
    # (1 +- eps)*M, against the exact MSF weight M.
    cfg = MsfConfig.from_params(eps, W)
    top = cfg.top_coeff
    k = math.ceil(2 * top / eps)
    rng = np.random.default_rng(seed)
    weights = [1.0, 1.0, *cfg.thresholds, W]
    weight, n = {}, 0
    for extra in sizes:
        size = k + extra
        tree = [(n + int(rng.integers(0, j)), n + j) for j in range(1, size)]
        chords = [tuple(n + int(x) for x in sorted(rng.choice(size, 2, replace=False)))
                  for _ in range(int(rng.integers(0, 3)))]
        for e in tree + chords:
            weight.setdefault(e, weights[int(rng.integers(0, len(weights)))]
                              if rng.random() < 0.7 else float(rng.uniform(1.0, W)))
        n += size
    n += spare
    edges = [(u, v, w) for (u, v), w in weight.items()]
    counts = [fast_nscc(*(np.array([e[j] for e in edges if e[2] <= thr], dtype=np.int64)
                          for j in (0, 1)), n, k) for thr in cfg.thresholds]
    x_hat = combine(cfg, counts, n)
    m_true = exact_msf_weight(edges, n)
    tol = 1e-9 * (1 + top * n)
    assert (1 - (top - 1) / k) * m_true - tol <= x_hat <= (1 + eps / 2 + top / k) * m_true + tol
    assert abs(x_hat - m_true) <= eps * m_true + tol
    assert DeterministicMsfEstimator(n, eps, W, initial_edges=edges).estimate() == x_hat


def _level_edges(est, i):
    """The sorted edges of an estimator's threshold graph i, read off the one store."""
    return sorted(e for e, lvl in zip(est.graph.edges(), est._lvl) if lvl <= i)


def _level_view(est, i):
    """The endpoint arrays of an estimator's threshold graph i, for the oracles."""
    eu, ev = est.graph.edge_view()
    keep = np.array(est._lvl, dtype=np.int64) <= i
    return eu[keep], ev[keep]


def test_deterministic_level_nesting_and_routing():
    est = DeterministicMsfEstimator(10, 0.5, 4.0)
    est.insert(0, 1, 1.0)
    est.insert(2, 3, 4.0)  # heaviest: only levels with threshold >= 4
    for i, thr in enumerate(est.config.thresholds):
        edges = _level_edges(est, i)
        assert (0, 1) in edges  # weight 1 is in every level
        assert ((2, 3) in edges) == (4.0 <= thr)
    # nesting: every level's edges are contained in the next level's
    for i in range(est.config.r):
        assert set(_level_edges(est, i)) <= set(_level_edges(est, i + 1))


def test_deterministic_weight_validation_and_duplicates():
    est = DeterministicMsfEstimator(6, 0.25, 3.0)
    with pytest.raises(ValueError):
        est.insert(0, 1, 0.5)
    with pytest.raises(ValueError):
        est.insert(0, 1, 3.5)
    assert est.insert(0, 1, 2.0)
    state = [(_level_edges(est, i), level.bfs_calls, level.estimate())
             for i, level in enumerate(est.levels)]
    assert not est.insert(1, 0, 1.0)  # duplicate edge, even with another weight
    assert not est.delete(2, 3)  # absent edge
    assert [(_level_edges(est, i), level.bfs_calls, level.estimate())
            for i, level in enumerate(est.levels)] == state
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


def _bfs_per_level(levels, update):
    """BFS calls each of ``levels`` ran during ``update()``."""
    before = [level.bfs_calls for level in levels]
    update()
    return [level.bfs_calls - b for level, b in zip(levels, before)]


@pytest.mark.parametrize("n,eps,W,seed", [
    (30, 0.8, 2.0, 1), (40, 0.5, 3.0, 2), (25, 0.9, 4.0, 3), (60, 0.6, 1.5, 4),
])
def test_deterministic_nested_walk_fuzz(n, eps, W, seed):
    # every level's count against the oracle after every update, and the BFS
    # calls against the same levels run one by one with the lone-counter rule,
    # each lone counter on a graph of its own.  The store's BFS work per update
    # stays within the worst case: at most two capped BFS of k + 1 vertices per level
    est = DeterministicMsfEstimator(n, eps, W)
    k = est.levels[0].k
    ref = [SmallCcCounter(DynamicGraph(n), 1 / k) for _ in est.levels]
    assert ref[0].k == k
    searches = []
    bfs = est.graph.bfs_limited

    def counted(*args):
        reached, closed = bfs(*args)
        searches.append(reached)
        return reached, closed

    est.graph.bfs_limited = counted
    levels = est.config.r + 1
    rng = np.random.default_rng(seed)
    edges = {}
    nested_total = ref_total = 0
    for _ in range(400):
        del searches[:]
        if edges and rng.random() < 0.4:
            (u, v), w = list(edges.items())[int(rng.integers(0, len(edges)))]
            del edges[(u, v)]
            u, v = (u, v) if rng.random() < 0.5 else (v, u)
            calls = _bfs_per_level(est.levels, lambda: est.delete(u, v))
            lone = [level.on_delete for level in ref]
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                continue
            w = float(rng.choice([1.0, rng.uniform(1.0, W), W]))
            edges[key] = w
            calls = _bfs_per_level(est.levels, lambda: est.insert(u, v, w))
            lone = [level.on_insert for level in ref]
        first = bisect_left(est.config.thresholds, w)
        ref_calls = _bfs_per_level(ref, lambda: [op(u, v) for op in lone[first:]])
        assert calls[:first] == ref_calls[:first] == [0] * first
        assert all(c <= 2 for c in calls)
        assert sum(calls) <= sum(ref_calls)
        assert len(searches) == sum(calls) <= 2 * levels
        assert sum(searches) <= 2 * (k + 1) * levels
        nested_total += sum(calls)
        ref_total += sum(ref_calls)
        for i, (level, other) in enumerate(zip(est.levels, ref)):
            assert level.estimate() == other.estimate() == fast_nscc(*_level_view(est, i), n, k)
        assert est.estimate() == combine(est.config, [other.estimate() for other in ref], n)
    assert nested_total < ref_total


def _reference_bfs(g, start, cap, keys=None, level=0):
    """A capped BFS in ``bfs_limited``'s documented order: each ``adj[x]`` in
    insertion order, or ``keys[x]`` while a key is below (level + 1) * n.
    Returns the vertices it discovers, the entries it reads on the way and
    how many of those were keys above the level, each ending a list early."""
    order, reads, stops = [start], 0, 0
    for x in order:
        for key in g.adj[x] if keys is None else keys[x]:
            reads += 1
            if keys is not None:
                if key >= (level + 1) * g.n:
                    stops += 1
                    break
                key %= g.n
            if key not in order:
                if len(order) == cap:
                    return order, reads, stops
                order.append(key)
    return order, reads, stops


class _CountedKeys(list):
    """A vertex's key list that counts the keys a search reads off it."""

    read = 0

    def __iter__(self):
        for key in super().__iter__():
            _CountedKeys.read += 1
            yield key


def test_deterministic_update_reads_do_not_grow_with_hub_degree():
    # the hub probe: vertex 0 has D heavy edges, of weight 1.5 and so first
    # in level 2, one below the top (thresholds 1, 1.4, 1.96, 2), and the
    # updates insert and delete the light edge (0, D + 1).  A BFS at levels 0
    # and 1 stops at the hub's first key above its level, so an update reads
    # at most two capped BFS worth, (k + 1)(k + 2) entries each, per level,
    # and the same entries at every D.  A filtered BFS reads exactly the keys
    # that the documented order reads
    W, eps, heavy = 2.0, 0.8, 1.5
    reads_at = {}
    for D in (50, 500):
        est = DeterministicMsfEstimator(D + 2, eps, W,
                                        initial_edges=[(0, y, heavy) for y in range(1, D + 1)])
        r, k, g = est.config.r, est.levels[0].k, est.graph
        assert set(est._lvl) == {r - 1}
        est._keys[:] = [_CountedKeys(keys) for keys in est._keys]  # the levels share the list
        bfs, reads, stops = g.bfs_limited, [], []

        def checked(start, cap, *keys_level):
            expected, count, stopped = _reference_bfs(g, start, cap, *keys_level)
            before = _CountedKeys.read
            result = bfs(start, cap, *keys_level)
            assert g.discovered == expected
            if keys_level[0] is not None:  # a filtered level: all its reads are counted
                assert _CountedKeys.read - before == count
            reads.append(count)
            stops.append(stopped)
            return result

        g.bfs_limited = checked
        per_update = []
        for _ in range(5):
            for update in (lambda: est.insert(0, D + 1, 1.0), lambda: est.delete(0, D + 1)):
                del reads[:]
                assert update()
                per_update.append(sum(reads))
        assert 0 < max(per_update) <= 2 * (r + 1) * (k + 1) * (k + 2)
        assert sum(stops) > 0  # some search met a key above its level and stopped
        reads_at[D] = per_update
    assert reads_at[50] == reads_at[500]


def _nested_levels(edges):
    """eps 0.8, W 2: four levels with thresholds 1, 1.4, 1.4**2, 2, and
    k = ceil(2 * 1.4**3 / 0.8) = 7."""
    est = DeterministicMsfEstimator(40, 0.8, 2.0, initial_edges=edges)
    assert est.levels[0].k == 7
    assert est.config.thresholds == pytest.approx((1.0, 1.4, 1.96, 2.0))
    return est


def _path(first, count, w):
    return [(x, x + 1, w) for x in range(first, first + count - 1)]


def _check_counts(est):
    """Every level's count and large flags against a from-scratch labelling."""
    n = est.n
    for i, level in enumerate(est.levels):
        eu, ev = _level_view(est, i)
        assert level.estimate() == fast_nscc(eu, ev, n, level.k)
        assert list(level.large) == (fast_component_sizes(eu, ev, n) > level.k).tolist()


def test_deterministic_connected_at_first_level_takes_one_bfs():
    est = _nested_levels([(0, 2, 1.0), (2, 1, 1.0)])
    assert _bfs_per_level(est.levels, lambda: est.insert(0, 1, 1.0)) == [1, 0, 0, 0]
    assert _bfs_per_level(est.levels, lambda: est.delete(1, 0)) == [1, 0, 0, 0]
    _check_counts(est)


def test_deterministic_both_large_insert_takes_no_bfs():
    est = _nested_levels(_path(0, 8, 1.0) + _path(8, 8, 1.0))
    before = [level.estimate() for level in est.levels]
    # both endpoints are flagged large at every level
    assert _bfs_per_level(est.levels, lambda: est.insert(5, 12, 1.0)) == [0, 0, 0, 0]
    assert [level.estimate() for level in est.levels] == before
    # the delete splits a large component: two capped BFS at level 0 find both
    # sides large, and the levels above read that off level 0's flags
    assert _bfs_per_level(est.levels, lambda: est.delete(12, 5)) == [2, 0, 0, 0]
    _check_counts(est)


def test_deterministic_one_large_endpoint_takes_one_bfs_per_level():
    # u = 0 lies in an 8-vertex path at every level; v = 20 is alone at level 0,
    # in 3 vertices from level 1 and in 8 (large) from level 2 on
    est = _nested_levels(_path(0, 8, 1.0) + _path(20, 3, 1.4) + _path(22, 6, 1.9))
    before = [level.estimate() for level in est.levels]
    # one closed BFS of v's side while it is small, none once both are large
    assert _bfs_per_level(est.levels, lambda: est.insert(0, 20, 1.0)) == [1, 1, 0, 0]
    # v's small component joins u's large one at levels 0 and 1 only
    assert [b - level.estimate() for b, level in zip(before, est.levels)] == [1, 1, 0, 0]
    _check_counts(est)
    assert _bfs_per_level(est.levels, lambda: est.delete(0, 20)) == [2, 1, 1, 0]
    assert [level.estimate() for level in est.levels] == before
    _check_counts(est)


def test_deterministic_small_sides_joined_large_below_are_joined_again_above():
    # two 4-vertex paths, small and apart at every level; a weight-1 edge joins
    # them into 8 > k vertices.  Level 0 runs no BFS that reaches the other
    # endpoint, so the levels above must not take its merge for "connected"
    est = _nested_levels(_path(0, 4, 1.0) + _path(4, 4, 1.0))
    assert [level.estimate() for level in est.levels] == [34] * 4
    assert _bfs_per_level(est.levels, lambda: est.insert(1, 6, 1.0)) == [2, 2, 2, 2]
    assert [level.estimate() for level in est.levels] == [32] * 4
    _check_counts(est)
    assert _bfs_per_level(est.levels, lambda: est.delete(6, 1)) == [2, 2, 2, 2]
    assert [level.estimate() for level in est.levels] == [34] * 4
    _check_counts(est)


@pytest.mark.parametrize("seed", [6, 7])
def test_deterministic_levels_keep_exact_counts_and_flags_fuzz(seed):
    # integer weights over thresholds 1, 1.375, 1.89, 2.6, 3: levels 0-2 hold one
    # graph, so ``below`` often saw exactly this one.  Half the edges weigh 1, so
    # components pass k = ceil(2 * 1.375**4 / 0.75) = 10 at level 0 too
    n, W = 48, 3.0
    est = DeterministicMsfEstimator(n, 0.75, W)
    assert est.levels[0].k == 10 and len(est.levels) == 5
    rng = np.random.default_rng(seed)
    edges = {}
    for _ in range(600):
        if len(edges) > n or edges and rng.random() < 0.3:
            key = list(edges)[int(rng.integers(0, len(edges)))]
            del edges[key]
            assert est.delete(*(key[::-1] if rng.random() < 0.5 else key))
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                continue
            edges[key] = float(rng.choice([1, 1, 2, 3]))
            assert est.insert(u, v, edges[key])
        _check_counts(est)


def _check_keys(est):
    """Each vertex's sorted keys, first level * n + neighbour, against the store's
    edges below the top level (the top level reads the plain adjacency)."""
    n, r = est.n, est.config.r
    keys = [[] for _ in range(n)]
    for (u, v), first in zip(est.graph.edges(), est._lvl):
        if first < r:
            keys[u].append(first * n + v)
            keys[v].append(first * n + u)
    assert est._keys == [sorted(x) for x in keys]


@pytest.mark.parametrize("seed", [8, 9])
def test_deterministic_levels_are_views_of_one_store(seed):
    # one warm-started labelling at construction gives every level its exact
    # count and flags; after a churn every level still counts on the one
    # graph, each slot's level is the one its weight admits, and each
    # vertex's (level, neighbour) keys follow the store
    n, W = 60, 3.0
    rng = np.random.default_rng(seed)
    init = random_weighted_graph(rng, n, 70, W, integer=False)
    edges = {(u, v): w for u, v, w in init}
    est = DeterministicMsfEstimator(n, 0.75, W, initial_edges=init)
    assert est.levels[0].k == 10 and len(est.levels) == 5
    assert 0 < sum(est.levels[-1].large) < n  # small and large components at the top
    _check_keys(est)
    _check_counts(est)
    for _ in range(500):
        if edges and rng.random() < 0.45:
            key = list(edges)[int(rng.integers(0, len(edges)))]
            del edges[key]
            assert est.delete(*key)
        else:
            u, v = (int(x) for x in rng.choice(n, 2, replace=False))
            key = (min(u, v), max(u, v))
            if key in edges:
                continue
            edges[key] = float(rng.uniform(1.0, W))
            assert est.insert(u, v, edges[key])
    assert all(level.graph is est.graph for level in est.levels)
    assert len(est._lvl) == est.graph.m == len(edges)
    thresholds = est.config.thresholds
    assert list(est._lvl) == [bisect_left(thresholds, edges[e]) for e in est.graph.edges()]
    _check_keys(est)
    _check_counts(est)


def test_randomized_light_edges_update_all_levels():
    est = RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0)
    est.insert(0, 1, 1.0)  # light: every level's graph gets the edge
    assert est.i == 1
    assert all(_level_edges(est, i) == [(0, 1)] for i in range(est.config.r + 1))
    # the first phase lasts one update; each level re-sampled one pair, exactly
    assert est.counts == [7.0] * (est.config.r + 1)


def test_randomized_heavy_edge_leaves_light_levels_untouched():
    est = RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0)
    est.insert(0, 1, 2.0)  # heavy for every level except the last
    assert est.i == 1  # one update on the shared clock, whatever it hits
    assert est.psi == 0
    for i, (thr, count) in enumerate(zip(est.config.thresholds, est.counts)):
        assert (_level_edges(est, i) == [(0, 1)]) == (2.0 <= thr)
        assert count == (7.0 if 2.0 <= thr else 8.0)


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
    assert est.i == 3  # one shared clock: each update counts once at every level
    # every level re-sampled at the delete, at the full graph's nis before it
    assert (est.psi, est.phase_len) == (4, 1)


def test_randomized_levels_resample_in_lockstep(monkeypatch):
    # Size classes are drawn per update: only an update on which the shared
    # phase ends draws, once per level with an edge.  An update leaves the
    # levels below the first that admits or holds it untouched, and a
    # duplicate insert or an absent delete does not move the clock.
    draws = []
    draw = cc_random._size_class_estimate

    def counted(*args):
        draws.append(1)
        return draw(*args)

    monkeypatch.setattr(cc_random, "_size_class_estimate", counted)
    stream = gen_sliding_window(120, 2000, 100, mode="msf", W=2.0, seed=3)
    first = next(i for i, op in enumerate(stream.ops) if op.kind == "d")
    initial = [(op.u, op.v, op.w) for op in stream.ops[:first] if op.kind == "i"]
    est = RandomizedMsfEstimator(120, 0.8, 2.0, 0.1, seed=5, initial_edges=initial)
    levels = est.config.r + 1
    left = est.phase_len
    weight = {(min(u, v), max(u, v)): w for u, v, w in initial}
    boundaries = missed = 0
    for op in stream.ops[first:]:
        if op.kind == "q":
            continue
        key = (min(op.u, op.v), max(op.u, op.v))
        if op.kind == "i":
            weight[key] = op.w
        level = bisect_left(est.config.thresholds, weight[key])
        below = [_level_edges(est, i) for i in range(level)]
        frozen = list(est.counts)
        thr, clock = est.graph.nis, est.i
        del draws[:]
        if op.kind == "i":
            assert est.insert(op.u, op.v, op.w)
            assert not est.insert(op.v, op.u, 1.0)  # duplicate
        else:
            assert est.delete(op.u, op.v)
            assert not est.delete(op.u, op.v)  # absent now
        assert est.i == clock + 1
        assert [_level_edges(est, i) for i in range(level)] == below
        missed += bool(below)
        left -= 1
        if left == 0:
            boundaries += 1
            assert len(draws) == levels - min(est._lvl, default=levels)  # levels with an edge
            assert (est.psi, est.phase_len) == (thr, _phase_len(est.eps_prime, thr))
            left = est.phase_len
        else:
            assert draws == []
            assert est.counts == frozen
    assert boundaries > 100 and missed > 1000
    assert 0 < min(est._lvl) < levels  # some levels stay empty, not all


@pytest.mark.parametrize("eps,W", [(0.5, 4.0), (0.5, 2.0), (0.9, 1.125)])
def test_ticks_counted_once_stay_inside_eps_thr_at_every_step(eps, W):
    # Level 0 holds g, the adaptive adversary's graph, whose edges weigh 1;
    # the store adds a matching of weight W, which only the top level holds.
    # Five of every six steps delete a matching edge whose ends have no other
    # edge: an update that misses level 0, and Thr falls by 2, the most one
    # update can.  The sixth is the adversary's update of g.  eps' = eps/(4W)
    # is 1/32, 1/16 and 0.2; a level is missed only when W > 1.
    n, steps = 600, 1000
    rng = np.random.default_rng(23)
    g = DynamicGraph(n)
    while g.m < 80:
        u, v = int(rng.integers(0, 100)), int(rng.integers(0, 100))
        if u != v:
            g.insert_edge(u, v)
    spare = [(v, v + 1) for v in range(100, n, 2)]
    est = RandomizedMsfEstimator(n, eps, W, 0.01, seed=24, initial_edges=[
        (u, v, 1.0) for u, v in g.edges()] + [(u, v, W) for u, v in spare])
    store, eps_p = est.graph, est.eps_prime
    outside = checks = missed = 0
    for step in range(steps):
        thr = store.nis
        spare = [(u, v) for u, v in spare if store.degree(u) == store.degree(v) == 1]
        if spare and step % 6:
            u, v = spare.pop(int(rng.integers(0, len(spare))))
            assert est.delete(u, v)
            assert store.nis == thr - 2
            missed += 1
        else:
            op = adaptive_adversary_step(g, est.counts[0], rng)
            if op is None or op.kind == "i" and store.has_edge(op.u, op.v):
                continue  # no move, or a matching edge already holds the pair
            if op.kind == "i":
                assert est.insert(op.u, op.v, 1.0) and g.insert_edge(op.u, op.v)
            else:
                assert est.delete(op.u, op.v) and g.delete_edge(op.u, op.v)
        checks += 1
        outside += abs(est.counts[0] - fast_ncc(*g.edge_view(), n)) > eps_p * thr
    assert est.i == checks and missed >= 200
    assert _level_edges(est, 0) == sorted(g.edges())
    assert outside == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([1.0, 1.3, 1.6, 2.0])),
    max_size=30))))
def test_both_randomized_constructors_start_from_exact_counts(case):
    # Three or more isolated vertices, and levels 0 and 1 (below 1.3) empty
    # unless a weight-1 edge comes up.  A duplicate keeps its first weight.
    n, wedges = case
    wedges = [(u, v, w) for u, v, w in wedges if u != v]
    n += 3
    weight = {}
    for u, v, w in wedges:
        weight.setdefault((min(u, v), max(u, v)), w)
    est = RandomizedMsfEstimator(n, 0.5, 2.0, 0.1, seed=0, initial_edges=wedges)
    for i, thr in enumerate(est.config.thresholds):
        level = [e for e, w in weight.items() if w <= thr]
        eu, ev = (np.array([e[k] for e in level], dtype=np.int64) for k in (0, 1))
        assert est.counts[i] == fast_ncc(eu, ev, n)
    g = DynamicGraph(n)
    for u, v in weight:
        g.insert_edge(u, v)
    assert PhasedCcEstimator(g, 0.5, 0.1, seed=0).estimate() == fast_ncc(*g.edge_view(), n)


def _size_classes(edges, cap):
    """(nis, vertices per size class 2..cap) of a graph given by its edge list."""
    ids = {x: j for j, x in enumerate(sorted({x for e in edges for x in e}))}
    eu = np.array([ids[a] for a, _ in edges], dtype=np.int64)
    ev = np.array([ids[b] for _, b in edges], dtype=np.int64)
    sizes = fast_component_sizes(eu, ev, len(ids))
    return len(ids), np.bincount(sizes, minlength=cap + 1)[2 : cap + 1].tolist()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.sampled_from([1.0, 1.1, 1.25, 1.4, 1.5625, 1.8, 2.0])),
                max_size=60))
def test_one_edge_store_matches_each_levels_own_edge_list(pairs):
    # Each pair toggles its edge, so deletes swap edges out of every slot of
    # the store, not only the last.  After every update the level array holds
    # each live edge's weight level; every update ends a phase here, and each
    # level with an edge draws with the nis and size classes of its own edges.
    est = RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0)
    thresholds, cap = est.config.thresholds, est.cfg.cap
    drawn = []
    draw = cc_random._size_class_estimate

    def recorded(sizes, nis, cfg, rng):
        drawn.append((nis, np.bincount(sizes, minlength=cap + 1)[2 : cap + 1].tolist()))
        return draw(sizes, nis, cfg, rng)

    weight = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc_random, "_size_class_estimate", recorded)
        for u, v, w in pairs:
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            del drawn[:]
            if key in weight:
                assert est.delete(v, u)
                del weight[key]
            else:
                assert est.insert(u, v, w)
                weight[key] = w
            level = {e: bisect_left(thresholds, x) for e, x in weight.items()}
            assert list(est._lvl) == [level[e] for e in est.graph.edges()]
            assert est.phase_len == 1 and est.psi <= 8
            expected = [_size_classes([e for e in weight if level[e] <= i], cap)
                        for i in range(len(thresholds)) if min(level.values(), default=i + 1) <= i]
            assert drawn == expected


@pytest.mark.parametrize("make", [
    lambda: DeterministicMsfEstimator(5, 0.25, 4.0),
    lambda: RandomizedMsfEstimator(5, 0.5, 4.0, 0.1, seed=0),
], ids=["deterministic", "randomized"])
def test_invalid_vertices_rejected_before_any_state_change(make):
    est = make()
    levels = range(est.config.r + 1)
    empty = est.estimate()
    for u, v in ((-1, 2), (2, -1), (5, 2), (2, 5), (2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"({u}, {v})")):
            est.insert(u, v, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"({u}, {v})")):
            est.delete(u, v)
    assert est.graph.m == est.graph.nis == len(est._lvl) == 0
    assert est.estimate() == empty
    est.insert(1, 2, 1.0)
    assert all(_level_edges(est, i) == [(1, 2)] for i in levels)  # weight 1: every level
    assert 0.5 <= est.estimate() <= 1.5  # MSF weight 1 within the (1 +- eps) envelope
    est.delete(2, 1)
    assert est.graph.m == len(est._lvl) == 0


@pytest.mark.parametrize("kind", ["det", "rand"])
def test_initial_edges_load_as_inserts_would(kind):
    # initial_edges are checked as arrays and stored in one pass: the store
    # and its adjacency order are those of inserting them one by one, the
    # first weight of a repeated pair wins, and a bad edge anywhere raises
    # what inserting it raises
    def build(edges):
        if kind == "det":
            return DeterministicMsfEstimator(6, 0.5, 4.0, initial_edges=edges)
        return RandomizedMsfEstimator(6, 0.5, 4.0, 0.1, seed=1, initial_edges=edges)

    good = [(0, 1, 1.0), (3, 2, 4.0), (1, 0, 2.0), (4, 5, 2.5), (2, 1, 1.7)]
    est, one = build(good), build([])
    for e in good:
        one.insert(*e)
    assert est.graph.edges() == one.graph.edges() and list(est._lvl) == list(one._lvl)
    assert [list(a.items()) for a in est.graph.adj] == [list(a.items()) for a in one.graph.adj]
    assert est.graph.nis == one.graph.nis == 6
    if kind == "det":
        _check_keys(est)
        assert est.estimate() == one.estimate()
    for bad in [(2, 2, 1.0), (0, 6, 1.0), (-1, 2, 1.0), (0, 1, 0.5), (1, 2, float("nan"))]:
        with pytest.raises(ValueError) as raised:
            build(good + [bad, (0, 6, 9.0)])
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            one.insert(*bad)


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
        "cb71084b35a0456194da5eb8239a8d6de72eb956dd6f7809c6a3f248b200261f"
    assert _window_from_initial_edges(
        make, lambda est: sum(level.bfs_calls for level in est.levels)) == \
        "33c2cbaaf48305078f6e13ec9d934db907efae11d5eb71d931453108138b458f"


def test_randomized_from_initial_edges_pinned():
    digest = _window_from_initial_edges(
        lambda init: RandomizedMsfEstimator(120, 0.8, 2.0, 0.1, seed=5, initial_edges=init),
        lambda est: (est.estimate(), est.i, [est.psi] * (est.config.r + 1)))
    assert digest == "68c27173d8cbdc27dc9cdc8f84a9a778f0afedf0cc6d12c4ee2a00477e06e0c6"


def test_randomized_rejects_the_removed_per_sample_route():
    with pytest.raises(ValueError, match="per-sample boundary route"):
        RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0, use_fast_sizes=False)
    assert RandomizedMsfEstimator(8, 0.5, 2.0, 0.1, seed=0, use_fast_sizes=True).counts


@pytest.mark.parametrize("p_prime", [5.0, 50, 1.0, 0.0, -0.1, float("nan")])
def test_randomized_rejects_p_prime_outside_the_unit_interval(p_prime):
    # 5.0 once built 8 levels with p = 0.625 each; 50 failed naming the per-level p
    with pytest.raises(ValueError, match=re.escape(f"p_prime must be in (0, 1), got {p_prime}")):
        RandomizedMsfEstimator(10, 0.5, 4.0, p_prime, seed=1)
