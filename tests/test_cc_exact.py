from collections import Counter

import numpy as np
import pytest

from dyngraph.cc_exact import SmallCcCounter
from dyngraph.graph_core import DynamicGraph
from dyngraph.oracles import exact_ncc, exact_nis, exact_nscc, fast_component_sizes, fast_nscc


def build(n, edges):
    g = DynamicGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def test_preprocess_empty_graph_counts_singletons():
    counter = SmallCcCounter(DynamicGraph(5), eps=0.5)  # k = 2
    assert counter.k == 2
    assert counter.estimate() == 5


def test_preprocess_triangle_plus_isolated():
    g = build(5, [(0, 1), (1, 2), (0, 2)])
    counter = SmallCcCounter(g, eps=0.5)
    assert counter.estimate() == 2  # the triangle is too large for k=2


def test_preprocess_random_graphs_match_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = 40
        edges = set()
        for _ in range(int(rng.integers(0, 80))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        k = int(rng.integers(1, 6))
        counter = SmallCcCounter(build(n, edges), eps=1.0 / k)
        assert counter.k == k
        assert counter.estimate() == exact_nscc(sorted(edges), n, k)


def test_insert_two_singletons_merges_to_one_small():
    counter = SmallCcCounter(DynamicGraph(4), eps=0.5)
    counter.on_insert(0, 1)
    assert counter.estimate() == 3  # {0,1}, {2}, {3}


def test_insert_two_max_size_components_drops_by_two():
    # both endpoints small before the insert, merged size exceeds k
    g = build(8, [(0, 1), (2, 3)])
    counter = SmallCcCounter(g, eps=0.5)  # k = 2
    before = counter.estimate()
    counter.on_insert(1, 2)  # merge two 2-vertex components into 4 > k
    assert counter.estimate() == before - 2


def test_insert_within_same_component_keeps_count():
    g = build(3, [(0, 1), (1, 2)])
    counter = SmallCcCounter(g, eps=0.34)  # k = 3
    before = counter.estimate()
    counter.on_insert(0, 2)  # closes the triangle
    assert counter.estimate() == before


def test_duplicate_insert_and_absent_delete_are_noops():
    g = build(3, [(0, 1)])
    counter = SmallCcCounter(g, eps=0.5)
    before = counter.estimate()
    assert not counter.on_insert(0, 1)
    assert not counter.on_delete(1, 2)
    assert counter.estimate() == before


@pytest.mark.parametrize("bad", [-1, 5])
def test_out_of_range_vertex_leaves_count_unchanged(bad):
    g = build(5, [(2, 4)])
    counter = SmallCcCounter(g, eps=0.5)
    before = (counter.estimate(), g.m, g.nis, g.edges())
    for op in (counter.on_insert, counter.on_delete):
        with pytest.raises(ValueError):
            op(bad, 2)
        assert (counter.estimate(), g.m, g.nis, g.edges()) == before


def test_delete_bridge_of_two_path():
    g = build(2, [(0, 1)])
    counter = SmallCcCounter(g, eps=0.5)  # k = 2
    assert counter.estimate() == 1
    counter.on_delete(0, 1)
    assert counter.estimate() == 2


def test_delete_cycle_edge_keeps_count():
    g = build(3, [(0, 1), (1, 2), (0, 2)])
    counter = SmallCcCounter(g, eps=0.34)  # k = 3: triangle counts
    assert counter.estimate() == 1
    counter.on_delete(0, 1)  # still connected through 2
    assert counter.estimate() == 1


def _check_flags(counter):
    """The count and every vertex's large flag against a from-scratch labelling."""
    g, k = counter.graph, counter.k
    eu, ev = g.edge_view()
    assert counter.estimate() == fast_nscc(eu, ev, g.n, k)
    assert list(counter.large) == (fast_component_sizes(eu, ev, g.n) > k).tolist()


def _fuzz(n, k, seed, steps):
    """Random toggles checked against the oracles; returns Counter(BFS runs per update)."""
    rng = np.random.default_rng(seed)
    g = DynamicGraph(n)
    counter = SmallCcCounter(g, eps=1.0 / k)
    assert counter.k == k
    bfs_limited = g.bfs_limited
    runs = []  # (cap, reached) of every capped BFS

    def recorded(start, cap, *level):
        reached, closed = bfs_limited(start, cap, *level)
        runs.append((cap, reached))
        return reached, closed

    g.bfs_limited = recorded
    edges = set()
    per_update = Counter()
    for step in range(steps):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        calls = counter.bfs_calls
        insert = key not in edges
        if insert:
            counter.on_insert(u, v)
            edges.add(key)
        else:
            counter.on_delete(u, v)
            edges.discard(key)
        per_update[counter.bfs_calls - calls] += 1
        assert counter.bfs_calls - calls <= 2
        assert len(runs) == counter.bfs_calls - calls
        assert all(cap == k + 1 and reached <= cap for cap, reached in runs)
        if insert:  # an insert explores only small components, so never hits the cap
            assert all(reached <= k for _, reached in runs)
        runs.clear()
        want = exact_nscc(sorted(edges), n, k)
        assert counter.estimate() == want
        _check_flags(counter)
        # error envelope against the full component count
        ncc = exact_ncc(sorted(edges), n)
        nis = exact_nis(sorted(edges), n)
        assert abs(counter.estimate() - ncc) <= nis / k
    return per_update


def test_fuzz_exact_agreement_and_work_bound():
    assert _fuzz(60, 4, seed=1, steps=3000)[2]  # the two-BFS path ran


# BFS calls per update -> updates, for each (n, k) below
_EXTREME_K_RUNS = {
    (12, 1): {0: 691, 1: 8, 2: 678},
    (10, 10): {1: 1338, 2: 13},
    (9, 16): {1: 1315, 2: 27},
}


@pytest.mark.parametrize("n,k", list(_EXTREME_K_RUNS))
def test_fuzz_extreme_k(n, k):
    # no BFS: an insert between two large components.  One: an insert joining a
    # small component to a large one, an insert or delete whose first BFS reaches
    # v, or a delete in a small component.  With k = 1 every edge lies in a large
    # component, so the first BFS stops at one neighbour of u, never v (the graph
    # it runs on lacks (u, v)), and only inserts next to a singleton take one.
    # With n <= k no component is large: a delete always takes one BFS
    assert _fuzz(n, k, seed=k, steps=1500) == Counter(_EXTREME_K_RUNS[n, k])


def test_flags_from_construction_and_a_delete_that_splits_a_large_component():
    # two triangles joined by (2, 3), plus a lone edge: k = 3
    g = build(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (6, 7)])
    counter = SmallCcCounter(g, eps=1.0 / 3)
    assert list(counter.large) == [1] * 6 + [0, 0]
    assert counter.estimate() == 1
    counter.on_delete(3, 2)
    assert list(counter.large) == [0] * 8
    assert counter.estimate() == 3
    counter.on_insert(7, 0)  # 5 > k vertices: both sides flagged large
    assert list(counter.large) == [1, 1, 1, 0, 0, 0, 1, 1]
    assert counter.estimate() == 1
    _check_flags(counter)


def test_estimate_envelope_single_large_component():
    g = build(6, [(i, i + 1) for i in range(5)])  # path of 6 > k
    counter = SmallCcCounter(g, eps=0.5)
    assert counter.estimate() == 0
    # |0 - ncc| = 1 <= eps * nis = 3
    assert abs(counter.estimate() - 1) <= 0.5 * 6


def test_eps_validation():
    with pytest.raises(ValueError):
        SmallCcCounter(DynamicGraph(3), eps=0.0)
    with pytest.raises(ValueError):
        SmallCcCounter(DynamicGraph(3), eps=1.5)
