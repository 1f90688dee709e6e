import numpy as np
import pytest

from dyngraph.cc_exact import SmallCcCounter
from dyngraph.graph_core import DynamicGraph
from dyngraph.oracles import exact_ncc, exact_nis, exact_nscc


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


def test_fuzz_exact_agreement_and_work_bound():
    rng = np.random.default_rng(1)
    n = 60
    g = DynamicGraph(n)
    counter = SmallCcCounter(g, eps=0.25)  # k = 4
    edges = set()
    for step in range(3000):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            counter.on_delete(u, v)
            edges.discard(key)
        else:
            counter.on_insert(u, v)
            edges.add(key)
        assert counter.bfs_calls_last <= 3
        assert g.bfs_marks_last <= counter.k + 1
        want = exact_nscc(sorted(edges), n, counter.k)
        assert counter.estimate() == want
        # error envelope against the full component count
        ncc = exact_ncc(sorted(edges), n)
        nis = exact_nis(sorted(edges), n)
        assert abs(counter.estimate() - ncc) <= 0.25 * nis


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
