import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngraph.graph_core import DynamicGraph, SelfLoopError, UpdateOp


def test_single_edge_updates_counters():
    g = DynamicGraph(3)
    assert g.insert_edge(0, 1)
    assert g.degree(0) == 1 and g.degree(1) == 1
    assert g.nis == 2 and g.m == 1


def test_duplicate_insert_is_noop():
    g = DynamicGraph(3)
    assert g.insert_edge(0, 1)
    assert not g.insert_edge(0, 1)
    assert not g.insert_edge(1, 0)
    assert g.m == 1


def test_insert_delete_inverse_pair():
    g = DynamicGraph(4)
    g.insert_edge(0, 1)
    assert g.delete_edge(0, 1)
    assert g.m == 0 and g.nis == 0
    assert not g.delete_edge(0, 1)


def test_self_loop_rejected():
    g = DynamicGraph(3)
    with pytest.raises(SelfLoopError):
        g.insert_edge(2, 2)


@pytest.mark.parametrize("bad", [-1, 5])
def test_out_of_range_vertex_rejected_before_any_state_change(bad):
    g = DynamicGraph(5)
    g.insert_edge(2, 4)
    before = (g.m, g.nis, g.edges(), [set(a) for a in g.adj])
    for op in (g.insert_edge, g.delete_edge):
        for u, v in [(bad, 2), (2, bad)]:
            with pytest.raises(ValueError, match=rf"\(({bad}, 2|2, {bad})\)"):
                op(u, v)
            assert (g.m, g.nis, g.edges(), [set(a) for a in g.adj]) == before


def test_update_op_validation():
    with pytest.raises(SelfLoopError):
        UpdateOp("i", 1, 1)
    with pytest.raises(ValueError):
        UpdateOp("x", 0, 1)


def test_nis_matches_recount_after_random_sequence():
    rng = np.random.default_rng(0)
    g = DynamicGraph(12)
    edges = set()
    for _ in range(20):
        u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        if u != v and g.insert_edge(u, v):
            edges.add((min(u, v), max(u, v)))
    degree = [0] * 12
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert g.nis == sum(1 for d in degree if d > 0)
    assert all(g.degree(v) == degree[v] for v in range(12))


def test_thousand_insert_delete_pairs_match_set_replay():
    rng = np.random.default_rng(1)
    g = DynamicGraph(25)
    shadow = set()
    for _ in range(1000):
        u, v = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in shadow:
            assert g.delete_edge(u, v)
            shadow.discard(key)
        else:
            assert g.insert_edge(u, v)
            shadow.add(key)
    assert set(g.edges()) == shadow
    assert g.m == len(shadow)


def _full_component(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_bfs_limited_isolated_vertex():
    g = DynamicGraph(6)
    assert g.bfs_limited(3, 5) == (1, True)


def test_bfs_limited_path_cap_reached():
    g = DynamicGraph(10)
    for i in range(9):
        g.insert_edge(i, i + 1)
    assert g.bfs_limited(0, 4) == (4, False)
    assert g.bfs_limited(0, 10) == (10, True)
    assert g.bfs_limited(0, 11) == (10, True)


def test_bfs_limited_component_exactly_cap_is_closed():
    g = DynamicGraph(5)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    assert g.bfs_limited(0, 3) == (3, True)


def test_bfs_limited_matches_truncated_full_bfs():
    rng = np.random.default_rng(2)
    g = DynamicGraph(30)
    for _ in range(40):
        u, v = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        if u != v:
            g.insert_edge(u, v)
    for start in range(30):
        size = len(_full_component(g.adj, start))
        for cap in range(1, 7):
            reached, closed = g.bfs_limited(start, cap)
            assert reached == min(size, cap)
            assert closed == (size <= cap)
            assert g.bfs_marks_last <= cap


def test_bfs_limited_rejects_bad_cap():
    g = DynamicGraph(2)
    with pytest.raises(ValueError):
        g.bfs_limited(0, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
def test_counters_always_match_recomputation(pairs):
    g = DynamicGraph(10)
    shadow = set()
    for u, v in pairs:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in shadow:
            g.delete_edge(u, v)
            shadow.discard(key)
        else:
            g.insert_edge(u, v)
            shadow.add(key)
    assert g.m == len(shadow)
    assert set(g.edges()) == shadow
    degree = [0] * 10
    for u, v in shadow:
        degree[u] += 1
        degree[v] += 1
    assert g.nis == sum(1 for d in degree if d)
    for v in range(10):
        assert g.degree(v) == degree[v]
    eu, ev = g.edge_view()
    assert set(zip(eu.tolist(), ev.tolist())) == shadow
