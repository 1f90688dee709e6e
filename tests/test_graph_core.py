from bisect import insort
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngraph.graph_core import DynamicGraph, UpdateOp


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
    with pytest.raises(ValueError, match="self-loop"):
        g.insert_edge(2, 2)


@pytest.mark.parametrize("bad", [-1, 5])
def test_out_of_range_vertex_rejected_before_any_state_change(bad):
    g = DynamicGraph(5)
    g.insert_edge(2, 4)
    before = (g.m, g.nis, g.edges(), [set(a) for a in g.adj])
    for op in (g.insert_edge, g.delete_edge, g.has_edge):
        for u, v in [(bad, 2), (2, bad)]:
            with pytest.raises(ValueError, match=rf"\(({bad}, 2|2, {bad})\)"):
                op(u, v)
            assert (g.m, g.nis, g.edges(), [set(a) for a in g.adj]) == before
    g.bfs_limited(2, 3)
    for read in (g.degree, g.bfs_reached, lambda x: g.bfs_limited(x, 3)):
        with pytest.raises(ValueError, match=rf"vertex out of range: {bad} for n=5"):
            read(bad)
    assert [g.bfs_reached(x) for x in range(5)] == [False, False, True, False, True]


def test_update_op_is_an_immutable_value_record():
    op = UpdateOp("i", 0, 1)
    assert op == UpdateOp("i", 0, 1, 1.0) and hash(op) == hash(UpdateOp("i", 0, 1, 1.0))
    assert op != UpdateOp("d", 0, 1)
    assert repr(UpdateOp("q")) == "UpdateOp(kind='q', u=-1, v=-1, w=1.0)"
    with pytest.raises(AttributeError):
        op.u = 2
    # no rule lives in the record: parse_stream and the structures check ops
    assert UpdateOp("x", 1, 1).kind == "x"


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
    assert not any(g.bfs_reached(x) for x in range(6))  # no BFS has run yet
    assert g.bfs_limited(3, 5) == (1, True)
    assert [g.bfs_reached(x) for x in range(6)] == [x == 3 for x in range(6)]


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
        component = _full_component(g.adj, start)
        size = len(component)
        for cap in range(1, 7):
            reached, closed = g.bfs_limited(start, cap)
            assert reached == min(size, cap)
            assert closed == (size <= cap)
            marked = {x for x in range(30) if g.bfs_reached(x)}
            assert start in marked and marked <= component and len(marked) == reached


def _reference_discovered(adj, start, cap):
    """Sequential BFS: FIFO queue, ``adj[x]`` in insertion order, stop at the cap.

    Returns the discovered vertices in discovery order."""
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in seen:
                if len(seen) == cap:
                    return order
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_bfs_limited_discovers_in_fifo_queue_order(seed):
    # which vertices a capped call marks is what the BFS work counters (bfs_calls)
    # are built on: a rewrite that discovers in another order moves them.
    # ``discovered`` lists exactly the marked vertices, in that order
    rng = np.random.default_rng(seed)
    g = DynamicGraph(40)
    for _ in range(70):
        u, v = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        if u != v:
            g.insert_edge(u, v)
    seen = Counter()
    for start in range(40):
        for cap in (*range(1, 9), 40):
            expected = _reference_discovered(g.adj, start, cap)
            reached, closed = g.bfs_limited(start, cap)
            seen[closed] += 1
            assert {x for x in range(40) if g.bfs_reached(x)} == set(expected)
            assert g.discovered == expected
            assert reached == len(expected)
    assert seen[True] and seen[False]  # closed and capped calls both checked


def test_adjacency_keeps_insertion_order_across_deletes():
    """adj[x] is insertion-ordered: a delete from the middle keeps the other
    neighbours in order, a re-insert goes to the end, and BFS discovers so."""
    g = DynamicGraph(6)
    for v in (5, 1, 4, 2, 3):  # not sorted, so a small-int set order would differ
        g.insert_edge(0, v)
    assert list(g.adj[0]) == [5, 1, 4, 2, 3]
    assert g.delete_edge(4, 0)
    assert list(g.adj[0]) == [5, 1, 2, 3]
    assert g.insert_edge(4, 0)
    assert list(g.adj[0]) == [5, 1, 2, 3, 4]
    for cap in range(1, 7):
        assert g.bfs_limited(0, cap) == (cap, cap == 6)
        assert {x for x in range(6) if g.bfs_reached(x)} == set([0, 5, 1, 2, 3, 4][:cap])


@pytest.mark.parametrize("seed", [13, 14])
def test_filtered_bfs_limited_matches_a_graph_of_the_levels_edges(seed):
    # nested levels on one store: keys[x] holds level * n + y for each edge
    # (x, y), sorted, through inserts, deletes and re-inserts.  After every
    # update, a filtered search at each level must find what a fresh graph
    # holding only that level's edges, inserted in (level, u, v) order, finds:
    # same counts, same order, as that order lists each adjacency by (level, id)
    n, levels = 14, 3
    rng = np.random.default_rng(seed)
    g = DynamicGraph(n)
    keys: list[list[int]] = [[] for _ in range(n)]
    live: dict[tuple[int, int], int] = {}  # edge -> level
    gone: set[tuple[int, int]] = set()
    for _ in range(300):
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        key = (min(u, v), max(u, v))
        if key in live:
            assert g.delete_edge(v, u)
            level = live.pop(key)
            keys[u].remove(level * n + v)
            keys[v].remove(level * n + u)
            gone.add(key)
        else:
            assert g.insert_edge(u, v)
            live[key] = level = int(rng.integers(0, levels))
            insort(keys[u], level * n + v)
            insort(keys[v], level * n + u)
        for level in range(levels):
            ref = DynamicGraph(n)
            for _, a, b in sorted((x, a, b) for (a, b), x in live.items() if x <= level):
                ref.insert_edge(a, b)
            for start in range(n):
                for cap in (1, 2, 3, 5, n):
                    assert g.bfs_limited(start, cap, keys, level) == ref.bfs_limited(start, cap)
                    assert g.discovered == ref.discovered
    assert len(gone) >= 50 and len(gone & live.keys()) >= 10  # deletes and re-inserts


def _assert_slots_match_adjacency(g):
    eu, ev = g.edge_view()
    for i, (u, v) in enumerate(zip(eu.tolist(), ev.tolist())):
        assert g.adj[u][v] == g.adj[v][u] == i
    for u, nbrs in enumerate(g.adj):
        for v, i in nbrs.items():  # every entry names a live slot holding its edge
            assert i < g.m and {eu[i], ev[i]} == {u, v}


def test_churn_keeps_each_adjacency_entry_on_its_edge_slot():
    rng = np.random.default_rng(11)
    g = DynamicGraph(20)
    live: list[tuple[int, int]] = []
    deletes = 0
    for _ in range(900):
        if live and rng.random() < 0.45:
            u, v = live.pop(int(rng.integers(0, len(live))))
            assert g.delete_edge(v, u)
            deletes += 1
        else:
            u, v = (int(x) for x in rng.choice(20, 2, replace=False))
            if g.insert_edge(u, v):
                live.append((u, v))
        _assert_slots_match_adjacency(g)
    assert deletes >= 300 and g.m == len(live)
    assert set(g.edges()) == {(min(e), max(e)) for e in live}


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
    assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int
               for e in g.edges())
    eu, ev = g.edge_view()
    assert set(zip(eu.tolist(), ev.tolist())) == shadow


def test_edge_view_taken_before_growth_keeps_its_contents():
    g = DynamicGraph(20)
    for v in range(1, 11):
        g.insert_edge(0, v)
    eu, ev = g.edge_view()
    before = list(zip(eu.tolist(), ev.tolist()))
    for v in range(1, 20):  # grows the store past 16 and 32 edges while the view is held
        for w in range(v + 1, min(v + 3, 20)):
            assert g.insert_edge(v, w)
    assert g.m > 32
    assert list(zip(eu.tolist(), ev.tolist())) == before
    assert g.delete_edge(0, 1)  # a swap-delete writes in place, also under a view
    eu, ev = g.edge_view()
    assert set(zip(eu.tolist(), ev.tolist())) == set(g.edges())


def test_edge_view_is_int64_of_length_m_and_edges_are_python_ints():
    g = DynamicGraph(5)
    assert g.edges() == []
    for view in g.edge_view():
        assert view.dtype == np.int64 and len(view) == 0
    g.insert_edge(4, 0)
    g.insert_edge(3, 1)
    g.insert_edge(1, 2)
    g.delete_edge(1, 3)
    eu, ev = g.edge_view()
    assert eu.dtype == ev.dtype == np.int64 and len(eu) == len(ev) == g.m == 2
    assert (eu.tolist(), ev.tolist()) == ([0, 1], [4, 2])
    assert g.edges() == [(0, 4), (1, 2)]
    assert all(type(x) is int for e in g.edges() for x in e)


def test_edge_view_is_read_only():
    g = DynamicGraph(4)
    g.insert_edge(0, 1)
    g.insert_edge(2, 3)
    for view in g.edge_view():
        with pytest.raises(ValueError):
            view[0] = 3
    assert g.edges() == [(0, 1), (2, 3)]
