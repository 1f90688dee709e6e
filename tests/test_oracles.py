import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngraph import oracles
from dyngraph.graph_core import DynamicGraph, UpdateOp


def random_weighted_graph(rng, n, m, W, integer=True):
    edges = {}
    for _ in range(m):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if integer:
            edges[key] = float(rng.integers(1, W + 1))
        else:
            edges[key] = 1.0 + float(rng.random()) * (W - 1)
    return [(u, v, w) for (u, v), w in edges.items()]


def bfs_components(edges, n):
    """Every component's vertex set, by BFS over adjacency sets."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    comps = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def test_ncc_trivial_cases():
    assert oracles.exact_ncc([], 7) == 7
    tree = [(i, i + 1) for i in range(6)]
    assert oracles.exact_ncc(tree, 7) == 1


def test_ncc_two_routes_agree():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        wedges = random_weighted_graph(rng, n, int(rng.integers(0, 70)), 1)
        edges = [(u, v) for u, v, _ in wedges]
        assert oracles.exact_ncc(edges, n) == oracles.exact_ncc_bfs(edges, n)


def test_nscc_trivial_cases():
    assert oracles.exact_nscc([], 5, 1) == 5
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert oracles.exact_nscc(triangle, 3, 2) == 0
    assert oracles.exact_nscc(triangle, 5, 2) == 2  # two leftover singletons


def test_nscc_matches_component_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        edges = [(u, v) for u, v, _ in random_weighted_graph(rng, n, 25, 1)]
        sizes = [len(comp) for comp in bfs_components(edges, n)]
        for k in (1, 2, 3, 5):
            assert oracles.exact_nscc(edges, n, k) == sum(1 for x in sizes if x <= k)


def test_msf_single_edge():
    assert oracles.exact_msf_weight([(0, 1, 3.0)], 2) == 3.0


def test_msf_triangle_by_spanning_tree_enumeration():
    wedges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)]
    # brute force: the cheapest pair of edges that spans the triangle
    best = min(
        sum(w for _, _, w in pair)
        for pair in itertools.combinations(wedges, 2)
    )
    assert best == 3.0
    assert oracles.exact_msf_weight(wedges, 3) == best


def test_integer_identity_trivial_values():
    assert oracles.exact_integer_msf_identity([(0, 1, 1.0)], 2, 1) == 1.0
    assert oracles.exact_integer_msf_identity([(0, 1, 2.0)], 2, 2) == 2.0


def test_integer_identity_rejects_fractional_weight():
    with pytest.raises(ValueError):
        oracles.exact_integer_msf_identity([(0, 1, 1.5)], 2, 2)


def test_integer_identity_matches_kruskal():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        W = int(rng.integers(1, 6))
        wedges = random_weighted_graph(rng, n, int(rng.integers(0, 80)), W)
        ident = oracles.exact_integer_msf_identity(wedges, n, W)
        assert ident == pytest.approx(oracles.exact_msf_weight(wedges, n), abs=1e-9)


def test_proper_coloring_checks():
    assert oracles.is_proper_coloring([], [1, 2, 1], 2)
    assert not oracles.is_proper_coloring([(0, 2)], [1, 2, 1], 2)
    assert not oracles.is_proper_coloring([], [1, 4], 2)  # palette overflow
    assert not oracles.is_proper_coloring([], [0, 1], 2)


@st.composite
def op_lists(draw):
    """(n, ops) on few vertices, so duplicate inserts, absent deletes and reinserts are common;
    a reinsert may bring another weight, integer or real."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    weight = st.one_of(st.integers(1, 4).map(float), st.floats(1, 4))
    update = st.builds(lambda kind, e, w: UpdateOp(kind, *e, w), st.sampled_from("id"), pair, weight)
    return n, draw(st.lists(st.one_of(update, st.just(UpdateOp("q"))), max_size=40))


@settings(max_examples=100, deadline=None)
@given(op_lists())
def test_small_component_counts_match_exact_after_every_step(case):
    n, ops = case
    live: set[tuple[int, int]] = set()
    graphs = [[]]  # the live edge set after 0, 1, 2, ... updates
    for op in ops:
        if op.kind == "q":
            continue
        edge = (min(op.u, op.v), max(op.u, op.v))
        (live.add if op.kind == "i" else live.discard)(edge)
        graphs.append(sorted(live))
    steps = range(len(graphs))
    for k in (1, 2, n):
        assert oracles.small_component_counts(n, ops, k, steps) == {
            s: oracles.exact_nscc(edges, n, k) for s, edges in enumerate(graphs)}
    assert oracles.small_component_counts(n, ops, n, steps) == {
        s: oracles.exact_ncc(edges, n) for s, edges in enumerate(graphs)}


def test_small_component_counts_cases():
    path = [UpdateOp("i", v, v + 1) for v in range(5)]  # steps 1..5 grow a path on 0..5
    assert oracles.small_component_counts(6, [], 2, [0]) == {0: 6}
    assert oracles.small_component_counts(6, path, 2, []) == {}
    # a subset of the steps, given out of order and repeated
    assert oracles.small_component_counts(6, path, 2, [5, 2, 2]) == {2: 3, 5: 0}
    assert oracles.small_component_counts(6, path, 6, [5, 2]) == {2: 4, 5: 1}
    # step 0: a query before any update sees the empty graph
    ops = [UpdateOp("q"), UpdateOp("i", 0, 1), UpdateOp("q"), UpdateOp("d", 0, 1)]
    assert oracles.small_component_counts(3, ops, 3, [0, 1, 2]) == {0: 3, 1: 2, 2: 3}
    # a duplicate insert is a no-op, so one delete removes the edge
    ops = [UpdateOp("i", 0, 1), UpdateOp("i", 1, 0), UpdateOp("d", 0, 1), UpdateOp("d", 0, 1)]
    assert oracles.small_component_counts(2, ops, 2, range(5)) == {
        0: 2, 1: 1, 2: 1, 3: 2, 4: 2}


@settings(max_examples=200, deadline=None)
@given(op_lists())
def test_msf_weights_match_kruskal_after_every_step(case):
    n, ops = case
    live: dict[tuple[int, int], float] = {}
    want = [0.0]  # the MSF weight after 0, 1, 2, ... updates
    for op in ops:
        if op.kind == "q":
            continue
        edge = (min(op.u, op.v), max(op.u, op.v))
        if op.kind == "i":
            live.setdefault(edge, op.w)  # a duplicate insert keeps the first weight
        else:
            live.pop(edge, None)
        want.append(oracles.exact_msf_weight([(u, v, w) for (u, v), w in live.items()], n))
    steps = range(len(want) + 2)  # the last two steps are past the end
    got = oracles.msf_weights(n, ops, steps)
    assert got.keys() == set(steps)
    for s in steps:
        assert got[s] == pytest.approx(want[min(s, len(want) - 1)], abs=1e-9)


def test_msf_weights_cases():
    path = [UpdateOp("i", v, v + 1, v + 1.0) for v in range(5)]  # step s adds weight s
    assert oracles.msf_weights(6, [], [0]) == {0: 0.0}
    assert oracles.msf_weights(6, path, []) == {}
    # a subset of the steps, out of order, repeated and past the end
    assert oracles.msf_weights(6, path, [5, 2, 2, 9]) == {2: 3.0, 5: 15.0, 9: 15.0}
    # step 0: a query before any update sees the empty graph
    ops = [UpdateOp("q"), UpdateOp("i", 0, 1, 2.5), UpdateOp("q"), UpdateOp("d", 1, 0)]
    assert oracles.msf_weights(2, ops, [0, 1, 2]) == {0: 0.0, 1: 2.5, 2: 0.0}
    # a duplicate insert keeps the first weight, an absent delete is a no-op,
    # and a reinsert brings its own weight
    ops = [UpdateOp("i", 0, 1, 3.0), UpdateOp("i", 1, 0, 1.0), UpdateOp("d", 0, 1),
           UpdateOp("d", 0, 1), UpdateOp("i", 0, 1, 1.0)]
    assert oracles.msf_weights(2, ops, range(6)) == {0: 0.0, 1: 3.0, 2: 3.0, 3: 0.0, 4: 0.0, 5: 1.0}
    # a heavy edge leaves the forest when a light path closes its cycle, and returns when it breaks
    ops = [UpdateOp("i", 0, 1, 5.0), UpdateOp("i", 1, 2, 1.0), UpdateOp("i", 0, 2, 1.0),
           UpdateOp("d", 1, 2)]
    assert oracles.msf_weights(3, ops, range(5)) == {0: 0.0, 1: 5.0, 2: 6.0, 3: 2.0, 4: 6.0}


def test_fast_paths_agree_with_pure_routes():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        W = int(rng.integers(1, 4))
        wedges = random_weighted_graph(rng, n, int(rng.integers(0, 60)), W)
        edges = [(u, v) for u, v, _ in wedges]
        eu = np.array([e[0] for e in edges], dtype=np.int64)
        ev = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([x[2] for x in wedges])
        assert oracles.fast_ncc(eu, ev, n) == oracles.exact_ncc(edges, n)
        for k in (1, 3):
            assert oracles.fast_nscc(eu, ev, n, k) == oracles.exact_nscc(edges, n, k)
        assert oracles.fast_msf_weight(eu, ev, w, n) == pytest.approx(
            oracles.exact_msf_weight(wedges, n), abs=1e-9
        )
        sizes = oracles.fast_component_sizes(eu, ev, n)
        for comp in bfs_components(edges, n):
            assert all(sizes[x] == len(comp) for x in comp)



def path_edges(order):
    return list(zip(order[:-1], order[1:]))


def kernel_shapes():
    """(edges, n) graphs that stress hook-and-jump in different ways."""
    rng = np.random.default_rng(5)
    n = 2000
    zigzag = [x for i in range(n // 2) for x in (i, n - 1 - i)]  # 0, n-1, 1, n-2, ...
    tree = [(int(rng.integers(0, v)), v) for v in range(1, 300)]
    binary, free = [], [0, 0]  # free: one entry per open child slot
    for v in range(1, 255):
        binary.append((free.pop(int(rng.integers(0, len(free)))), v))
        free += [v, v]
    relabel = rng.permutation(255)
    cliques = [(a + 40 * c, b + 40 * c) for c in range(5)
               for a, b in itertools.combinations(range(0, 40, 3), 2)]
    shapes = {
        "random-order path": (path_edges(rng.permutation(n).tolist()), n),
        "zigzag path": (path_edges(zigzag), n),
        "star, centre largest": ([(leaf, 99) for leaf in range(99)], 100),
        "random tree": (tree, 300),
        "random binary tree": ([(int(relabel[a]), int(relabel[b])) for a, b in binary], 255),
        "disjoint cliques, isolated vertices": (cliques, 200),
        "one vertex": ([], 1),
        "no vertices": ([], 0),
        "no edges": ([], 17),
    }
    return [pytest.param(edges, n, id=name) for name, (edges, n) in shapes.items()]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("edges, n", kernel_shapes())
def test_component_labels_kernel_on_shapes(edges, n, dtype):
    eu = np.array([e[0] for e in edges], dtype=dtype)
    ev = np.array([e[1] for e in edges], dtype=dtype)
    labels = oracles.fast_component_labels(eu, ev, n)
    sizes = oracles.fast_component_sizes(eu, ev, n)
    assert len(labels) == len(sizes) == n
    comps = bfs_components(edges, n)
    for comp in comps:
        assert {int(labels[x]) for x in comp} == {min(comp)}  # the component's minimum
        assert all(sizes[x] == len(comp) for x in comp)
    assert oracles.fast_ncc(eu, ev, n) == len(comps) == oracles.exact_ncc(edges, n)
    for k in (1, 2, 7, 40, n):
        assert oracles.fast_nscc(eu, ev, n, k) == oracles.exact_nscc(edges, n, k)


def test_component_labels_leave_live_edge_view_unchanged():
    g = DynamicGraph(500)
    rng = np.random.default_rng(8)
    while g.m < 400:
        u, v = rng.integers(0, 500, 2)
        if u != v:
            g.insert_edge(int(u), int(v))
    eu, ev = g.edge_view()
    before = eu.copy(), ev.copy()
    oracles.fast_component_labels(eu, ev, g.n)
    oracles.fast_component_sizes(eu, ev, g.n)
    oracles.fast_nscc(eu, ev, g.n, 3)
    assert np.array_equal(eu, before[0]) and np.array_equal(ev, before[1])
    assert [tuple(e) for e in zip(*g.edge_view())] == list(zip(*before))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_warm_started_from_a_subgraphs_labels(seed, dtype):
    # as cc_random._label_levels runs it: start from the flat labels of a
    # random subgraph and add only the edges that subgraph lacks
    rng = np.random.default_rng(seed)
    n = 300
    edges = [tuple(e) for e in rng.integers(0, n, (360, 2)).tolist() if e[0] != e[1]]
    split = len(edges) // 2
    eu, ev = (np.array(side, dtype=dtype) for side in zip(*edges))
    below = oracles.hook_and_jump(np.arange(n, dtype=dtype), eu[:split], ev[:split])
    assert np.array_equal(below[below], below)  # flat: the precondition of the next call
    warm = oracles.hook_and_jump(below.copy(), eu[split:], ev[split:])
    assert warm.dtype == dtype
    assert np.array_equal(warm, oracles.fast_component_labels(eu, ev, n))
    for comp in bfs_components(edges, n):
        assert {int(warm[x]) for x in comp} == {min(comp)}


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_kernel_round_whose_hooked_roots_form_a_descending_chain(dtype):
    # sixteen flat 10-vertex blocks with roots 0, 10, ..., 150; one edge
    # between each two neighbouring blocks hooks each root onto the one
    # below in a single round, a chain 15 roots deep, so the loop over the
    # hooked roots must jump 4 times.  Each block's other vertices point at
    # their root and must follow it down to 0
    n = 160
    parent = np.arange(n, dtype=dtype) // 10 * 10
    roots = np.arange(0, n, 10, dtype=dtype)
    hooked = parent.copy()
    np.minimum.at(hooked, roots[1:], roots[:-1])  # the round's hook
    assert _depth(hooked) == 16  # from 150's other vertices: one step, then 15 roots
    for offset in (0, 3):  # the edges join the roots themselves, or other vertices
        eu, ev = roots[1:] + offset, roots[:-1] + offset
        labels = oracles.hook_and_jump(parent.copy(), eu, ev)
        assert labels.dtype == dtype and not labels.any()


def _depth(parent):
    """The longest pointer path from a vertex up to its root."""
    longest = 0
    for x in range(len(parent)):
        steps = 0
        while parent[x] != x:
            x, steps = parent[x], steps + 1
        longest = max(longest, steps)
    return longest
