"""Every structure rejects a bad pair with graph_core.check_edge's messages and
treats a duplicate insert or an absent delete as a no-op."""

import re

import pytest

from dyngraph import (Coloring, DeterministicMsfEstimator, DynamicGraph, PhasedCcEstimator,
                      RandomizedMsfEstimator, SmallCcCounter, UpdateOp)

N = 6


# name -> (build, insert, delete, state)
STRUCTURES = {
    "coloring": (
        lambda: Coloring(N, 3, seed=1),
        lambda s, u, v: s.insert(u, v),
        lambda s, u, v: s.delete(u, v),
        lambda s: (s.edges(), s.colors.tolist(), s.updates, s.total_recolor_work),
    ),
    "cc-exact": (
        lambda: SmallCcCounter(DynamicGraph(N), 0.5),
        lambda s, u, v: s.on_insert(u, v),
        lambda s, u, v: s.on_delete(u, v),
        lambda s: (s.graph.edges(), s.graph.nis, s.bfs_calls, s.estimate()),
    ),
    "cc-random": (
        lambda: PhasedCcEstimator(DynamicGraph(N), 0.5, 0.2, seed=1),
        lambda s, u, v: s.on_update(UpdateOp("i", u, v)),
        lambda s, u, v: s.on_update(UpdateOp("d", u, v)),
        lambda s: (s.graph.edges(), s.graph.nis, s.i, s.psi, s.estimate()),
    ),
    "msf-det": (
        lambda: DeterministicMsfEstimator(N, 0.5, 2.0),
        lambda s, u, v: s.insert(u, v, 1.5),
        lambda s, u, v: s.delete(u, v),
        lambda s: ([lv.graph.edges() for lv in s.levels], [lv.bfs_calls for lv in s.levels],
                   s.estimate()),
    ),
    "msf-rand": (
        lambda: RandomizedMsfEstimator(N, 0.5, 2.0, 0.2, seed=1),
        lambda s, u, v: s.insert(u, v, 1.5),
        lambda s, u, v: s.delete(u, v),
        lambda s: ([lv.graph.edges() for lv in s.levels], [lv.i for lv in s.levels],
                   s.estimate()),
    ),
}


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_bad_pairs_raise_the_shared_messages_and_change_nothing(name):
    build, insert, delete, state = STRUCTURES[name]
    s = build()
    insert(s, 0, 1)
    insert(s, 1, 2)
    before = state(s)
    bad = [(insert, 3, 3, "self-loop (3, 3) rejected"),
           (delete, 1, 1, "self-loop (1, 1) rejected")]
    for u, v in ((-1, 2), (2, -1), (N, 1), (1, N)):
        message = f"vertex out of range: ({u}, {v}) for n={N}"
        bad += [(insert, u, v, message), (delete, u, v, message)]
    for op, u, v, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            op(s, u, v)
        assert state(s) == before
    delete(s, 0, 1)  # the structure still takes valid updates
    assert state(s) != before


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_duplicate_insert_and_absent_delete_change_nothing(name):
    build, insert, delete, state = STRUCTURES[name]
    s = build()
    insert(s, 0, 1)
    insert(s, 1, 2)
    before = state(s)
    insert(s, 0, 1)  # duplicate
    insert(s, 2, 1)  # duplicate, reversed
    delete(s, 3, 4)  # absent
    assert state(s) == before
    delete(s, 0, 1)  # the structure still takes valid updates
    assert state(s) != before
