import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngraph.nonzero_sampler import NonZeroSampler


def assert_invariant(s: NonZeroSampler, values: list[int]):
    """Structural invariant vs a from-scratch rebuild of the value vector."""
    assert s.nis == sum(1 for x in values if x)
    for u, val in enumerate(values):
        p = int(s._pos[u])
        if val:
            assert 0 <= p < s.nis
            assert int(s._elems[p]) == u and int(s._vals[p]) == val
        else:
            assert p == -1


def test_first_update_places_element():
    s = NonZeroSampler(8)
    s.update(3, 2)
    assert s.nis == 1
    assert int(s._pos[3]) == 0
    assert int(s._elems[0]) == 3 and int(s._vals[0]) == 2


def test_update_back_to_zero_removes():
    s = NonZeroSampler(8)
    s.update(3, 2)
    s.update(3, -2)
    assert s.nis == 0 and int(s._pos[3]) == -1


def test_negative_result_rejected():
    s = NonZeroSampler(4)
    s.update(1, 1)
    with pytest.raises(ValueError):
        s.update(1, -2)
    with pytest.raises(ValueError):
        s.update(2, -1)


def test_random_unit_updates_match_rebuild():
    rng = np.random.default_rng(5)
    s = NonZeroSampler(30)
    values = [0] * 30
    for _ in range(10_000):
        u = int(rng.integers(0, 30))
        delta = int(rng.choice([-1, 1]))
        if values[u] + delta < 0:
            continue
        s.update(u, delta)
        values[u] += delta
        assert s.last_touches <= 8
    assert_invariant(s, values)


def test_sample_empty_and_singleton():
    rng = np.random.default_rng(0)
    s = NonZeroSampler(5)
    assert s.sample(rng) is None
    s.update(2, 7)
    assert all(s.sample(rng) == 2 for _ in range(20))
    assert s.last_touches <= 8


def test_sample_uniform_over_three_elements():
    rng = np.random.default_rng(1)
    s = NonZeroSampler(10)
    for u in (1, 4, 7):
        s.update(u, u)
    draws = s.sample_many(rng, 30_000)
    counts = {u: int((draws == u).sum()) for u in (1, 4, 7)}
    expect = 10_000
    sigma = (30_000 * (1 / 3) * (2 / 3)) ** 0.5
    for u, c in counts.items():
        assert abs(c - expect) <= 5 * sigma, counts


def test_sample_many_matches_scalar_stream():
    s = NonZeroSampler(20)
    for u in range(0, 20, 3):
        s.update(u, 1)
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    vec = s.sample_many(r1, 50).tolist()
    scalars = [s.sample(r2) for _ in range(50)]
    assert vec == scalars


def test_sample_many_empty_support_rejected():
    s = NonZeroSampler(3)
    with pytest.raises(ValueError):
        s.sample_many(np.random.default_rng(0), 4)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=60))
def test_invariant_under_arbitrary_updates(ops):
    s = NonZeroSampler(8)
    values = [0] * 8
    for u, delta in ops:
        if values[u] + delta < 0:
            continue
        s.update(u, delta)
        values[u] += delta
        assert s.last_touches <= 8
    assert_invariant(s, values)
    assert sorted(s.nonzero_elements().tolist()) == [u for u in range(8) if values[u]]
