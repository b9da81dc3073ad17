"""SplitMix64 determinism and distributional sanity checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multisys.rng import _GOLDEN, SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_known_first_value_is_stable():
    # The reference SplitMix64's first two outputs for seed 0, so any
    # accidental algorithm change is caught.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_random_unit_interval():
    rng = SplitMix64(9)
    draws = [rng.random() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.45 < np.mean(draws) < 0.55


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**64 - 1))
def test_randint_below_in_range(n, seed):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.randint_below(n) < n


def test_randint_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).randint_below(0)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(5)
    items = list(range(100))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_shuffle_deterministic():
    a, b = list(range(30)), list(range(30))
    SplitMix64(11).shuffle(a)
    SplitMix64(11).shuffle(b)
    assert a == b


def test_normal_moments():
    rng = SplitMix64(21)
    draws = np.array([rng.normal() for _ in range(20000)])
    assert abs(np.mean(draws)) < 0.03
    assert abs(np.std(draws) - 1.0) < 0.03


def test_normal_location_scale():
    rng = SplitMix64(3)
    draws = np.array([rng.normal(mu=10.0, sigma=2.0) for _ in range(20000)])
    assert abs(np.mean(draws) - 10.0) < 0.1
    assert abs(np.std(draws) - 2.0) < 0.1


def test_spawn_streams_are_distinct():
    root = SplitMix64(42)
    children = [root.spawn(i) for i in range(8)]
    firsts = [c.next_u64() for c in children]
    assert len(set(firsts)) == len(firsts)


def test_spawn_is_deterministic():
    a = SplitMix64(42).spawn(3).next_u64()
    b = SplitMix64(42).spawn(3).next_u64()
    assert a == b


def test_randints_below_matches_scalar_draws():
    # 2**62 + 1 rejects about a quarter of all draws; 2**63 - 1 about none
    # but leaves the top bit in play.
    sizes = [1, 2, 3, 7, 836, 1000, 2**32 + 1, 2**62 + 1, 2**63 - 1]
    pairs = 0
    for seed in itertools.chain(range(120), [2**64 - 1, 2**63, 0x9E3779B97F4A7C15]):
        for i, n in enumerate(sizes):
            k = (seed * 7 + i * 13) % 60
            scalar, bulk = SplitMix64(seed), SplitMix64(seed)
            expected = [scalar.randint_below(n) for _ in range(k)]
            drawn = bulk.randints_below(n, k)
            assert drawn.dtype == np.int64 and drawn.tolist() == expected, (seed, n, k)
            assert bulk._state == scalar._state, (seed, n, k)
            pairs += 1
    assert pairs >= 1000


def test_randints_below_rejects_as_the_scalar_draw_does():
    n = 2**62 + 1
    threshold = (1 << 64) % n
    stream = SplitMix64(3)
    raw = [stream.next_u64() for _ in range(400)]
    rejected = sum(r < threshold for r in raw)
    assert 50 < rejected < 150  # about a quarter
    bulk = SplitMix64(3)
    assert bulk.randints_below(n, 400 - rejected).tolist() == [r % n for r in raw
                                                              if r >= threshold]
    assert bulk._state == stream._state


def test_block_draws_reject_as_the_scalar_draw_does():
    # About a quarter of the draws below 2**62 + 1 are rejected, so the scalar
    # fallback takes over early in the block; the other bounds reject about none.
    n = 2**62 + 1
    for seed in range(40):
        bounds = [n] * 300 + [2**63 - 1, 836, 7, 1] * 25
        stream = SplitMix64(seed)
        threshold = (1 << 64) % n
        assert any(stream.next_u64() < threshold for _ in range(300))
        scalar, bulk = SplitMix64(seed), SplitMix64(seed)
        expected = [scalar.randint_below(b) for b in bounds]
        drawn = bulk._below(np.array(bounds, dtype=np.uint64))
        assert drawn.dtype == np.int64 and drawn.tolist() == expected, seed
        assert bulk._state == scalar._state, seed


def _scalar_shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates with one scalar draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint_below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 4096, 4097, 9000])
def test_shuffle_matches_scalar_fisher_yates(n):
    for seed in itertools.chain(range(25), [2**64 - 1, 2**63, _GOLDEN]):
        scalar, bulk = SplitMix64(seed), SplitMix64(seed)
        expected, shuffled = list(range(n)), list(range(n))
        _scalar_shuffle(scalar, expected)
        bulk.shuffle(shuffled)
        assert shuffled == expected, (seed, n)
        assert bulk._state == scalar._state, (seed, n)


def test_randints_below_edge_cases():
    rng = SplitMix64(4)
    state = rng._state
    empty = rng.randints_below(10, 0)
    assert empty.shape == (0,) and empty.dtype == np.int64 and rng._state == state
    for n in (0, -1):
        with pytest.raises(ValueError):
            rng.randints_below(n, 5)


def _scalar_normals(rng: SplitMix64, k: int) -> list[float]:
    return [rng.normal() for _ in range(k)]


def _assert_normals_match(seed: int, k: int, cached: bool = False) -> None:
    scalar, bulk = SplitMix64(seed), SplitMix64(seed)
    if cached:  # enter with the second half of a pair in the cache
        scalar.normal()
        bulk.normal()
    expected = _scalar_normals(scalar, k)
    drawn = bulk.normals(k)
    assert drawn.dtype == np.float64 and drawn.shape == (k,)
    assert drawn.tolist() == expected, (seed, k, cached)
    assert bulk._state == scalar._state, (seed, k, cached)
    assert bulk._gauss_cache == scalar._gauss_cache, (seed, k, cached)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 10, 501])
@pytest.mark.parametrize("cached", [False, True])
def test_normals_match_scalar_draws(k, cached):
    for seed in (0, 1, 42, 2**64 - 1, _GOLDEN):
        _assert_normals_match(seed, k, cached)


def test_normals_leave_the_last_half_pair_cached():
    rng = SplitMix64(5)
    rng.normals(3)
    assert rng._gauss_cache is not None
    rng.normals(1)
    assert rng._gauss_cache is None


def test_normals_fall_back_where_u1_is_redrawn():
    # A seed of -(2m + 1) * golden makes draw 2m exactly 0.0: pair m's u1,
    # which the scalar draw rejects and redraws, shifting every later pair.
    assert SplitMix64(0x61C8864680B583EB).random() == 0.0
    for m in (0, 1, 5):
        seed = (-(2 * m + 1) * _GOLDEN) % 2**64
        raw = SplitMix64(seed)
        for _ in range(2 * m):
            raw.random()
        assert raw.random() == 0.0
        for k in (2 * m + 1, 2 * m + 2, 2 * m + 9, 40):
            for cached in (False, True):
                _assert_normals_match(seed, k, cached)
