import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg.rng import RngStream, derive_seed, label_hash, mix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix64(seed: int, n: int) -> list[int]:
    """Scalar reimplementation used as an independent oracle."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


def test_raw_stream_matches_scalar_reference():
    for seed in (0, 1, 1234567, (1 << 64) - 5):
        got = [int(v) for v in RngStream(seed)._raw(8)]
        assert got == reference_splitmix64(seed, 8)


def test_raw_stream_is_position_consistent():
    # drawing 8 at once equals drawing 3 then 5
    a = RngStream(42)._raw(8)
    s = RngStream(42)
    b = np.concatenate([s._raw(3), s._raw(5)])
    assert np.array_equal(a, b)


def test_uniforms_in_half_open_unit_interval():
    u = RngStream(7).uniforms(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_normals_match_box_muller_reference():
    s = RngStream(13)
    u = RngStream(13).uniforms(6)
    r = np.sqrt(-2.0 * np.log(u[:3]))
    theta = 2.0 * np.pi * u[3:]
    expected = np.empty(6)
    expected[0::2] = r * np.cos(theta)
    expected[1::2] = r * np.sin(theta)
    got = s.normals(6)
    assert np.array_equal(got, expected)


def test_normals_consume_pairs_so_odd_draws_skip_one():
    a = RngStream(5)
    first = a.normals(3)
    after = a.normals(1)[0]
    b = RngStream(5)
    four = b.normals(4)
    assert np.array_equal(first, four[:3])
    # the unused half of the pair is discarded, not cached
    assert after != four[3]


def reference_normals(stream: RngStream, n: int) -> np.ndarray:
    """One Box-Muller call on its own uniforms: radii from the first half,
    angles from the second half of its 2 * ceil(n / 2) draws."""
    m = (n + 1) // 2
    u = stream.uniforms(2 * m)
    r = np.sqrt(-2.0 * np.log(u[:m]))
    theta = 2.0 * np.pi * u[m:]
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


@pytest.mark.parametrize("ns", [[], [0], [1], [7], [3, 0, 5], [0, 0], [1, 2, 3, 4, 5],
                                [64, 64, 32, 32], [101, 1, 33]])
def test_normals_each_equals_successive_normals_calls(ns):
    for seed in (0, 13, MASK - 4):
        bulk, single, ref = RngStream(seed), RngStream(seed), RngStream(seed)
        got = bulk.normals_each(ns)
        assert len(got) == len(ns)
        for g, n in zip(got, ns):
            want = single.normals(n)
            assert g.shape == want.shape == (n,)
            assert g.tobytes() == want.tobytes() == reference_normals(ref, n).tobytes()
        # All three streams stand at the same position.
        assert bulk.uniforms(3).tolist() == single.uniforms(3).tolist() == ref.uniforms(3).tolist()


def test_normal_moments():
    z = RngStream(2024).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_same_seed_same_sequence_different_seed_differs():
    assert np.array_equal(RngStream(9).normals(32), RngStream(9).normals(32))
    assert not np.array_equal(RngStream(9).normals(32), RngStream(10).normals(32))


def test_substream_ignores_parent_position():
    parent = RngStream(77)
    parent.uniforms(100)
    late = parent.substream("child", 3).normals(4)
    fresh = RngStream(77).substream("child", 3).normals(4)
    assert np.array_equal(late, fresh)


def test_substreams_separate_by_label_and_index():
    root = RngStream(1)
    a = root.substream("episodes", 0).uniforms(8)
    b = root.substream("episodes", 1).uniforms(8)
    c = root.substream("noise", 0).uniforms(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_mixes_all_parts():
    base = derive_seed(3, "x", 0)
    assert base != derive_seed(4, "x", 0)
    assert base != derive_seed(3, "y", 0)
    assert base != derive_seed(3, "x", 1)
    assert base == derive_seed(3, "x", 0)


def test_label_hash_is_fnv1a():
    # FNV-1a published vector: empty string hashes to the offset basis
    assert label_hash("") == 0xCBF29CE484222325
    assert label_hash("a") == ((0xCBF29CE484222325 ^ ord("a")) * 0x100000001B3) & MASK


def test_mix64_is_bijective_on_samples():
    values = {mix64(i) for i in range(10_000)}
    assert len(values) == 10_000


@settings(max_examples=50)
@given(st.integers(0, MASK), st.integers(0, 64))
def test_permutation_is_a_permutation(seed, n):
    perm = RngStream(seed).permutation(n)
    assert sorted(perm) == list(range(n))


# Outputs of the stream as it stands; any change to the raw draws, their
# order or the Fisher-Yates index rule changes every episode ever sampled.
GOLDEN_PERMUTATIONS = [
    (0, 5, [0, 4, 1, 3, 2]),
    (1, 12, [3, 5, 11, 8, 2, 7, 6, 1, 9, 0, 10, 4]),
    (7, 20, [1, 19, 16, 2, 17, 0, 10, 5, 6, 3, 4, 13, 18, 8, 15, 9, 7, 12, 11, 14]),
    (12345, 3, [0, 2, 1]),
    (MASK - 4, 9, [7, 0, 5, 4, 3, 2, 1, 8, 6]),
]


@pytest.mark.parametrize("seed,n,want", GOLDEN_PERMUTATIONS)
def test_permutation_golden_values(seed, n, want):
    assert RngStream(seed).permutation(n) == want


def test_permutation_golden_values_advance_the_stream():
    stream = RngStream(99)
    assert stream.permutation(6) == [3, 0, 1, 2, 4, 5]
    assert stream.permutation(6) == [1, 0, 3, 5, 4, 2]


def test_permutations_equal_successive_permutation_calls():
    bulk, single = RngStream(41), RngStream(41)
    assert bulk.permutations([20, 50, 50]) == [single.permutation(n) for n in (20, 50, 50)]
    # Both streams stand at the same position: their next draws agree.
    assert bulk.uniforms(3).tolist() == single.uniforms(3).tolist()


def test_permutations_of_fewer_than_two_items_take_no_draws():
    bulk, single = RngStream(8), RngStream(8)
    assert bulk.permutations([0, 1, 3, 1]) == [[], [0], single.permutation(3), [0]]
    assert bulk.uniforms(2).tolist() == single.uniforms(2).tolist()


def reference_permutations(seed: int, ns: list[int]) -> list[list[int]]:
    """The shuffle rule on scalar draws: for i = n-1 .. 1, swap i with
    draw % (i + 1); a shuffle of n items takes n - 1 draws."""
    draws = iter(reference_splitmix64(seed, sum(max(n - 1, 0) for n in ns)))
    out = []
    for n in ns:
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = next(draws) % (i + 1)
            items[i], items[j] = items[j], items[i]
        out.append(items)
    return out


@pytest.mark.parametrize("ns", [[], [0], [1], [2, 1, 0, 7], [20], [50] * 5])
def test_permutations_match_the_scalar_reference(ns):
    for seed in (0, 41, MASK - 4):
        assert RngStream(seed).permutations(ns) == reference_permutations(seed, ns)


@settings(max_examples=50)
@given(st.integers(0, MASK), st.integers(1, 30), st.data())
def test_sample_without_replacement_distinct(seed, n, data):
    k = data.draw(st.integers(0, n))
    picks = RngStream(seed).sample_without_replacement(n, k)
    assert len(picks) == k
    assert len(set(picks)) == k
    assert all(0 <= p < n for p in picks)


def test_sample_without_replacement_overdraw_raises():
    with pytest.raises(ValueError):
        RngStream(0).sample_without_replacement(3, 4)


def test_integers_bound_and_spread():
    draws = RngStream(55).integers(50_000, 7)
    assert draws.min() >= 0 and draws.max() < 7
    counts = np.bincount(draws, minlength=7) / draws.size
    assert np.all(np.abs(counts - 1 / 7) < 0.01)
