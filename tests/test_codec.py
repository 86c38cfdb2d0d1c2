"""Encoder tests: segmentation, hash statistics, spine prefix sharing,
symbol-stream uniformity, and agreement with a reference hash chain."""

import numpy as np
import pytest
from scipy import stats

from spinalfade import (
    CodeParams,
    ConfigurationError,
    CounterStream,
    Message,
    encode,
)
from spinalfade.codec import child_spines, code_keys, symbol_rows
from spinalfade.mixing import HASH_DOMAIN, RNG_DOMAIN, absorb, stream_at, uniforms_from_raw


def reference_encode(message, params, seed=0):
    """The spine chain one segment and one symbol at a time: an oracle for
    `encode` that shares only the mixing primitives."""
    hash_key = absorb(HASH_DOMAIN, np.uint64(seed))
    rng_key = absorb(RNG_DOMAIN, np.uint64(seed))
    spine = 0
    rows = []
    for shift in range(params.n - params.k, -1, -params.k):
        seg = (message.value >> shift) & ((1 << params.k) - 1)
        spine = int(absorb(absorb(hash_key, np.uint64(spine)), np.uint64(seg)))
        spine &= params.spine_mask
        base = absorb(rng_key, np.uint64(spine))
        rows.append([int(stream_at(base, np.uint64(j))) & params.symbol_mask
                     for j in range(params.L)])
    return np.array(rows, dtype=np.int64)


def rows_of(segs, params, seed=0):
    """Symbol rows (..., n/k, L) of the messages spelled by segment values
    (..., n/k), most significant first, under one code seed: `encode` of
    each, checked against `reference_encode`."""
    segs = np.asarray(segs)
    rows = np.empty(segs.shape + (params.L,), dtype=np.int64)
    for i in np.ndindex(segs.shape[:-1]):
        value = 0
        for s in segs[i]:
            value = (value << params.k) | int(s)
        msg = Message(value=value, n=params.n)
        rows[i] = encode(msg, params, seed)
        assert np.array_equal(rows[i], reference_encode(msg, params, seed))
    return rows


def test_segment_bit_split():
    params = CodeParams(n=8, k=2, c=8, L=3)
    msg = Message(value=0b00011011, n=8)
    assert np.array_equal(encode(msg, params), rows_of([0, 1, 2, 3], params))


def test_segment_identity_case():
    params = CodeParams(n=8, k=8, c=8, L=3)
    for value in (0, 1, 170, 255):
        assert np.array_equal(encode(Message(value=value, n=8), params),
                              rows_of([value], params))


def test_segment_all_ones():
    params = CodeParams(n=4, k=2, c=8, L=3)
    assert np.array_equal(encode(Message(value=0b1111, n=4), params),
                          rows_of([3, 3], params))


def test_segment_concatenation_roundtrip():
    params = CodeParams(n=12, k=3, c=4, L=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        segs = rng.integers(0, 1 << params.k, size=params.num_segments)
        value = 0
        for s in segs:
            value = (value << params.k) | int(s)
        assert np.array_equal(encode(Message(value=value, n=12), params),
                              rows_of(segs, params))


def test_segment_length_mismatch():
    params = CodeParams(n=8, k=2, c=8)
    with pytest.raises(ConfigurationError):
        encode(Message(value=1, n=6), params)


def test_message_bits_roundtrip():
    with pytest.raises(ConfigurationError):
        Message(value=256, n=8)


@pytest.mark.parametrize("bad", [
    dict(n=9, k=2, c=8),       # k does not divide n
    dict(n=8, k=0, c=8),
    dict(n=8, k=9, c=9 * 8),   # k out of range
    dict(n=8, k=2, c=0),
    dict(n=8, k=2, c=17),
    dict(n=8, k=2, c=8, v=0),
    dict(n=8, k=2, c=8, v=65),
    dict(n=8, k=2, c=8, L=0),
    dict(n=8, k=2, c=8, L=1 << 62),   # (n/k)*L = 2^64 symbols
])
def test_code_params_validation(bad):
    with pytest.raises(ConfigurationError):
        CodeParams(**bad)


def test_hash_step_deterministic():
    params = CodeParams(n=8, k=2, c=8, v=32)
    key = code_keys(0)[0]
    for spine, seg in [(0, 0), (12345, 3), ((1 << 32) - 1, 1)]:
        a = child_spines(key, np.uint64(spine), np.uint64(seg), params)
        b = child_spines(key, np.uint64(spine), np.uint64(seg), params)
        assert a == b
        assert 0 <= a < (1 << params.v)
    assert (child_spines(code_keys(0)[0], np.uint64(0), np.uint64(1), params)
            != child_spines(code_keys(1)[0], np.uint64(0), np.uint64(1), params))


def collision_count(pairs: int, seed: int = 0) -> tuple[int, float]:
    """Hash collisions among random distinct input pairs at v=16, and the
    expected Poisson mean pairs * 2^-16."""
    params = CodeParams(n=8, k=8, c=8, v=16)
    rng = np.random.default_rng(seed)
    s1 = rng.integers(0, 1 << 16, size=pairs, dtype=np.uint64)
    s2 = rng.integers(0, 1 << 16, size=pairs, dtype=np.uint64)
    m1 = rng.integers(0, 256, size=pairs, dtype=np.uint64)
    m2 = rng.integers(0, 256, size=pairs, dtype=np.uint64)
    distinct = ~((s1 == s2) & (m1 == m2))
    hash_key = code_keys(0)[0]
    h1 = child_spines(hash_key, s1[distinct], m1[distinct], params)
    h2 = child_spines(hash_key, s2[distinct], m2[distinct], params)
    return int(np.count_nonzero(h1 == h2)), distinct.sum() * 2.0 ** -16


def test_hash_collision_rate_matches_width():
    count, expected = collision_count(1_000_000)
    assert abs(count - expected) <= 5.0 * np.sqrt(expected)


def test_hash_output_bits_balanced():
    params = CodeParams(n=8, k=8, c=8, v=32)
    rng = np.random.default_rng(1)
    spines = rng.integers(0, 1 << 32, size=100_000, dtype=np.uint64)
    segs = rng.integers(0, 256, size=100_000, dtype=np.uint64)
    h = child_spines(code_keys(0)[0], spines, segs, params)
    for bit in range(params.v):
        freq = np.count_nonzero((h >> np.uint64(bit)) & np.uint64(1)) / h.size
        assert abs(freq - 0.5) < 0.01, f"bit {bit} frequency {freq}"


def _flipped_pairs(params, count, seed):
    """Segment matrices of `count` random messages and of copies that differ
    from them first at segment a (1-based, also returned)."""
    rng = np.random.default_rng(seed)
    segs = rng.integers(0, 1 << params.k, size=(count, params.num_segments))
    a = rng.integers(1, params.num_segments + 1, size=count)
    other = segs.copy()
    other[np.arange(count), a - 1] ^= rng.integers(1, 1 << params.k, size=count)
    return segs, other, a


def test_spine_chain_prefix_sharing():
    params = CodeParams(n=12, k=2, c=8, L=2)
    segs, other, a = _flipped_pairs(params, 100, seed=2)
    r1, r2 = rows_of(segs, params), rows_of(other, params)
    for i in range(len(a)):
        assert np.array_equal(r1[i, : a[i] - 1], r2[i, : a[i] - 1])


def test_spine_chain_divergence_after_difference():
    # distinct spines repeat an L=6 row of 8-bit symbols with chance 2^-48
    params = CodeParams(n=12, k=2, c=8, v=32, L=6)
    segs, other, a = _flipped_pairs(params, 200, seed=3)
    r1, r2 = rows_of(segs, params), rows_of(other, params)
    for i in range(len(a)):
        assert np.all(np.any(r1[i, a[i] - 1:] != r2[i, a[i] - 1:], axis=1))


def test_spine_chain_single_segment():
    params = CodeParams(n=4, k=4, c=8, L=3)
    hash_key, rng_key = code_keys(0)
    spine = child_spines(hash_key, np.uint64(0), np.uint64(9), params)
    mat = encode(Message(value=9, n=4), params)
    assert mat.shape == (1, 3)
    assert np.array_equal(mat[0], symbol_rows(rng_key, spine, params))


def _random_code(rng, k=None, segments=None):
    k = int(rng.integers(1, 9)) if k is None else k
    segments = int(rng.integers(1, 7)) if segments is None else segments
    return CodeParams(n=k * segments, k=k, c=int(rng.integers(1, 17)),
                      v=int(rng.choice([1, 4, 32, 64])), L=int(rng.integers(1, 6)))


def test_encode_matches_reference_chain():
    rng = np.random.default_rng(7)
    for _ in range(300):
        params = _random_code(rng)
        msg = Message(value=int(rng.integers(0, 1 << params.n, dtype=np.uint64)),
                      n=params.n)
        segs = [(msg.value >> s) & ((1 << params.k) - 1)
                for s in range(params.n - params.k, -1, -params.k)]
        for seed in (0, 1, 2 ** 64 - 1):
            expected = reference_encode(msg, params, seed)
            assert np.array_equal(encode(msg, params, seed), expected)
            assert np.all(rows_of(segs, params, seed) == expected)


def test_encode_long_message_matches_reference_chain():
    rng = np.random.default_rng(9)
    for k in (1, 3, 8):
        params = _random_code(rng, k=k, segments=72 // k)
        for _ in range(5):
            msg = Message(value=int.from_bytes(rng.bytes(9), "big"), n=72)
            assert np.array_equal(encode(msg, params, 5), reference_encode(msg, params, 5))


def _spine_symbols(spine, count, seed=0):
    """`count` symbols of the stream one spine seeds, at n=8 k=2 c=8."""
    params = CodeParams(n=8, k=2, c=8, L=count)
    return symbol_rows(code_keys(seed)[1], np.uint64(spine), params)


def test_rng_symbols_deterministic_and_in_range():
    a = _spine_symbols(123456, 64)
    b = _spine_symbols(123456, 64)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 256
    # counter access: a longer draw extends, never changes, the stream
    assert np.array_equal(_spine_symbols(123456, 200)[:64], a)


def test_rng_symbols_chi_square_uniform():
    draws = _spine_symbols(987654321, 100_000).astype(np.int64)
    counts = np.bincount(draws, minlength=256)
    assert stats.chisquare(counts).pvalue > 0.001


def test_rng_symbols_cross_spine_correlation():
    s1 = _spine_symbols(1111, 10_000)
    s2 = _spine_symbols(2222, 10_000)
    rho = np.corrcoef(s1, s2)[0, 1]
    assert abs(rho) < 0.02


def test_encode_shape_and_determinism():
    params = CodeParams(n=8, k=2, c=8, v=32, L=6)
    msg = Message(value=77, n=8)
    mat = encode(msg, params)
    assert mat.shape == (4, 6)
    assert np.array_equal(mat, encode(msg, params))
    assert not np.array_equal(mat, encode(msg, params, seed=5))


def test_encode_prefix_property():
    params = CodeParams(n=8, k=2, c=8, L=6)
    rng = np.random.default_rng(4)
    for _ in range(50):
        value = int(rng.integers(0, 256))
        flip = int(rng.integers(1, 4))
        other = value ^ flip  # differs only in the last segment
        m1 = encode(Message(value=value, n=8), params)
        m2 = encode(Message(value=other, n=8), params)
        assert np.array_equal(m1[:3], m2[:3])
        assert not np.array_equal(m1[3], m2[3])


def test_encode_symbol_range():
    params = CodeParams(n=8, k=2, c=8, L=4)
    rng = np.random.default_rng(5)
    for _ in range(1_000):
        mat = encode(Message(value=int(rng.integers(0, 256)), n=8), params)
        assert mat.min() >= 0 and mat.max() <= 255


def test_encode_symbol_marginals_uniform():
    # Distinct messages give distinct last-row spines (w.h.p.), so the
    # symbols at a fixed position should look uniform on the alphabet.
    params = CodeParams(n=16, k=2, c=4, L=2)
    rng = np.random.default_rng(6)
    values = rng.permutation(1 << 16)[:10_000]
    symbols = np.array([
        encode(Message(value=int(v), n=16), params)[7, 1] for v in values
    ])
    counts = np.bincount(symbols, minlength=16)
    assert stats.chisquare(counts).pvalue > 0.001


def test_counter_stream_contract():
    a = CounterStream(42)
    b = CounterStream(42)
    assert np.array_equal(a.raw(10), b.raw(10))
    u = a.uniforms(1_000)
    assert np.all(u > 0) and np.all(u < 1)


def test_uniforms_stay_below_one_at_the_largest_word():
    # the top 53 bits are 2^53 - 1 for the first two words, 2^53 - 2 for the
    # third; (2^53 - 1/2) 2^-53 rounds to 1.0 and is clamped below it
    top = np.array([2 ** 64 - 1, 2 ** 64 - 2 ** 11, 2 ** 64 - 2 ** 12], dtype=np.uint64)
    u = uniforms_from_raw(top)
    assert u.tolist() == [1.0 - 2.0 ** -53] * 2 + [1.0 - 2.0 ** -52]
    assert uniforms_from_raw(np.array([0], dtype=np.uint64)).tolist() == [2.0 ** -54]
