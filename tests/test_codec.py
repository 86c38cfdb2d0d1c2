"""Encoder tests: segmentation, hash statistics, spine prefix sharing,
symbol-stream uniformity."""

import numpy as np
import pytest
from scipy import stats

from spinalfade import (
    CodeParams,
    ConfigurationError,
    CounterStream,
    Message,
    encode,
    hash_step,
    segment,
    spine_chain,
)
from spinalfade.codec import child_spines, code_keys, symbol_rows


def test_segment_bit_split():
    params = CodeParams(n=8, k=2, c=8)
    msg = Message(value=0b00011011, n=8)
    assert segment(msg, params).tolist() == [0, 1, 2, 3]


def test_segment_identity_case():
    params = CodeParams(n=8, k=8, c=8)
    for value in (0, 1, 170, 255):
        assert segment(Message(value=value, n=8), params).tolist() == [value]


def test_segment_all_ones():
    params = CodeParams(n=4, k=2, c=8)
    assert segment(Message(value=0b1111, n=4), params).tolist() == [3, 3]


def test_segment_concatenation_roundtrip():
    params = CodeParams(n=12, k=3, c=4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        msg = Message(value=int(rng.integers(0, 1 << 12)), n=12)
        segs = segment(msg, params)
        rebuilt = 0
        for s in segs:
            rebuilt = (rebuilt << params.k) | int(s)
        assert rebuilt == msg.value


def test_segment_length_mismatch():
    params = CodeParams(n=8, k=2, c=8)
    with pytest.raises(ConfigurationError):
        segment(Message(value=1, n=6), params)


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
])
def test_code_params_validation(bad):
    with pytest.raises(ConfigurationError):
        CodeParams(**bad)


def test_hash_step_deterministic():
    params = CodeParams(n=8, k=2, c=8, v=32)
    for spine, seg in [(0, 0), (12345, 3), ((1 << 32) - 1, 1)]:
        a = hash_step(spine, seg, params)
        b = hash_step(spine, seg, params)
        assert a == b
        assert 0 <= a < (1 << params.v)
    assert hash_step(0, 1, params, seed=0) != hash_step(0, 1, params, seed=1)


def test_hash_step_rejects_oversized_segment():
    params = CodeParams(n=8, k=2, c=8)
    with pytest.raises(ConfigurationError):
        hash_step(0, 4, params)


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


def test_spine_chain_prefix_sharing():
    params = CodeParams(n=12, k=2, c=8)
    rng = np.random.default_rng(2)
    for _ in range(100):
        value = int(rng.integers(0, 1 << 12))
        a = int(rng.integers(1, 7))
        flip = int(rng.integers(1, 1 << 2))
        other = value ^ (flip << (params.n - a * params.k))
        s1 = spine_chain(Message(value=value, n=12), params)
        s2 = spine_chain(Message(value=other, n=12), params)
        assert np.array_equal(s1[: a - 1], s2[: a - 1])


def test_spine_chain_divergence_after_difference():
    params = CodeParams(n=12, k=2, c=8, v=32)
    rng = np.random.default_rng(3)
    for _ in range(200):
        value = int(rng.integers(0, 1 << 12))
        a = int(rng.integers(1, 7))
        flip = int(rng.integers(1, 1 << 2))
        other = value ^ (flip << (params.n - a * params.k))
        s1 = spine_chain(Message(value=value, n=12), params)
        s2 = spine_chain(Message(value=other, n=12), params)
        assert np.all(s1[a - 1:] != s2[a - 1:])


def test_spine_chain_single_segment():
    params = CodeParams(n=4, k=4, c=8)
    msg = Message(value=9, n=4)
    chain = spine_chain(msg, params)
    assert chain.shape == (1,)
    assert int(chain[0]) == hash_step(0, 9, params)


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
