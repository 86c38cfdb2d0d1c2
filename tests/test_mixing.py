"""Mixing tests: `mix64` against a plain-integer SplitMix64, and never
writing into the caller's array."""

import numpy as np
import pytest

from spinalfade.mixing import _CHUNK, mix64

MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One SplitMix64 step on a Python int, all arithmetic mod 2^64."""
    z = (x + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference(words) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint64)
    return np.array([splitmix64(int(w)) for w in words.ravel()],
                    dtype=np.uint64).reshape(words.shape)


def test_first_output_of_seed_zero():
    # the published first output of a SplitMix64 generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert int(mix64(0)) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("x", [0, 1, 12345, 2 ** 63, MASK])
def test_scalars_give_numpy_scalars(x):
    for arg in (x, np.uint64(x), np.array(x, dtype=np.uint64)):
        out = mix64(arg)
        assert isinstance(out, np.uint64)
        assert int(out) == splitmix64(x)


def _inputs():
    # Past one chunk `mix64` works in place, chunk by chunk, so every kind
    # of view comes both short and long, and long ones cross chunk edges.
    rng = np.random.default_rng(0)
    flat = rng.integers(0, MASK, size=4 * _CHUNK + 37, dtype=np.uint64,
                        endpoint=True)
    frozen = flat.copy()
    frozen.flags.writeable = False
    out = {"empty": flat[:0]}
    for size, n in (("short", 600), ("long", 3 * _CHUNK + 5)):
        out.update({
            f"contiguous-{size}": flat[:n].reshape(-1, 1),
            f"strided-{size}": flat[:3 * n:3],
            f"transposed-{size}": flat[:n - n % 6].reshape(6, -1).T,
            f"broadcast-{size}": np.broadcast_to(flat[:n // 4], (4, n // 4)),
            f"read-only-{size}": frozen[:n],
        })
    return out


@pytest.mark.parametrize("name", sorted(_inputs()))
def test_arrays_match_reference_and_stay_untouched(name):
    x = _inputs()[name]
    before = x.copy()
    out = mix64(x)
    assert np.array_equal(x, before)
    assert out.shape == x.shape and out.dtype == np.uint64
    assert not np.shares_memory(out, x)
    assert np.array_equal(out, reference(x))
