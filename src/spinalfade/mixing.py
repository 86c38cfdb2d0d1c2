"""Seedable 64-bit avalanche mixing and counter-mode random streams.

Everything random in this package (hash chain, symbol generation, channel
noise, Monte Carlo trials) is derived from one mixing primitive so that
results are reproducible bit-for-bit across runs, platforms and worker
counts.  The finalizer is the SplitMix64 mixer; counter streams follow the
SplitMix64 sequence (state = key + t * golden gamma, then finalize).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)

# Domain-separation constants: independent sub-keys for each use of the
# run-level seed, so code randomness never correlates with channel noise.
HASH_DOMAIN = np.uint64(0x5350494E45484153)
RNG_DOMAIN = np.uint64(0x5350494E45524E47)
SIM_DOMAIN = np.uint64(0x5350494E4553494D)
SWEEP_DOMAIN = np.uint64(0x5350494E45535750)
CODEBOOK_DOMAIN = np.uint64(0x5350494E45434B42)

_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 2.0 ** -53
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Words `mix64` finalizes at a time when it works in place.  A 128 KiB
# chunk and its scratch stay in cache across the finalizer's eight passes,
# and the scratch is small enough for the allocator to recycle instead of
# mapping fresh pages.  Inputs of up to one chunk go out of place: numpy's
# own temporaries are then as cheap, and its calls cost less (per call on
# a 2-core Xeon VM with numpy 2.4, out of place against in place: 14
# against 16 us at 36 words, 72 against 78 us at one chunk, but 146
# against 131 us at two chunks and more than twice the time from 10^5
# words on).
_CHUNK = 1 << 14


def mix64(x) -> np.ndarray:
    """SplitMix64 step: add the golden gamma, then run the finalizer.

    Works on ints or uint64 arrays, and never writes into `x`: adding the
    gamma makes one fresh array.  Past `_CHUNK` words the finalizer runs
    on it in place, a chunk at a time, with one scratch array of one
    chunk; up to that it runs out of place.  A scalar in gives a numpy
    scalar out.  Modular wraparound is the point, so overflow reporting is
    suppressed for the duration.
    """
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(x, dtype=np.uint64), GOLDEN, order="C")
        if z.size <= _CHUNK:
            z = (z ^ (z >> _S30)) * _MULT1
            z = (z ^ (z >> _S27)) * _MULT2
            return z ^ (z >> _S31)
        flat = z.reshape(-1)    # a view: z is C-contiguous
        scratch = np.empty(_CHUNK, dtype=np.uint64)
        for i in range(0, flat.size, _CHUNK):
            w = flat[i:i + _CHUNK]
            s = scratch[:w.size]
            np.right_shift(w, _S30, out=s)
            w ^= s
            w *= _MULT1
            np.right_shift(w, _S27, out=s)
            w ^= s
            w *= _MULT2
            np.right_shift(w, _S31, out=s)
            w ^= s
    return z


def absorb(state, word) -> np.ndarray:
    """Fold one word into a hash state (order-sensitive chaining)."""
    return mix64(np.asarray(state, dtype=np.uint64) ^ np.asarray(word, dtype=np.uint64))


def stream_at(key, counters) -> np.ndarray:
    """Value(s) of the counter stream keyed by `key` at the given counters."""
    key = np.asarray(key, dtype=np.uint64)
    ctr = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(key + ctr * GOLDEN)


def uniforms_from_raw(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in the open interval (0, 1).

    The top 53 bits k give (k + 1/2) 2^-53; for k = 2^53 - 1 that rounds to
    1.0, so the result is clamped to the largest double below 1.
    """
    return np.minimum(((raw >> _S11).astype(np.float64) + 0.5) * _U53, _BELOW_ONE)


class CounterStream:
    """Sequential random source over a keyed counter stream.

    Draws depend only on the key and the number of values drawn so far,
    never on scheduling, so independent streams may be consumed
    concurrently.
    """

    def __init__(self, key: int):
        self._key = np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF)
        self._pos = 0

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 words."""
        ctr = np.arange(self._pos, self._pos + count, dtype=np.uint64)
        self._pos += count
        return stream_at(self._key, ctr)

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` doubles, uniform on (0, 1)."""
        return uniforms_from_raw(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """Next `count` standard normals (inverse-CDF of uniforms)."""
        return ndtri(self.uniforms(count))
