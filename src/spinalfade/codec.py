"""Spinal-code encoder: segmentation, hash chain, per-spine symbol streams.

The encoder is a pure function of (message, params, seed).  A message is
split into k-bit segments (big-endian: segment 1 comes from the most
significant bits), a chain of v-bit spine values is grown by hashing each
segment into the previous spine (spine 0 is the all-zero value), and each
spine seeds a counter-mode generator whose c-bit outputs are the channel
symbols.  The uniform constellation map sends a c-bit word to its integer
value, so the symbol matrix holds plain integers in {0, ..., 2^c - 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixing import HASH_DOMAIN, RNG_DOMAIN, absorb, stream_at


class ConfigurationError(ValueError):
    """Invalid code or run configuration."""


@dataclass(frozen=True)
class CodeParams:
    """Spinal code configuration.

    n: message length in bits, k: segment size in bits, c: bits per channel
    symbol, v: spine width in bits, L: number of transmitted passes.
    """

    n: int
    k: int
    c: int
    v: int = 32
    L: int = 1

    def __post_init__(self):
        if self.k < 1 or self.k > 8:
            raise ConfigurationError(f"k must be in 1..8, got {self.k}")
        if self.n < self.k or self.n % self.k != 0:
            raise ConfigurationError(f"k must divide n (n={self.n}, k={self.k})")
        if self.c < 1 or self.c > 16:
            raise ConfigurationError(f"c must be in 1..16, got {self.c}")
        # 16/32/64 are the usual widths; smaller v is allowed so collision
        # behaviour can be exercised directly.
        if self.v < 1 or self.v > 64:
            raise ConfigurationError(f"v must be in 1..64, got {self.v}")
        if self.L < 1:
            raise ConfigurationError(f"L must be >= 1, got {self.L}")

    @property
    def num_segments(self) -> int:
        return self.n // self.k

    @property
    def spine_mask(self) -> int:
        return (1 << self.v) - 1

    @property
    def symbol_mask(self) -> int:
        return (1 << self.c) - 1


@dataclass(frozen=True)
class Message:
    """An n-bit message, stored as its big-endian integer value."""

    value: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"message length must be positive, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ConfigurationError(
                f"message value {self.value} does not fit in {self.n} bits"
            )


def _hash_key(seed: int) -> np.ndarray:
    return absorb(HASH_DOMAIN, np.uint64(seed))


def segment(message: Message, params: CodeParams) -> np.ndarray:
    """Split a message into its n/k k-bit segment values, in order."""
    if message.n != params.n:
        raise ConfigurationError(
            f"message has {message.n} bits, params expect n={params.n}"
        )
    mask = (1 << params.k) - 1
    shifts = range(params.n - params.k, -1, -params.k)
    return np.array([(message.value >> s) & mask for s in shifts], dtype=np.int64)


def hash_step(spine: int, seg: int, params: CodeParams, seed: int = 0) -> int:
    """One spine update: fold a k-bit segment into a v-bit spine value."""
    if not 0 <= seg < (1 << params.k):
        raise ConfigurationError(f"segment {seg} does not fit in k={params.k} bits")
    h = absorb(absorb(_hash_key(seed), np.uint64(spine)), np.uint64(seg))
    return int(h) & params.spine_mask


def spine_chain(message: Message, params: CodeParams, seed: int = 0) -> np.ndarray:
    """The n/k spine values of a message; spine i depends on segments 1..i."""
    segs = segment(message, params)
    spines = np.zeros(params.num_segments, dtype=np.uint64)
    state = 0
    for i, seg_val in enumerate(segs):
        state = hash_step(state, int(seg_val), params, seed)
        spines[i] = state
    return spines


def encode(message: Message, params: CodeParams, seed: int = 0) -> np.ndarray:
    """Encode a message into its (n/k) x L symbol matrix.

    Row i is generated from spine i, so messages agreeing on segments 1..j
    produce identical rows 1..j.
    """
    spines = spine_chain(message, params, seed)
    return symbol_rows(code_keys(seed)[1], spines, params).astype(np.int64)


def random_message(params: CodeParams, raw_word: int) -> Message:
    """Message whose bits are the low n bits of a raw 64-bit word."""
    return Message(value=int(raw_word) & ((1 << params.n) - 1), n=params.n)


def code_keys(seeds) -> tuple[np.ndarray, np.ndarray]:
    """The (hash key, symbol-stream key) pair of each code seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return absorb(HASH_DOMAIN, seeds), absorb(RNG_DOMAIN, seeds)


def child_spines(hash_keys, parents, segs, params: CodeParams) -> np.ndarray:
    """Spines grown by folding `segs` into `parents` under `hash_keys`.

    The arguments broadcast against each other.  The key-and-parent word
    is hashed before the segment is folded in, so passing parents of shape
    (N, 1) and all 2^k segments hashes each parent once for its children.
    """
    return absorb(absorb(hash_keys, parents), segs) & np.uint64(params.spine_mask)


def symbol_rows(rng_keys, spines, params: CodeParams) -> np.ndarray:
    """The L symbols seeded by each spine, as float64; shape spines + (L,).

    `rng_keys` broadcasts against `spines`.
    """
    base = absorb(rng_keys, spines)
    raw = stream_at(base[..., None], np.arange(params.L, dtype=np.uint64))
    return (raw & np.uint64(params.symbol_mask)).astype(np.float64)


def codebook_levels(params: CodeParams, seed: int) -> list[np.ndarray]:
    """Candidate symbol tables of the codebook keyed by `seed`.

    Entry a of the result has shape (2^((a+1)k), L): the symbols of matrix
    row a+1 for every segment prefix.  Variant indices spell the prefix in
    base 2^k, most significant segment first, so candidate m uses variant
    m >> (n - (a+1)k) at level a.
    """
    hash_key, rng_key = code_keys(seed)
    segs = np.arange(1 << params.k, dtype=np.uint64)
    spines = np.zeros(1, dtype=np.uint64)
    levels = []
    for _ in range(params.num_segments):
        spines = child_spines(hash_key, spines[:, None], segs, params).ravel()
        levels.append(symbol_rows(rng_key, spines, params))
    return levels
