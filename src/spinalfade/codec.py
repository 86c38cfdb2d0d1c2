"""Spinal-code encoder: segmentation, hash chain, per-spine symbol streams.

The encoder is a pure function of (message, params, seed).  A message is
split into k-bit segments (big-endian: segment 1 comes from the most
significant bits), a chain of v-bit spine values is grown by hashing each
segment into the previous spine (spine 0 is the all-zero value), and each
spine seeds a counter-mode generator whose c-bit outputs are the channel
symbols.  The uniform constellation map sends a c-bit word to its integer
value, so the symbol matrix holds plain integers in {0, ..., 2^c - 1}.

`child_spines` is the one hashing step.  `encode` walks it down one
message, the Monte Carlo path (`sim.count_errors`) down each sent path
together with the sent prefixes' siblings, and `codebook_levels` over
every prefix of the codebook; `symbol_rows` turns spines into symbols for
all three.
Symbol arrays are pass-major: the L passes of a spine lie on the leading
axis, so every elementwise step of the hashing runs along the long axis
of spines, not the short one of passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixing import HASH_DOMAIN, RNG_DOMAIN, absorb, stream_at


class ConfigurationError(ValueError):
    """Invalid code or run configuration."""


def check_seed(seed: int, index: int = 0) -> None:
    """Refuse a seed, or a trial index, that is not one 64-bit word."""
    for name, value in (("seed", seed), ("trial index", index)):
        if not 0 <= value < 1 << 64:
            raise ConfigurationError(f"{name} must be in 0..2^64-1, got {value}")


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
        if self.num_segments * self.L > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"(n/k)*L = {self.num_segments * self.L} symbols does not fit int64")

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


def encode(message: Message, params: CodeParams, seed: int = 0) -> np.ndarray:
    """Encode a message into its (n/k) x L symbol matrix.

    Row i is generated from spine i, so messages agreeing on segments 1..j
    produce identical rows 1..j.
    """
    if message.n != params.n:
        raise ConfigurationError(
            f"message has {message.n} bits, params expect n={params.n}"
        )
    check_seed(seed)
    hash_key, rng_key = code_keys(seed)
    spines = [np.uint64(0)]
    for shift in range(params.n - params.k, -1, -params.k):
        seg = (message.value >> shift) & ((1 << params.k) - 1)
        spines.append(child_spines(hash_key, spines[-1], seg, params))
    return symbol_rows(rng_key, np.array(spines[1:]), params).T.astype(np.int64, order="C")


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
    """The L symbols seeded by each spine, as float64; shape (L,) + spines.

    `rng_keys` broadcasts against `spines`.  Passes come first, so each
    pass's counter is added to one long run of spine words.
    """
    base = absorb(rng_keys, spines)
    ctr = np.arange(params.L, dtype=np.uint64).reshape((-1,) + (1,) * base.ndim)
    raw = stream_at(base, ctr)
    raw &= np.uint64(params.symbol_mask)
    return raw.astype(np.float64)


def codebook_levels(params: CodeParams, seed: int) -> list[np.ndarray]:
    """Candidate symbol tables of the codebook keyed by `seed`.

    Entry a of the result has shape (L, 2^((a+1)k)): the symbols of matrix
    row a+1 for every segment prefix, pass-major.  Variant indices spell
    the prefix in base 2^k, most significant segment first, so candidate m
    uses variant m >> (n - (a+1)k) at level a.
    """
    check_seed(seed)
    hash_key, rng_key = code_keys(seed)
    segs = np.arange(1 << params.k, dtype=np.uint64)
    spines = np.zeros(1, dtype=np.uint64)
    levels = []
    for _ in range(params.num_segments):
        spines = child_spines(hash_key, spines[:, None], segs, params).ravel()
        levels.append(symbol_rows(rng_key, spines, params))
    return levels
