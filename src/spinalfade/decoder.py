"""Exact ML decoding by exhaustive search with prefix-tree spine sharing.

The decoder scores every candidate message by its squared distance to the
received frame given the known gains and returns a global minimizer.  The
candidate space is walked as a depth-(n/k) tree with 2^k branches per node:
symbol rows are generated once per node, so level a holds 2^(a*k) rows
instead of the 2^n * (n/k) a flat enumeration would touch.

`brute_force_decode` is the independent oracle: a flat loop over all
candidates that re-encodes each one from scratch and shares none of the
tree machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import (
    CodeParams,
    ConfigurationError,
    Message,
    codebook_levels,
    encode,
)
from .channel import ChannelRealization

ML_DECODE_MAX_BITS = 24
BRUTE_FORCE_MAX_BITS = 16
# Absolute.  Costs at the paper's parameters reach 1e5-1e6, where one ulp
# is about 1e-11 to 1e-10, so there this amounts to exact equality.
TIE_TOLERANCE = 1e-12


class CapacityError(ValueError):
    """Message size exceeds what exhaustive decoding supports."""


@dataclass(frozen=True)
class DecodeResult:
    """Decoding outcome: chosen message, its cost, and a minimum-tie flag."""

    decoded: Message
    min_cost: float
    tie: bool


class CandidateTable:
    """Per-level candidate symbol rows for all message prefixes.

    levels[a] has shape (2^((a+1)k), L): row r holds the symbols of matrix
    row a+1 for the prefix whose segment values spell r in base 2^k.
    Candidate index bits are big-endian, so candidate m uses variant
    m >> (n - (a+1)k) at level a and numeric order equals lexicographic
    bit-pattern order.
    """

    def __init__(self, params: CodeParams, seed: int = 0):
        self.params = params
        self.seed = seed
        stacked = codebook_levels(params, np.array([seed], dtype=np.uint64))
        self.levels: list[np.ndarray] = [level[0] for level in stacked]

    def costs(self, received: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """Costs of all 2^n candidates for a batch of realizations.

        `received` and `gains` have shape (B, n/k, L); returns (B, 2^n).
        """
        branches = 1 << self.params.k
        total: np.ndarray | None = None
        for a, rows in enumerate(self.levels):
            y = received[:, a, None, :]
            h = gains[:, a, None, :]
            partial = ((y - h * rows[None, :, :]) ** 2).sum(axis=2)
            if total is None:
                total = partial
            else:
                total = np.repeat(total, branches, axis=1) + partial
        return total


def candidate_cost(candidate: Message, realization: ChannelRealization,
                   params: CodeParams, seed: int = 0) -> float:
    """Squared distance of one candidate from the received frame."""
    symbols = encode(candidate, params, seed).astype(np.float64)
    if symbols.shape != realization.received.shape:
        raise ConfigurationError(
            f"realization shape {realization.received.shape} does not match "
            f"code shape {symbols.shape}"
        )
    diff = realization.received - realization.gains * symbols
    return float((diff * diff).sum())


def _result_from_costs(costs: np.ndarray, params: CodeParams) -> DecodeResult:
    best = int(np.argmin(costs))
    min_cost = float(costs[best])
    tie = int(np.count_nonzero(costs <= min_cost + TIE_TOLERANCE)) >= 2
    return DecodeResult(decoded=Message(value=best, n=params.n),
                        min_cost=min_cost, tie=tie)


def ml_decode(realization: ChannelRealization, params: CodeParams,
              seed: int = 0, table: CandidateTable | None = None) -> DecodeResult:
    """Globally optimal decode over all 2^n candidates.

    Ties on the minimum (within 1e-12 absolute) are flagged and broken
    toward the lexicographically smallest bit pattern.  Pass a prebuilt
    `table` to amortize the candidate symbols across many frames.
    """
    if params.n > ML_DECODE_MAX_BITS:
        raise CapacityError(
            f"ml_decode enumerates 2^n candidates; n={params.n} exceeds "
            f"{ML_DECODE_MAX_BITS}"
        )
    if table is None:
        table = CandidateTable(params, seed)
    expected = (params.num_segments, params.L)
    if realization.received.shape != expected:
        raise ConfigurationError(
            f"realization shape {realization.received.shape} does not match "
            f"code shape {expected}"
        )
    costs = table.costs(realization.received[None, :, :],
                        realization.gains[None, :, :])[0]
    return _result_from_costs(costs, params)


def brute_force_decode(realization: ChannelRealization, params: CodeParams,
                       seed: int = 0) -> DecodeResult:
    """Flat-enumeration oracle with the same contract as `ml_decode`."""
    if params.n > BRUTE_FORCE_MAX_BITS:
        raise CapacityError(
            f"brute_force_decode is limited to n <= {BRUTE_FORCE_MAX_BITS}, "
            f"got n={params.n}"
        )
    best_value = 0
    best_cost = np.inf
    costs = np.empty(1 << params.n)
    for value in range(1 << params.n):
        cost = candidate_cost(Message(value=value, n=params.n), realization,
                              params, seed)
        costs[value] = cost
        if cost < best_cost:
            best_cost = cost
            best_value = value
    tie = int(np.count_nonzero(costs <= best_cost + TIE_TOLERANCE)) >= 2
    return DecodeResult(decoded=Message(value=best_value, n=params.n),
                        min_cost=float(best_cost), tie=tie)
