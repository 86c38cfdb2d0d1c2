"""Exact ML decoding by pruned tree search with prefix-tree spine sharing.

The decoder returns a candidate of least squared distance to the received
frame given the known gains.  Candidates form a depth-(n/k) tree with 2^k
branches per node and one symbol row per node.  `tree_search` is the one
search over it: `ml_decode` calls it with a radius from a greedy descent,
and the Monte Carlo path (`sim.count_errors`) with the sent message's cost.

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

BRUTE_FORCE_MAX_BITS = 16
# Absolute.  Costs at the paper's parameters reach 1e5-1e6, where one ulp
# is about 1e-11 to 1e-10, so there this amounts to exact equality.
TIE_TOLERANCE = 1e-12
# Bytes one search pass (per worker) or one kernel call may hold.
MEMORY_BUDGET = 256 << 20
# What a leaf of a search that prunes nothing costs: a fixed part plus a
# part per symbol pass.  The two constants cover the peak traced by
# tracemalloc for k in 1..6 and L in 1..20 (k=1 with L=1 and L=20 come
# closest), and also the peaks of one table build and of one `ml_decode`.
_NODE_BYTES = 80
_NODE_ROW_BYTES = 32


class CapacityError(ValueError):
    """A code or grid size whose work would not fit the supported limits."""


def tree_bytes(params: CodeParams) -> int:
    """Peak bytes of one frame's search when every prefix survives pruning
    (all gains zero, or an SNR far below the code's reach)."""
    return (1 << params.n) * (_NODE_BYTES + _NODE_ROW_BYTES * params.L)


def trials_per_block(params: CodeParams) -> int:
    """Frames one search pass takes together: as many as fit MEMORY_BUDGET
    in the worst case, whatever the channel draws (CapacityError if none)."""
    worst = tree_bytes(params)
    if worst > MEMORY_BUDGET:
        raise CapacityError(
            f"one frame at n={params.n}, L={params.L} may need {worst >> 20} MiB "
            f"for its search tree, over the {MEMORY_BUDGET >> 20} MiB budget")
    return MEMORY_BUDGET // worst


@dataclass(frozen=True)
class DecodeResult:
    """Decoding outcome: chosen message, its cost, and a minimum-tie flag."""

    decoded: Message
    min_cost: float
    tie: bool


def tree_search(expand, received: np.ndarray, gains: np.ndarray,
                threshold: np.ndarray | None):
    """Every leaf whose cost is at most its frame's threshold, as (trial,
    value, cost) arrays sorted by trial and by candidate value.

    `received` and `gains` have shape (B, n/k, L), `threshold` (B,).
    `expand(a, trial, nodes)` returns the states (N, 2^k) and symbol rows
    (N, 2^k, L) of the level-a children of N nodes (frames `trial`, states
    `nodes`, 0 at the root).  With `threshold` None it keeps the cheapest
    child of each node instead: a greedy descent to one leaf per frame.

    Costs are sums of non-negative row distances added root to leaf, and
    adding a non-negative double never lowers the rounded sum, so a prefix
    already above the threshold has no leaf within it.  Dropping it changes
    no surviving leaf's cost, bit for bit.  With nothing to drop (zero
    gains) the frontier is the whole tree.
    """
    count = len(received)
    trial = np.arange(count)
    node = np.zeros(count, dtype=np.uint64)
    value = np.zeros(count, dtype=np.int64)
    cost = np.zeros(count)
    for a in range(received.shape[1]):
        children, x = expand(a, trial, node)
        y = received[:, a].take(trial, axis=0)[:, None, :]
        h = gains[:, a].take(trial, axis=0)[:, None, :]
        child_cost = cost[:, None] + ((y - h * x) ** 2).sum(axis=2)
        if threshold is None:
            parent, seg = np.arange(len(child_cost)), child_cost.argmin(axis=1)
        else:
            parent, seg = np.nonzero(child_cost <= threshold[trial, None])
        trial, node = trial[parent], children[parent, seg]
        value = value[parent] * x.shape[1] + seg
        cost = child_cost[parent, seg]
    return trial, value, cost


class CandidateTable:
    """Per-level candidate symbol rows for all message prefixes.

    levels[a] has shape (2^((a+1)k), L): row r holds the symbols of matrix
    row a+1 for the prefix whose segment values spell r in base 2^k.
    Candidate index bits are big-endian, so candidate m uses variant
    m >> (n - (a+1)k) at level a and numeric order equals lexicographic
    bit-pattern order.
    """

    def __init__(self, params: CodeParams, seed: int = 0):
        trials_per_block(params)    # CapacityError before any hashing
        self.params = params
        self.levels: list[np.ndarray] = codebook_levels(params, seed)
        self._segs = np.arange(1 << params.k, dtype=np.uint64)

    def _expand(self, a, trial, nodes):
        children = nodes[:, None] * np.uint64(len(self._segs)) + self._segs
        return children, self.levels[a].take(children, axis=0)

    def costs(self, received: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """Costs of the 2^n candidates for a batch of realizations.

        `received` and `gains` have shape (B, n/k, L); returns (B, 2^n).
        The search radius, a greedy descent's leaf cost plus TIE_TOLERANCE,
        keeps every candidate within TIE_TOLERANCE of the minimum exactly;
        the others read +inf.
        """
        greedy = tree_search(self._expand, received, gains, None)[2]
        trial, value, cost = tree_search(self._expand, received, gains,
                                         greedy + TIE_TOLERANCE)
        out = np.full((len(received), 1 << self.params.n), np.inf)
        out[trial, value] = cost
        return out


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
    `table` to amortize the candidate symbols across many frames.  A code
    whose search could pass MEMORY_BUDGET is a CapacityError.
    """
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
