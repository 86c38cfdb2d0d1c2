"""Exact ML decoding by pruned tree search with prefix-tree spine sharing.

The decoder returns a candidate of least squared distance to the received
frame given the known gains.  Candidates form a depth-(n/k) tree with 2^k
branches per node and one symbol row per node.  `tree_search` is the one
search over it: `ml_decode` calls it with a radius from a greedy descent,
and the Monte Carlo path (`sim.count_errors`) with the sent message's cost
from each level's siblings of the sent path.  A level that would pass
MEMORY_BUDGET is searched a part of the frames at a time.

The search's arrays are pass-major: received values and gains come as
(n/k, L, frames), a level's children as (2^k, N) and their symbols as
(L, 2^k, N), so every elementwise step runs along the long node axis.
A child's row cost is squared in place and summed over the leading pass
axis, which adds the L passes left to right.  Up to L = 7 that is what
numpy's sum over a trailing pass axis does too; from L = 8 that sum goes
pairwise, so there costs may differ from it by a few ulps.

`brute_force_decode` is the independent oracle: a flat loop over all
candidates that re-encodes each one from scratch and shares none of the
tree machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# Bytes a search, a candidate table or a block's per-trial arrays may hold.
MEMORY_BUDGET = 256 << 20


class CapacityError(ValueError):
    """A code or grid size whose work would not fit the supported limits."""


@dataclass(frozen=True)
class DecodeResult:
    """Decoding outcome: chosen message, its cost, and a minimum-tie flag."""

    decoded: Message
    min_cost: float
    tie: bool


class Frontier(NamedTuple):
    """The prefixes a search holds after its first `level` tree levels.

    Prefix i belongs to frame `trial[i]`, ends in spine state `node[i]`
    (0 at the root), spells the segment values `value[i]` (first segment
    most significant) and has partial cost `cost[i]`.
    """

    level: int
    trial: np.ndarray
    node: np.ndarray
    value: np.ndarray
    cost: np.ndarray


def tree_search(expand, width: int, received: np.ndarray, gains: np.ndarray,
                threshold: np.ndarray | None, start: Frontier | None = None,
                stop: int | None = None) -> Frontier:
    """Expand the frontier `start` (the root of every frame when None) level
    by level up to level `stop` (the leaves when None) and return the
    frontier reached there: with the defaults, every leaf whose cost is at
    most its frame's threshold.

    `received` and `gains` have shape (n/k, L, B), `threshold` (n/k, B):
    a level-a prefix survives while its partial cost is at most
    `threshold[a, trial]`, and the last row bounds the leaves.
    `expand(a, trial, nodes)` returns the states (width, N) and symbol
    rows (L, width, N) of the level-a children of N nodes (frames `trial`,
    states `nodes`), `width` being 2^k, as fresh arrays: the search
    overwrites the symbols with their squared distances.  Each child's row
    cost is the sum of those over the leading pass axis, added left to
    right, and costs add rows root to leaf.  With `threshold` None it
    keeps the cheapest child of each node instead: a greedy descent to one
    leaf per start prefix, returned in the start order (from the root, one
    leaf per frame in trial order).  Otherwise each level's survivors are
    ordered by segment value, then by the order of their parents, so from
    the root the leaves come sorted by their segments read last to first,
    then by trial, unless the search is split (below).

    A search resumed from its own level-a frontier (`stop=a`, then
    `start=` that frontier) returns the same leaves, bit for bit, as one
    that runs through, and a search started from a subset of a frontier,
    or from any prefixes costed as it would cost them, returns exactly
    the leaves below them: each level only adds to its parents' costs.
    So a thresholded search from one level's siblings of a sent path is
    this one loop too.

    Before each level the search counts, in plain ints, its peak bytes:
    per parent, `width` children of 2L + 9 words and 3L + 6 words of its
    own.  Past MEMORY_BUDGET, less 4 words per prefix held in waiting parts
    or found leaves, it searches the frames in two parts, lower trials
    first (frames are independent, so the leaves are the same); a frame
    that alone does not fit is a CapacityError.

    Costs are sums of non-negative row distances added root to leaf, and
    adding a non-negative double never lowers the rounded sum, so a prefix
    already above the leaf threshold has no leaf within it: a threshold
    that is the leaf threshold at every level drops nothing else.  An
    earlier row may be lower by a lower bound on the cost of any
    completion, as long as it drops no prefix that still has a leaf within
    the last row; `lookahead_thresholds` builds such rows.  Either way
    the surviving leaves and their costs are the same, bit for bit.
    With nothing to drop (zero gains) the frontier is the whole tree.
    """
    if start is None:
        count = received.shape[2]
        start = Frontier(0, np.arange(count), np.zeros(count, dtype=np.uint64),
                         np.zeros(count, dtype=np.int64), np.zeros(count))
    stop = len(received) if stop is None else stop
    L = received.shape[1]
    parent_bytes = 8 * (width * (2 * L + 9) + 3 * L + 6)
    todo, done = [start], []
    while todo:
        part = todo.pop()
        held = 32 * sum(len(f.trial) for f in todo + done)
        part = _descend(expand, width, received, gains, threshold, part, stop,
                        (MEMORY_BUDGET - held) // parent_bytes)
        if part.level == stop:
            done.append(part)
            continue
        frames = np.unique(part.trial)
        if len(frames) < 2:
            need = held + len(part.trial) * parent_bytes
            raise CapacityError(f"one frame's search needs {need >> 20} MiB at level "
                                f"{part.level + 1}, over {MEMORY_BUDGET >> 20} MiB")
        high = part.trial >= frames[len(frames) // 2]
        todo += [Frontier(part.level, *(f[side] for f in part[1:]))
                 for side in (high, ~high)]
    if len(done) == 1:
        return done[0]
    return Frontier(stop, *map(np.concatenate, zip(*(f[1:] for f in done))))


def _descend(expand, width, received, gains, threshold, start, stop, most):
    """`tree_search`'s levels, stopping before one of over `most` parents."""
    _, trial, node, value, cost = start
    for a in range(start.level, stop):
        if len(trial) > most:
            return Frontier(a, trial, node, value, cost)
        children, x = expand(a, trial, node)
        x *= gains[a].take(trial, axis=1)[:, None]
        np.subtract(received[a].take(trial, axis=1)[:, None], x, out=x)
        x *= x
        # numpy sums a leading axis left to right while other columns remain
        # (here 2^k·N ≥ 2; over a single column it would sum pairwise).
        # `sim` adds the sent path's passes in the same order.
        child_cost = x.sum(axis=0)
        child_cost += cost
        if threshold is None:
            seg, parent = child_cost.argmin(axis=0), np.arange(len(trial))
        else:
            seg, parent = np.nonzero(child_cost <= threshold[a].take(trial))
        trial, node = trial[parent], children[seg, parent]
        value = value[parent] * width + seg
        cost = child_cost[seg, parent]
    return Frontier(stop, trial, node, value, cost)


def lookahead_thresholds(received: np.ndarray, gains: np.ndarray, top: int,
                         threshold: np.ndarray) -> np.ndarray:
    """Per-level `tree_search` thresholds (n/k, B) that keep exactly the
    leaves within `threshold` (B,) while dropping prefixes sooner.

    Symbols are integers in 0..`top`.  Row j of any completion costs at
    least the sum over its L symbols of min_x (y - h·x)², reached at
    x = clip(rint(y/h), 0, top) (y/h = 0/0, a zero gain with a zero
    received value, reads as x = 0; any x is then as good).  The bound
    after level a, `tail`, sums those minima over the rows below it, and
    row a is threshold·(1+1e-12) − tail·(1−1e-9); the last row is the
    threshold itself.  The margins cover two rounding errors: the
    root-to-leaf sum of a leaf cost can differ from the exact sum of its
    rows by a few ulps, and y/h is rounded, so when it sits on a
    half-integer rint can pick the farther of the two nearest points,
    which costs about 2^c ulps.  So no prefix that still has a leaf
    within the threshold is dropped.  This is the lower-bound pruning of
    Stojnic, Vikalo & Hassibi (IEEE T-SP 2008).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = received / gains
    np.rint(x, out=x)
    np.clip(x, 0, top, out=x)
    x[np.isnan(x)] = 0.0
    x *= gains
    np.subtract(received, x, out=x)
    x *= x
    row_min = x.sum(axis=1)
    tail = np.cumsum(row_min[:0:-1], axis=0)[::-1]
    out = np.empty_like(row_min)
    out[:-1] = threshold * (1 + 1e-12) - tail * (1 - 1e-9)
    out[-1] = threshold
    return out


class CandidateTable:
    """Per-level candidate symbol rows for all message prefixes.

    levels[a] has shape (L, 2^((a+1)k)): column r holds the symbols of
    matrix row a+1 for the prefix whose segment values spell r in base 2^k.
    Candidate index bits are big-endian, so candidate m uses variant
    m >> (n - (a+1)k) at level a and numeric order equals lexicographic
    bit-pattern order.
    """

    def __init__(self, params: CodeParams, seed: int = 0):
        # the table, and its last level's raw and hashing words as it is made
        width, leaves = 1 << params.k, 1 << params.n
        rows = sum(width ** a for a in range(1, params.num_segments + 1))
        need = 8 * (params.L * (rows + 2 * leaves) + 3 * leaves)
        if need > MEMORY_BUDGET:
            raise CapacityError(f"the candidate table needs {need >> 20} MiB, "
                                f"over the {MEMORY_BUDGET >> 20} MiB budget")
        self.params = params
        self.seed = seed
        self.levels: list[np.ndarray] = codebook_levels(params, seed)
        self._segs = np.arange(width, dtype=np.uint64)[:, None]

    def _expand(self, a, trial, nodes):
        children = nodes * np.uint64(len(self._segs)) + self._segs
        return children, self.levels[a].take(children, axis=1)

    def costs(self, received: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """Costs of the 2^n candidates for a batch of realizations.

        `received` and `gains` have shape (B, n/k, L); returns (B, 2^n).
        The search radius, a greedy descent's leaf cost plus TIE_TOLERANCE,
        keeps every candidate within TIE_TOLERANCE of the minimum exactly;
        the others read +inf.
        """
        received = received.transpose(1, 2, 0)     # pass-major views
        gains = gains.transpose(1, 2, 0)
        greedy = tree_search(self._expand, len(self._segs), received, gains, None).cost
        radius = np.broadcast_to(greedy + TIE_TOLERANCE, received.shape[::2])
        leaves = tree_search(self._expand, len(self._segs), received, gains, radius)
        out = np.full((received.shape[2], 1 << self.params.n), np.inf)
        out[leaves.trial, leaves.value] = leaves.cost
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
    `table` of the same `params` and `seed` to amortize the candidate
    symbols across many frames (another is a ConfigurationError).  A table
    or a frame's search level past MEMORY_BUDGET is a CapacityError.
    """
    expected = (params.num_segments, params.L)
    if realization.received.shape != expected:
        raise ConfigurationError(
            f"realization shape {realization.received.shape} does not match "
            f"code shape {expected}"
        )
    if table is None:
        table = CandidateTable(params, seed)
    elif (table.params, table.seed) != (params, seed):
        raise ConfigurationError(f"table of {table.params} under seed {table.seed} "
                                 f"used for {params} under seed {seed}")
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
