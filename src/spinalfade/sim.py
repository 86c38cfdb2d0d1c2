"""Reproducible Monte Carlo frame-error estimation and SNR sweeps.

Every trial owns a counter stream keyed by (run seed, trial index) and a
fresh codebook keyed the same way, so a trial's outcome is a pure function
of that pair: totals are identical whether trials run one by one, in
vectorized blocks, or on several workers.  `run_trial` is the scalar
reference path; `count_errors` is the vectorized block path that
reproduces it draw for draw.

The sent message is known, so a trial is a frame error iff some other
candidate has cost <= C_s + TIE_TOLERANCE, C_s being the sent cost: that
is `run_trial`'s rule (the minimizer is not the sent message, or two
candidates tie on the minimum).  Every other candidate leaves the sent
path at exactly one segment a, through a sibling: a level-a child of the
sent prefix other than the sent one.  So `count_errors` walks the sent
path once, hashing the 2^k children of each sent prefix (the ladder),
which gives the received frame, C_s and every sibling's cost, and then
searches outward from the siblings with `decoder.tree_search`, which
`ml_decode` uses too: every leaf that search keeps is a non-sent leaf
within the threshold.  A prefix is dropped once its cost plus a lower
bound on any completion passes it (`decoder.lookahead_thresholds`), and a
trial with one such leaf, its witness, leaves the search (see
`count_errors`).  On the paper code (four paper channels, 2,048-trial
blocks) a trial hashes, sent path included, about 42 of the 340 spines
of its tree at 0 dB, 43 at 2 dB, 41 at 4 dB, 36 at 6 dB, 30 at 8 dB, 24
at 10 dB and 16 to 17 from 16 dB on.

A block lays out its gains, noise and received values pass-major, as
(n/k, L, trials), the layout `tree_search` takes.  The ladder hashes
through the search's expander and costs rows with its step,
`decoder.squared_distance`, and C_s and the siblings' costs add rows root
to leaf, so each agrees bit for bit with the cost the search gives that
prefix.

Re-keying the codebook per trial makes the estimator target the
ensemble-average error probability, which is the quantity the analytical
bounds control; a single fixed codebook has its own luck and can sit a
few percent above or below the ensemble mean.

Importing this module, as `cli` does for every command, does not load
`scipy.special`: a block's noise goes through `mixing.ndtri`, which
loads it on the first block's draw, in whichever worker thread gets
there first.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import BoundResult, ThetaGrid, pe_bound
from .channel import (
    RICIAN,
    FadingModel,
    gains_from_uniforms,
    snr_to_sigma,
    transmit,
)
from .codec import (
    CodeParams,
    ConfigurationError,
    check_seed,
    child_spines,
    code_keys,
    codebook_levels,  # noqa: F401  (looked up here by perfbench/tracing.py)
    encode,
    random_message,
    symbol_rows,
)
from .decoder import (
    MEMORY_BUDGET,
    TIE_TOLERANCE,
    CapacityError,
    Frontier,
    lookahead_thresholds,
    ml_decode,
    squared_distance,
    tree_search,
)
from .mixing import (
    CODEBOOK_DOMAIN,
    SIM_DOMAIN,
    SWEEP_DOMAIN,
    CounterStream,
    absorb,
    ndtri,  # a module attribute: perfbench/tracing.py wraps `sim.ndtri`
    stream_at,
    uniforms_from_raw,
)

EARLY_STOP_BLOCK = 1_000
DEFAULT_BATCH = 2_048
# Threads one point may run on.  Each checkpoint is split into at least one
# job per worker, so an unbounded count could start a thread per trial.
MAX_WORKERS = 256


@dataclass(frozen=True)
class FerEstimate:
    """Frame-error count over a number of independent trials."""

    trials: int
    errors: int

    def __post_init__(self):
        if self.trials < 1 or not 0 <= self.errors <= self.trials:
            raise ConfigurationError("errors must lie in 0..trials")

    @property
    def fer(self) -> float:
        return self.errors / self.trials

    @property
    def stderr(self) -> float:
        p = self.fer
        return float(np.sqrt(p * (1.0 - p) / self.trials))


@dataclass(frozen=True)
class SweepRow:
    """One SNR point: simulated estimate next to the analytical bound."""

    snr_db: float
    sigma: float
    fer: FerEstimate
    bound: BoundResult


def trial_stream(seed: int, index: int) -> CounterStream:
    """The random source owned by one trial of one run."""
    check_seed(seed, index)
    key = absorb(absorb(SIM_DOMAIN, np.uint64(seed)), np.uint64(index))
    return CounterStream(int(key))


def codebook_seed(seed: int, index: int) -> int:
    """The code seed owned by one trial of one run (fresh hash key per
    trial, so trials average over the code ensemble)."""
    check_seed(seed, index)
    return int(absorb(absorb(CODEBOOK_DOMAIN, np.uint64(seed)), np.uint64(index)))


def run_trial(params: CodeParams, model: FadingModel, sigma: float,
              rand: CounterStream, code_seed: int = 0) -> bool:
    """One frame: encode a random message, transmit, ML-decode.

    Returns True on a frame error; a tie on the minimum cost counts as an
    error even when the tie-break lands on the transmitted message.
    """
    msg = random_message(params, int(rand.raw(1)[0]))
    symbols = encode(msg, params, code_seed)
    realization = transmit(symbols, model, sigma, rand)
    result = ml_decode(realization, params, code_seed)
    return result.decoded != msg or result.tie


def count_errors(params: CodeParams, model: FadingModel, sigma: float,
                 seed: int, start: int, count: int) -> int:
    """Frame errors among trials [start, start + count), vectorized.

    Reproduces `run_trial` over `trial_stream(seed, t)` with code seed
    `codebook_seed(seed, t)` exactly: same counter layout (message word,
    then gain uniforms, then noise uniforms), same arithmetic, same tie
    rule.  Blocks hold `DEFAULT_BATCH` trials, fewer where what each
    holds however the search prunes would pass MEMORY_BUDGET.  A trial
    that alone passes it, there or in its search (`decoder.tree_search`),
    is a CapacityError; an empty range, or a range or seed outside
    0..2^64-1, is a ConfigurationError.

    A trial is an error as soon as one non-sent leaf lies within its
    threshold, so the search need not find them all.  Each non-sent leaf
    lies below exactly one sibling of the sent path (see the module
    docstring), and each sibling's cost is tested against its threshold
    row as the search would test it.  A last-level sibling within it is
    such a leaf, a witness, at once.  Then, level by level from the
    deepest, the surviving level-a siblings of the trials still without
    a witness are searched to the leaves; every leaf kept is a witness,
    and its trial leaves the shallower levels.  Both rules look at one
    trial alone, so the counts, and the prefixes each trial hashes, do
    not depend on how trials fall into blocks; only the search's memory
    split does.
    """
    if count < 1 or not 0 <= start <= (1 << 64) - count:
        raise ConfigurationError(f"trials [{start}, {start} + {count}) must be a "
                                 f"non-empty range in 0..2^64-1")
    check_seed(seed)
    rows, width = params.num_segments, 1 << params.k
    grid_size = rows * params.L
    draws = 1 + (3 if model.kind == RICIAN else 2) * grid_size
    # Counter draws (as words, uniforms, gain work), received frame, ladder.
    trial_bytes = 8 * (6 * draws + grid_size + 4 * width * (rows + params.L))
    if trial_bytes > MEMORY_BUDGET:
        raise CapacityError(f"one trial holds {trial_bytes >> 20} MiB, over "
                            f"the {MEMORY_BUDGET >> 20} MiB budget")
    block = min(DEFAULT_BATCH, MEMORY_BUDGET // trial_bytes)
    return sum(_count_block(params, model, sigma, seed, s,
                            min(block, start + count - s))
               for s in range(start, start + count, block))


def _count_block(params: CodeParams, model: FadingModel, sigma: float,
                 seed: int, start: int, count: int) -> int:
    rows, L = params.num_segments, params.L
    grid_size = rows * L
    indices = np.arange(start, start + count, dtype=np.uint64)
    keys = absorb(absorb(SIM_DOMAIN, np.uint64(seed)), indices)
    hash_keys, rng_keys = code_keys(
        absorb(absorb(CODEBOOK_DOMAIN, np.uint64(seed)), indices))

    # Counter 0 holds the message word, then come the gain uniforms, then
    # the noise uniforms.
    draws = 2 * grid_size if model.kind == RICIAN else grid_size
    ctr = np.arange(1 + draws + grid_size, dtype=np.uint64)
    raw = stream_at(keys, ctr[:, None])
    words = raw[0] & np.uint64((1 << params.n) - 1)
    u = uniforms_from_raw(raw)
    gain_u = u[1:1 + draws]
    if model.kind == RICIAN:
        gain_u = np.moveaxis(gain_u.reshape(grid_size, 2, count), 1, 2)
    gains = gains_from_uniforms(model, gain_u).reshape(rows, L, count)
    noise = sigma * ndtri(u[1 + draws:]).reshape(rows, L, count)

    segs = np.arange(1 << params.k, dtype=np.uint64)[:, None]

    def expand(a, trial, spines):
        children = child_spines(hash_keys[trial], spines, segs, params)
        return children, symbol_rows(rng_keys[trial], children, params)

    # The ladder: the 2^k children of every sent prefix, hashed and costed
    # level by level down the sent path as the search would (every trial
    # at once: `...` takes the keys without a copy).  The sent entries give
    # the received frame and the sent row costs, and C_s adds those root
    # to leaf, as the search adds the sent leaf's.
    shifts = np.arange(params.n - params.k, -1, -params.k, dtype=np.uint64)
    prefixes = (words >> shifts[:, None]).astype(np.int64)
    sent_seg = prefixes & ((1 << params.k) - 1)
    ladder = np.empty((rows, len(segs), count), dtype=np.uint64)
    cost = np.empty((rows, len(segs), count))
    received = np.empty((rows, L, count))
    spine = np.uint64(0)
    for a in range(rows):
        ladder[a], x = expand(a, ..., spine)
        spine = np.take_along_axis(ladder[a], sent_seg[a][None], axis=0)[0]
        sent = np.take_along_axis(x, sent_seg[a][None, None], axis=1)[:, 0]
        np.add(gains[a] * sent, noise[a], out=received[a])
        squared_distance(x, gains[a][:, None], received[a][:, None], out=cost[a])
    sent_cost = np.take_along_axis(cost, sent_seg[:, None], axis=1)[:, 0].cumsum(axis=0)
    cost[1:] += sent_cost[:-1, None]
    thresholds = lookahead_thresholds(received, gains, params.symbol_mask,
                                      sent_cost[-1] + TIE_TOLERANCE)

    # A sibling is a child of a sent prefix other than the sent one.  Each
    # is tested against its threshold row as the search would test it; a
    # last-level one within it is a leaf, a witness of its trial's error.
    survive = cost <= thresholds[:, None]
    np.put_along_axis(survive, sent_seg[:, None], False, axis=1)
    error = survive[-1].any(axis=0)
    for a in range(rows - 2, -1, -1):
        seg, trial = np.nonzero(survive[a] & ~error)
        if trial.size:
            roots = Frontier(a + 1, trial, ladder[a, seg, trial],
                             prefixes[a, trial] - sent_seg[a, trial] + seg,
                             cost[a, seg, trial])
            leaf = tree_search(expand, len(segs), received, gains, thresholds, start=roots)
            error[leaf.trial] = True
    return int(np.count_nonzero(error))


def estimate_fer(params: CodeParams, model: FadingModel, sigma: float,
                 trials: int, seed: int, workers: int = 1,
                 batch: int = DEFAULT_BATCH,
                 early_stop_errors: int | None = None, min_trials: int = 0) -> FerEstimate:
    """Aggregate `trials` independent trials under the given run seed.

    The result depends only on (seed, trials) and the early-stop settings,
    never on `workers` or `batch`.  Trials run in checkpoints of `workers`
    x `batch` trials, or, with `early_stop_errors` set, fixed 1000-trial
    checkpoints after each of which the point halts once at least that many
    errors have accumulated and at least `min_trials` have run (fixed
    checkpoints keep early-stopped results reproducible).  Each checkpoint
    is split into `count_errors` jobs of at most `batch` trials, at least
    one per worker where it has the trials, and run on `workers` threads;
    only one checkpoint's jobs exist at a time.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if not 1 <= workers <= MAX_WORKERS or batch < 1:
        raise ConfigurationError(f"workers must be in 1..{MAX_WORKERS} and batch "
                                 f">= 1, got {workers} and {batch}")
    if (early_stop_errors is not None and early_stop_errors < 1) or min_trials < 0:
        raise ConfigurationError(f"early stop must be >= 1 and min trials >= 0, "
                                 f"got {early_stop_errors} and {min_trials}")
    step = workers * batch if early_stop_errors is None else EARLY_STOP_BLOCK

    def job(span):
        return count_errors(params, model, sigma, seed, *span)

    errors = 0
    done = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while done < trials:
            end = min(done + step, trials)
            size = min(batch, (end - done + workers - 1) // workers)
            spans = [(s, min(size, end - s)) for s in range(done, end, size)]
            errors += sum(pool.map(job, spans))
            done = end
            if (early_stop_errors is not None and errors >= early_stop_errors
                    and done >= min_trials):
                break
    return FerEstimate(trials=done, errors=errors)


def sweep(params: CodeParams, model: FadingModel, snr_grid, trials: int,
          seed: int, grid: ThetaGrid, workers: int = 1,
          early_stop_errors: int | None = None, min_trials: int = 0) -> list[SweepRow]:
    """Simulated FER and analytical bound at each SNR point; one
    `pe_bound` call gives the bounds of the whole grid, and row i of that
    result is point i's `SweepRow.bound`.

    Each point re-keys its run seed from (seed, point index) so points are
    statistically independent; rows come back in grid order.  A bad seed, or
    a bound past MEMORY_BUDGET (from `pe_bound`), is refused before any trial.
    """
    snr_grid = list(snr_grid)
    if not snr_grid:
        raise ConfigurationError("SNR grid must be non-empty")
    check_seed(seed)
    sigmas = [snr_to_sigma(snr_db, model, params.c) for snr_db in snr_grid]
    bounds = pe_bound(params, model, sigmas, grid)
    rows = []
    for i, (snr_db, sigma) in enumerate(zip(snr_grid, sigmas)):
        point_seed = int(absorb(absorb(SWEEP_DOMAIN, np.uint64(seed)), np.uint64(i)))
        fer = estimate_fer(params, model, sigma, trials, point_seed,
                           workers=workers, early_stop_errors=early_stop_errors,
                           min_trials=min_trials)
        rows.append(SweepRow(snr_db=float(snr_db), sigma=sigma, fer=fer,
                             bound=bounds.row(i)))
    return rows
