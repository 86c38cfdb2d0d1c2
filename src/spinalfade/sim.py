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
candidates tie on the minimum).  `count_errors` hashes the sent path for
the received frame and C_s, then asks `decoder.tree_search`, which
`ml_decode` uses too, for the leaves within that threshold.  A prefix is
dropped once its cost plus a lower bound on any completion passes it
(`decoder.lookahead_thresholds`), and a trial already shown to be an error
by one such leaf, its certificate, leaves the search (see `count_errors`).
On the paper code (four paper channels, 2,048-trial blocks) the search
hashes about 72 of the 340 nodes per trial at 0 dB, 73 at 2 dB and 66 at
4 dB (139, 104 and 73 without certificates; 180, 133 and 91 without the
lookahead bound either), and 16 to 17 at 16 dB and above, where no block
tries certificates.  With nothing to prune it is the whole tree, so
blocks are sized for that worst case.

A block lays out its gains, noise and sent symbols pass-major, as
(n/k, L, trials), the layout `tree_search` takes.  C_s adds each row's
passes left to right and the rows root to leaf, the order in which the
search adds up the sent leaf's cost, so the two agree bit for bit.

Re-keying the codebook per trial makes the estimator target the
ensemble-average error probability, which is the quantity the analytical
bounds control; a single fixed codebook has its own luck and can sit a
few percent above or below the ensemble mean.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

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
    child_spines,
    code_keys,
    codebook_levels,  # noqa: F401  (looked up here by perfbench/tracing.py)
    encode,
    encode_rows,
    random_message,
    symbol_rows,
)
from .decoder import (
    TIE_TOLERANCE,
    lookahead_thresholds,
    ml_decode,
    tree_search,
    trials_per_block,
)
from .mixing import (
    CODEBOOK_DOMAIN,
    SIM_DOMAIN,
    SWEEP_DOMAIN,
    CounterStream,
    absorb,
    stream_at,
    uniforms_from_raw,
)

EARLY_STOP_BLOCK = 1_000
DEFAULT_BATCH = 2_048
# Threads one point may run on.  Each checkpoint is split into at least one
# job per worker, so an unbounded count could start a thread per trial.
MAX_WORKERS = 256
# A block tries error certificates only when at least this share of its
# trials keeps a non-sent prefix after level 0, since descents that certify
# nothing are wasted.  On the paper code (four paper channels, 2,048-trial
# blocks) the share is 0.93-0.99 at 0-4 dB, about 0.91 at 5 dB, 0.87 at
# 6 dB, 0.74 at 8 dB and at most 0.14 from 16 dB on.  Descents roughly
# halve the time of a block at 0-2 dB, break even near 5 dB and cost
# 8-13% at 6-8 dB.
CERTIFY_SHARE = 0.9


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
    key = absorb(absorb(SIM_DOMAIN, np.uint64(seed)), np.uint64(index))
    return CounterStream(int(key))


def codebook_seed(seed: int, index: int) -> int:
    """The code seed owned by one trial of one run (fresh hash key per
    trial, so trials average over the code ensemble)."""
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
    rule.  Trials are searched in blocks of `trials_per_block(params)`.

    A trial is an error as soon as one non-sent leaf lies within its
    threshold, so the search need not find them all.  After level 0, a
    block in which at least `CERTIFY_SHARE` of the trials keep a prefix
    other than the sent segment descends greedily from each such trial's
    cheapest one to a leaf, through `decoder.tree_search` with no
    threshold.  A leaf within the last threshold row certifies its trial
    as an error and the trial's prefixes leave the frontier; the other
    trials are searched in full.  The count is exact whichever trials
    descend: a certificate is a real non-sent leaf, its cost is added root
    to leaf in the search's own order, so it is the cost the full search
    would give that leaf, and the full search keeps every leaf within the
    last row.  So the counts do not depend on how trials fall into blocks.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    block = trials_per_block(params)
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

    words = stream_at(keys, np.uint64(0)) & np.uint64((1 << params.n) - 1)
    draws = 2 * grid_size if model.kind == RICIAN else grid_size
    ctr = np.arange(1, 1 + draws, dtype=np.uint64)
    u = uniforms_from_raw(stream_at(keys, ctr[:, None]))
    if model.kind == RICIAN:
        u = np.moveaxis(u.reshape(grid_size, 2, count), 1, 2)
    gains = gains_from_uniforms(model, u).reshape(rows, L, count)
    ctr = np.arange(1 + draws, 1 + draws + grid_size, dtype=np.uint64)
    noise = sigma * ndtri(uniforms_from_raw(stream_at(keys, ctr[:, None])))
    noise = noise.reshape(rows, L, count)

    # The sent path: the received frame and the cost C_s of the sent message.
    # Passes are added left to right and rows root to leaf, as `tree_search`
    # adds a leaf's, so C_s is bit for bit the cost the search gives the
    # sent leaf.  The passes are added one by one because numpy's sum over
    # them would go pairwise for a block of one trial.
    shifts = np.arange(params.n - params.k, -1, -params.k, dtype=np.uint64)
    sent = encode_rows(hash_keys, rng_keys,
                       (words >> shifts[:, None]) & np.uint64((1 << params.k) - 1), params)
    received = gains * sent + noise
    dist = (received - gains * sent) ** 2
    row_cost = dist[:, 0].copy()
    for j in range(1, L):
        row_cost += dist[:, j]
    sent_cost = row_cost.cumsum(axis=0)[-1]

    segs = np.arange(1 << params.k, dtype=np.uint64)[:, None]

    def expand(a, trial, spines):
        children = child_spines(hash_keys[trial], spines, segs, params)
        return children, symbol_rows(rng_keys[trial], children, params)

    thresholds = lookahead_thresholds(received, gains, params.symbol_mask,
                                      sent_cost + TIE_TOLERANCE)
    frontier = tree_search(expand, received, gains, thresholds, stop=1)

    # Certificates (see `count_errors`): every leaf below a level-0 prefix
    # other than the sent segment is a non-sent leaf.
    lost = frontier.value != (words >> shifts[0]).astype(np.int64)[frontier.trial]
    certified = np.zeros(count, dtype=bool)
    if (np.count_nonzero(np.bincount(frontier.trial[lost], minlength=count))
            >= CERTIFY_SHARE * count):
        pick = np.flatnonzero(lost)
        pick = pick[np.argsort(frontier.cost[pick], kind="stable")]
        pick = pick[np.unique(frontier.trial[pick], return_index=True)[1]]
        leaf = tree_search(expand, received, gains, None,
                           start=frontier.select(pick))
        certified[leaf.trial[leaf.cost <= thresholds[-1].take(leaf.trial)]] = True
        frontier = frontier.select(~certified[frontier.trial])
    leaves = tree_search(expand, received, gains, thresholds, start=frontier)
    wrong = leaves.value != words.astype(np.int64)[leaves.trial]
    return (int(np.count_nonzero(certified))
            + int(np.unique(leaves.trial[wrong]).size))


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
    """Simulated FER and analytical bound at each SNR point.

    Each point re-keys its run seed from (seed, point index) so points are
    statistically independent; rows come back in grid order.
    """
    snr_grid = list(snr_grid)
    if not snr_grid:
        raise ConfigurationError("SNR grid must be non-empty")
    rows = []
    for i, snr_db in enumerate(snr_grid):
        sigma = snr_to_sigma(snr_db, model, params.c)
        point_seed = int(absorb(absorb(SWEEP_DOMAIN, np.uint64(seed)), np.uint64(i)))
        fer = estimate_fer(params, model, sigma, trials, point_seed,
                           workers=workers, early_stop_errors=early_stop_errors,
                           min_trials=min_trials)
        rows.append(SweepRow(snr_db=float(snr_db), sigma=sigma, fer=fer,
                             bound=pe_bound(params, model, sigma, grid)))
    return rows
