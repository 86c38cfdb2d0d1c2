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
`ml_decode` uses too, for every leaf within that threshold.  At high SNR
that search touches about 16 of the paper code's 340 nodes; with nothing
to prune it is the whole tree, so blocks are sized for that worst case.

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
    random_message,
    symbol_rows,
)
from .decoder import TIE_TOLERANCE, ml_decode, tree_search, trials_per_block
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
              rand: CounterStream, code_seed: int = 0,
              fixed_gain: float | None = None) -> bool:
    """One frame: encode a random message, transmit, ML-decode.

    Returns True on a frame error; a tie on the minimum cost counts as an
    error even when the tie-break lands on the transmitted message.
    """
    msg = random_message(params, int(rand.raw(1)[0]))
    symbols = encode(msg, params, code_seed)
    realization = transmit(symbols, model, sigma, rand, fixed_gain=fixed_gain)
    result = ml_decode(realization, params, code_seed)
    return result.decoded != msg or result.tie


def count_errors(params: CodeParams, model: FadingModel, sigma: float,
                 seed: int, start: int, count: int,
                 fixed_gain: float | None = None) -> int:
    """Frame errors among trials [start, start + count), vectorized.

    Reproduces `run_trial` over `trial_stream(seed, t)` with code seed
    `codebook_seed(seed, t)` exactly: same counter layout (message word,
    then gain uniforms, then noise uniforms), same arithmetic, same tie
    rule.  Trials are searched in blocks of `trials_per_block(params)`.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    block = trials_per_block(params)
    return sum(_count_block(params, model, sigma, seed, s,
                            min(block, start + count - s), fixed_gain)
               for s in range(start, start + count, block))


def _count_block(params: CodeParams, model: FadingModel, sigma: float,
                 seed: int, start: int, count: int,
                 fixed_gain: float | None) -> int:
    rows, L = params.num_segments, params.L
    grid_size = rows * L
    indices = np.arange(start, start + count, dtype=np.uint64)
    keys = absorb(absorb(SIM_DOMAIN, np.uint64(seed)), indices)
    hash_keys, rng_keys = code_keys(
        absorb(absorb(CODEBOOK_DOMAIN, np.uint64(seed)), indices))

    msgs = (stream_at(keys, np.uint64(0)) & np.uint64((1 << params.n) - 1)).astype(np.int64)
    pos = 1
    if fixed_gain is not None:
        gains = np.full((count, rows, L), float(fixed_gain))
    else:
        draws = 2 * grid_size if model.kind == RICIAN else grid_size
        ctr = np.arange(pos, pos + draws, dtype=np.uint64)
        u = uniforms_from_raw(stream_at(keys[:, None], ctr[None, :]))
        if model.kind == RICIAN:
            u = u.reshape(count, grid_size, 2)
        gains = gains_from_uniforms(model, u).reshape(count, rows, L)
        pos += draws
    ctr = np.arange(pos, pos + grid_size, dtype=np.uint64)
    noise = sigma * ndtri(uniforms_from_raw(stream_at(keys[:, None], ctr[None, :])))
    noise = noise.reshape(count, rows, L)

    # The sent path: the received frame and the cost C_s of the sent message.
    seg_mask = (1 << params.k) - 1
    spine = np.zeros(count, dtype=np.uint64)
    sent_cost = np.zeros(count)
    received = np.empty_like(noise)
    for a in range(rows):
        seg = (msgs >> (params.n - (a + 1) * params.k)) & seg_mask
        spine = child_spines(hash_keys, spine, seg.astype(np.uint64), params)
        sent = symbol_rows(rng_keys, spine, params)
        received[:, a, :] = gains[:, a, :] * sent + noise[:, a, :]
        sent_cost = sent_cost + ((received[:, a, :] - gains[:, a, :] * sent) ** 2).sum(axis=1)

    segs = np.arange(1 << params.k, dtype=np.uint64)

    def expand(a, trial, spines):
        children = child_spines(hash_keys[trial, None], spines[:, None], segs, params)
        return children, symbol_rows(rng_keys[trial, None], children, params)

    trial, value, _ = tree_search(expand, received, gains, sent_cost + TIE_TOLERANCE)
    return int(np.unique(trial[value != msgs[trial]]).size)


def estimate_fer(params: CodeParams, model: FadingModel, sigma: float,
                 trials: int, seed: int, workers: int = 1,
                 batch: int = DEFAULT_BATCH,
                 early_stop_errors: int | None = None, min_trials: int = 0,
                 fixed_gain: float | None = None) -> FerEstimate:
    """Aggregate `trials` independent trials under the given run seed.

    The result depends only on (seed, trials) and the early-stop settings,
    never on `workers` or `batch`.  Trials run in checkpoints: all of them
    at once, or, with `early_stop_errors` set, fixed 1000-trial checkpoints
    after each of which the point halts once at least that many errors
    have accumulated and at least `min_trials` have run (fixed checkpoints
    keep early-stopped results reproducible).  Each checkpoint is split
    into `count_errors` jobs of at most `batch` trials, at least one per
    worker where it has the trials, and run on `workers` threads.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if workers < 1 or batch < 1:
        raise ConfigurationError(
            f"workers and batch must be >= 1, got {workers} and {batch}")
    if (early_stop_errors is not None and early_stop_errors < 1) or min_trials < 0:
        raise ConfigurationError(f"early stop must be >= 1 and min trials >= 0, "
                                 f"got {early_stop_errors} and {min_trials}")
    step = trials if early_stop_errors is None else EARLY_STOP_BLOCK

    def job(span):
        return count_errors(params, model, sigma, seed, *span, fixed_gain)

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
