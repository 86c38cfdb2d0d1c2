"""Simulation tests: trial semantics, reproducibility, batched-vs-scalar
equivalence, sweep structure."""

import numpy as np
import pytest

from spinalfade import (
    CapacityError,
    CodeParams,
    ConfigurationError,
    FadingModel,
    FerEstimate,
    codebook_seed,
    count_errors,
    estimate_fer,
    run_trial,
    snr_to_sigma,
    sweep,
    trial_stream,
    uniform_theta_grid,
)

from spinalfade import decoder, sim

PARAMS = CodeParams(n=8, k=2, c=8, v=32, L=6)
SMALL = CodeParams(n=4, k=2, c=4, v=32, L=2)


def scalar_loop(params, model, sigma, seed, start, count, fixed_gain=None):
    """Errors of the scalar reference path, trial by trial."""
    return sum(
        run_trial(params, model, sigma, trial_stream(seed, t),
                  code_seed=codebook_seed(seed, t), fixed_gain=fixed_gain)
        for t in range(start, start + count)
    )


def test_run_trial_noiseless_unit_gain_succeeds():
    for t in range(20):
        assert not run_trial(PARAMS, FadingModel.rayleigh(1.0), 1e-9,
                             trial_stream(0, t), fixed_gain=1.0)


def test_run_trial_zero_gain_is_tie_error():
    # all candidates equidistant from pure noise: tie, counted as error
    for t in range(10):
        assert run_trial(PARAMS, FadingModel.rayleigh(1.0), 1.0,
                         trial_stream(1, t), fixed_gain=0.0)


def test_trial_stream_is_per_index_deterministic():
    a = trial_stream(5, 9).raw(16)
    b = trial_stream(5, 9).raw(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_stream(5, 10).raw(16))
    assert not np.array_equal(a, trial_stream(6, 9).raw(16))


@pytest.mark.parametrize("model", [
    FadingModel.rayleigh(1.0),
    FadingModel.nakagami(2.0, 1.0),
    FadingModel.rician(0.5, 1.0),
])
def test_batched_matches_scalar_loop(model):
    # dual implementation: sequential run_trial over per-trial streams and
    # per-trial codebooks vs the vectorized counter-indexed path
    sigma = snr_to_sigma(8.0, model, PARAMS.c)
    seed, trials = 99, 1_000
    loop = sum(
        run_trial(PARAMS, model, sigma, trial_stream(seed, t),
                  code_seed=codebook_seed(seed, t))
        for t in range(trials)
    )
    assert count_errors(PARAMS, model, sigma, seed, 0, trials) == loop


@pytest.mark.parametrize("params, model, snr_db, fixed_gain, start", [
    # 30 dB: the frontier is the sent path plus its siblings
    (PARAMS, FadingModel.rician(1.0, 1.0), 30.0, None, 0),
    # zero gain: every candidate ties, so nothing is pruned
    (PARAMS, FadingModel.rayleigh(1.0), 10.0, 0.0, 0),
    # v=4: spine collisions give exact cost ties between candidates
    (CodeParams(n=8, k=2, c=4, v=4, L=3), FadingModel.rayleigh(1.0), 12.0, None, 0),
    (CodeParams(n=8, k=1, c=4, v=32, L=3), FadingModel.nakagami(0.5, 1.0), 6.0, None, 0),
    (CodeParams(n=9, k=3, c=6, v=32, L=2), FadingModel.rician(0.5, 1.0), 4.0, None, 0),
    (PARAMS, FadingModel.nakagami(2.0, 1.0), 2.0, None, 12_345),
])
def test_frontier_matches_scalar_loop(params, model, snr_db, fixed_gain, start):
    sigma = snr_to_sigma(snr_db, model, params.c)
    loop = scalar_loop(params, model, sigma, 11, start, 300, fixed_gain)
    assert count_errors(params, model, sigma, 11, start, 300, fixed_gain) == loop


def test_paper_batch_is_searched_in_one_block():
    assert decoder.trials_per_block(PARAMS) >= sim.DEFAULT_BATCH


@pytest.mark.parametrize("fixed_gain, snr_db", [(0.0, 10.0), (None, 0.0)])
def test_split_blocks_match_scalar_loop(monkeypatch, fixed_gain, snr_db):
    # n=16 with a budget of two worst-case trials: 5 trials in 3 blocks
    params = CodeParams(n=16, k=2, c=8, v=32, L=2)
    monkeypatch.setattr(decoder, "MEMORY_BUDGET", 2 * decoder.tree_bytes(params))
    assert decoder.trials_per_block(params) == 2
    model = FadingModel.rayleigh(1.0)
    sigma = snr_to_sigma(snr_db, model, params.c)
    loop = scalar_loop(params, model, sigma, 2, 3, 5, fixed_gain)
    assert count_errors(params, model, sigma, 2, 3, 5, fixed_gain) == loop


def test_trial_over_budget_is_capacity_error(monkeypatch):
    monkeypatch.setattr(decoder, "MEMORY_BUDGET", decoder.tree_bytes(PARAMS) - 1)
    with pytest.raises(CapacityError):
        count_errors(PARAMS, FadingModel.rayleigh(1.0), 1.0, 0, 0, 1)


def test_estimate_fer_noiseless_unit_gain_zero():
    est = estimate_fer(PARAMS, FadingModel.rayleigh(1.0), 1e-9, 1_000, seed=0,
                       fixed_gain=1.0)
    assert est.fer == 0.0


def test_estimate_fer_reproducible():
    model = FadingModel.rician(1.0, 1.0)
    sigma = snr_to_sigma(10.0, model, PARAMS.c)
    a = estimate_fer(PARAMS, model, sigma, 5_000, seed=3)
    b = estimate_fer(PARAMS, model, sigma, 5_000, seed=3)
    assert (a.trials, a.errors) == (b.trials, b.errors)


def test_estimate_fer_worker_and_batch_invariant():
    model = FadingModel.nakagami(2.0, 1.0)
    sigma = snr_to_sigma(6.0, model, PARAMS.c)
    base = estimate_fer(PARAMS, model, sigma, 4_000, seed=4)
    for workers, batch in ((2, 512), (4, 333), (3, 4_096)):
        alt = estimate_fer(PARAMS, model, sigma, 4_000, seed=4,
                           workers=workers, batch=batch)
        assert (alt.trials, alt.errors) == (base.trials, base.errors)


def test_estimate_fer_half_split_consistency():
    model = FadingModel.rayleigh(1.0)
    sigma = snr_to_sigma(8.0, model, PARAMS.c)
    trials = 20_000
    full = estimate_fer(PARAMS, model, sigma, trials, seed=5)
    first = count_errors(PARAMS, model, sigma, 5, 0, trials // 2)
    second = count_errors(PARAMS, model, sigma, 5, trials // 2, trials // 2)
    assert first + second == full.errors
    half = FerEstimate(trials=trials // 2, errors=first)
    other = FerEstimate(trials=trials // 2, errors=second)
    spread = np.hypot(half.stderr, other.stderr)
    assert abs(half.fer - other.fer) < 3 * spread


def test_estimate_fer_early_stop_deterministic():
    model = FadingModel.rayleigh(1.0)
    sigma = snr_to_sigma(2.0, model, PARAMS.c)
    a = estimate_fer(PARAMS, model, sigma, 50_000, seed=6, early_stop_errors=100)
    b = estimate_fer(PARAMS, model, sigma, 50_000, seed=6, early_stop_errors=100)
    assert (a.trials, a.errors) == (b.trials, b.errors)
    assert a.errors >= 100
    assert a.trials < 50_000          # high-FER point stops early
    assert a.trials % 1_000 == 0      # fixed checkpoints
    c = estimate_fer(PARAMS, model, sigma, 50_000, seed=6,
                     early_stop_errors=100, min_trials=5_000)
    assert c.trials >= 5_000


def test_early_stop_uses_workers_and_batch(monkeypatch):
    model = FadingModel.rayleigh(1.0)
    sigma = snr_to_sigma(2.0, model, PARAMS.c)
    base = estimate_fer(PARAMS, model, sigma, 50_000, seed=6, early_stop_errors=100)
    counts = []
    right = sim.count_errors

    def recording(*args):
        counts.append(args[5])
        return right(*args)

    monkeypatch.setattr(sim, "count_errors", recording)
    # batch caps a job; with the default batch, a 1000-trial checkpoint is
    # still shared out among the workers
    for workers, batch in ((2, 250), (4, sim.DEFAULT_BATCH)):
        counts.clear()
        alt = estimate_fer(PARAMS, model, sigma, 50_000, seed=6, workers=workers,
                           batch=batch, early_stop_errors=100)
        assert (alt.trials, alt.errors) == (base.trials, base.errors)
        assert sum(counts) == alt.trials and max(counts) <= 250


def test_estimate_fer_rejects_bad_workers_and_batch():
    for kwargs in (dict(workers=0), dict(batch=0)):
        with pytest.raises(ConfigurationError):
            estimate_fer(SMALL, FadingModel.rayleigh(1.0), 1.0, 100, seed=0, **kwargs)


def test_estimate_fer_rejects_bad_early_stop_and_min_trials():
    for kwargs in (dict(early_stop_errors=0), dict(early_stop_errors=-5),
                   dict(min_trials=-3)):
        with pytest.raises(ConfigurationError):
            estimate_fer(SMALL, FadingModel.rayleigh(1.0), 1.0, 5000, seed=0, **kwargs)


def test_fer_estimate_fields():
    est = FerEstimate(trials=400, errors=100)
    assert est.fer == 0.25
    assert est.stderr == pytest.approx(np.sqrt(0.25 * 0.75 / 400))
    with pytest.raises(ConfigurationError):
        FerEstimate(trials=10, errors=11)


def test_sweep_rows_and_fields():
    model = FadingModel.rician(0.5, 1.0)
    grid = uniform_theta_grid(20)
    snrs = [0.0, 6.0, 12.0]
    rows = sweep(SMALL, model, snrs, 2_000, seed=7, grid=grid)
    assert [r.snr_db for r in rows] == snrs
    for row in rows:
        assert row.sigma == snr_to_sigma(row.snr_db, model, SMALL.c)
        assert row.bound.segment_bounds.size == SMALL.num_segments
        assert 0.0 <= row.fer.fer <= 1.0


def test_sweep_bound_dominates_small():
    model = FadingModel.rayleigh(1.0)
    rows = sweep(SMALL, model, [0.0, 5.0, 10.0, 15.0], 4_000, seed=8,
                 grid=uniform_theta_grid(20))
    for row in rows:
        assert row.fer.fer <= row.bound.pe + 3 * row.fer.stderr


def test_sweep_fer_monotone_within_noise():
    model = FadingModel.rayleigh(1.0)
    rows = sweep(SMALL, model, list(np.arange(0.0, 20.1, 4.0)), 4_000, seed=9,
                 grid=uniform_theta_grid(20))
    for a, b in zip(rows, rows[1:]):
        spread = np.hypot(a.fer.stderr, b.fer.stderr)
        assert b.fer.fer <= a.fer.fer + 3 * spread


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigurationError):
        sweep(SMALL, FadingModel.rayleigh(1.0), [], 100, 0, uniform_theta_grid(5))
