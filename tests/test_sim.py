"""Simulation tests: trial semantics, reproducibility, batched-vs-scalar
equivalence, sweep structure."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinalfade import (
    CandidateTable,
    CapacityError,
    ChannelRealization,
    CodeParams,
    ConfigurationError,
    CounterStream,
    FadingModel,
    FerEstimate,
    Message,
    brute_force_decode,
    candidate_cost,
    codebook_seed,
    count_errors,
    encode,
    estimate_fer,
    ml_decode,
    random_message,
    run_trial,
    snr_to_sigma,
    sweep,
    trial_stream,
    transmit,
    uniform_theta_grid,
)

from spinalfade import bounds, decoder, sim

PARAMS = CodeParams(n=8, k=2, c=8, v=32, L=6)
SMALL = CodeParams(n=4, k=2, c=4, v=32, L=2)


def scalar_loop(params, model, sigma, seed, start, count):
    """Errors of the scalar reference path, trial by trial."""
    return sum(
        run_trial(params, model, sigma, trial_stream(seed, t),
                  code_seed=codebook_seed(seed, t))
        for t in range(start, start + count)
    )


def test_run_trial_noiseless_unit_gain_succeeds(constant_gain):
    constant_gain(1.0)
    for t in range(20):
        assert not run_trial(PARAMS, FadingModel.rayleigh(1.0), 1e-9,
                             trial_stream(0, t))


def test_run_trial_zero_gain_is_tie_error(constant_gain):
    # all candidates equidistant from pure noise: tie, counted as error
    constant_gain(0.0)
    for t in range(10):
        assert run_trial(PARAMS, FadingModel.rayleigh(1.0), 1.0,
                         trial_stream(1, t))


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


@pytest.mark.parametrize("params, model, snr_db, gain, start", [
    # 30 dB: the frontier is the sent path plus its siblings
    (PARAMS, FadingModel.rician(1.0, 1.0), 30.0, None, 0),
    # zero gain: every candidate ties, so nothing is pruned
    (PARAMS, FadingModel.rayleigh(1.0), 10.0, 0.0, 0),
    # v=4: spine collisions give exact cost ties between candidates
    (CodeParams(n=8, k=2, c=4, v=4, L=3), FadingModel.rayleigh(1.0), 12.0, None, 0),
    (CodeParams(n=8, k=1, c=4, v=32, L=3), FadingModel.nakagami(0.5, 1.0), 6.0, None, 0),
    (CodeParams(n=9, k=3, c=6, v=32, L=2), FadingModel.rician(0.5, 1.0), 4.0, None, 0),
    (PARAMS, FadingModel.nakagami(2.0, 1.0), 2.0, None, 12_345),
    # L >= 8, where a left-to-right pass sum and numpy's pairwise sum over
    # a last axis part ways: ties from collisions, then plain costs
    (CodeParams(n=8, k=2, c=4, v=4, L=9), FadingModel.rayleigh(1.0), 12.0, None, 0),
    (CodeParams(n=6, k=2, c=8, v=32, L=12), FadingModel.rician(1.0, 1.0), 4.0, None, 7),
    # n/k = 1: the level-0 frontier is the leaves, so there is nothing to
    # descend; n/k = 2: one level to descend
    (CodeParams(n=8, k=8, c=8, v=32, L=6), FadingModel.rayleigh(1.0), 0.0, None, 0),
    (CodeParams(n=8, k=4, c=8, v=32, L=6), FadingModel.rayleigh(1.0), 2.0, None, 0),
])
def test_frontier_matches_scalar_loop(constant_gain, params, model, snr_db, gain,
                                      start):
    if gain is not None:
        constant_gain(gain)
    sigma = snr_to_sigma(snr_db, model, params.c)
    loop = scalar_loop(params, model, sigma, 11, start, 300)
    assert count_errors(params, model, sigma, 11, start, 300) == loop


@st.composite
def block_cases(draw):
    k = draw(st.integers(1, 3))
    params = CodeParams(n=k * draw(st.integers(1, 10 // k)), k=k,
                        c=draw(st.integers(1, 8)), v=draw(st.integers(2, 32)),
                        L=draw(st.integers(1, 12)))
    model = draw(st.sampled_from([
        FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, 0.5),
        FadingModel.rician(1.0, 2.0)]))
    sigma = snr_to_sigma(draw(st.floats(-5.0, 25.0)), model, params.c)
    silent = draw(st.sets(st.integers(0, 39), max_size=40))   # zero-gain trials
    return (params, model, sigma, draw(st.integers(0, 2 ** 32)),
            draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 40)), silent)


@settings(max_examples=150, deadline=None)
@given(block_cases())
def test_block_matches_one_trial_calls_property(case):
    # A trial is settled by its own siblings and searches alone, so a block
    # counts, and hashes, what its trials do one at a time.  Trial
    # start + t has zero gains for t in `silent`.
    params, model, sigma, seed, start, count, silent = case
    right_gains, right_block, right_spines = (
        sim.gains_from_uniforms, sim._count_block, sim.child_spines)
    first, hashed = [], []

    def gains(model, u):
        out = right_gains(model, u)
        offset = first[-1] - start
        out[..., [t - offset for t in silent if 0 <= t - offset < out.shape[-1]]] = 0.0
        return out

    def count_block(params, model, sigma, seed, block_start, block_count):
        first.append(block_start)
        return right_block(params, model, sigma, seed, block_start, block_count)

    def child_spines(*args):
        out = right_spines(*args)
        hashed.append(out.size)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "gains_from_uniforms", gains)
        patch.setattr(sim, "_count_block", count_block)
        patch.setattr(sim, "child_spines", child_spines)
        block = count_errors(params, model, sigma, seed, start, count)
        block_hashed = sum(hashed)
        hashed.clear()
        alone = sum(count_errors(params, model, sigma, seed, t, 1)
                    for t in range(start, start + count))
    assert first[0] == start and len(first) == count + 1
    assert (block, block_hashed) == (alone, sum(hashed))


def last_level_witness(params, model, sigma, seed, t):
    """Whether trial t of `run_trial`'s route has a non-sent leaf within
    the tie tolerance of the sent cost that differs only in its last
    segment, costed by the flat `candidate_cost`."""
    rand, code_seed = trial_stream(seed, t), codebook_seed(seed, t)
    msg = random_message(params, int(rand.raw(1)[0]))
    real = transmit(encode(msg, params, code_seed), model, sigma, rand)
    sent = candidate_cost(msg, real, params, code_seed)
    return any(candidate_cost(Message(value=msg.value ^ j, n=params.n), real, params,
                              code_seed) <= sent + decoder.TIE_TOLERANCE
               for j in range(1, 1 << params.k))


def test_witnessed_trials_leave_the_search_at_0db(monkeypatch):
    # At 0 dB most trials are errors.  A last-level sibling within the
    # threshold settles its trial before any search; the other trials'
    # surviving siblings are searched one level at a time, deepest first,
    # and a trial with a witness leaf enters no shallower search.
    model = FadingModel.rayleigh(1.0)
    sigma = snr_to_sigma(0.0, model, PARAMS.c)
    calls = []
    search = sim.tree_search

    def recording(expand, width, received, gains, threshold, start=None, stop=None):
        out = search(expand, width, received, gains, threshold, start=start, stop=stop)
        calls.append((threshold, start, out))
        return out

    monkeypatch.setattr(sim, "tree_search", recording)
    errors = count_errors(PARAMS, model, sigma, 3, 0, 500)
    assert all(threshold is not None for threshold, _, _ in calls)
    assert [start.level for _, start, _ in calls] == [3, 2, 1]
    searched = np.concatenate([start.trial for _, start, _ in calls])
    for (_, _, out), (_, later, _) in combinations(calls, 2):
        assert not np.isin(out.trial, later.trial).any()
    settled = [t for t in range(500) if last_level_witness(PARAMS, model, sigma, 3, t)]
    assert settled and not np.isin(settled, searched).any()
    assert errors == len(settled) + sum(np.unique(out.trial).size for _, _, out in calls)


# `count_errors` of the paper code at seed 0, 2,048 trials, at
# PAPER_PIN_SNRS dB: the reproducibility contract, pinned.
PAPER_PIN_SNRS = (0.0, 2.0, 4.0, 8.0, 16.0, 30.0)
PAPER_PINS = [
    (FadingModel.rayleigh(1.0), [1680, 1438, 1111, 394, 14, 0]),
    (FadingModel.nakagami(2.0, 1.0), [1663, 1389, 1023, 319, 12, 0]),
    (FadingModel.rician(0.5, 1.0), [1636, 1389, 1076, 405, 11, 0]),
    (FadingModel.rician(1.0, 1.0), [1627, 1376, 1057, 397, 8, 0]),
]


@pytest.mark.parametrize("model, pinned", PAPER_PINS)
def test_paper_counts_pinned(model, pinned):
    assert [count_errors(PARAMS, model, snr_to_sigma(snr, model, PARAMS.c), 0, 0, 2_048)
            for snr in PAPER_PIN_SNRS] == pinned


def frame_level_bytes(params):
    """The bytes `tree_search` counts for one frame's widest level when
    nothing is pruned: 2^((n/k - 1)k) parents of 8·(2^k·(2L + 9) + 3L + 6)."""
    width, L = 1 << params.k, params.L
    return width ** (params.num_segments - 1) * 8 * (width * (2 * L + 9) + 3 * L + 6)


def recording_splits(monkeypatch):
    """The frontiers at which `tree_search` splits its frames into parts:
    those `decoder._descend` returns short of the level it was asked for."""
    splits = []
    descend = decoder._descend

    def recording(*args):
        reached = descend(*args)
        if reached.level < args[6]:
            splits.append(reached)
        return reached

    monkeypatch.setattr(decoder, "_descend", recording)
    return splits


def leaf_row_below_every_cost(monkeypatch):
    """Lower the last threshold row of `count_errors` below every cost, so
    no sibling settles a trial and no leaf survives."""
    right = sim.lookahead_thresholds

    def no_leaf(*args):
        out = right(*args)
        out[-1] = -1.0
        return out

    monkeypatch.setattr(sim, "lookahead_thresholds", no_leaf)


@pytest.mark.parametrize("n, k", [(12, 1), (13, 1), (14, 1), (12, 2), (14, 2), (12, 6)])
@pytest.mark.parametrize("L", [1, 6, 20])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize("certify", [True, False])
def test_zero_gain_peak_within_tree_bytes(monkeypatch, constant_gain, n, k, L,
                                          trials, certify):
    # Zero gains prune nothing.  A last-level sibling then settles its trial
    # at once; with the leaf row lowered below every cost nothing settles,
    # and the search expands the whole tree but the sent path.  The budget
    # holds two frames' widest level, so eight such frames are searched in
    # parts, and the peak stays within it.
    constant_gain(0.0)
    if not certify:
        leaf_row_below_every_cost(monkeypatch)
    params = CodeParams(n=n, k=k, c=8, v=32, L=L)
    monkeypatch.setattr(decoder, "MEMORY_BUDGET", 2 * frame_level_bytes(params))
    splits = recording_splits(monkeypatch)
    tracemalloc.start()
    try:
        errors = count_errors(params, FadingModel.rayleigh(1.0), 1.0, 0, 0, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors == (trials if certify else 0)
    assert bool(splits) == (trials == 8 and not certify)
    assert peak <= decoder.MEMORY_BUDGET


def test_paper_batch_is_searched_in_one_block(monkeypatch):
    blocks = []
    right = sim._count_block

    def recording(*args):
        blocks.append(args[-1])
        return right(*args)

    monkeypatch.setattr(sim, "_count_block", recording)
    count_errors(PARAMS, FadingModel.rayleigh(1.0), 1.0, 0, 0, sim.DEFAULT_BATCH + 1)
    assert blocks == [sim.DEFAULT_BATCH, 1]


@pytest.mark.parametrize("gain, snr_db", [(0.0, 10.0), (None, 0.0)])
def test_split_blocks_match_scalar_loop(monkeypatch, constant_gain, gain, snr_db):
    # n=12, 40 trials.  Zero gains settle every trial before any search,
    # so there a budget of two trials' block arrays splits them into 20
    # blocks.  At 0 dB the open trials' search frontiers reach 138 prefixes
    # over 7 trials, and 55 for one, so a search budget of 80 parents
    # splits them into parts.
    params = CodeParams(n=12, k=2, c=8, v=32, L=6)
    if gain is not None:
        constant_gain(gain)
    model = FadingModel.rayleigh(1.0)
    sigma = snr_to_sigma(snr_db, model, params.c)
    loop = scalar_loop(params, model, sigma, 2, 3, 40)
    assert count_errors(params, model, sigma, 2, 3, 40) == loop
    blocks = []
    right = sim._count_block
    monkeypatch.setattr(sim, "_count_block",
                        lambda *args: blocks.append(args[-1]) or right(*args))
    splits = recording_splits(monkeypatch)
    if gain is None:
        # 80 parents of 8·(2^k·(2L + 9) + 3L + 6) bytes
        monkeypatch.setattr(decoder, "MEMORY_BUDGET", 80 * 8 * (4 * 21 + 24))
    else:
        # 8·(6·draws + n/k·L + 4·2^k·(n/k + L)) bytes per trial
        monkeypatch.setattr(sim, "MEMORY_BUDGET", 2 * 8 * (6 * 73 + 36 + 16 * 12))
    assert count_errors(params, model, sigma, 2, 3, 40) == loop
    assert (blocks, bool(splits)) == (([40], True) if gain is None else ([2] * 20, False))


def test_trial_over_budget_is_capacity_error(monkeypatch, constant_gain):
    # one frame whose own frontier passes the budget, searched alone or
    # in a block with others
    constant_gain(0.0)
    leaf_row_below_every_cost(monkeypatch)
    monkeypatch.setattr(decoder, "MEMORY_BUDGET", frame_level_bytes(PARAMS) // 2)
    for trials in (1, 5):
        with pytest.raises(CapacityError):
            count_errors(PARAMS, FadingModel.rayleigh(1.0), 1.0, 0, 0, trials)
    # and a code whose block arrays for one trial pass it
    monkeypatch.setattr(sim, "MEMORY_BUDGET", 1 << 10)
    with pytest.raises(CapacityError):
        count_errors(PARAMS, FadingModel.rayleigh(1.0), 1e-9, 0, 0, 1)


def test_estimate_fer_noiseless_unit_gain_zero(constant_gain):
    constant_gain(1.0)
    est = estimate_fer(PARAMS, FadingModel.rayleigh(1.0), 1e-9, 1_000, seed=0)
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


def test_checkpoints_hold_workers_times_batch_jobs(monkeypatch):
    # without early stop, only one checkpoint's jobs and futures are held
    monkeypatch.setattr(sim, "count_errors", lambda *args: 0)
    tracemalloc.start()
    try:
        est = estimate_fer(PARAMS, FadingModel.rayleigh(1.0), 1.0, 20_000, seed=0,
                           workers=2, batch=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.trials, est.errors) == (20_000, 0)
    assert peak < 1 << 20


def test_estimate_fer_rejects_bad_workers_and_batch(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool built for a rejected setting")

    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    for kwargs in (dict(workers=0), dict(workers=sim.MAX_WORKERS + 1), dict(batch=0)):
        with pytest.raises(ConfigurationError):
            estimate_fer(SMALL, FadingModel.rayleigh(1.0), 1.0, 100, seed=0, **kwargs)


@pytest.mark.parametrize("seed, start, count", [
    (0, -5, 10), (0, 0, 0), (0, 2 ** 64 - 1, 2), (-1, 0, 10), (2 ** 64, 0, 10)])
def test_count_errors_rejects_bad_range_and_seed(seed, start, count):
    with pytest.raises(ConfigurationError):
        count_errors(SMALL, FadingModel.rayleigh(1.0), 1.0, seed, start, count)


FRAME = ChannelRealization(gains=np.ones((2, 2)), received=np.ones((2, 2)), sigma=1.0)
SEEDED = {
    "sweep": lambda s: sweep(SMALL, FadingModel.rayleigh(1.0), [0.0], 100, s,
                             uniform_theta_grid(5)),
    "trial_stream-seed": lambda s: trial_stream(s, 0),
    "trial_stream-index": lambda s: trial_stream(0, s),
    "codebook_seed-seed": lambda s: codebook_seed(s, 0),
    "codebook_seed-index": lambda s: codebook_seed(0, s),
    "encode": lambda s: encode(Message(value=1, n=SMALL.n), SMALL, s),
    "CandidateTable": lambda s: CandidateTable(SMALL, s),
    "ml_decode": lambda s: ml_decode(FRAME, SMALL, s),
    "brute_force_decode": lambda s: brute_force_decode(FRAME, SMALL, s),
    "candidate_cost": lambda s: candidate_cost(Message(value=1, n=SMALL.n), FRAME, SMALL, s),
    "run_trial": lambda s: run_trial(SMALL, FadingModel.rayleigh(1.0), 1.0,
                                     CounterStream(0), code_seed=s),
}


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_seed_outside_64_bits_is_configuration_error(call, seed):
    # numpy's uint64 would raise a bare OverflowError instead
    with pytest.raises(ConfigurationError, match="0..2"):
        call(seed)


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


def test_sweep_bound_over_budget_runs_no_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "count_errors", no_trials)
    # two work arrays of 1,000 x 255 pair terms: 4 MiB
    monkeypatch.setattr(bounds, "MEMORY_BUDGET", 1 << 20)
    with pytest.raises(CapacityError):
        sweep(PARAMS, FadingModel.rayleigh(1.0), [0.0, 10.0], 100, 0, uniform_theta_grid(1_000))


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigurationError):
        sweep(SMALL, FadingModel.rayleigh(1.0), [], 100, 0, uniform_theta_grid(5))
