"""Decoder tests: cost contract, oracle equivalence, tie semantics."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinalfade import (
    CandidateTable,
    CapacityError,
    ChannelRealization,
    CodeParams,
    CounterStream,
    FadingModel,
    Message,
    brute_force_decode,
    candidate_cost,
    encode,
    ml_decode,
    sample_gains,
    transmit,
)

SMALL = CodeParams(n=4, k=2, c=2, v=32, L=2)


def make_realization(params, msg_value, sigma, stream_key, model=None):
    model = model or FadingModel.rayleigh(1.0)
    symbols = encode(Message(value=msg_value, n=params.n), params)
    return transmit(symbols, model, sigma, CounterStream(stream_key))


def test_candidate_cost_zero_on_noiseless():
    params = CodeParams(n=8, k=2, c=8, L=6)
    msg = Message(value=90, n=8)
    symbols = encode(msg, params).astype(float)
    real = ChannelRealization(gains=np.ones_like(symbols),
                              received=symbols.copy(), sigma=1.0)
    assert candidate_cost(msg, real, params) == 0.0


def test_candidate_cost_equals_noise_energy():
    params = CodeParams(n=8, k=2, c=8, L=6)
    msg = Message(value=33, n=8)
    symbols = encode(msg, params).astype(float)
    rng = np.random.default_rng(0)
    gains = sample_gains(FadingModel.rayleigh(1.0), symbols.size,
                         CounterStream(1)).reshape(symbols.shape)
    noise = rng.normal(0, 0.7, symbols.shape)
    real = ChannelRealization(gains=gains, received=gains * symbols + noise,
                              sigma=0.7)
    cost = candidate_cost(msg, real, params)
    assert cost == pytest.approx(float((noise ** 2).sum()), rel=1e-12)


def test_candidate_cost_nonnegative():
    params = SMALL
    real = make_realization(params, 5, 2.0, 2)
    for value in range(16):
        assert candidate_cost(Message(value=value, n=4), real, params) >= 0.0


def test_ml_decode_noiseless_recovers_message():
    params = CodeParams(n=8, k=2, c=8, L=6)
    msg = Message(value=171, n=8)
    symbols = encode(msg, params)
    real = transmit(symbols, FadingModel.rayleigh(1.0), 1e-300,
                    CounterStream(3), fixed_gain=1.0)
    result = ml_decode(real, params)
    assert result.decoded == msg
    assert result.min_cost == pytest.approx(0.0, abs=1e-200)
    assert not result.tie


def test_ml_equals_brute_force_random_trials():
    model = FadingModel.rayleigh(1.0)
    for trial in range(200):
        sigma = 0.5 + (trial % 7)
        real = make_realization(SMALL, trial % 16, sigma, 100 + trial, model)
        a = ml_decode(real, SMALL)
        b = brute_force_decode(real, SMALL)
        assert a.decoded == b.decoded
        assert a.min_cost == pytest.approx(b.min_cost, rel=1e-9)
        assert a.tie == b.tie


def test_ml_equals_brute_force_exhaustive_messages():
    for value in range(16):
        for draw in range(5):
            real = make_realization(SMALL, value, 1.5, 1_000 + 16 * draw + value)
            a = ml_decode(real, SMALL)
            b = brute_force_decode(real, SMALL)
            assert a.decoded == b.decoded
            assert a.min_cost == pytest.approx(b.min_cost, rel=1e-9)


def test_optimality_full_scan():
    real = make_realization(SMALL, 7, 1.0, 4)
    result = ml_decode(real, SMALL)
    costs = [candidate_cost(Message(value=v, n=4), real, SMALL)
             for v in range(16)]
    assert result.min_cost == pytest.approx(min(costs), rel=1e-12)
    assert all(c >= result.min_cost - 1e-12 for c in costs)


def test_enumeration_order_does_not_change_result():
    real = make_realization(SMALL, 11, 1.0, 5)
    result = ml_decode(real, SMALL)
    costs = np.array([candidate_cost(Message(value=v, n=4), real, SMALL)
                      for v in range(16)])
    order = np.random.default_rng(6).permutation(16)
    best = min((costs[v], v) for v in order)[1]
    assert best == result.decoded.value


def find_colliding_pair(params, seed=0):
    """Two messages whose full symbol matrices coincide (tiny v)."""
    seen = {}
    for value in range(1 << params.n):
        key = encode(Message(value=value, n=params.n), params, seed).tobytes()
        if key in seen:
            return seen[key], value
        seen[key] = value
    raise AssertionError("no collision found; widen the search")


def test_forced_hash_collision_produces_tie():
    # Noiseless channel: the transmitted message and its collision partner
    # both sit at cost zero, so the minimum is tied.
    params = CodeParams(n=8, k=2, c=2, v=4, L=2)
    first, second = find_colliding_pair(params)
    symbols = encode(Message(value=first, n=params.n), params)
    real = transmit(symbols, FadingModel.rayleigh(1.0), 1e-300,
                    CounterStream(7), fixed_gain=1.0)
    b = brute_force_decode(real, params)
    assert b.tie
    assert b.decoded.value == min(first, second)
    m = ml_decode(real, params)
    assert m.tie
    assert m.decoded == b.decoded
    # exact cost equality between the colliding candidates
    c1 = candidate_cost(Message(value=first, n=8), real, params)
    c2 = candidate_cost(Message(value=second, n=8), real, params)
    assert c1 == c2


def test_capacity_guards():
    big = CodeParams(n=25, k=1, c=2, L=1)
    real = ChannelRealization(gains=np.ones((25, 1)),
                              received=np.zeros((25, 1)), sigma=1.0)
    with pytest.raises(CapacityError):
        ml_decode(real, big)
    mid = CodeParams(n=17, k=1, c=2, L=1)
    real = ChannelRealization(gains=np.ones((17, 1)),
                              received=np.zeros((17, 1)), sigma=1.0)
    with pytest.raises(CapacityError):
        brute_force_decode(real, mid)


def test_ml_decode_over_memory_budget_raises_quickly():
    # n=20, k=2, L=6: a search that prunes nothing needs 272 MiB
    params = CodeParams(n=20, k=2, c=8, L=6)
    real = ChannelRealization(gains=np.zeros((10, 6)),
                              received=np.zeros((10, 6)), sigma=1.0)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        ml_decode(real, params)
    assert time.perf_counter() - start < 1.0


def test_decode_rejects_shape_mismatch():
    real = ChannelRealization(gains=np.ones((3, 2)),
                              received=np.zeros((3, 2)), sigma=1.0)
    with pytest.raises(ValueError):
        ml_decode(real, SMALL)


@st.composite
def decode_cases(draw):
    k = draw(st.integers(1, 4))
    n = k * draw(st.integers(1, 8 // k))
    params = CodeParams(n=n, k=k, c=draw(st.integers(1, 8)),
                        v=draw(st.one_of(st.integers(1, 4), st.integers(5, 64))),
                        L=draw(st.integers(1, 4)))
    model = draw(st.sampled_from([
        FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, omega=0.5),
        FadingModel.rician(1.0, omega=2.0)]))
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    code_seed = draw(st.integers(0, 2 ** 32))
    symbols = encode(Message(value=draw(st.integers(0, (1 << n) - 1)), n=n),
                     params, code_seed)
    stream = CounterStream(draw(st.integers(0, 2 ** 63)))
    return params, code_seed, transmit(symbols, model, sigma, stream,
                                       fixed_gain=draw(st.sampled_from([None, 0.0])))


@settings(max_examples=100, deadline=None)
@given(decode_cases())
def test_ml_decode_matches_brute_force_property(case):
    params, code_seed, real = case
    fast = ml_decode(real, params, code_seed)
    oracle = brute_force_decode(real, params, code_seed)
    assert (fast.decoded, fast.tie) == (oracle.decoded, oracle.tie)
    assert math.isclose(fast.min_cost, oracle.min_cost, rel_tol=1e-9)


def test_candidate_table_costs_batch():
    params = CodeParams(n=8, k=2, c=4, v=32, L=3)
    table = CandidateTable(params)
    reals = [make_realization(params, value, sigma, key, model)
             for value, sigma, key, model in (
                 (13, 0.3, 1, FadingModel.rayleigh(1.0)),
                 (200, 3.0, 2, FadingModel.nakagami(2.0)),
                 (77, 30.0, 3, FadingModel.rician(1.0)))]
    costs = table.costs(np.stack([r.received for r in reals]),
                        np.stack([r.gains for r in reals]))
    assert costs.shape == (3, 1 << params.n)
    for row, real in zip(costs, reals):
        exact = np.array([candidate_cost(Message(value=v, n=params.n), real, params)
                          for v in range(1 << params.n)])
        kept = np.isfinite(row)
        assert kept[np.argmin(exact)]
        np.testing.assert_allclose(row[kept], exact[kept], rtol=1e-9)
