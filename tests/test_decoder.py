"""Decoder tests: cost contract, oracle equivalence, tie semantics."""

import ast
import inspect
import math
import textwrap
import time
from collections import Counter

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
    Message,
    brute_force_decode,
    candidate_cost,
    encode,
    ml_decode,
    sample_gains,
    transmit,
)
from spinalfade import decoder
from spinalfade.decoder import TIE_TOLERANCE, lookahead_thresholds, tree_search

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


def test_ml_decode_noiseless_recovers_message(constant_gain):
    constant_gain(1.0)
    params = CodeParams(n=8, k=2, c=8, L=6)
    msg = Message(value=171, n=8)
    symbols = encode(msg, params)
    real = transmit(symbols, FadingModel.rayleigh(1.0), 1e-300, CounterStream(3))
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


def test_forced_hash_collision_produces_tie(constant_gain):
    # Noiseless channel: the transmitted message and its collision partner
    # both sit at cost zero, so the minimum is tied.
    constant_gain(1.0)
    params = CodeParams(n=8, k=2, c=2, v=4, L=2)
    first, second = find_colliding_pair(params)
    symbols = encode(Message(value=first, n=params.n), params)
    real = transmit(symbols, FadingModel.rayleigh(1.0), 1e-300, CounterStream(7))
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
    # n=24, k=2, L=6: building the candidate table would take about 3 GiB
    params = CodeParams(n=24, k=2, c=8, L=6)
    real = ChannelRealization(gains=np.zeros((12, 6)),
                              received=np.zeros((12, 6)), sigma=1.0)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        ml_decode(real, params)
    assert time.perf_counter() - start < 1.0


def test_ml_decode_rejects_table_of_other_code():
    params = CodeParams(n=8, k=2, c=8, L=6)
    real = make_realization(params, 77, 30.0, 1)
    table = CandidateTable(params, seed=0)
    assert ml_decode(real, params, 0, table) == ml_decode(real, params, 0)
    with pytest.raises(ConfigurationError):
        ml_decode(real, params, 1, table)
    with pytest.raises(ConfigurationError):
        ml_decode(real, params, 0, CandidateTable(CodeParams(n=8, k=2, c=8, L=5)))


@pytest.mark.parametrize("params, frames", [(CodeParams(n=10, k=2, c=4, v=32, L=3), 2),
                                            (CodeParams(n=12, k=3, c=6, v=8, L=2), 2),
                                            (CodeParams(n=12, k=1, c=2, v=32, L=1), 3)])
def test_split_search_matches_brute_force(monkeypatch, params, frames):
    # A search budget of two or three frames' widest level: the two
    # zero-gain frames, whose searches keep the whole tree, the others and
    # the prefixes held beside them do not fit it together (at k=1 the
    # sigma=30 frame keeps most of the tree too), so they are searched in
    # parts.
    width, rows, L = 1 << params.k, params.num_segments, params.L
    budget = frames * width ** (rows - 1) * 8 * (width * (2 * L + 9) + 3 * L + 6)
    reals = [make_realization(params, value, sigma, key, model)
             for value, sigma, key, model in (
                 (5, 0.3, 1, FadingModel.rayleigh(1.0)),
                 (600, 3.0, 2, FadingModel.nakagami(2.0)),
                 (77, 30.0, 3, FadingModel.rician(1.0)))]
    for key in (4, 5):
        noise = CounterStream(key).normals(rows * L).reshape(rows, L)
        reals.append(ChannelRealization(gains=np.zeros((rows, L)),
                                        received=noise, sigma=1.0))
    table = CandidateTable(params)
    splits = []
    descend = decoder._descend

    def recording(*args):
        reached = descend(*args)
        splits.append(reached.level < args[6])
        return reached

    monkeypatch.setattr(decoder, "_descend", recording)
    monkeypatch.setattr(decoder, "MEMORY_BUDGET", budget)
    costs = table.costs(np.stack([r.received for r in reals]),
                        np.stack([r.gains for r in reals]))
    assert any(splits)
    for row, real in zip(costs, reals):
        fast = decoder._result_from_costs(row, params)
        oracle = brute_force_decode(real, params)
        assert (fast.decoded, fast.tie) == (oracle.decoded, oracle.tie)
        assert math.isclose(fast.min_cost, oracle.min_cost, rel_tol=1e-9)


def test_decode_rejects_shape_mismatch(monkeypatch):
    # before any table is built: at n=24 one would pass the budget, but the
    # frame's shape is the fault, so that is what is reported
    def no_table(*args):
        raise AssertionError("candidate table built for a misshapen frame")

    monkeypatch.setattr(CandidateTable, "__init__", no_table)
    for params, shape in ((SMALL, (3, 2)), (CodeParams(n=24, k=2, c=8, L=6), (12, 5))):
        real = ChannelRealization(gains=np.ones(shape), received=np.zeros(shape),
                                  sigma=1.0)
        with pytest.raises(ConfigurationError):
            ml_decode(real, params)


@st.composite
def decode_cases(draw):
    k = draw(st.integers(1, 4))
    n = k * draw(st.integers(1, 8 // k))
    params = CodeParams(n=n, k=k, c=draw(st.integers(1, 8)),
                        v=draw(st.one_of(st.integers(1, 4), st.integers(5, 64))),
                        L=draw(st.integers(1, 12)))
    model = draw(st.sampled_from([
        FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, omega=0.5),
        FadingModel.rician(1.0, omega=2.0)]))
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    code_seed = draw(st.integers(0, 2 ** 32))
    symbols = encode(Message(value=draw(st.integers(0, (1 << n) - 1)), n=n),
                     params, code_seed)
    stream = CounterStream(draw(st.integers(0, 2 ** 63)))
    if draw(st.booleans()):
        return params, code_seed, transmit(symbols, model, sigma, stream)
    # zero gain: every candidate ties on the pure-noise frame
    received = sigma * stream.normals(symbols.size).reshape(symbols.shape)
    return params, code_seed, ChannelRealization(
        gains=np.zeros_like(received), received=received, sigma=sigma)


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


def sent_path_cost(received, gains, sent):
    """Costs of the sent leaves, summed as `tree_search` does: passes left
    to right within a row, rows root to leaf."""
    cost = np.zeros(len(received))
    for a in range(received.shape[1]):
        row = np.zeros(len(received))
        for j in range(received.shape[2]):
            row = row + (received[:, a, j] - gains[:, a, j] * sent[:, a, j]) ** 2
        cost = cost + row
    return cost


def assert_lookahead_keeps_leaves(params, code_seed, msgs, received, gains,
                                  threshold):
    """The lookahead search returns exactly the plain search's leaves.

    `received` and `gains` come frame-major, (B, n/k, L), and are handed
    to the searches pass-major."""
    expand, width = CandidateTable(params, code_seed)._expand, 1 << params.k
    received, gains = received.transpose(1, 2, 0), gains.transpose(1, 2, 0)
    plain = tree_search(expand, width, received, gains,
                        np.broadcast_to(threshold, received.shape[::2]))
    look = tree_search(expand, width, received, gains, lookahead_thresholds(
        received, gains, params.symbol_mask, threshold))
    assert_same_frontier(plain, look)
    assert {(t, v) for t, v in zip(plain.trial, plain.value)} >= set(enumerate(msgs))


FRONTIER_FIELDS = ("trial", "node", "value", "cost")


def assert_same_frontier(want, got):
    assert want.level == got.level
    for field in FRONTIER_FIELDS:
        a, b = getattr(want, field), getattr(got, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def take(frontier, index):
    """The prefixes of `frontier` at `index`, in that order."""
    return frontier._replace(**{field: getattr(frontier, field)[index]
                                for field in FRONTIER_FIELDS})


@st.composite
def search_cases(draw):
    k = draw(st.integers(1, 3))
    n = k * draw(st.integers(1, 10 // k))
    params = CodeParams(n=n, k=k, c=draw(st.integers(1, 8)),
                        v=draw(st.one_of(st.integers(1, 4), st.integers(5, 64))),
                        L=draw(st.integers(1, 12)))
    model = draw(st.sampled_from([
        FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, omega=0.5),
        FadingModel.rician(1.0, omega=2.0)]))
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    code_seed = draw(st.integers(0, 2 ** 32))
    msgs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    sent = np.stack([encode(Message(value=m, n=n), params, code_seed)
                     for m in msgs]).astype(np.float64)
    reals = [transmit(s, model, sigma, CounterStream(draw(st.integers(0, 2 ** 63))))
             for s in sent]
    received = np.stack([r.received for r in reals])
    gains = np.stack([r.gains for r in reals])
    for i in range(len(msgs)):
        if draw(st.booleans()):         # zero gain: every leaf ties
            received[i] -= gains[i] * sent[i]
            gains[i] = 0.0
    return params, code_seed, msgs, received, gains, sent


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.sampled_from([0.0, TIE_TOLERANCE]))
def test_lookahead_search_matches_plain_search_property(case, slack):
    params, code_seed, msgs, received, gains, sent = case
    threshold = sent_path_cost(received, gains, sent) + slack
    assert_lookahead_keeps_leaves(params, code_seed, msgs, received, gains,
                                  threshold)


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.data())
def test_resumed_search_matches_uninterrupted_property(case, data):
    params, code_seed, msgs, received, gains, sent = case
    expand, width = CandidateTable(params, code_seed)._expand, 1 << params.k
    threshold = sent_path_cost(received, gains, sent) + TIE_TOLERANCE
    received, gains = received.transpose(1, 2, 0), gains.transpose(1, 2, 0)
    thresholds = lookahead_thresholds(received, gains, params.symbol_mask,
                                      threshold)
    whole = tree_search(expand, width, received, gains, thresholds)
    level = data.draw(st.integers(0, params.num_segments))
    part = tree_search(expand, width, received, gains, thresholds, stop=level)
    assert part.level == level
    assert_same_frontier(whole, tree_search(expand, width, received, gains,
                                            thresholds, start=part))


def test_greedy_descent_from_root_gives_one_leaf_per_frame():
    params = CodeParams(n=8, k=2, c=4, v=32, L=3)
    table = CandidateTable(params)
    reals = [make_realization(params, value, 1.0, key)
             for value, key in ((3, 4), (3, 5), (250, 6), (77, 7))]
    received = np.stack([r.received for r in reals]).transpose(1, 2, 0)
    gains = np.stack([r.gains for r in reals]).transpose(1, 2, 0)
    leaf = tree_search(table._expand, 4, received, gains, None)
    assert leaf.level == params.num_segments
    assert np.array_equal(leaf.trial, np.arange(len(reals)))
    for t, real in enumerate(reals):
        exact = candidate_cost(Message(value=int(leaf.value[t]), n=params.n),
                               real, params)
        assert math.isclose(leaf.cost[t], exact, rel_tol=1e-12)
    # resumed from its own level-2 prefixes, the descent ends in the same leaves
    half = tree_search(table._expand, 4, received, gains, None, stop=2)
    assert_same_frontier(leaf, tree_search(table._expand, 4, received, gains, None,
                                           start=half))
    # and from a reordered subset of them, in the order given
    sub = take(half, np.array([2, 0]))
    assert_same_frontier(take(leaf, np.array([2, 0])),
                         tree_search(table._expand, 4, received, gains, None, start=sub))
    empty = tree_search(table._expand, 4, received, gains, None,
                        start=take(half, np.array([], dtype=np.intp)))
    assert empty.trial.size == 0 and empty.level == params.num_segments


def test_search_loop_operations_per_level():
    # CandidateTable.costs runs this loop once per level for each of its two
    # searches, so resuming, stopping and splitting a search are set up
    # outside it: these are the numpy calls, operators and subscripts of one
    # level.  The budget check comes first and is plain int arithmetic, one
    # len() and one comparison; the Frontier it builds is made only when the
    # search is about to be split.
    source = textwrap.dedent(inspect.getsource(decoder._descend))
    loop = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.For))
    ops = Counter(type(node).__name__ for stmt in loop.body
                  for node in ast.walk(stmt)
                  if isinstance(node, (ast.Call, ast.BinOp, ast.AugAssign,
                                       ast.Compare, ast.Subscript)))
    assert ops == {"Call": 12, "Subscript": 9, "AugAssign": 3, "Compare": 3,
                   "BinOp": 2}
    check = loop.body[0]
    assert ast.unparse(check.test) == "len(trial) > most"
    assert [type(node).__name__ for node in check.body] == ["Return"]


@pytest.mark.parametrize("h", [1.0, 0.5, 3.0, 0.1, 1 / 3, 0.7])
def test_lookahead_keeps_leaf_on_half_integer_ratio(h):
    # y/h sits on a half-integer at every symbol, so every row of the sent
    # leaf costs exactly its lower bound (up to rounding) and the sent leaf
    # sits exactly at the threshold: no margin is left to spare.
    params = CodeParams(n=8, k=2, c=3, v=32, L=3)
    msgs = [0, 90, 255]
    sent = np.stack([encode(Message(value=m, n=8), params)
                     for m in msgs]).astype(np.float64)
    gains = np.full(sent.shape, h)
    received = gains * (sent + 0.5)
    threshold = sent_path_cost(received, gains, sent)
    assert_lookahead_keeps_leaves(params, 0, msgs, received, gains, threshold)


def test_lookahead_zero_gain_zero_received_reads_as_symbol_zero():
    # 0/0 in y/h: all of frame 0, and the first row of frame 1, are silent.
    params = CodeParams(n=6, k=2, c=4, v=32, L=2)
    msgs = [5, 41]
    sent = np.stack([encode(Message(value=m, n=6), params)
                     for m in msgs]).astype(np.float64)
    gains = np.ones(sent.shape)
    gains[0] = 0.0
    gains[1, 0] = 0.0
    received = gains * sent
    thresholds = lookahead_thresholds(received.transpose(1, 2, 0),
                                      gains.transpose(1, 2, 0),
                                      params.symbol_mask, np.zeros(2))
    assert np.all(np.isfinite(thresholds))
    assert_lookahead_keeps_leaves(params, 0, msgs, received, gains, np.zeros(2))
