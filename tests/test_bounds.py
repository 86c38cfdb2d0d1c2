"""Bound tests: frozen kernel values, grid construction, closed forms vs
quadrature, Q-function, pairwise-error Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from spinalfade import (
    BoundResult,
    CapacityError,
    CodeParams,
    ConfigurationError,
    CounterStream,
    FadingModel,
    ThetaGrid,
    exp_moment,
    fading_integral_oracle,
    kernel,
    kernel_grid_sum,
    pairwise_error_mc,
    pe_bound,
    q_craig,
    snr_to_sigma,
    tail_symbols,
    uniform_theta_grid,
)
from spinalfade import bounds, cli

HALF_PI = math.pi / 2


# --- theta grid -------------------------------------------------------------

def test_uniform_grid_single_cell():
    grid = uniform_theta_grid(1)
    assert grid.thetas.tolist() == [0.0, HALF_PI]
    assert grid.weights.tolist() == [0.5]


def test_uniform_grid_twenty_cells():
    grid = uniform_theta_grid(20)
    assert grid.thetas.size == 21
    assert np.allclose(grid.weights, 0.025, rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 64, 1000])
def test_uniform_grid_weights_sum_half(N):
    assert abs(float(uniform_theta_grid(N).weights.sum()) - 0.5) <= 1e-12


def test_uniform_grid_rejects_zero():
    with pytest.raises(ConfigurationError):
        uniform_theta_grid(0)


def test_theta_grid_validation():
    for N in (0, -3):
        with pytest.raises(ConfigurationError):
            ThetaGrid(N)


def test_theta_grid_over_budget_is_capacity_error(monkeypatch):
    # about 24 N bytes: 0.92 MiB at N = 40,000, 2.3 MiB at N = 100,000
    monkeypatch.setattr(bounds, "MEMORY_BUDGET", 1 << 20)
    assert uniform_theta_grid(40_000).weights.size == 40_000
    with pytest.raises(CapacityError):
        uniform_theta_grid(100_000)


# --- kernels: frozen values and identities ----------------------------------

def test_kernel_rayleigh_at_zero_theta():
    # only equal pairs survive: 2^(-c * n_sym)
    assert kernel(FadingModel.rayleigh(0.7), 0.0, 1.3, 3, 5) == pytest.approx(
        2.0 ** -15, rel=1e-12)
    assert kernel(FadingModel.nakagami(1.7, 1.0), 0.0, 2.0, 2, 4) == pytest.approx(
        2.0 ** -8, rel=1e-12)
    assert kernel(FadingModel.rician(2.5, 2.0), 0.0, 0.5, 4, 2) == pytest.approx(
        2.0 ** -8, rel=1e-12)


def test_kernel_rayleigh_frozen_value():
    # direct double sum at theta=pi/2, sigma=1, omega=1, c=1: (2 + 2*8/9)/4
    assert kernel(FadingModel.rayleigh(1.0), HALF_PI, 1.0, 1, 1) == pytest.approx(
        17.0 / 18.0, rel=1e-14)


def test_kernel_rayleigh_saturates_at_large_sigma():
    assert kernel(FadingModel.rayleigh(1.0), 1.0, 1e6, 2, 3) == pytest.approx(1.0, abs=1e-6)


def test_kernel_nakagami_frozen_value():
    # (2 + 2*(16/17)^2)/4 = 545/578
    assert kernel(FadingModel.nakagami(2.0, 1.0), HALF_PI, 1.0, 1, 1) == pytest.approx(
        545.0 / 578.0, rel=1e-14)


def test_kernel_rician_frozen_value():
    # (1 + (16/17) * exp(-1/17)) / 2, from an independent nested-sum script
    assert kernel(FadingModel.rician(1.0, 1.0), HALF_PI, 1.0, 1, 1) == pytest.approx(
        0.9437050088728822, rel=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_reduction_identities(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, HALF_PI, size=200)
    sigma = float(rng.uniform(0.1, 10.0))
    omega = float(rng.uniform(0.25, 4.0))
    c = int(rng.integers(1, 9))
    n_sym = int(rng.integers(1, 25))
    ray = kernel(FadingModel.rayleigh(omega), theta, sigma, c, n_sym)
    for model in (FadingModel.nakagami(1.0, omega), FadingModel.rician(0.0, omega)):
        assert np.max(np.abs(kernel(model, theta, sigma, c, n_sym) - ray) / ray) < 1e-12


def test_kernel_monotone_in_theta():
    theta = np.linspace(0.0, HALF_PI, 1_000)
    rng = np.random.default_rng(7)
    for _ in range(20):
        sigma = float(rng.uniform(0.1, 10.0))
        omega = float(rng.uniform(0.25, 4.0))
        c = int(rng.integers(1, 9))
        n_sym = int(rng.integers(1, 25))
        for vals in (
            kernel(FadingModel.rayleigh(omega), theta, sigma, c, n_sym),
            kernel(FadingModel.nakagami(float(rng.uniform(0.5, 4.0)), omega), theta, sigma, c, n_sym),
            kernel(FadingModel.rician(float(rng.uniform(0.0, 4.0)), omega), theta, sigma, c, n_sym),
        ):
            assert np.all(np.diff(vals) >= -1e-12)


def test_kernel_in_unit_interval():
    theta = np.linspace(1e-6, HALF_PI, 100)
    vals = kernel(FadingModel.rayleigh(2.0), theta, 0.4, 6, 12)
    assert np.all(vals > 0) and np.all(vals <= 1.0)


# --- grid sums ---------------------------------------------------------------

def test_grid_sum_single_cell_is_half_endpoint():
    model = FadingModel.rayleigh(1.0)
    grid = uniform_theta_grid(1)
    expected = 0.5 * kernel(model, HALF_PI, 1.0, 2, 3)
    assert kernel_grid_sum(model, 3, 1.0, 2, grid) == pytest.approx(expected, rel=1e-14)


def test_grid_sum_refinement_is_nonincreasing():
    model = FadingModel.nakagami(2.0, 1.0)
    values = [kernel_grid_sum(model, 6, 1.0, 4, uniform_theta_grid(N))
              for N in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_grid_sum_dominates_integral_with_vanishing_gap():
    # Right-endpoint rule over an increasing integrand: always an
    # over-estimate, with O(1/N) relative gap.  Measured at these
    # parameters: 7.9% at N=20, halving per doubling of N.
    model = FadingModel.rayleigh(1.0)
    sigma, c, n_sym = 1.0, 8, 6
    integral = quad(lambda t: kernel(model, t, sigma, c, n_sym),
                    0.0, HALF_PI, limit=200)[0] / math.pi
    gap20 = kernel_grid_sum(model, n_sym, sigma, c, uniform_theta_grid(20)) / integral - 1.0
    gap80 = kernel_grid_sum(model, n_sym, sigma, c, uniform_theta_grid(80)) / integral - 1.0
    assert 0.0 < gap20 < 0.10
    assert 0.0 < gap80 < 0.02


# --- per-segment and frame bounds --------------------------------------------

def test_tail_symbols():
    params = CodeParams(n=8, k=2, c=8, L=6)
    assert tail_symbols(params, 1) == 24
    assert tail_symbols(params, 4) == 6
    assert tail_symbols(params, np.arange(1, 5)).tolist() == [24, 18, 12, 6]
    for bad in (0, 5, np.array([0, 1, 2]), np.array([3, 4, 5])):
        with pytest.raises(ValueError):
            tail_symbols(params, bad)


@pytest.mark.parametrize("model", [
    FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, 1.0), FadingModel.rician(0.5, 1.0),
], ids=["rayleigh", "nakagami", "rician"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 4, 8])
@pytest.mark.parametrize("N", [1, 20, 333])
def test_segment_bounds_are_clamped_grid_sums(model, k, c, N):
    # Segment a: (2^k - 1) * 2^(n - a*k) candidates first differ there,
    # each bounded by the grid sum over its tail symbols; clamped to 1,
    # which sigma = 1e4 reaches at segment 1.
    params = CodeParams(n=4 * k, k=k, c=c, L=6)
    grid = uniform_theta_grid(N)
    for sigma in (0.3, 3.0, 1e4):
        eps = pe_bound(params, model, sigma, grid).segment_bounds
        for a in range(1, params.num_segments + 1):
            mult = ((1 << k) - 1) * 2.0 ** (params.n - a * k)
            grid_sum = kernel_grid_sum(model, tail_symbols(params, a), sigma, c, grid)
            assert eps[a - 1] == min(1.0, mult * grid_sum)
    assert pe_bound(params, model, 1e4, grid).segment_bounds[0] == 1.0


def test_pe_bound_calls_kernel_once(monkeypatch):
    calls = []
    pristine = bounds.kernel

    def counted(*args):
        calls.append(args)
        return pristine(*args)

    monkeypatch.setattr(bounds, "kernel", counted)
    pe_bound(CodeParams(n=8, k=2, c=8, L=6), FadingModel.rayleigh(1.0), 1.0,
             uniform_theta_grid(20))
    assert len(calls) == 1


ARRAY_MODELS = [FadingModel.rayleigh(1.0), FadingModel.nakagami(0.5, 1.0),
                FadingModel.nakagami(2.0, 1.0), FadingModel.nakagami(2.7, 1.0),
                FadingModel.rician(0.0, 1.0), FadingModel.rician(0.5, 1.0),
                FadingModel.rician(3.0, 1.0)]
ARRAY_IDS = ["rayleigh", "nakagami-0.5", "nakagami-2", "nakagami-2.7",
             "rician-0", "rician-0.5", "rician-3"]


@pytest.mark.parametrize("model", ARRAY_MODELS, ids=ARRAY_IDS)
@pytest.mark.parametrize("c", [1, 4, 8, 10])
@pytest.mark.parametrize("N", [1, 20, 97])
def test_pe_bound_array_equals_points(model, c, N):
    # n/k = 16 segments: at c = 1 and c = 4 the kernel rows, not the pair
    # terms, size the chunk.  Grid sizes put a chunk boundary on every side.
    params = CodeParams(n=16, k=1, c=c, L=6)
    grid = uniform_theta_grid(N)
    per = bounds._points_per_chunk(params, N)
    for size in sorted({1, per - 1, per, per + 1, 61} - {0}):
        sigmas = [snr_to_sigma(snr, model, c) for snr in np.linspace(-10.0, 40.0, size)]
        result = pe_bound(params, model, np.array(sigmas), grid)
        assert result.segment_bounds.shape == (size, params.num_segments)
        assert result.pe.shape == (size,)
        for i, sigma in enumerate(sigmas):
            want = pe_bound(params, model, sigma, grid)
            assert result.pe[i] == want.pe
            assert np.array_equal(result.segment_bounds[i], want.segment_bounds)
            got = result.row(i)
            assert got.pe == want.pe and type(got.pe) is float
            assert np.array_equal(got.segment_bounds, want.segment_bounds)


def test_bound_cli_calls_kernel_once_per_chunk(monkeypatch, capsys):
    calls = []
    pristine = bounds.kernel

    def counted(*args):
        calls.append(args)
        return pristine(*args)

    monkeypatch.setattr(bounds, "kernel", counted)
    assert cli.main(["bound", "--snr-start", "0", "--snr-stop", "30",
                     "--snr-step", "0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 62
    per = bounds._CHUNK // (20 * 255)       # N = 20 cells, 2^8 - 1 pairs
    assert per == 6
    assert len(calls) == math.ceil(61 / per)
    assert [np.size(args[2]) for args in calls] == [per] * 10 + [1]


@pytest.mark.parametrize("model", [FadingModel.rayleigh(1.0), FadingModel.nakagami(2.7, 1.0),
                                   FadingModel.rician(3.0, 1.0)],
                         ids=["rayleigh", "nakagami", "rician"])
def test_kernel_scale_overflow_anywhere_in_a_chunk(model):
    # 8 * scale * sigma^2 overflows at 1e200 only; no RuntimeWarning (an
    # error under the test settings) may come out first
    params = CodeParams(n=8, k=2, c=8, L=6)
    grid = uniform_theta_grid(20)
    per = bounds._points_per_chunk(params, 20)
    for at in [*range(per), per + 2]:
        sigmas = np.ones(2 * per)
        sigmas[at] = 1e200
        with pytest.raises(ConfigurationError, match="overflows"):
            pe_bound(params, model, sigmas, grid)


def test_pe_bound_theta_grid_over_budget_is_capacity_error(monkeypatch):
    # two work arrays of N x 255 pair terms: 0.78 MiB at N = 200, 3.9 MiB at 1,000
    monkeypatch.setattr(bounds, "MEMORY_BUDGET", 1 << 20)
    params, model = CodeParams(n=8, k=2, c=8, L=6), FadingModel.rayleigh(1.0)
    pe_bound(params, model, 1.0, uniform_theta_grid(200))
    with pytest.raises(CapacityError):
        pe_bound(params, model, 1.0, uniform_theta_grid(1_000))


def test_pe_bound_sigma_column_over_budget_is_capacity_error(monkeypatch):
    # 1,100 segment bounds per point: the results of 10 points fit beside
    # one point's 0.34 MiB of kernel rows, those of 100 points (1.7 MiB) do not
    monkeypatch.setattr(bounds, "MEMORY_BUDGET", 1 << 20)
    params, model = CodeParams(n=1100, k=1, c=8, L=1), FadingModel.rayleigh(1.0)
    sigmas = np.linspace(0.5, 5.0, 100)
    assert pe_bound(params, model, sigmas[:10], uniform_theta_grid(20)).pe.shape == (10,)
    with pytest.raises(CapacityError):
        pe_bound(params, model, sigmas, uniform_theta_grid(20))


def test_pe_bound_sigma_shapes():
    params, model = CodeParams(n=8, k=2, c=8, L=6), FadingModel.rayleigh(1.0)
    grid = uniform_theta_grid(20)
    empty = pe_bound(params, model, [], grid)
    assert empty.segment_bounds.shape == (0, params.num_segments)
    assert empty.pe.shape == (0,)
    one = pe_bound(params, model, 1.0, grid)
    assert one.segment_bounds.shape == (params.num_segments,)
    assert type(one.pe) is float
    assert kernel(model, grid.thetas[1:], np.array([]), 8, 2).shape == (0, 20)
    with pytest.raises(ValueError):
        pe_bound(params, model, np.ones((2, 2)), grid)


def test_pe_bound_saturates_in_deep_noise():
    params = CodeParams(n=8, k=2, c=8, L=6)
    result = pe_bound(params, FadingModel.rayleigh(1.0), 1e5, uniform_theta_grid(20))
    assert np.all(result.segment_bounds == 1.0)
    assert result.pe == 1.0


SHAPE = {"nakagami": "m", "rician": "K"}
IN_RANGE = dict(omega=st.sampled_from([1e-6, 1e6]) | st.floats(1e-6, 1e6),
                m=st.sampled_from([0.5, 8.0]) | st.floats(0.5, 8.0),
                K=st.sampled_from([0.0, 8.0]) | st.floats(0.0, 8.0))
OUT_OF_RANGE = dict(omega=st.floats(max_value=0.0) | st.just(math.nan),
                    m=st.floats(max_value=0.4999) | st.just(math.nan),
                    K=st.floats(max_value=-1e-9) | st.just(math.nan))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["rayleigh", "nakagami", "rician"]), st.data())
def test_fading_model_ranges(kind, data):
    names = ["omega"] + ([SHAPE[kind]] if kind in SHAPE else [])
    out = data.draw(st.sampled_from([None, *names]))
    fields = {name: data.draw((OUT_OF_RANGE if name == out else IN_RANGE)[name])
              for name in names}
    if out is not None:
        with pytest.raises(ConfigurationError):
            FadingModel(kind=kind, **fields)
        return
    model = FadingModel(kind=kind, **fields)
    c = data.draw(st.integers(1, 8))
    sigma = snr_to_sigma(data.draw(st.floats(-300.0, 300.0)), model, c)
    result = pe_bound(CodeParams(n=8, k=2, c=c, L=6), model, sigma, uniform_theta_grid(20))
    assert 0.0 <= result.pe <= 1.0


def test_pe_bound_chains_segments():
    params = CodeParams(n=8, k=2, c=8, L=6)
    result = pe_bound(params, FadingModel.nakagami(2.0, 1.0), 5.0, uniform_theta_grid(20))
    assert 0.0 <= result.pe <= 1.0
    assert result.pe == pytest.approx(
        1.0 - float(np.prod(1.0 - result.segment_bounds)), rel=1e-12)


@pytest.mark.parametrize("model", [
    FadingModel.rayleigh(1.0),
    FadingModel.nakagami(2.0, 1.0),
    FadingModel.rician(0.5, 1.0),
    FadingModel.rician(1.0, 1.0),
])
def test_pe_bound_nonincreasing_in_snr(model):
    params = CodeParams(n=8, k=2, c=8, v=32, L=6)
    grid = uniform_theta_grid(20)
    values = [pe_bound(params, model, snr_to_sigma(snr, model, params.c), grid).pe
              for snr in np.arange(0.0, 30.1, 2.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_bound_result_validation():
    for eps, pe, message in [
        ([0.5, 1.2], 1.0, "segment bounds must lie"),
        ([0.5, 0.5], 0.9, "inconsistent"),
        ([math.nan, 0.5], 0.5, "segment bounds must lie"),
        ([0.5, 0.5], math.nan, "frame bound must lie"),
        ([math.nan, math.nan], math.nan, "segment bounds must lie"),
        ([0.5, 0.5], [0.75], "do not match"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            BoundResult(segment_bounds=np.array(eps), pe=pe)


def _grid_result():
    params = CodeParams(n=8, k=2, c=8, L=6)
    model = FadingModel.rayleigh(1.0)
    sigmas = [snr_to_sigma(snr, model, 8) for snr in np.linspace(0.0, 30.0, 61)]
    result = pe_bound(params, model, sigmas, uniform_theta_grid(20))
    return result.segment_bounds.copy(), result.pe.copy()


# Each fault leaves the other checks passing, so each check is tested alone.
def _eps_over_one(eps, pe, i):
    eps[i] = [np.nextafter(1.0, 2.0), 0.0, 0.0, 0.0]
    pe[i] = 1.0


def _pe_below_zero(eps, pe, i):
    eps[i] = 0.0
    pe[i] = -1e-320


def _chain_off(eps, pe, i):
    eps[i] = [0.3, 0.2, 0.1, 0.05]
    pe[i] = (1.0 - np.prod(1.0 - eps[i])) * (1.0 + 1e-9)


@pytest.mark.parametrize("fault", [_eps_over_one, _pe_below_zero, _chain_off],
                         ids=["eps-over-1", "pe-below-0", "chain-off-1e-9"])
@pytest.mark.parametrize("at", [0, 30, 60], ids=["first", "middle", "last"])
def test_bound_result_grid_rejects_one_bad_row(fault, at):
    eps, pe = _grid_result()
    BoundResult(segment_bounds=eps, pe=pe)
    fault(eps, pe, at)
    with pytest.raises(ConfigurationError):
        BoundResult(segment_bounds=eps, pe=pe)


# --- Q-function ---------------------------------------------------------------

def test_q_craig_at_zero():
    assert q_craig(0.0) == pytest.approx(0.5, rel=1e-14)


def test_q_craig_matches_erfc():
    # 0.5 * erfc(1/sqrt(2)) = 0.15865525393145707
    assert q_craig(1.0) == pytest.approx(0.15865525393145707, abs=1e-6)
    for x in (0.3, 2.0, 3.5):
        assert q_craig(x, resolution=400) == pytest.approx(
            0.5 * erfc(x / math.sqrt(2)), rel=1e-10)


def test_q_craig_tail():
    assert q_craig(8.0) < 1e-14


def test_q_craig_rejects_resolution():
    with pytest.raises(ConfigurationError):
        q_craig(1.0, resolution=1)


# --- closed forms vs quadrature ------------------------------------------------

def test_exp_moment_rayleigh_frozen():
    model = FadingModel.rayleigh(1.0)
    closed = exp_moment(model, 1.0, 1.0, HALF_PI)
    assert closed == pytest.approx(8.0 / 9.0, rel=1e-14)
    assert fading_integral_oracle(model, 1.0, 1.0, HALF_PI) == pytest.approx(closed, abs=1e-9)


def test_exp_moment_nakagami_frozen():
    model = FadingModel.nakagami(2.0, 1.0)
    closed = exp_moment(model, 1.0, 1.0, HALF_PI)
    assert closed == pytest.approx((16.0 / 17.0) ** 2, rel=1e-14)
    assert fading_integral_oracle(model, 1.0, 1.0, HALF_PI) == pytest.approx(closed, abs=1e-9)


def test_exp_moment_rician_vs_quadrature():
    model = FadingModel.rician(1.0, 1.0)
    closed = exp_moment(model, 2.0, 0.8, 1.1)
    assert fading_integral_oracle(model, 2.0, 0.8, 1.1) == pytest.approx(closed, abs=1e-9)


def test_exp_moment_at_u_zero_is_one():
    for model in (FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, 1.0),
                  FadingModel.rician(1.0, 1.0)):
        assert exp_moment(model, 0.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert fading_integral_oracle(model, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_oracle_rejects_bad_theta():
    model = FadingModel.rayleigh(1.0)
    with pytest.raises(ValueError):
        fading_integral_oracle(model, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        exp_moment(model, 1.0, 1.0, HALF_PI + 0.1)


# --- pairwise error Monte Carlo -------------------------------------------------

def test_pairwise_error_zero_vector_always_hits():
    assert pairwise_error_mc(np.zeros(4), 1.0, 10_000, CounterStream(0)) == 1.0


def test_pairwise_error_matches_q_small():
    trials = 200_000
    p_hat = pairwise_error_mc(np.array([2.0, 0.0, 0.0]), 1.0, trials, CounterStream(1))
    p_ref = 0.15865525393145707  # Q(1)
    stderr = math.sqrt(p_ref * (1 - p_ref) / trials)
    assert abs(p_hat - p_ref) < 3 * stderr


def test_pairwise_error_ten_dim():
    trials = 200_000
    rng = np.random.default_rng(2)
    v = rng.normal(size=10)
    v *= 4.0 / np.linalg.norm(v)
    p_hat = pairwise_error_mc(v, 1.0, trials, CounterStream(2))
    p_ref = 0.022750131948179216  # Q(2)
    stderr = math.sqrt(p_ref * (1 - p_ref) / trials)
    assert abs(p_hat - p_ref) < 3 * stderr


def test_pairwise_error_rejects_few_trials():
    with pytest.raises(ConfigurationError):
        pairwise_error_mc(np.ones(2), 1.0, 100, CounterStream(3))
