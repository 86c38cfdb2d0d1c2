"""Bound tests: frozen kernel values, grid construction, closed forms vs
quadrature, Q-function, pairwise-error Monte Carlo."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from spinalfade import (
    BoundResult,
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
    segment_error_bound,
    snr_to_sigma,
    tail_symbols,
    uniform_theta_grid,
)

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
    with pytest.raises(ConfigurationError):
        ThetaGrid.from_thetas([0.0, 0.3, 0.2, HALF_PI])
    with pytest.raises(ConfigurationError):
        ThetaGrid.from_thetas([0.1, HALF_PI])
    with pytest.raises(ConfigurationError):
        ThetaGrid(thetas=np.array([0.0, HALF_PI]), weights=np.array([0.4]))


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
    with pytest.raises(ValueError):
        tail_symbols(params, 0)
    with pytest.raises(ValueError):
        tail_symbols(params, 5)


def test_segment_bound_clamps_to_one():
    params = CodeParams(n=8, k=2, c=8, L=6)
    grid = uniform_theta_grid(20)
    assert segment_error_bound(1, params, FadingModel.rayleigh(1.0), 1e4, grid) == 1.0


def test_segment_bound_multiplicity():
    params = CodeParams(n=8, k=2, c=8, L=6)
    model = FadingModel.rician(0.5, 1.0)
    grid = uniform_theta_grid(20)
    sigma = 3.0
    # last segment: (2^k - 1) * 2^0 = 3 competing candidates
    expected = min(1.0, 3.0 * kernel_grid_sum(model, 6, sigma, 8, grid))
    assert segment_error_bound(4, params, model, sigma, grid) == pytest.approx(expected, rel=1e-14)


def test_pe_bound_saturates_in_deep_noise():
    params = CodeParams(n=8, k=2, c=8, L=6)
    result = pe_bound(params, FadingModel.rayleigh(1.0), 1e5, uniform_theta_grid(20))
    assert np.all(result.segment_bounds == 1.0)
    assert result.pe == 1.0


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
    with pytest.raises(ConfigurationError):
        BoundResult(segment_bounds=np.array([0.5, 1.2]), pe=1.0)
    with pytest.raises(ConfigurationError):
        BoundResult(segment_bounds=np.array([0.5, 0.5]), pe=0.9)


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
