"""Channel tests: sampler moments, distribution identities, density
normalization, transmission contract."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaincinv

from spinalfade import (
    ChannelRealization,
    CodeParams,
    ConfigurationError,
    CounterStream,
    FadingModel,
    Message,
    encode,
    pdf,
    sample_gains,
    snr_to_sigma,
    symbol_energy,
    transmit,
)
from spinalfade.channel import gains_from_uniforms

ALL_MODELS = [
    FadingModel.rayleigh(1.0),
    FadingModel.nakagami(2.0, 1.0),
    FadingModel.rician(1.0, 1.0),
]


def test_fading_model_validation():
    with pytest.raises(ConfigurationError):
        FadingModel(kind="rayleigh", omega=0.0)
    with pytest.raises(ConfigurationError):
        FadingModel(kind="nakagami", omega=1.0, m=0.4)
    with pytest.raises(ConfigurationError):
        FadingModel(kind="rician", omega=1.0, K=-0.1)
    with pytest.raises(ConfigurationError):
        FadingModel(kind="rayleigh", omega=1.0, m=1.0)
    with pytest.raises(ConfigurationError):
        FadingModel(kind="lognormal", omega=1.0)


@pytest.mark.parametrize("model", ALL_MODELS + [
    FadingModel.rayleigh(2.5),
    FadingModel.nakagami(0.5, 0.7),
    FadingModel.rician(4.0, 3.0),
])
def test_mean_square_gain_is_omega(model):
    gains = sample_gains(model, 1_000_000, CounterStream(11))
    assert abs(float(np.mean(gains ** 2)) - model.omega) < 0.01 * model.omega


def test_rayleigh_mean_square_unit():
    gains = sample_gains(FadingModel.rayleigh(1.0), 1_000_000, CounterStream(1))
    assert abs(float(np.mean(gains ** 2)) - 1.0) < 0.01


def _rayleigh_cdf(h):
    return 1.0 - np.exp(-np.asarray(h) ** 2)


def test_nakagami_m1_is_rayleigh():
    gains = sample_gains(FadingModel.nakagami(1.0, 1.0), 100_000, CounterStream(2))
    assert stats.kstest(gains, _rayleigh_cdf).pvalue > 0.001


@pytest.mark.parametrize("m", [2.0, 3.0, 2.5])
def test_nakagami_squared_gain_is_gamma(m):
    # integer m draws through the exp/log inverse, m = 2.5 through gammaincinv
    model = FadingModel.nakagami(m, 1.5)
    power = sample_gains(model, 100_000, CounterStream(4)) ** 2
    assert stats.kstest(power, stats.gamma(m, scale=1.5 / m).cdf).pvalue > 0.001


# Both tails to the extreme stream values 2^-54 and 1 - 2^-53, a dense
# middle, and plain stream draws.
DENSE_U = np.unique(np.concatenate([
    np.geomspace(2.0 ** -54, 0.5, 20_001),
    2.0 ** -40 * np.arange(1, 1_001),
    1.0 - np.geomspace(2.0 ** -53, 0.5, 20_001),
    np.linspace(2.0 ** -54, 1.0 - 2.0 ** -53, 100_001),
    CounterStream(12).uniforms(100_000),
]))


@pytest.mark.parametrize("m", range(1, 9))
def test_integer_m_nakagami_inverse_matches_gammaincinv(m):
    power = gains_from_uniforms(FadingModel.nakagami(float(m), 2.0), DENSE_U) ** 2
    exact = (2.0 / m) * gammaincinv(m, DENSE_U)
    assert np.max(np.abs(power / exact - 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [0.5, 1.5, 2.5, 8.5, 9.0])
def test_other_m_nakagami_is_gammaincinv(m):
    gains = gains_from_uniforms(FadingModel.nakagami(m, 2.0), DENSE_U)
    assert np.array_equal(gains, np.sqrt((2.0 / m) * gammaincinv(m, DENSE_U)))


def test_rician_k0_is_rayleigh():
    gains = sample_gains(FadingModel.rician(0.0, 1.0), 100_000, CounterStream(3))
    assert stats.kstest(gains, _rayleigh_cdf).pvalue > 0.001


def test_pdf_rayleigh_at_zero():
    assert float(pdf(FadingModel.rayleigh(1.0), 0.0)) == 0.0


def test_pdf_rejects_negative():
    with pytest.raises(ValueError):
        pdf(FadingModel.rayleigh(1.0), -0.5)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pdf_normalizes(model):
    mass = quad(lambda h: float(pdf(model, h)), 0, np.inf,
                epsabs=1e-12, limit=200)[0]
    assert abs(mass - 1.0) < 1e-8


@pytest.mark.parametrize("model", ALL_MODELS + [
    FadingModel.nakagami(0.5, 2.0),
    FadingModel.rician(3.0, 0.5),
])
def test_pdf_second_moment_is_omega(model):
    second = quad(lambda h: h * h * float(pdf(model, h)), 0, np.inf,
                  epsabs=1e-12, limit=200)[0]
    assert abs(second - model.omega) < 1e-6


def test_pdf_rician_large_argument_finite():
    model = FadingModel.rician(4.0, 1.0)
    vals = pdf(model, np.array([10.0, 50.0, 200.0]))
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)


def test_transmit_noiseless_unit_gain_identity(constant_gain):
    constant_gain(1.0)
    params = CodeParams(n=8, k=2, c=8, L=6)
    symbols = encode(Message(value=201, n=8), params)
    real = transmit(symbols, FadingModel.rayleigh(1.0), 1e-300, CounterStream(5))
    assert np.array_equal(real.received, symbols.astype(float))
    assert np.all(real.gains == 1.0)


def test_transmit_shapes_match():
    params = CodeParams(n=8, k=2, c=8, L=6)
    symbols = encode(Message(value=17, n=8), params)
    real = transmit(symbols, FadingModel.rician(0.5), 1.0, CounterStream(6))
    assert real.gains.shape == (4, 6)
    assert real.received.shape == (4, 6)


def test_transmit_noise_variance():
    sigma = 1.7
    symbols = np.arange(1_000_000, dtype=np.int64).reshape(1_000, 1_000) % 256
    real = transmit(symbols, FadingModel.rayleigh(1.0), sigma, CounterStream(7))
    noise = real.received - real.gains * symbols
    assert abs(float(np.var(noise)) - sigma ** 2) < 0.01 * sigma ** 2


def test_transmit_reproducible():
    params = CodeParams(n=8, k=2, c=8, L=6)
    symbols = encode(Message(value=99, n=8), params)
    model = FadingModel.nakagami(2.0, 1.0)
    a = transmit(symbols, model, 0.8, CounterStream(8))
    b = transmit(symbols, model, 0.8, CounterStream(8))
    assert np.array_equal(a.received, b.received)
    assert np.array_equal(a.gains, b.gains)


def test_transmit_rejects_bad_sigma():
    with pytest.raises(ConfigurationError):
        transmit(np.zeros((2, 2)), FadingModel.rayleigh(1.0), 0.0, CounterStream(9))


@pytest.mark.parametrize("field", ["gains", "received"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_realization_rejects_non_finite_values(field, value):
    # one NaN received value would leave ml_decode at min_cost = inf with a
    # tie that brute_force_decode does not see
    arrays = {"gains": np.ones((2, 3)), "received": np.ones((2, 3))}
    arrays[field][1, 2] = value
    with pytest.raises(ConfigurationError, match="finite"):
        ChannelRealization(sigma=1.0, **arrays)


def test_symbol_energy_values():
    assert symbol_energy(1) == 0.5
    assert symbol_energy(8) == 21717.5


def test_snr_to_sigma_formula():
    model = FadingModel.rayleigh(1.0)
    assert abs(snr_to_sigma(0.0, model, 1) - math.sqrt(0.5)) < 1e-12
    # doubling omega scales sigma by sqrt(2) at fixed SNR
    assert abs(snr_to_sigma(3.0, FadingModel.rayleigh(2.0), 4)
               - math.sqrt(2) * snr_to_sigma(3.0, model, 4)) < 1e-12
