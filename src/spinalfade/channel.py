"""Fading-plus-AWGN channel: gain samplers, densities, and transmission.

Each transmitted symbol sees an independent nonnegative fading gain h with
E[h^2] = omega and additive Gaussian noise of standard deviation sigma:

    y = h * f(x) + noise

Gains are stored alongside the received values so the decoder operates with
perfect channel knowledge.  All sampling goes through an explicit
CounterStream, so realizations are reproducible from the stream key alone.

Note on SNR: `snr_to_sigma` defines SNR as omega * E[f(X)^2] / sigma^2 with
the uncentered second moment of the raw constellation {0..2^c-1}.  The
constellation is not zero-mean, so curves plotted against this axis can sit
at a fixed horizontal offset from conventions that center or normalize the
constellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammaincinv, i0e, ndtri

from .codec import ConfigurationError
from .mixing import CounterStream

RAYLEIGH = "rayleigh"
NAKAGAMI = "nakagami"
RICIAN = "rician"


@dataclass(frozen=True)
class FadingModel:
    """Tagged fading description: Rayleigh, Nakagami-m, or Rician."""

    kind: str
    omega: float = 1.0
    m: float | None = None
    K: float | None = None

    def __post_init__(self):
        if self.kind not in (RAYLEIGH, NAKAGAMI, RICIAN):
            raise ConfigurationError(f"unknown fading kind {self.kind!r}")
        if not self.omega > 0:
            raise ConfigurationError(f"omega must be > 0, got {self.omega}")
        if self.kind == NAKAGAMI:
            if self.m is None or not self.m >= 0.5:
                raise ConfigurationError(f"Nakagami m must be >= 0.5, got {self.m}")
            if self.K is not None:
                raise ConfigurationError("K is a Rician parameter")
        elif self.kind == RICIAN:
            if self.K is None or not self.K >= 0:
                raise ConfigurationError(f"Rician K must be >= 0, got {self.K}")
            if self.m is not None:
                raise ConfigurationError("m is a Nakagami parameter")
        else:
            if self.m is not None or self.K is not None:
                raise ConfigurationError("Rayleigh takes no shape parameter")

    @classmethod
    def rayleigh(cls, omega: float = 1.0) -> "FadingModel":
        return cls(kind=RAYLEIGH, omega=omega)

    @classmethod
    def nakagami(cls, m: float, omega: float = 1.0) -> "FadingModel":
        return cls(kind=NAKAGAMI, omega=omega, m=m)

    @classmethod
    def rician(cls, K: float, omega: float = 1.0) -> "FadingModel":
        return cls(kind=RICIAN, omega=omega, K=K)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-symbol gains, received values, and the noise level of one frame."""

    gains: np.ndarray
    received: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.gains.shape != self.received.shape:
            raise ConfigurationError("gains and received grids must share a shape")
        if not self.sigma > 0:
            raise ConfigurationError(f"sigma must be > 0, got {self.sigma}")
        if np.any(self.gains < 0):
            raise ConfigurationError("gains must be nonnegative")


def gains_from_uniforms(model: FadingModel, u: np.ndarray) -> np.ndarray:
    """Transform open-(0,1) uniforms into fading gains with E[h^2] = omega.

    Rayleigh and Nakagami consume one uniform per gain (inverse CDF of the
    squared gain); Rician consumes two per gain, last axis, as the magnitude
    of a 2-D Gaussian with a specular component.
    """
    if model.kind == RAYLEIGH:
        return np.sqrt(-model.omega * np.log(u))
    if model.kind == NAKAGAMI:
        return np.sqrt((model.omega / model.m) * gammaincinv(model.m, u))
    K = model.K
    nu = np.sqrt(K * model.omega / (K + 1.0))
    axial = np.sqrt(model.omega / (2.0 * (K + 1.0)))
    z = ndtri(u)
    return np.sqrt((nu + axial * z[..., 0]) ** 2 + (axial * z[..., 1]) ** 2)


def sample_gains(model: FadingModel, count: int, rand: CounterStream) -> np.ndarray:
    """Draw `count` independent gains from the stream (flat array)."""
    if model.kind == RICIAN:
        u = rand.uniforms(2 * count).reshape(count, 2)
    else:
        u = rand.uniforms(count)
    return gains_from_uniforms(model, u)


def pdf(model: FadingModel, h) -> np.ndarray:
    """Density of the fading gain at h >= 0.

    The Rician branch is computed through the exponentially scaled Bessel
    function so large arguments neither overflow nor produce inf * 0.
    """
    h = np.asarray(h, dtype=np.float64)
    if np.any(h < 0):
        raise ValueError("fading gain density is defined for h >= 0 only")
    omega = model.omega
    if model.kind == RAYLEIGH:
        return 2.0 * h / omega * np.exp(-h * h / omega)
    if model.kind == NAKAGAMI:
        m = model.m
        log_coef = np.log(2.0) + m * np.log(m) - gammaln(m) - m * np.log(omega)
        hpos = np.where(h > 0, h, 1.0)
        logpdf = log_coef + (2.0 * m - 1.0) * np.log(hpos) - m * h * h / omega
        at_zero = np.exp(log_coef) if m == 0.5 else 0.0
        return np.where(h > 0, np.exp(logpdf), at_zero)
    K = model.K
    bessel_arg = 2.0 * np.sqrt(K * (K + 1.0) / omega) * h
    # i0e(x) = exp(-x) I0(x); fold exp(+x) into the main exponent.
    expo = -K - (K + 1.0) * h * h / omega + bessel_arg
    return 2.0 * (K + 1.0) * h / omega * np.exp(expo) * i0e(bessel_arg)


def transmit(symbols: np.ndarray, model: FadingModel, sigma: float,
             rand: CounterStream) -> ChannelRealization:
    """Send a symbol matrix through the fading channel.

    Gains are drawn first (row-major), then noise, so the stream layout is fixed.
    """
    if not sigma > 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    symbols = np.asarray(symbols, dtype=np.float64)
    gains = sample_gains(model, symbols.size, rand).reshape(symbols.shape)
    noise = sigma * rand.normals(symbols.size).reshape(symbols.shape)
    return ChannelRealization(gains=gains, received=gains * symbols + noise,
                              sigma=float(sigma))


def symbol_energy(c: int) -> float:
    """Second moment of a symbol drawn uniformly from {0, ..., 2^c - 1}."""
    if c < 1:
        raise ConfigurationError(f"c must be >= 1, got {c}")
    top = (1 << c) - 1
    return top * (2 * top + 1) / 6.0


def snr_to_sigma(snr_db: float, model: FadingModel, c: int) -> float:
    """Noise level giving the requested SNR in dB.

    SNR = omega * E[f(X)^2] / sigma^2, uncentered second moment of the raw
    constellation (see module note); sigma must come out finite and > 0.
    """
    try:
        sigma = float(np.sqrt(model.omega * symbol_energy(c) * 10.0 ** (-snr_db / 10.0)))
    except OverflowError:
        sigma = math.inf
    if not (math.isfinite(sigma) and sigma > 0):
        raise ConfigurationError(f"SNR {snr_db} dB gives sigma = {sigma}")
    return sigma
