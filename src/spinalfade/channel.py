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

Importing this module does not load `scipy.special`, which takes about
0.2 s: each of its functions is imported where it is called, so a `bound`
run never loads it.  `mixing.ndtri` loads it on its first call (Rician
gains, the integer-m Nakagami start, `sim`'s noise); `gammaincinv` for
other m and the density's `gammaln` and `i0e` are imported in their own
branches.  Rayleigh gains need no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import ConfigurationError
from .mixing import CounterStream, ndtri

RAYLEIGH = "rayleigh"
NAKAGAMI = "nakagami"
RICIAN = "rician"


@dataclass(frozen=True)
class FadingModel:
    """Tagged fading description: Rayleigh, Nakagami-m, or Rician; every
    parameter finite."""

    kind: str
    omega: float = 1.0
    m: float | None = None
    K: float | None = None

    def __post_init__(self):
        if self.kind not in (RAYLEIGH, NAKAGAMI, RICIAN):
            raise ConfigurationError(f"unknown fading kind {self.kind!r}")
        if not 0 < self.omega < math.inf:
            raise ConfigurationError(f"omega must be finite, > 0, got {self.omega}")
        if self.kind == NAKAGAMI:
            if self.m is None or not 0.5 <= self.m < math.inf:
                raise ConfigurationError(f"Nakagami m must be finite, >= 0.5, got {self.m}")
            if self.K is not None:
                raise ConfigurationError("K is a Rician parameter")
        elif self.kind == RICIAN:
            if self.K is None or not 0 <= self.K < math.inf:
                raise ConfigurationError(f"Rician K must be finite, >= 0, got {self.K}")
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
    """Per-symbol gains, received values, and the noise level of one frame;
    gains and received values finite, gains non-negative."""

    gains: np.ndarray
    received: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.gains.shape != self.received.shape:
            raise ConfigurationError("gains and received grids must share a shape")
        if not self.sigma > 0:
            raise ConfigurationError(f"sigma must be > 0, got {self.sigma}")
        if not (np.isfinite(self.gains).all() and np.isfinite(self.received).all()):
            raise ConfigurationError("gains and received values must be finite")
        if np.any(self.gains < 0):
            raise ConfigurationError("gains must be nonnegative")


# Integer Nakagami m up to this value draws through `_gamma_quantile`;
# other m go through scipy's general inverse `gammaincinv`.
_QUANTILE_MAX_M = 8
# Below this u the quantile solver works on the lower-tail series of P.
_LOWER_CUT = 0.05


def _series_terms(m: int) -> int:
    """Terms J of T(x) = sum_{j<=J} x^j m!/(m+j)!, enough that the J-th
    term falls below 2^-60 (T >= 1) for every x <= m.  That covers the
    lower tail: there u < 1/2, and the median of Gamma(m) lies below its
    mean m."""
    term, j = 1.0, 0
    while term > 2.0 ** -60:
        j += 1
        term *= m / (m + j)
    return j


_SERIES_TERMS = {m: _series_terms(m) for m in range(1, _QUANTILE_MAX_M + 1)}


def _halley(x, f, df, m: int):
    """One Halley step on f, an increasing or decreasing log-CDF of
    Gamma(m) minus its target, with slope df.  For either tail,
    f''/f' = (m-1)/x - 1 - f', since the density's log-slope is (m-1)/x - 1."""
    return x - f / (df - 0.5 * f * ((m - 1) / x - 1.0 - df))


def _gamma_quantile(m: int, u: np.ndarray) -> np.ndarray:
    """x with P(m, x) = u, for integer m in 1.._QUANTILE_MAX_M and u in (0, 1).

    For integer m, Q(m, x) = 1 - P(m, x) = e^-x S(x) with
    S(x) = sum_{j<m} x^j/j!, so two Halley steps need only exp and log
    (DiDonato & Morris, ACM TOMS 1986).  The start is the Wilson-Hilferty
    normal approximation, raised to the small-u root (u m!)^(1/m)
    (1 + x/(m+1)) where that is larger.  The steps work on log Q for
    u > 1/2, on log(1 - Q) from _LOWER_CUT to 1/2, and below the cut on
    log P = log(x^m/m! T(x)) - x, whose series T keeps full relative
    precision for the smallest u.  The result lies within 1e-14 relative of
    scipy's `gammaincinv` on u from 2^-54 to 1 - 2^-53.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    x = np.empty(flat.shape)
    c = 1.0 / (9.0 * m)
    w = (1.0 - c) + math.sqrt(c) * ndtri(flat)
    start = m * (w * w * w)
    m_fact = math.factorial(m)

    def lifted(idx, uu):
        small = (uu * m_fact) ** (1.0 / m)
        return np.maximum(small * (1.0 + small / (m + 1)), start[idx])

    def head(xx):
        """x^(m-1)/(m-1)! and S(x)."""
        top = total = 1.0
        for j in range(1, m):
            top = xx * (top / j)
            total = total + top
        return top, total

    upper = np.flatnonzero(flat > 0.5)
    uu, xx = flat[upper], start[upper]
    log_q = np.log(1.0 - uu)            # 1 - u is exact for u >= 1/2
    for _ in range(2):
        top, total = head(xx)
        xx = _halley(xx, np.log(total) - xx - log_q, -top / total, m)
    x[upper] = xx

    middle = np.flatnonzero((flat >= _LOWER_CUT) & (flat <= 0.5))
    uu = flat[middle]
    xx = lifted(middle, uu)
    for _ in range(2):
        top, total = head(xx)
        e = np.exp(-xx)
        p = 1.0 - e * total
        xx = _halley(xx, np.log(p / uu), e * top / p, m)
    x[middle] = xx

    lower = np.flatnonzero(flat < _LOWER_CUT)
    uu = flat[lower]
    xx = lifted(lower, uu)
    for _ in range(2):
        series = 1.0
        for j in range(_SERIES_TERMS[m], 0, -1):
            series = 1.0 + series * xx / (m + j)
        xx = _halley(xx, np.log(xx ** m / m_fact * series / uu) - xx,
                     m / (xx * series), m)
    x[lower] = xx
    return x.reshape(u.shape)


def gains_from_uniforms(model: FadingModel, u: np.ndarray) -> np.ndarray:
    """Transform open-(0,1) uniforms into fading gains with E[h^2] = omega.

    Rayleigh and Nakagami consume one uniform per gain (inverse CDF of the
    squared gain); Rician consumes two per gain, last axis, as the magnitude
    of a 2-D Gaussian with a specular component.  The Nakagami squared gain
    is (omega/m) P^-1(m, u): for integer m in 1..8 the inverse comes from
    `_gamma_quantile` (exp/log Halley steps, within 1e-14 relative of
    scipy's `gammaincinv`), for any other m from `gammaincinv` itself.
    """
    if model.kind == RAYLEIGH:
        return np.sqrt(-model.omega * np.log(u))
    if model.kind == NAKAGAMI:
        m = model.m
        if float(m).is_integer() and 1 <= m <= _QUANTILE_MAX_M:
            x = _gamma_quantile(int(m), u)
        else:
            from scipy.special import gammaincinv
            x = gammaincinv(m, u)
        return np.sqrt((model.omega / m) * x)
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
        from scipy.special import gammaln
        m = model.m
        log_coef = np.log(2.0) + m * np.log(m) - gammaln(m) - m * np.log(omega)
        hpos = np.where(h > 0, h, 1.0)
        logpdf = log_coef + (2.0 * m - 1.0) * np.log(hpos) - m * h * h / omega
        at_zero = np.exp(log_coef) if m == 0.5 else 0.0
        return np.where(h > 0, np.exp(logpdf), at_zero)
    from scipy.special import i0e
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
