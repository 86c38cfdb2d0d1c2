"""Closed-form frame-error upper bounds and their numerical oracles.

The bound machinery rests on one scalar kernel: the average over the
fading distribution and over a uniform pair of channel inputs of
exp(-(h*(i-j))^2 / (8 sigma^2 sin^2 theta)), raised to the number of symbol
slots in which two candidate messages differ.  Rayleigh, Nakagami-m and
Rician fading share one kernel body; they differ only in the scale of b
and in the fading average of an unequal pair, which `_family` supplies
(and which `exp_moment` evaluates for a single pair).  The kernel is
increasing in theta, so a right-endpoint sum over any partition of
[0, pi/2] upper-bounds its integral; that sum, scaled by the number of
competing candidates, gives the per-segment bound, and the frame bound
follows by chaining segments.

Numerical oracles live alongside the closed forms: adaptive quadrature of
the defining fading integrals, a quadrature Q-function, and a Monte Carlo
estimate of the pairwise error probability, so every closed form can be
checked against an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .channel import NAKAGAMI, RAYLEIGH, FadingModel, pdf
from .codec import CodeParams, ConfigurationError
from .mixing import CounterStream

QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 60


@dataclass(frozen=True)
class ThetaGrid:
    """Partition 0 = theta_0 < ... < theta_N = pi/2 with cell weights.

    weights[r-1] = (theta_r - theta_{r-1}) / pi, so the weighted sum of a
    function's right-endpoint values estimates (1/pi) times its integral
    and over-estimates it when the function is increasing.
    """

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if th.ndim != 1 or th.size < 2:
            raise ConfigurationError("theta grid needs at least two nodes")
        if th[0] != 0.0 or th[-1] != math.pi / 2:
            raise ConfigurationError("theta grid must run exactly from 0 to pi/2")
        if np.any(np.diff(th) <= 0):
            raise ConfigurationError("theta grid must be strictly increasing")
        if w.shape != (th.size - 1,):
            raise ConfigurationError("one weight per grid cell required")
        if np.max(np.abs(w - np.diff(th) / math.pi)) > 1e-15:
            raise ConfigurationError("weights must equal cell widths over pi")
        if abs(float(w.sum()) - 0.5) > 1e-12:
            raise ConfigurationError("grid weights must sum to 1/2")

    @classmethod
    def from_thetas(cls, thetas) -> "ThetaGrid":
        th = np.asarray(thetas, dtype=np.float64)
        return cls(thetas=th, weights=np.diff(th) / math.pi)


def uniform_theta_grid(N: int) -> ThetaGrid:
    """Uniform grid with N cells: nodes r * pi / (2N), weights 1/(2N)."""
    if N < 1:
        raise ConfigurationError(f"theta grid needs N >= 1, got {N}")
    return ThetaGrid.from_thetas(np.linspace(0.0, math.pi / 2, N + 1))


@dataclass(frozen=True)
class BoundResult:
    """Per-segment bounds and the frame-error bound they chain into."""

    segment_bounds: np.ndarray
    pe: float

    def __post_init__(self):
        eps = np.asarray(self.segment_bounds, dtype=np.float64)
        if np.any(eps < 0) or np.any(eps > 1):
            raise ConfigurationError("segment bounds must lie in [0, 1]")
        if not 0.0 <= self.pe <= 1.0:
            raise ConfigurationError("frame bound must lie in [0, 1]")
        chained = 1.0 - np.prod(1.0 - eps)
        if abs(chained - self.pe) > 1e-12 * max(self.pe, 1e-300):
            raise ConfigurationError("frame bound inconsistent with segments")


def _pair_profile(c: int):
    """Off-diagonal |i-j| values, their multiplicities / 2^(2c), and the
    diagonal mass 2^-c of a uniform pair on {0..2^c-1}^2."""
    M = 1 << c
    d = np.arange(1, M, dtype=np.float64)
    w = 2.0 * (M - d) * 4.0 ** -c
    return d, w, M * 4.0 ** -c


def _family(model: FadingModel):
    """(scale of b, weighted pair terms) of the model's fading family.

    The three kernels differ only in the fading average of one unequal
    pair, which is a function of frac = b / (omega d^2 + b) with
    b = 8 * scale * sigma^2 * sin^2(theta): frac itself for Rayleigh
    (scale 1), frac^m for Nakagami-m (scale m), and frac * exp(K frac - K)
    for Rician (scale K + 1).  The terms are returned already multiplied
    by the pair weights w, in that order, so every kernel value is rounded
    exactly as the family formulas above are written.
    """
    if model.kind == RAYLEIGH:
        return 1.0, lambda w, frac: w * frac
    if model.kind == NAKAGAMI:
        m = model.m
        return m, lambda w, frac: w * frac ** m
    K = model.K
    return K + 1.0, lambda w, frac: w * frac * np.exp(K * frac - K)


def kernel(model: FadingModel, theta, sigma: float, c: int, n_sym: int):
    """Kernel of the given fading model at theta, raised to the n_sym
    differing symbols; a float for scalar theta, else an array.

    The equal-pair term is 1 for every theta and family (including the
    0/0 point at theta = 0, by continuity), and at theta = 0 every
    unequal-pair term vanishes, so the value there is 2^(-c * n_sym).
    Nakagami at m = 1 and Rician at K = 0 reduce to Rayleigh.
    """
    theta = np.asarray(theta, dtype=np.float64)
    scale, pair_terms = _family(model)
    d, w, diag = _pair_profile(c)
    b = 8.0 * scale * sigma * sigma * np.sin(theta) ** 2
    frac = b[..., None] / (model.omega * d * d + b[..., None])
    out = np.exp(n_sym * np.log(diag + pair_terms(w, frac).sum(axis=-1)))
    return float(out) if theta.ndim == 0 else out


def kernel_grid_sum(model: FadingModel, n_sym: int, sigma: float, c: int,
                    grid: ThetaGrid) -> float:
    """Right-endpoint weighted sum of the kernel over the theta grid.

    Upper-bounds (1/pi) times the kernel's integral over [0, pi/2] because
    the kernel is non-decreasing in theta.
    """
    vals = kernel(model, grid.thetas[1:], sigma, c, n_sym)
    return float((grid.weights * vals).sum())


def tail_symbols(params: CodeParams, a: int) -> int:
    """Symbol slots in rows a..n/k: the positions where two candidates
    first differing at segment a produce independent symbols."""
    if not 1 <= a <= params.num_segments:
        raise ValueError(
            f"segment index must be in 1..{params.num_segments}, got {a}"
        )
    return (params.num_segments - a + 1) * params.L


def segment_error_bound(a: int, params: CodeParams, model: FadingModel,
                        sigma: float, grid: ThetaGrid) -> float:
    """Bound on the probability that segment a is the first decoding error.

    The multiplicity (2^k - 1) * 2^(n - a*k) counts candidates that agree
    on segments 1..a-1 and differ at segment a; the product with the grid
    sum is clamped to 1.
    """
    n_sym = tail_symbols(params, a)
    mult = ((1 << params.k) - 1) * 2.0 ** (params.n - a * params.k)
    return min(1.0, mult * kernel_grid_sum(model, n_sym, sigma, params.c, grid))


def pe_bound(params: CodeParams, model: FadingModel, sigma: float,
             grid: ThetaGrid) -> BoundResult:
    """Frame-error upper bound 1 - prod_a (1 - segment bound a)."""
    eps = np.array([
        segment_error_bound(a, params, model, sigma, grid)
        for a in range(1, params.num_segments + 1)
    ])
    return BoundResult(segment_bounds=eps, pe=float(1.0 - np.prod(1.0 - eps)))


@lru_cache(maxsize=32)
def _gauss_legendre_half_pi(resolution: int):
    nodes, wts = np.polynomial.legendre.leggauss(resolution)
    return (nodes + 1.0) * (math.pi / 4), wts * (math.pi / 4)


def q_craig(x: float, resolution: int = 200) -> float:
    """Gaussian Q-function via Craig's finite-interval form.

    (1/pi) * integral over (0, pi/2) of exp(-x^2 / (2 sin^2 theta)),
    evaluated by Gauss-Legendre quadrature with `resolution` nodes.
    """
    if resolution < 2:
        raise ConfigurationError(f"resolution must be >= 2, got {resolution}")
    theta, w = _gauss_legendre_half_pi(resolution)
    s2 = np.sin(theta) ** 2
    with np.errstate(under="ignore"):
        vals = np.exp(-x * x / (2.0 * s2))
    return float((vals * w).sum() / math.pi)


def _check_theta(theta: float):
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")


def exp_moment(model: FadingModel, u: float, sigma: float, theta: float) -> float:
    """Closed-form average of exp(-(h*u)^2 / (8 sigma^2 sin^2 theta)) over
    the fading gain h: the per-pair factor inside `kernel`, from the same
    family switch."""
    _check_theta(theta)
    scale, pair_terms = _family(model)
    b = 8.0 * scale * sigma * sigma * math.sin(theta) ** 2
    return float(pair_terms(1.0, b / (model.omega * u * u + b)))


def fading_integral_oracle(model: FadingModel, u: float, sigma: float,
                           theta: float) -> float:
    """Adaptive quadrature of the integral `exp_moment` solves in closed
    form; independent of the closed-form route."""
    _check_theta(theta)
    z = u * u / (8.0 * sigma * sigma * math.sin(theta) ** 2)

    def integrand(h):
        return math.exp(-z * h * h) * float(pdf(model, h))

    # Split at the distribution scale so the quadrature cannot miss a
    # narrow peak once z grows large.
    shape = model.m if model.kind == NAKAGAMI else 1.0
    scale = 1.0 / math.sqrt(z + shape / model.omega)
    out = quad(integrand, 0.0, 12.0 * scale, epsabs=QUAD_ABS_TOL,
               limit=QUAD_LIMIT, full_output=True)
    tail = quad(integrand, 12.0 * scale, np.inf, epsabs=QUAD_ABS_TOL,
                limit=QUAD_LIMIT, full_output=True)
    for part in (out, tail):
        if len(part) > 3:
            raise RuntimeError(
                f"fading integral did not converge: {part[3]} "
                f"(model={model.kind}, u={u}, sigma={sigma}, theta={theta})"
            )
    return out[0] + tail[0]


def pairwise_error_mc(v_vector, sigma: float, trials: int,
                      rand: CounterStream, chunk: int = 100_000) -> float:
    """Monte Carlo frequency of v (v + 2N)^T <= 0 with N iid Gaussian(0, sigma^2).

    For v != 0 this equals Q(|v| / (2 sigma)); for v = 0 the event always
    holds and the frequency is 1.
    """
    if trials < 1_000:
        raise ConfigurationError(f"trials must be >= 1000, got {trials}")
    v = np.asarray(v_vector, dtype=np.float64).ravel()
    vnorm2 = float(v @ v)
    hits = 0
    done = 0
    while done < trials:
        block = min(chunk, trials - done)
        noise = sigma * rand.normals(block * v.size).reshape(block, v.size)
        hits += int(np.count_nonzero(vnorm2 + 2.0 * (noise @ v) <= 0.0))
        done += block
    return hits / trials
