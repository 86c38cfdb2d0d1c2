"""Closed-form frame-error upper bounds and their numerical oracles.

The bound machinery rests on one scalar kernel: the average over the
fading distribution and over a uniform pair of channel inputs of
exp(-(h*(i-j))^2 / (8 sigma^2 sin^2 theta)), raised to the number of symbol
slots in which two candidate messages differ.  Rayleigh, Nakagami-m and
Rician fading share one kernel body; they differ only in the scale of b
and in the fading average of an unequal pair, which `_family` supplies
(and which `exp_moment` evaluates for a single pair).  The kernel is
increasing in theta, so a right-endpoint sum over a partition of
[0, pi/2] upper-bounds its integral; that sum, scaled by the number of
competing candidates, gives the per-segment bound, and the frame bound
follows by chaining segments.  Segments differ only in the exponent and
the multiplicity, so one kernel evaluation per point serves them all.

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

from .channel import NAKAGAMI, RAYLEIGH, RICIAN, FadingModel, pdf
from .codec import CodeParams, ConfigurationError
from .mixing import CounterStream

QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 60


class ThetaGrid:
    """Uniform partition of [0, pi/2] into N cells: thetas[r] = r pi / (2N)
    and weights[r-1] = (theta_r - theta_{r-1}) / pi, so the weighted sum of
    a function's right-endpoint values over-estimates (1/pi) times its
    integral when the function is increasing."""

    def __init__(self, N: int):
        if N < 1:
            raise ConfigurationError(f"theta grid needs N >= 1, got {N}")
        self.thetas = np.linspace(0.0, math.pi / 2, N + 1)
        self.weights = np.diff(self.thetas) / math.pi


def uniform_theta_grid(N: int) -> ThetaGrid:
    """Uniform grid with N cells: nodes r * pi / (2N), weights 1/(2N)."""
    return ThetaGrid(N)


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


def kernel(model: FadingModel, theta, sigma: float, c: int, n_sym):
    """Kernel of the given fading model at theta, raised to the n_sym
    differing symbols; a float for scalar theta, else an array.

    n_sym broadcasts against theta: a column of counts against N thetas
    gives one row per count from one evaluation of the pair terms.  The
    equal-pair term is 1 for every theta and family (including the 0/0
    point at theta = 0, by continuity), and at theta = 0 every unequal-pair
    term vanishes, so the value there is 2^(-c * n_sym).  Nakagami at m = 1
    and Rician at K = 0 reduce to Rayleigh.
    """
    theta = np.asarray(theta, dtype=np.float64)
    scale, pair_terms = _family(model)
    d, w, diag = _pair_profile(c)
    b_top = 8.0 * scale * sigma * sigma
    if not math.isfinite(b_top):
        raise ConfigurationError(
            f"kernel scale 8 * {scale:g} * sigma^2 overflows "
            f"(sigma = {sigma:g}, omega = {model.omega:g})")
    b = b_top * np.sin(theta) ** 2
    frac = b[..., None] / (model.omega * d * d + b[..., None])
    out = np.exp(n_sym * np.log(diag + pair_terms(w, frac).sum(axis=-1)))
    return float(out) if theta.ndim == 0 else out


def kernel_grid_sum(model: FadingModel, n_sym, sigma: float, c: int, grid: ThetaGrid):
    """Right-endpoint weighted sum of the kernel over the theta grid (last
    axis): a float for scalar n_sym, one sum per row for a column of them.

    Upper-bounds (1/pi) times the kernel's integral over [0, pi/2] because
    the kernel is non-decreasing in theta.
    """
    vals = kernel(model, grid.thetas[1:], sigma, c, n_sym)
    sums = (grid.weights * vals).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


# Arrays of the pair-term shape (N, 2^c - 1) that one kernel call holds at
# once: frac, its denominator or family transform, and the weighted terms.
_PAIR_ARRAYS = {RAYLEIGH: 2, NAKAGAMI: 3, RICIAN: 4}


def pe_bound_bytes(model: FadingModel, params: CodeParams, N: int) -> int:
    """Peak bytes of one `pe_bound` over an N-cell grid, the grid included:
    the pair terms, or two rows per segment (the kernel rows and their
    weighted copy), beside a few theta- and pair-sized arrays.  Measured by
    tracemalloc for c in 1..16 and up to 256 segments once arrays pass the
    256 KiB from which numpy reuses temporaries (smaller calls stay < 4 MiB)."""
    pairs = (1 << params.c) - 1
    held = max(_PAIR_ARRAYS[model.kind] * pairs, 2 * params.num_segments)
    return 8 * (N * (held + 8) + 4 * pairs)


def tail_symbols(params: CodeParams, a):
    """Symbol slots in rows a..n/k (a may be an array of segment indices):
    where two candidates first differing at a produce independent symbols."""
    if np.any((a < 1) | (a > params.num_segments)):
        raise ValueError(f"segment index must be in 1..{params.num_segments}, got {a}")
    return (params.num_segments - a + 1) * params.L


def pe_bound(params: CodeParams, model: FadingModel, sigma: float,
             grid: ThetaGrid) -> BoundResult:
    """Frame-error upper bound 1 - prod_a (1 - segment bound a).

    Segment a bounds the chance that a is the first decoding error: the
    grid sum over its tail symbols, times the (2^k - 1) * 2^(n - a*k)
    candidates that agree on segments 1..a-1 and differ at a, clamped to 1.
    """
    a = np.arange(1, params.num_segments + 1)
    sums = kernel_grid_sum(model, tail_symbols(params, a)[:, None], sigma,
                           params.c, grid)
    # From n - a*k near 1024 on, the multiplicity overflows to inf; inf * sum
    # is inf, or nan where the sum underflowed to 0, and np.fmin clamps both
    # to 1, which is still a valid bound.
    with np.errstate(over="ignore", invalid="ignore"):
        mult = ((1 << params.k) - 1) * 2.0 ** (params.n - a * params.k)
        eps = np.fmin(1.0, mult * sums)
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
