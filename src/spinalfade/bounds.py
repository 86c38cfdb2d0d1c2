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
the multiplicity, so one evaluation of the pair terms per SNR point serves
them all.  `pe_bound` takes an SNR grid's points a chunk at a time: one
kernel call per chunk writes the pair terms of all its points into two
chunk-sized work arrays.  It returns the whole grid as one `BoundResult`
of arrays, checked once over all its rows.

Numerical oracles live alongside the closed forms: adaptive quadrature of
the defining fading integrals, a quadrature Q-function, and a Monte Carlo
estimate of the pairwise error probability, so every closed form can be
checked against an independent route.  The adaptive-quadrature oracle
imports `scipy.integrate` on first use, so importing this module, and
every `bound` or `simulate` run, leaves it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import NAKAGAMI, RAYLEIGH, FadingModel, pdf
from .codec import CodeParams, ConfigurationError
from .decoder import MEMORY_BUDGET, CapacityError
from .mixing import CounterStream

QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 60
# Trials whose noise `pairwise_error_mc` draws at a time.
_MC_BLOCK = 100_000


class ThetaGrid:
    """Uniform partition of [0, pi/2] into N cells: thetas[r] = r pi / (2N)
    and weights[r-1] = (theta_r - theta_{r-1}) / pi, so the weighted sum of
    a function's right-endpoint values over-estimates (1/pi) times its
    integral when the function is increasing.  An N whose arrays (24 N bytes)
    would pass MEMORY_BUDGET is a CapacityError, raised before any is made."""

    def __init__(self, N: int):
        if N < 1:
            raise ConfigurationError(f"theta grid needs N >= 1, got {N}")
        if 24 * (N + 1) > MEMORY_BUDGET:
            raise CapacityError(f"{N} theta cells pass the {MEMORY_BUDGET >> 20} MiB budget")
        self.thetas = np.linspace(0.0, math.pi / 2, N + 1)
        self.weights = np.diff(self.thetas) / math.pi


def uniform_theta_grid(N: int) -> ThetaGrid:
    """Uniform grid with N cells: nodes r * pi / (2N), weights 1/(2N)."""
    return ThetaGrid(N)


@dataclass(frozen=True)
class BoundResult:
    """Per-segment bounds and the frame-error bounds they chain into, for
    one SNR point or a grid of P points.

    One point holds segment_bounds of shape (n/k,) and pe as a float; a
    grid holds shapes (P, n/k) and (P,), row i being point i, and `row(i)`
    gives that point on its own.  Construction checks every row at once:
    each segment bound and each pe lies in [0, 1] (so NaN is refused), and
    each pe equals its row's 1 - prod(1 - eps) to 1e-12 relative.
    """

    segment_bounds: np.ndarray
    pe: float | np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.segment_bounds, dtype=np.float64)
        pe = np.asarray(self.pe, dtype=np.float64)
        if eps.ndim < 1 or pe.shape != eps.shape[:-1]:
            raise ConfigurationError(
                f"segment bounds of shape {eps.shape} do not match "
                f"frame bounds of shape {pe.shape}")
        if not np.all((eps >= 0.0) & (eps <= 1.0)):
            raise ConfigurationError("segment bounds must lie in [0, 1]")
        if not np.all((pe >= 0.0) & (pe <= 1.0)):
            raise ConfigurationError("frame bound must lie in [0, 1]")
        chained = 1.0 - np.prod(1.0 - eps, axis=-1)
        if not np.all(np.abs(chained - pe) <= 1e-12 * np.maximum(pe, 1e-300)):
            raise ConfigurationError("frame bound inconsistent with segments")

    def row(self, i: int) -> BoundResult:
        """Point i of a grid result."""
        return BoundResult(segment_bounds=self.segment_bounds[i], pe=float(self.pe[i]))


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
    for Rician (scale K + 1).  `pair_terms(w, frac, out)` writes the terms,
    already multiplied by the pair weights w, into the array `out` and may
    overwrite `frac`; every operation is the one the formula above spells,
    in that order, so every kernel value is rounded exactly as it is
    written.
    """
    if model.kind == RAYLEIGH:
        return 1.0, lambda w, frac, out: np.multiply(w, frac, out=out)
    if model.kind == NAKAGAMI:
        m = model.m

        def nakagami(w, frac, out):
            frac **= m
            return np.multiply(w, frac, out=out)

        return m, nakagami
    K = model.K

    def rician(w, frac, out):
        np.multiply(w, frac, out=out)
        np.multiply(K, frac, out=frac)
        np.subtract(frac, K, out=frac)
        np.exp(frac, out=frac)
        return np.multiply(out, frac, out=out)

    return K + 1.0, rician


# Words each of the kernel's two work arrays holds at most, unless a single
# SNR point needs more: `pe_bound` hands the kernel as many sigmas at a time
# as fit (6 at N = 20, c = 8), so a grid's pair terms are never held whole.
_CHUNK = 1 << 15


def kernel(model: FadingModel, theta, sigma, c: int, n_sym):
    """Kernel of the given fading model at theta and sigma, raised to the
    n_sym differing symbols; a float when all three are scalars, else an
    array.

    The pair terms are evaluated once on sigma's axes followed by theta's,
    and n_sym broadcasts against that shape: a column of counts against N
    thetas gives one row per count, and a column of sigmas against them
    one block of such rows per sigma.  The equal-pair term is 1 for every
    theta and family (including the 0/0 point at theta = 0, by continuity),
    and at theta = 0 every unequal-pair term vanishes, so the value there
    is 2^(-c * n_sym).  Nakagami at m = 1 and Rician at K = 0 reduce to
    Rayleigh.
    """
    theta = np.asarray(theta, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    scale, pair_terms = _family(model)
    d, w, diag = _pair_profile(c)
    largest = float(np.abs(sigma).max(initial=0.0))
    if not math.isfinite(8.0 * scale * largest * largest):
        raise ConfigurationError(
            f"kernel scale 8 * {scale:g} * sigma^2 overflows "
            f"(sigma = {largest:g}, omega = {model.omega:g})")
    b = np.multiply.outer(8.0 * scale * sigma * sigma, np.sin(theta) ** 2)[..., None]
    frac, terms = np.empty((2, *b.shape[:-1], d.size))
    np.add(model.omega * d * d, b, out=frac)
    np.divide(b, frac, out=frac)
    total = diag + pair_terms(w, frac, terms).sum(axis=-1)
    del frac, terms             # so that the kernel rows never coexist with them
    out = np.exp(n_sym * np.log(total))
    return float(out) if out.ndim == 0 else out


def kernel_grid_sum(model: FadingModel, n_sym, sigma, c: int, grid: ThetaGrid):
    """Right-endpoint weighted sum of the kernel over the theta grid (last
    axis): a float for scalar n_sym and sigma, else one sum per row of the
    kernel's array.

    Upper-bounds (1/pi) times the kernel's integral over [0, pi/2] because
    the kernel is non-decreasing in theta.
    """
    vals = kernel(model, grid.thetas[1:], sigma, c, n_sym)
    sums = (grid.weights * vals).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def _points_per_chunk(params: CodeParams, N: int) -> int:
    """SNR points one kernel call of `pe_bound` takes over an N-cell grid: as
    many as fit _CHUNK words per work array and per kernel-row array, and at least one."""
    return max(1, _CHUNK // (N * max((1 << params.c) - 1, params.num_segments)))


def tail_symbols(params: CodeParams, a):
    """Symbol slots in rows a..n/k (a may be an array of segment indices):
    where two candidates first differing at a produce independent symbols."""
    if np.any((a < 1) | (a > params.num_segments)):
        raise ValueError(f"segment index must be in 1..{params.num_segments}, got {a}")
    return (params.num_segments - a + 1) * params.L


def pe_bound(params: CodeParams, model: FadingModel, sigma,
             grid: ThetaGrid) -> BoundResult:
    """Frame-error upper bound 1 - prod_a (1 - segment bound a), as one
    BoundResult: of one point for a scalar sigma, of a grid, row i for
    sigma i, for a 1-D array or sequence of P sigmas (P may be 0).

    Segment a bounds the chance that a is the first decoding error: the
    grid sum over its tail symbols, times the (2^k - 1) * 2^(n - a*k)
    candidates that agree on segments 1..a-1 and differ at a, clamped to 1.
    Every point's segments share one evaluation of its pair terms, and
    the kernel takes the points `_points_per_chunk` at a time.  Before the
    first, it counts from their shapes the bytes it will hold; a count past
    MEMORY_BUDGET is a CapacityError.
    """
    sigmas = np.asarray(sigma, dtype=np.float64)
    if sigmas.ndim > 1:
        raise ValueError(f"sigma must be a scalar or 1-D, got shape {sigmas.shape}")
    column = sigmas.reshape(-1, 1)
    points, N = column.shape[0], grid.weights.size
    pairs, rows = (1 << params.c) - 1, params.num_segments
    per = _points_per_chunk(params, N)
    # Per theta node of a chunk, its two work arrays (or its kernel rows and
    # their weighted copy) and up to eight node-sized ones; numpy's buffers for
    # two broadcast operands; pair-sized arrays; two (P, n/k) and four (P,) results.
    need = 8 * (per * N * (2 * max(pairs, rows) + 8) + 2 * np.getbufsize() + 4 * pairs
                + points * (2 * rows + 4))
    if need > MEMORY_BUDGET:
        raise CapacityError(f"a bound over {N} theta cells at c={params.c} needs "
                            f"{need >> 20} MiB, over the {MEMORY_BUDGET >> 20} MiB budget")
    a = np.arange(1, rows + 1)
    n_sym = tail_symbols(params, a)[:, None]
    sums = np.empty((points, rows))
    for i in range(0, points, per):
        sums[i:i + per] = kernel_grid_sum(model, n_sym, column[i:i + per], params.c, grid)
    # From n - a*k near 1024 on, the multiplicity overflows to inf; inf * sum
    # is inf, or nan where the sum underflowed to 0, and np.fmin clamps both
    # to 1, which is still a valid bound.  Both steps work in place.
    with np.errstate(over="ignore", invalid="ignore"):
        sums *= ((1 << params.k) - 1) * 2.0 ** (params.n - a * params.k)
        eps = np.fmin(1.0, sums, out=sums)
    pe = 1.0 - (1.0 - eps).prod(axis=-1)
    if sigmas.ndim == 0:
        return BoundResult(segment_bounds=eps[0], pe=float(pe[0]))
    return BoundResult(segment_bounds=eps, pe=pe)


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
    family switch and so rounded as the kernel rounds it."""
    _check_theta(theta)
    scale, pair_terms = _family(model)
    b = 8.0 * scale * sigma * sigma * math.sin(theta) ** 2
    frac = np.array(b / (model.omega * u * u + b))
    return float(pair_terms(1.0, frac, np.empty(())))


def fading_integral_oracle(model: FadingModel, u: float, sigma: float,
                           theta: float) -> float:
    """Adaptive quadrature of the integral `exp_moment` solves in closed
    form; independent of the closed-form route."""
    # Imported on first call: scipy.integrate takes about 0.2 s to import,
    # and no bound or simulate run needs it.
    from scipy.integrate import quad

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


def pairwise_error_mc(v_vector, sigma: float, trials: int, rand: CounterStream) -> float:
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
        block = min(_MC_BLOCK, trials - done)
        noise = sigma * rand.normals(block * v.size).reshape(block, v.size)
        hits += int(np.count_nonzero(vnorm2 + 2.0 * (noise @ v) <= 0.0))
        done += block
    return hits / trials
