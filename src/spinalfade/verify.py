"""Self-check suite: closed forms against their independent oracles.

Each check returns the observed worst deviation and the tolerance it must
stay within, so the CLI can print one table row per check.  Every check
evaluates the kernel through `kernel(model, ...)`, the one body shared by
all three fading families, and looks it up through this module's
attribute on purpose: tests inject faults by rebinding `verify.kernel`
and asserting that the right check trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .bounds import (
    exp_moment,
    fading_integral_oracle,
    kernel,
    pairwise_error_mc,
    q_craig,
    uniform_theta_grid,
    _pair_profile,
)
from .channel import FadingModel, pdf
from .mixing import CounterStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.observed <= self.tolerance


def _draw_models(rng: np.random.Generator, count: int) -> list[FadingModel]:
    models = []
    for i in range(count):
        omega = float(rng.uniform(0.25, 4.0))
        kind = i % 3
        if kind == 0:
            models.append(FadingModel.rayleigh(omega))
        elif kind == 1:
            models.append(FadingModel.nakagami(float(rng.uniform(0.5, 4.0)), omega))
        else:
            models.append(FadingModel.rician(float(rng.uniform(0.0, 4.0)), omega))
    return models


def check_pairwise_error_mc(quick: bool = False, seed: int = 0) -> CheckResult:
    """MC frequency of the pairwise error event against the Q-function.

    Observed value is the worst deviation in units of 3 binomial stderr.
    """
    trials = 100_000 if quick else 1_000_000
    vectors = 6 if quick else 20
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(vectors):
        dim = int(rng.integers(1, 25))
        v = rng.normal(size=dim)
        v *= rng.uniform(0.5, 4.0) / np.linalg.norm(v)
        sigma = 1.0
        p_hat = pairwise_error_mc(v, sigma, trials, CounterStream(seed + 7919 * i))
        p_ref = q_craig(float(np.linalg.norm(v)) / (2.0 * sigma), resolution=400)
        stderr = math.sqrt(max(p_ref * (1.0 - p_ref), 1e-12) / trials)
        worst = max(worst, abs(p_hat - p_ref) / (3.0 * stderr))
    return CheckResult("pairwise-error-mc", worst, 1.0)


def check_fading_integrals(quick: bool = False, seed: int = 1) -> CheckResult:
    """Closed-form fading averages against adaptive quadrature."""
    draws = 24 if quick else 200
    rng = np.random.default_rng(seed)
    worst = 0.0
    models = _draw_models(rng, draws)
    for model in models:
        u = float(rng.uniform(0.0, 10.0))
        sigma = float(rng.uniform(0.1, 10.0))
        theta = float(rng.uniform(0.05, math.pi / 2))
        closed = exp_moment(model, u, sigma, theta)
        numeric = fading_integral_oracle(model, u, sigma, theta)
        worst = max(worst, abs(closed - numeric))
    return CheckResult("fading-integral-vs-quadrature", worst, 1e-8)


def check_kernel_vs_quadrature(quick: bool = False, seed: int = 2) -> CheckResult:
    """Each kernel at n_sym = 1 against the quadrature-built pair sum."""
    draws = 3 if quick else 9
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model in _draw_models(rng, draws):
        sigma = float(rng.uniform(0.3, 3.0))
        theta = float(rng.uniform(0.2, math.pi / 2))
        c = int(rng.integers(1, 4))
        d, w, diag = _pair_profile(c)
        total = diag + sum(
            wt * fading_integral_oracle(model, float(dv), sigma, theta)
            for dv, wt in zip(d, w)
        )
        worst = max(worst, abs(kernel(model, theta, sigma, c, 1) - total))
    return CheckResult("kernel-vs-quadrature", worst, 1e-8)


def check_reduction_identities(quick: bool = False, seed: int = 3) -> CheckResult:
    """Nakagami(m=1) and Rician(K=0) kernels must equal the Rayleigh kernel."""
    draws = 1_000 if quick else 10_000
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi / 2, size=draws)
    worst = 0.0
    for _ in range(8 if quick else 20):
        sigma = float(rng.uniform(0.1, 10.0))
        omega = float(rng.uniform(0.25, 4.0))
        c = int(rng.integers(1, 9))
        n_sym = int(rng.integers(1, 25))
        ray = kernel(FadingModel.rayleigh(omega), theta, sigma, c, n_sym)
        nak = kernel(FadingModel.nakagami(1.0, omega), theta, sigma, c, n_sym)
        ric = kernel(FadingModel.rician(0.0, omega), theta, sigma, c, n_sym)
        worst = max(worst,
                    float(np.max(np.abs(nak - ray) / ray)),
                    float(np.max(np.abs(ric - ray) / ray)))
    return CheckResult("reduction-identities", worst, 1e-12)


def _kernel_draws(rng: np.random.Generator, count: int):
    """`count` (model, sigma, c, n_sym) draws, the three families in turn."""
    for model in _draw_models(rng, count):
        yield (model, float(rng.uniform(0.1, 10.0)), int(rng.integers(1, 9)),
               int(rng.integers(1, 25)))


def check_theta_monotonicity(quick: bool = False, seed: int = 4) -> CheckResult:
    """Kernels non-decreasing in theta over a 1000-point scan, 10 (quick)
    or 100 draws of each family.

    Observed value is the most negative step, clipped at zero when
    everything is in order.
    """
    theta = np.linspace(0.0, math.pi / 2, 1_000)
    worst = 0.0
    for model, sigma, c, n_sym in _kernel_draws(np.random.default_rng(seed),
                                                30 if quick else 300):
        worst = max(worst, float(-np.min(np.diff(kernel(model, theta, sigma, c, n_sym)))))
    return CheckResult("theta-monotonicity", worst, 1e-12)


def check_grid_over_approximation(quick: bool = False, seed: int = 5) -> CheckResult:
    """The 20-cell right-endpoint grid sum dominates the kernel's integral.

    Observed value is the largest excess of the integral over the grid
    sum, clipped at zero; any excess at all fails.
    """
    grid = uniform_theta_grid(20)
    worst = 0.0
    for model, sigma, c, n_sym in _kernel_draws(np.random.default_rng(seed),
                                                10 if quick else 100):
        kern = lambda t: kernel(model, t, sigma, c, n_sym)
        integral = quad(kern, 0.0, math.pi / 2, limit=200)[0] / math.pi
        worst = max(worst, integral - float((grid.weights * kern(grid.thetas[1:])).sum()))
    return CheckResult("grid-over-approximation", worst, 0.0)


def check_pdf_moments(quick: bool = False) -> CheckResult:
    """Densities integrate to one with second moment omega."""
    worst = 0.0
    for model in (FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, 1.0),
                  FadingModel.rician(1.0, 1.0), FadingModel.rayleigh(2.5),
                  FadingModel.nakagami(0.5, 0.7), FadingModel.rician(3.0, 1.8)):
        mass = quad(lambda h: float(pdf(model, h)), 0.0, np.inf, limit=100)[0]
        second = quad(lambda h: h * h * float(pdf(model, h)), 0.0, np.inf, limit=100)[0]
        worst = max(worst, abs(mass - 1.0), abs(second - model.omega))
    return CheckResult("pdf-moments", worst, 1e-6)


ALL_CHECKS = (
    check_pairwise_error_mc,
    check_fading_integrals,
    check_kernel_vs_quadrature,
    check_reduction_identities,
    check_theta_monotonicity,
    check_grid_over_approximation,
    check_pdf_moments,
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    return [check(quick=quick) for check in ALL_CHECKS]
