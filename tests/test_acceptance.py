"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  The headline sweep (criterion 1) is shared with the Rician
ordering check (criterion 2) through a session fixture.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from spinalfade import (
    CodeParams,
    CounterStream,
    FadingModel,
    Message,
    brute_force_decode,
    encode,
    kernel,
    kernel_grid_sum,
    ml_decode,
    pairwise_error_mc,
    q_craig,
    sweep,
    transmit,
    uniform_theta_grid,
)
from spinalfade import verify
from spinalfade.cli import main
from test_codec import collision_count

PAPER_PARAMS = CodeParams(n=8, k=2, c=8, v=32, L=6)
SNR_GRID = [float(s) for s in range(0, 31, 2)]
TRIALS_PER_POINT = 100_000
WORKERS = min(4, os.cpu_count() or 1)

SWEEP_MODELS = {
    "rayleigh": FadingModel.rayleigh(1.0),
    "nakagami-m2": FadingModel.nakagami(2.0, 1.0),
    "rician-K0.5": FadingModel.rician(0.5, 1.0),
    "rician-K1": FadingModel.rician(1.0, 1.0),
}


def report(criterion, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} — {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="session")
def paper_sweeps():
    grid = uniform_theta_grid(20)
    results = {}
    start = time.perf_counter()
    for label, model in SWEEP_MODELS.items():
        results[label] = sweep(PAPER_PARAMS, model, SNR_GRID, TRIALS_PER_POINT,
                               seed=0, grid=grid, workers=WORKERS)
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_1_bound_dominance(paper_sweeps):
    worst = -np.inf
    worst_at = ""
    for label in SWEEP_MODELS:
        rows = paper_sweeps[label]
        assert len(rows) == len(SNR_GRID)
        for row in rows:
            slack = row.fer.fer - (row.bound.pe + 3.0 * row.fer.stderr)
            if slack > worst:
                worst, worst_at = slack, f"{label}@{row.snr_db:g}dB"
        # empirical FER non-increasing in SNR within 3 stderr
        for a, b in zip(rows, rows[1:]):
            spread = math.hypot(a.fer.stderr, b.fer.stderr)
            assert b.fer.fer <= a.fer.fer + 3.0 * spread, (
                f"{label}: FER rose from {a.snr_db} to {b.snr_db} dB")
    elapsed = paper_sweeps["elapsed"]
    ok = worst <= 0.0 and elapsed < 1800.0
    report(1, "bound dominance",
           ok,
           f"4 models x {len(SNR_GRID)} points x {TRIALS_PER_POINT} trials; "
           f"worst fer-(bound+3se) = {worst:+.2e} at {worst_at}; "
           f"runtime {elapsed:.0f}s < 1800s")


def test_criterion_2_rician_ordering(paper_sweeps):
    low_k = paper_sweeps["rician-K0.5"]
    high_k = paper_sweeps["rician-K1"]
    worst_bound = max(h.bound.pe - l.bound.pe for h, l in zip(high_k, low_k))
    worst_sim = -np.inf
    for h, l in zip(high_k, low_k):
        spread = math.hypot(h.fer.stderr, l.fer.stderr)
        worst_sim = max(worst_sim, h.fer.fer - (l.fer.fer + 3.0 * spread))
    ok = worst_bound <= 0.0 and worst_sim <= 0.0
    report(2, "Rician K ordering", ok,
           f"max bound(K=1)-bound(K=0.5) = {worst_bound:+.2e}; "
           f"max fer(K=1)-fer(K=0.5)-3se = {worst_sim:+.2e}")


def test_criterion_3_closed_form_integrals():
    start = time.perf_counter()
    check = verify.check_fading_integrals(quick=False, seed=2024)
    elapsed = time.perf_counter() - start
    ok = check.passed and check.tolerance == 1e-8 and elapsed < 60.0
    report(3, "closed-form integral oracles", ok,
           f"200 draws; worst |closed - quadrature| = {check.observed:.2e} <= 1e-8; "
           f"runtime {elapsed:.1f}s < 60s")


def test_criterion_4_pairwise_error_statistics():
    rng = np.random.default_rng(11)
    sigma = 1.0
    trials = 1_000_000
    start = time.perf_counter()
    worst = 0.0
    dims = list(range(1, 25)) * 2
    for i in range(20):
        dim = dims[int(rng.integers(0, len(dims)))]
        v = rng.normal(size=dim)
        v *= float(rng.uniform(0.5, 4.0)) / np.linalg.norm(v)
        p_hat = pairwise_error_mc(v, sigma, trials, CounterStream(1_000 + i))
        p_ref = q_craig(float(np.linalg.norm(v)) / (2 * sigma), resolution=400)
        stderr = math.sqrt(p_ref * (1.0 - p_ref) / trials)
        worst = max(worst, abs(p_hat - p_ref) / (3.0 * stderr))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 120.0
    report(4, "pairwise error statistics", ok,
           f"20 vectors, dims 1-24, 1e6 trials each; worst deviation = "
           f"{worst:.2f} x (3 stderr); runtime {elapsed:.1f}s < 120s")


def test_criterion_5_reduction_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    evaluations = 0
    while evaluations < 10_000:
        theta = rng.uniform(0.0, math.pi / 2, size=500)
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
        evaluations += theta.size
    ok = worst <= 1e-12
    report(5, "reduction identities", ok,
           f"{evaluations} evaluations; worst relative gap = {worst:.2e} <= 1e-12")


def test_criterion_6_monotonicity_and_over_approximation():
    rng = np.random.default_rng(6)
    theta = np.linspace(0.0, math.pi / 2, 1_000)
    grid = uniform_theta_grid(20)
    worst_step = 0.0
    worst_gap = np.inf
    for i in range(100):
        omega = float(rng.uniform(0.25, 4.0))
        sigma = float(rng.uniform(0.1, 10.0))
        c = int(rng.integers(1, 9))
        n_sym = int(rng.integers(1, 25))
        m = float(rng.uniform(0.5, 4.0))
        K = float(rng.uniform(0.0, 4.0))
        for family in (FadingModel.rayleigh(omega), FadingModel.nakagami(m, omega),
                       FadingModel.rician(K, omega)):
            vals = kernel(family, theta, sigma, c, n_sym)
            worst_step = max(worst_step, float(-np.min(np.diff(vals))))
        if i % 3 == 0:
            model = FadingModel.rayleigh(omega)
        elif i % 3 == 1:
            model = FadingModel.nakagami(m, omega)
        else:
            model = FadingModel.rician(K, omega)
        grid_sum = kernel_grid_sum(model, n_sym, sigma, c, grid)
        integral = quad(lambda t: kernel(model, t, sigma, c, n_sym),
                        0.0, math.pi / 2, limit=200)[0] / math.pi
        worst_gap = min(worst_gap, grid_sum - integral)
    ok = worst_step <= 1e-12 and worst_gap >= 0.0
    report(6, "theta monotonicity and over-approximation", ok,
           f"100 draws x 1000-point grid; worst downward step = {worst_step:.2e}; "
           f"min(grid sum - integral) = {worst_gap:+.2e} >= 0")


def test_criterion_7_decoder_oracle_equivalence():
    params = CodeParams(n=4, k=2, c=2, v=32, L=2)
    models = [FadingModel.rayleigh(1.0), FadingModel.nakagami(2.0, 1.0),
              FadingModel.rician(0.5, 1.0)]
    checked = 0
    for model in models:
        for value in range(16):
            for draw in range(50):
                symbols = encode(Message(value=value, n=4), params)
                real = transmit(symbols, model, 1.5,
                                CounterStream(10_000 + 997 * checked))
                a = ml_decode(real, params)
                b = brute_force_decode(real, params)
                assert a.decoded == b.decoded, (model.kind, value, draw)
                assert a.min_cost == pytest.approx(b.min_cost, rel=1e-9)
                assert a.tie == b.tie
                checked += 1
    report(7, "decoder oracle equivalence", checked == 3 * 16 * 50,
           f"{checked} decodes: ml_decode == brute_force_decode "
           f"(message, cost to 1e-9 rel, tie flag)")


def test_criterion_8_hash_collision_statistics():
    count, expected = collision_count(1_000_000)
    tol = 5.0 * math.sqrt(expected)
    ok = abs(count - expected) <= tol
    report(8, "hash collision statistics", ok,
           f"{count} collisions over 1e6 distinct pairs at v=16; expected "
           f"{expected:.1f} +- {tol:.1f}")


def test_criterion_9_reproducibility(tmp_path):
    args = ["simulate", "--model", "rician", "--K", "1", "--trials", "2000",
            "--snr-start", "6", "--snr-stop", "14", "--snr-step", "4",
            "--seed", "0"]
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("run1", "run2", "w1", "w4")}
    assert main([*args, "--out", str(paths["run1"])]) == 0
    assert main([*args, "--out", str(paths["run2"])]) == 0
    assert main([*args, "--workers", "1", "--out", str(paths["w1"])]) == 0
    assert main([*args, "--workers", "4", "--out", str(paths["w4"])]) == 0
    rerun_same = paths["run1"].read_bytes() == paths["run2"].read_bytes()
    workers_same = paths["w1"].read_bytes() == paths["w4"].read_bytes()
    baseline_same = paths["run1"].read_bytes() == paths["w1"].read_bytes()
    ok = rerun_same and workers_same and baseline_same
    report(9, "reproducibility", ok,
           f"byte-identical: rerun={rerun_same}, 1-vs-4 workers={workers_same}")
