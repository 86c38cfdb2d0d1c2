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

from spinalfade import (
    CodeParams,
    CounterStream,
    FadingModel,
    Message,
    brute_force_decode,
    encode,
    ml_decode,
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
    start = time.perf_counter()
    check = verify.check_pairwise_error_mc(quick=False, seed=11)
    elapsed = time.perf_counter() - start
    ok = check.passed and check.tolerance == 1.0 and elapsed < 120.0
    report(4, "pairwise error statistics", ok,
           f"20 vectors, dims 1-24, 1e6 trials each; worst deviation = "
           f"{check.observed:.2f} x (3 stderr); runtime {elapsed:.1f}s < 120s")


def test_criterion_5_reduction_identities():
    check = verify.check_reduction_identities(quick=False, seed=5)
    ok = check.passed and check.tolerance == 1e-12
    report(5, "reduction identities", ok,
           f"20 parameter draws x 10000 thetas; worst relative gap = "
           f"{check.observed:.2e} <= 1e-12")


def test_criterion_6_monotonicity_and_over_approximation():
    steps = verify.check_theta_monotonicity(quick=False, seed=6)
    gap = verify.check_grid_over_approximation(quick=False, seed=6)
    ok = (steps.passed and steps.tolerance == 1e-12
          and gap.passed and gap.tolerance == 0.0)
    report(6, "theta monotonicity and over-approximation", ok,
           f"100 draws x 3 families x 1000-point grid; worst downward step = "
           f"{steps.observed:.2e}; 100 draws, max(integral - grid sum) = "
           f"{gap.observed:+.2e} <= 0")


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
