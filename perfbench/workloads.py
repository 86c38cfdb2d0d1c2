"""The benchmark's workloads: inputs from the run seed, one timed operation,
and the correctness check that runs after the timed window.

Operations go through the package's public entry points, looked up on the
module at call time so the traced run's wrappers see them:
`spinalfade.cli.main` for the sweeps and the bound grid, and
`spinalfade.decoder.ml_decode` for the fixed-code decoder.  All workloads
use the paper parameters (n=8 k=2 c=8 v=32 L=6, omega=1, N=20) unless a
workload says otherwise, and cycle through the paper's four channels.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from spinalfade import bounds, channel, cli, codec, decoder, mixing, sim

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

PAPER = codec.CodeParams(n=8, k=2, c=8, v=32, L=6)
PAPER_FLAGS = ("--n", "8", "--k", "2", "--c", "8", "--v", "32", "--L", "6",
               "--theta-points", "20")
THETA_CELLS = 20
# Rayleigh, Nakagami m=2, Rician K=0.5, Rician K=1.
PAPER_CHANNELS = (
    (("--model", "rayleigh"), channel.FadingModel.rayleigh()),
    (("--model", "nakagami", "--m", "2"), channel.FadingModel.nakagami(2.0)),
    (("--model", "rician", "--K", "0.5"), channel.FadingModel.rician(0.5)),
    (("--model", "rician", "--K", "1"), channel.FadingModel.rician(1.0)),
)


def load_pins() -> dict:
    with open(PINS_PATH) as f:
        return json.load(f)


def run_cli(argv) -> str:
    """One in-process `spinalfade` call; returns what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"spinalfade {argv[0]} exited with {code}")
    return buf.getvalue()


def fmt(x: float) -> str:
    return f"{float(x):.11e}"


class Sweep:
    """`spinalfade simulate` at one SNR point per op.

    Op i uses channel i mod 4, SNR point (i // 4) mod len(snrs), and a
    point seed drawn from the workload seed.
    """

    max_ops = 1024
    items_name = "trials"
    latency_name, latency_scale = "point_ms", 1e3
    sample_ops = 2
    scalar_trials = 8

    def __init__(self, name, snrs, trials, workers, check_batch, check_workers):
        self.name = name
        self.snrs, self.trials, self.workers = snrs, trials, workers
        self.check_batch, self.check_workers = check_batch, check_workers

    def setup(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for i in range(self.max_ops):
            flags, model = PAPER_CHANNELS[i % len(PAPER_CHANNELS)]
            snr = self.snrs[(i // len(PAPER_CHANNELS)) % len(self.snrs)]
            op_seed = rng.getrandbits(31)
            argv = ("simulate", *flags, *PAPER_FLAGS, "--omega", "1",
                    "--snr-start", str(snr), "--snr-stop", str(snr),
                    "--trials", str(self.trials), "--workers", str(self.workers),
                    "--seed", str(op_seed))
            ops.append((argv, model, snr, op_seed))
        return ops

    def op(self, state, i):
        return run_cli(state[i % self.max_ops][0])

    def items(self, state, i):
        return self.trials

    def check(self, state, seed, outputs, rng):
        pins = load_pins()[self.name] if seed == DEFAULT_SEED else []
        bad = {}
        for j, (i, text) in enumerate(outputs):
            try:
                errors = self.errors(text)
            except ValueError as exc:
                bad[j] = f"op {i}: malformed output ({exc})"
                continue
            if i < len(pins) and errors != pins[i]:
                bad[j] = f"op {i}: {errors} errors, pinned {pins[i]}"
        for j in rng.sample(range(len(outputs)), min(self.sample_ops, len(outputs))):
            if j not in bad:
                reason = self._recompute(state, *outputs[j])
                if reason:
                    bad[j] = reason
        return bad

    def errors(self, text) -> int:
        """The error count of one op's CSV, after checking the row."""
        lines = text.splitlines()
        if len(lines) != 2 or lines[0] != cli.CSV_HEADER:
            raise ValueError("expected the CSV header and one row")
        cols = lines[1].split(",")
        if len(cols) != 14 or int(cols[9]) != self.trials:
            raise ValueError("wrong column count or trial count")
        errors = int(cols[10])
        if not 0 <= errors <= self.trials or cols[11] != fmt(errors / self.trials):
            raise ValueError("error count and FER disagree")
        if not 0.0 <= float(cols[13]) <= 1.0:
            raise ValueError("bound outside [0, 1]")
        return errors

    def _recompute(self, state, i, text):
        """Recount one op with another batch/worker split, and a few of its
        trials through the scalar `run_trial` path."""
        _, model, snr, op_seed = state[i % self.max_ops]
        sigma = channel.snr_to_sigma(snr, model, PAPER.c)
        # The point seed `sweep` derives for the first (only) SNR point.
        point_seed = int(mixing.absorb(
            mixing.absorb(mixing.SWEEP_DOMAIN, np.uint64(op_seed)), np.uint64(0)))
        again = sim.estimate_fer(PAPER, model, sigma, self.trials, point_seed,
                                 workers=self.check_workers, batch=self.check_batch)
        if again.errors != self.errors(text):
            return (f"op {i}: batch {self.check_batch} x {self.check_workers} "
                    f"workers counts {again.errors} errors")
        scalar = sum(sim.run_trial(PAPER, model, sigma, sim.trial_stream(point_seed, t),
                                   code_seed=sim.codebook_seed(point_seed, t))
                     for t in range(self.scalar_trials))
        block = sim.count_errors(PAPER, model, sigma, point_seed, 0, self.scalar_trials)
        if scalar != block:
            return f"op {i}: run_trial counts {scalar}, count_errors {block}"
        return None


class BoundGrid:
    """`spinalfade bound` over 0..30 dB in 0.5 dB steps (61 points).

    There are 64 configs; config c takes channel family c mod 4 with its
    shape (m in [0.5, 4], K in [0, 4]) and omega in [0.5, 2] drawn from the
    workload seed.  Op i makes one call per family, on configs
    4 * (i mod 16) to 4 * (i mod 16) + 3, so every op costs about the same.
    """

    name = "bound-grid"
    configs = 64
    points = 61
    items_name = "bound_points"
    latency_name, latency_scale = "bound_op_ms", 1e3
    sample_ops = 2

    def setup(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        state = []
        for c in range(self.configs):
            # Rounded so the flag text and the model hold the same value.
            omega = round(rng.uniform(0.5, 2.0), 6)
            family = c % len(PAPER_CHANNELS)
            if family == 0:
                flags, model = ("--model", "rayleigh"), channel.FadingModel.rayleigh(omega)
            elif family == 1:
                m = round(rng.uniform(0.5, 4.0), 6)
                flags = ("--model", "nakagami", "--m", repr(m))
                model = channel.FadingModel.nakagami(m, omega)
            else:
                K = round(rng.uniform(0.0, 4.0), 6)
                flags = ("--model", "rician", "--K", repr(K))
                model = channel.FadingModel.rician(K, omega)
            argv = ("bound", *flags, *PAPER_FLAGS, "--omega", repr(omega),
                    "--snr-start", "0", "--snr-stop", "30", "--snr-step", "0.5")
            state.append((argv, model))
        return state

    def op_configs(self, i):
        first = len(PAPER_CHANNELS) * (i % (self.configs // len(PAPER_CHANNELS)))
        return range(first, first + len(PAPER_CHANNELS))

    def op(self, state, i):
        return tuple(run_cli(state[c][0]) for c in self.op_configs(i))

    def items(self, state, i):
        return self.points * len(PAPER_CHANNELS)

    def check(self, state, seed, outputs, rng):
        pins = load_pins()[self.name] if seed == DEFAULT_SEED else None
        first = {}
        bad = {}
        for j, (i, texts) in enumerate(outputs):
            for c, text in zip(self.op_configs(i), texts):
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                if pins is not None and digest != pins[c]:
                    bad[j] = f"op {i}: config {c} digest {digest}, pinned {pins[c]}"
                elif first.setdefault(c, text) != text:
                    bad[j] = f"op {i}: config {c} output differs from an earlier op"
                else:
                    reason = self._check_rows(text)
                    if reason:
                        bad[j] = f"op {i}: config {c} {reason}"
        for j in rng.sample(range(len(outputs)), min(self.sample_ops, len(outputs))):
            if j not in bad:
                i, texts = outputs[j]
                f = rng.randrange(len(texts))
                reason = self._dominance(state[self.op_configs(i)[f]][1], texts[f], rng)
                if reason:
                    bad[j] = f"op {i}: {reason}"
        return bad

    def _check_rows(self, text):
        lines = text.splitlines()
        if len(lines) != self.points + 1 or lines[0] != cli.CSV_HEADER:
            return "expected the CSV header and 61 rows"
        prev = 1.0
        for r, line in enumerate(lines[1:]):
            cols = line.split(",")
            if len(cols) != 14 or float(cols[7]) != 0.5 * r or any(cols[9:13]):
                return f"row {r} is malformed"
            pe = float(cols[13])
            if not 0.0 <= pe <= prev * (1 + 1e-12):
                return f"row {r}: bound {pe} not in [0, previous row]"
            prev = pe
        return None

    def _dominance(self, model, text, rng):
        """Re-chain one row from `kernel_grid_sum`, and check one grid sum
        against the integral of the kernel built from `exp_moment`: the sum
        must dominate it (criterion 6) by no more than the right-endpoint
        error allows."""
        row = rng.randrange(self.points)
        cols = text.splitlines()[1 + row].split(",")
        sigma = channel.snr_to_sigma(0.5 * row, model, PAPER.c)
        grid = bounds.uniform_theta_grid(THETA_CELLS)
        sums = [bounds.kernel_grid_sum(model, bounds.tail_symbols(PAPER, a), sigma,
                                       PAPER.c, grid)
                for a in range(1, PAPER.num_segments + 1)]
        eps = [min(1.0, ((1 << PAPER.k) - 1) * 2.0 ** (PAPER.n - a * PAPER.k) * s)
               for a, s in enumerate(sums, start=1)]
        pe = 1.0 - float(np.prod(1.0 - np.array(eps)))
        if fmt(pe) != cols[13]:
            return f"row {row}: bound {cols[13]}, re-chained {fmt(pe)}"

        a = rng.randrange(1, PAPER.num_segments + 1)
        n_sym = bounds.tail_symbols(PAPER, a)
        top = (1 << PAPER.c)
        d = np.arange(1, top, dtype=np.float64)
        w = 2.0 * (top - d) / top ** 2
        diag = 1.0 / top

        def oracle(theta):
            pairs = sum(wi * bounds.exp_moment(model, di, sigma, theta) for di, wi in zip(d, w))
            return (diag + pairs) ** n_sym

        integral = quad(oracle, 0.0, math.pi / 2, epsabs=0.0, epsrel=1e-10, limit=200)[0] / math.pi
        rise = oracle(math.pi / 2) - diag ** n_sym
        gap = sums[a - 1] - integral
        slack = 1e-9 * max(integral, 1e-300)
        if not -slack <= gap <= rise * float(grid.weights.max()) + slack:
            return (f"row {row} segment {a}: grid sum {sums[a - 1]:.6e} "
                    f"vs integral {integral:.6e}")
        return None


class DecodeFixedCode:
    """`ml_decode` of pregenerated frames with one prebuilt `CandidateTable`.

    n=12 (4096 candidates); frames come from `encode` + `transmit` at SNRs
    uniform on 0..30 dB, channel j mod 4; op i decodes frame i mod 1024.
    """

    name = "decode-fixed-code"
    params = codec.CodeParams(n=12, k=2, c=8, v=32, L=6)
    frames = 1024
    items_name = "frames"
    latency_name, latency_scale = "frame_us", 1e6
    brute_force_frames = 2

    def setup(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        code_seed = rng.getrandbits(32)
        table = decoder.CandidateTable(self.params, code_seed)
        pool = []
        for j in range(self.frames):
            model = PAPER_CHANNELS[j % len(PAPER_CHANNELS)][1]
            sigma = channel.snr_to_sigma(rng.uniform(0.0, 30.0), model, self.params.c)
            msg = codec.Message(rng.getrandbits(self.params.n), self.params.n)
            stream = mixing.CounterStream(rng.getrandbits(63))
            pool.append(channel.transmit(codec.encode(msg, self.params, code_seed),
                                         model, sigma, stream))
        return code_seed, table, pool

    def op(self, state, i):
        code_seed, table, pool = state
        result = decoder.ml_decode(pool[i % self.frames], self.params, code_seed,
                                   table=table)
        return result.decoded.value, result.tie, result.min_cost

    def items(self, state, i):
        return 1

    @staticmethod
    def decision(out) -> str:
        value, tie, _ = out
        return f"{value | (int(tie) << 12):04x}"

    def check(self, state, seed, outputs, rng):
        code_seed, _, pool = state
        pins = load_pins()[self.name] if seed == DEFAULT_SEED else None
        first = {}
        bad = {}
        for j, (i, out) in enumerate(outputs):
            f = i % self.frames
            code = self.decision(out)
            if pins is not None and code != pins[4 * f:4 * f + 4]:
                bad[j] = f"op {i}: decision {code}, pinned {pins[4 * f:4 * f + 4]}"
            elif first.setdefault(f, out) != out:
                bad[j] = f"op {i}: frame {f} decoded differently before"
        for f, (value, tie, min_cost) in first.items():
            cost = decoder.candidate_cost(codec.Message(value, self.params.n), pool[f],
                                          self.params, code_seed)
            if not math.isclose(cost, min_cost, rel_tol=1e-9, abs_tol=1e-9):
                bad.update((j, f"frame {f}: reported cost {min_cost}, re-encoded {cost}")
                           for j, (i, _) in enumerate(outputs) if i % self.frames == f)
        for f in rng.sample(sorted(first), min(self.brute_force_frames, len(first))):
            oracle = decoder.brute_force_decode(pool[f], self.params, code_seed)
            value, tie, _ = first[f]
            if (oracle.decoded.value, oracle.tie) != (value, tie):
                bad.update((j, f"frame {f}: decoded {value}, brute force {oracle.decoded.value}")
                           for j, (i, _) in enumerate(outputs) if i % self.frames == f)
        return bad


WORKLOADS = {w.name: w for w in (
    Sweep("sweep-low-snr", snrs=(0, 2, 4), trials=2048, workers=1, check_batch=1000, check_workers=2),
    Sweep("sweep-high-snr", snrs=(16, 22, 30), trials=4096, workers=2, check_batch=1500, check_workers=1),
    BoundGrid(),
    DecodeFixedCode(),
)}
