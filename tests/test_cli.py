"""CLI tests: subcommands, validation exits, output formats, determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinalfade import (CapacityError, bounds, cli, decoder, pe_bound, sim,
                        uniform_theta_grid, verify)
from spinalfade.cli import main
from spinalfade.decoder import MEMORY_BUDGET

SIM_ARGS = ["--n", "4", "--k", "2", "--c", "4", "--L", "2",
            "--snr-start", "0", "--snr-stop", "8", "--snr-step", "4",
            "--trials", "1000", "--seed", "3"]


def fresh_env():
    """Environment for a fresh interpreter that imports this tree's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def assert_one_line_error(capsys, args, code=1):
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_bound_headline_config_shape():
    code, out = run_cli(["bound", "--model", "rayleigh"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 16  # 0..30 dB step 2
    pes = [float(r["pe_bound"]) for r in rows]
    assert all(0.0 <= p <= 1.0 for p in pes)
    assert all(a >= b - 1e-15 for a, b in zip(pes, pes[1:]))
    assert rows[0]["trials"] == ""  # bound mode has no simulation columns


def test_bound_step_beyond_range_single_row():
    code, out = run_cli(["bound", "--snr-start", "5", "--snr-stop", "4",
                         "--snr-step", "10"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["snr_db"]) == 5.0


def test_invalid_params_exit_one(capsys):
    code = main(["bound", "--n", "9", "--k", "2"])
    assert code == 1
    assert "k must divide n" in capsys.readouterr().err


def test_unknown_model_exit_one(tmp_path, capsys):
    assert_one_line_error(capsys, ["bound", "--model", "weibull"])
    conf = tmp_path / "weibull.json"
    conf.write_text(json.dumps({"model": "weibull"}))
    assert_one_line_error(capsys, ["bound", "--config", str(conf)])


def test_zero_theta_points_exit_one():
    code, _ = run_cli(["bound", "--theta-points", "0"])
    assert code == 1


@pytest.mark.parametrize("args", [["bound", "--n", "abc"], ["bound", "--bogus"], []])
def test_usage_error_exit_one(capsys, args):
    assert_one_line_error(capsys, args)


def test_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert "usage: spinalfade bound" in capsys.readouterr().out


# sha256 of whole outputs: the 61-point 0-30 dB bound grid of three fading
# families and one small simulate run, each in both formats.  Any change to
# a number, its formatting or the document layout shows here.
GOLDEN_GRID = ["--snr-start", "0", "--snr-stop", "30", "--snr-step", "0.5"]
GOLDEN = [
    (["bound", "--model", "rayleigh", *GOLDEN_GRID], "csv",
     "524b0c452a6a4b5e995cae37257007f581fe9edba76392374901940e556542fc"),
    (["bound", "--model", "rayleigh", *GOLDEN_GRID], "json",
     "2e40f0fb148bfaa1b471062aa33e89f09c83e0163b2ff3efcac09fe7cce19676"),
    (["bound", "--model", "nakagami", "--m", "2.7", *GOLDEN_GRID], "csv",
     "7d35b784944a4d9c68b2db30f09c8ee4ddc936222510b7db6b3ef18f9dfcfffb"),
    (["bound", "--model", "nakagami", "--m", "2.7", *GOLDEN_GRID], "json",
     "fdbc88f85ad0dba88278c559faaff75e40acb5e508c3124abd70fad9e0740bc5"),
    (["bound", "--model", "rician", "--K", "1", *GOLDEN_GRID], "csv",
     "c37e9f85af2c646e5d1fccfbda00057a32dc31acfdc8434067a297f59a90045e"),
    (["bound", "--model", "rician", "--K", "1", *GOLDEN_GRID], "json",
     "b31befa4c79cc6ab42a50e8fc96bc82e327e27167b7f9872794b4d93c8395eb8"),
    (["simulate", *SIM_ARGS], "csv",
     "d98b7f8a0c3448c9e28a562b55cca8786c7064aa11739cdd6f74b622acb409fa"),
    (["simulate", *SIM_ARGS], "json",
     "9e946f85ead66f765d5c1d44d7d40e3916fda21580120727b37cfb7963eb8825"),
]


@pytest.mark.parametrize("args,fmt,digest", GOLDEN,
                         ids=[f"{a[0]}-{a[2] if a[0] == 'bound' else 'small'}-{f}"
                              for a, f, _ in GOLDEN])
def test_golden_output_bytes(args, fmt, digest):
    code, out = run_cli([*args, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_reproducible_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", *SIM_ARGS, "--out", str(out1)]) == 0
    assert main(["simulate", *SIM_ARGS, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_worker_count_invariant(tmp_path):
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    assert main(["simulate", *SIM_ARGS, "--workers", "1", "--out", str(out1)]) == 0
    assert main(["simulate", *SIM_ARGS, "--workers", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_json_bytes_independent_of_out_path_and_workers(tmp_path):
    out1 = tmp_path / "w1.json"
    out4 = tmp_path / "elsewhere-w4.json"
    assert main(["simulate", *SIM_ARGS, "--format", "json", "--workers", "1",
                 "--out", str(out1)]) == 0
    assert main(["simulate", *SIM_ARGS, "--format", "json", "--workers", "4",
                 "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    assert not {"out", "workers"} & set(json.loads(out1.read_text())["config"])


def test_csv_and_json_carry_identical_numbers(tmp_path):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    assert main(["simulate", *SIM_ARGS, "--format", "csv", "--out", str(csv_path)]) == 0
    assert main(["simulate", *SIM_ARGS, "--format", "json", "--out", str(json_path)]) == 0
    csv_rows = parse_csv(csv_path.read_text())
    doc = json.loads(json_path.read_text())
    assert len(csv_rows) == len(doc["rows"])
    for c_row, j_row in zip(csv_rows, doc["rows"]):
        for field in ("snr_db", "sigma", "fer", "fer_stderr", "pe_bound"):
            assert float(c_row[field]) == j_row[field]
        assert int(c_row["trials"]) == j_row["trials"]
        assert int(c_row["errors"]) == j_row["errors"]
        assert len(j_row["segment_bounds"]) == 2  # n/k for the small code


def test_json_round_trips_through_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"model": "nakagami", "m": 2.0, "n": 4, "k": 2,
                                "c": 4, "L": 2, "snr_start": 0.0,
                                "snr_stop": 0.0, "snr_step": 2.0,
                                "trials": 500}))
    code, out = run_cli(["simulate", "--config", str(conf), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["model"] == "nakagami"
    assert doc["config"]["trials"] == 500
    # flag overrides the file
    code, out = run_cli(["simulate", "--config", str(conf), "--format", "json",
                         "--trials", "250"])
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 250


def test_config_file_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"modle": "rayleigh"}))
    code, _ = run_cli(["bound", "--config", str(conf)])
    assert code == 1


def test_config_wrong_value_type_exit_one(tmp_path, capsys):
    conf = tmp_path / "str.json"
    conf.write_text(json.dumps({"n": "8"}))
    assert_one_line_error(capsys, ["bound", "--config", str(conf)])


def test_config_not_an_object_exit_one(tmp_path, capsys):
    conf = tmp_path / "array.json"
    conf.write_text(json.dumps([8, 2]))
    assert_one_line_error(capsys, ["bound", "--config", str(conf)])


def test_missing_config_exit_one(tmp_path, capsys):
    assert_one_line_error(capsys, ["bound", "--config", str(tmp_path / "none.json")])


def test_nan_snr_rejected(capsys):
    assert_one_line_error(capsys, ["simulate", *SIM_ARGS, "--snr-start", "nan"])


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_rejected(capsys, workers):
    assert_one_line_error(capsys, ["simulate", *SIM_ARGS, "--workers", workers])


def test_workers_over_cap_exit_one_without_a_pool(capsys, monkeypatch):
    built = []

    def no_pool(*args, **kwargs):
        built.append(kwargs)
        raise AssertionError("thread pool built for a rejected worker count")

    monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
    assert_one_line_error(capsys, ["simulate", *SIM_ARGS, "--workers", "100000",
                                   "--trials", "100000"])
    assert built == []


@pytest.mark.parametrize("args", [
    ["simulate", *SIM_ARGS, "--seed", str(1 << 64)],
    ["bound", "--seed", str(1 << 64)],
    ["bound", "--L", "10000000000000000000"],   # L itself past int64
    ["bound", "--L", str(1 << 62)],              # (n/k)*L = 2^64 symbols
])
def test_integers_out_of_range_exit_one(capsys, args):
    assert_one_line_error(capsys, args)


def test_config_seed_out_of_range_exit_one(tmp_path, capsys):
    conf = tmp_path / "seed.json"
    conf.write_text(json.dumps({"seed": 1 << 64}))
    assert_one_line_error(capsys, ["bound", "--config", str(conf)])


def test_largest_seed_and_symbol_count_run(capsys):
    # the last --seed given wins
    code, out = run_cli(["simulate", *SIM_ARGS, "--seed", str((1 << 64) - 1)])
    assert code == 0 and len(parse_csv(out)) == 3
    # n/k = 4 rows of (2^63 - 1) // 4 passes: the kernel power underflows to 0
    code, out = run_cli(["bound", "--L", str((1 << 63) // 4 - 1), "--snr-stop", "0"])
    assert code == 0 and float(parse_csv(out)[0]["pe_bound"]) == 0.0
    assert capsys.readouterr().err == ""


def test_long_code_simulates(capsys):
    # 2^24 leaves, of which the search holds only the frontier it keeps
    code, out = run_cli(["simulate", "--n", "24", "--snr-start", "16",
                         "--snr-stop", "16", "--trials", "200"])
    assert code == 0 and capsys.readouterr().err == ""
    (row,) = parse_csv(out)
    assert (row["n"], row["trials"]) == ("24", "200")


def test_search_over_memory_budget_exit_one(capsys, monkeypatch):
    # a frame whose own search level would pass the budget
    monkeypatch.setattr(decoder, "MEMORY_BUDGET", 1 << 16)
    assert_one_line_error(capsys, ["simulate", *SIM_ARGS, "--n", "24"])


@pytest.mark.parametrize("flags", [["--early-stop", "0"], ["--early-stop", "-5"],
                                   ["--min-trials", "-3"]])
def test_bad_early_stop_settings_exit_one(capsys, flags):
    assert_one_line_error(capsys, ["simulate", *SIM_ARGS, "--trials", "5000", *flags])


def test_theta_grid_over_memory_budget_exit_one(capsys):
    assert_one_line_error(capsys, ["bound", "--theta-points", "100000000"])


def test_theta_grid_budget_counts_segment_rows(capsys):
    # c=1: 15 MiB of pair terms, but two kernel rows per segment (n/k = 8)
    assert_one_line_error(capsys, ["bound", "--n", "8", "--k", "1", "--c", "1",
                                   "--theta-points", "2000000"])


@pytest.mark.parametrize("code", [dict(n=8, k=2, c=8), dict(n=8, k=1, c=1)])
@pytest.mark.parametrize("family", [dict(model="rayleigh"),
                                    dict(model="nakagami", m=0.5),
                                    dict(model="rician", K=1.0)])
def test_largest_accepted_theta_grid_peaks_under_budget(monkeypatch, code, family):
    config = cli.RunConfig(**code, **family)
    params, model = config.code_params(), config.fading_model()

    class Accepted(Exception):
        pass

    def kernel(*args):
        raise Accepted

    def accepts(N):
        # before its first kernel call pe_bound reads only the grid's size,
        # so zero-stride stand-ins for its arrays make each probe free
        grid = SimpleNamespace(thetas=np.broadcast_to(0.0, N + 1),
                               weights=np.broadcast_to(0.0, N))
        try:
            pe_bound(params, model, 3.0, grid)
        except Accepted:
            return True
        except CapacityError:
            return False

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "kernel", kernel)
        low, high = 1, 1 << 30               # accepted, rejected
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if accepts(mid) else (low, mid)
    tracemalloc.start()
    try:
        pe_bound(params, model, 3.0, uniform_theta_grid(low))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_BUDGET < 2 * peak


@pytest.mark.parametrize("snr", ["-3100", "-3070", "4000"])
def test_snr_beyond_sigma_range_exit_one(capsys, snr):
    # sigma overflows the power, overflows the product, or underflows to 0
    assert_one_line_error(capsys, ["bound", "--snr-start", snr])


@pytest.mark.parametrize("args", [
    ["--omega", "1e303", "--model", "nakagami", "--m", "8", "--snr-stop", "0"],
    ["--snr-start", "-3035", "--snr-stop", "-3035"],
    # the first of two chunks: 3 points overflow, 3 do not
    ["--snr-start", "-3033", "--snr-stop", "-3025", "--snr-step", "1"],
])
def test_kernel_scale_overflow_exit_one(capsys, args):
    # sigma is finite, but 8 * scale * sigma^2 in the kernel is not
    assert_one_line_error(capsys, ["bound", *args])


def test_multiplicity_overflow_prints_clamped_row(capsys):
    # 2^(n - k) overflows past n = 1024; the segment bound clamps to 1
    code, out = run_cli(["bound", "--n", "1100", "--k", "1", "--snr-stop", "0"])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert float(parse_csv(out)[0]["pe_bound"]) == 1.0


def test_snr_grid_over_memory_budget_exit_one(capsys):
    start = time.perf_counter()
    assert_one_line_error(capsys, ["bound", "--snr-step", "1e-300"])
    assert time.perf_counter() - start < 10.0


def test_snr_grid_budget_counts_points_and_segments(monkeypatch):
    # 3 points of 512 bytes for each of 4 segment bounds plus one
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 3 * cli.POINT_BYTES * 5)
    config = cli.RunConfig(n=8, k=2, snr_start=0.0, snr_step=1.0, snr_stop=2.0)
    assert config.snr_values() == [0.0, 1.0, 2.0]
    with pytest.raises(CapacityError):
        dataclasses.replace(config, snr_stop=3.0).snr_values()
    with pytest.raises(CapacityError):
        dataclasses.replace(config, k=1).snr_values()


@pytest.mark.parametrize("command", ["bound", "simulate"])
def test_one_snr_point_over_memory_budget_names_its_segments(capsys, command):
    # 2,000,000 segment bounds of 512 bytes each: no point fits, so the
    # refusal names the segments, not a grid of "over 0 points"
    assert main([command, "--n", "2000000", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "2000000" in err, err


IN_RANGE = dict(
    model=st.sampled_from(["rayleigh", "nakagami", "rician"]),
    omega=st.sampled_from([1e-6, 1e6]) | st.floats(1e-6, 1e6),
    m=st.sampled_from([0.5, 8.0]) | st.floats(0.5, 8.0),
    K=st.sampled_from([0.0, 8.0]) | st.floats(0.0, 8.0),
    n=st.sampled_from([4, 8, 12]), k=st.sampled_from([1, 2, 4]),
    # c up to 12 keeps an example fast; larger c only makes the rows longer
    c=st.integers(1, 12), v=st.integers(1, 64), L=st.integers(1, 8),
    snr_start=st.floats(-300.0, 300.0), snr_stop=st.floats(-300.0, 300.0),
    snr_step=st.floats(5.0, 600.0), theta_points=st.integers(1, 32),
    seed=st.integers(0, 10), format=st.sampled_from(["csv", "json"]),
)
OUT_OF_RANGE = dict(
    model=st.sampled_from(["weibull", ""]),
    omega=st.floats(max_value=0.0) | st.just(math.nan),
    m=st.floats(max_value=0.49) | st.just(math.nan),
    K=st.floats(max_value=-1e-9) | st.just(math.nan),
    n=st.sampled_from([0, -4, 9, "8"]), k=st.sampled_from([0, 3, 9]),
    c=st.sampled_from([0, 17]), v=st.sampled_from([0, 65]),
    L=st.sampled_from([0, -1, 1 << 62]),
    snr_start=st.sampled_from([math.inf, "0"]), snr_stop=st.just(-math.inf),
    snr_step=st.floats(max_value=0.0), theta_points=st.sampled_from([0, -1, 1 << 40]),
    seed=st.sampled_from([-1, 1 << 64]), format=st.sampled_from(["xml", 1]),
)


@st.composite
def bound_configs(draw):
    conf = {}
    for key in draw(st.sets(st.sampled_from(sorted(IN_RANGE)))):
        bad = draw(st.integers(0, 9)) == 0
        conf[key] = draw((OUT_OF_RANGE if bad else IN_RANGE)[key])
    return conf


@settings(max_examples=100, deadline=None)
@given(bound_configs())
def test_random_bound_config_exits_cleanly(conf):
    # NaN and infinity are written as the JSON extensions Python reads back
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "conf.json"
        path.write_text(json.dumps(conf))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["bound", "--config", str(path)])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") >= 1
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_program_bug_is_not_a_configuration_error(monkeypatch):
    def broken(config):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "cmd_bound", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["bound"])


def test_unwritable_output_exit_three(tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _ = run_cli(["bound", "--out", str(target)])
    assert code == 3


def test_simulate_smoke_runtime():
    start = time.perf_counter()
    code, out = run_cli(["simulate", *SIM_ARGS])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert len(parse_csv(out)) == 3
    assert elapsed < 60.0


def test_early_stop_flag(tmp_path):
    out = tmp_path / "es.csv"
    args = ["simulate", "--n", "4", "--k", "2", "--c", "4", "--L", "2",
            "--snr-start", "0", "--snr-stop", "0", "--snr-step", "2",
            "--trials", "50000", "--seed", "1", "--early-stop",
            "--out", str(out)]
    assert main(args) == 0
    row = parse_csv(out.read_text())[0]
    assert int(row["errors"]) >= 100
    assert int(row["trials"]) < 50_000


def test_flags_leave_no_state_for_the_next_call(tmp_path):
    # The parser is built once per process; a flag given to one call must
    # not carry over to the next.
    assert cli.build_parser() is cli.build_parser()
    args = ["simulate", "--n", "4", "--k", "2", "--c", "4", "--L", "2",
            "--snr-start", "0", "--snr-stop", "0", "--trials", "3000",
            "--seed", "1"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main([*args, "--early-stop", "--quick", "--out", str(first)]) == 0
    assert int(parse_csv(first.read_text())[0]["trials"]) == 1000
    assert main([*args, "--out", str(second)]) == 0
    assert int(parse_csv(second.read_text())[0]["trials"]) == 3000
    assert cli.build_parser().parse_args(["verify"]).quick is False


def test_run_paths_leave_quadrature_unloaded():
    # `bound` never draws a quantile or integrates numerically, so importing
    # the package and running it must load no scipy module at all.
    # `simulate` loads scipy.special at its first draw, and `channel.pdf` in
    # its Nakagami and Rician branches, but neither loads scipy.integrate;
    # the quadrature oracle loads that on its first call.  A fresh
    # interpreter, since this one has scipy loaded.
    script = """
import contextlib, io, math, sys
import numpy as np
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import spinalfade.cli
from spinalfade import bounds, channel
assert not scipy_loaded(), scipy_loaded()[:5]
with contextlib.redirect_stdout(io.StringIO()):
    assert spinalfade.cli.main(["bound", "--snr-stop", "4"]) == 0
assert not scipy_loaded(), "bound loaded " + ", ".join(scipy_loaded()[:5])
with contextlib.redirect_stdout(io.StringIO()):
    assert spinalfade.cli.main(["simulate", "--model", "rician", "--K", "1",
                                "--n", "4", "--k", "2", "--c", "4", "--L", "2",
                                "--snr-stop", "4", "--trials", "50"]) == 0
h = np.linspace(0.0, 3.0, 7)
for model in (channel.FadingModel.nakagami(2.5), channel.FadingModel.rician(1.0)):
    density = channel.pdf(model, h)
    assert np.all(np.isfinite(density)) and np.all(density[1:] > 0), density
assert "scipy.special" in sys.modules
assert "scipy.integrate" not in sys.modules, "run paths loaded scipy.integrate"
value = bounds.fading_integral_oracle(channel.FadingModel.rayleigh(), 1.0, 1.0, math.pi / 4)
assert 0.0 < value < 1.0, value
assert "scipy.integrate" in sys.modules
"""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_first_scipy_load_in_worker_threads():
    # The first draw of a fresh interpreter's `simulate` imports
    # scipy.special inside the worker threads, both at once here; the
    # counts must not depend on which thread imports it.
    args = ["simulate", "--model", "rician", "--K", "1", *SIM_ARGS]
    script = """
import sys
import spinalfade.cli
assert "scipy.special" not in sys.modules
sys.exit(spinalfade.cli.main(sys.argv[1:]))
"""
    done = subprocess.run([sys.executable, "-c", script, *args, "--workers", "2"],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, out = run_cli([*args, "--workers", "1"])
    assert code == 0
    assert done.stdout == out


def test_verify_quick_passes():
    code, out = run_cli(["verify", "--quick"])
    assert code == 0
    assert out.count("pass") >= 6


def test_verify_detects_perturbed_kernel(monkeypatch):
    pristine = verify.kernel

    def crooked(model, theta, sigma, c, n_sym):
        return 1.01 * pristine(model, theta, sigma, c, n_sym)

    monkeypatch.setattr(verify, "kernel", crooked)
    code, out = run_cli(["verify", "--quick"])
    assert code == 2
    assert any("kernel-vs-quadrature" in line and "FAIL" in line
               for line in out.splitlines())
