"""CLI tests: subcommands, validation exits, output formats, determinism."""

import csv
import dataclasses
import io
import json
import math
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinalfade import CapacityError, cli, pe_bound, uniform_theta_grid, verify
from spinalfade.cli import main
from spinalfade.decoder import MEMORY_BUDGET

SIM_ARGS = ["--n", "4", "--k", "2", "--c", "4", "--L", "2",
            "--snr-start", "0", "--snr-stop", "8", "--snr-step", "4",
            "--trials", "1000", "--seed", "3"]


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


def test_search_over_memory_budget_exit_one(capsys):
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
def test_largest_accepted_theta_grid_peaks_under_budget(code, family):
    config = cli.RunConfig(**code, **family)
    params, model = config.code_params(), config.fading_model()
    low, high = 1, 1 << 30                   # accepted, rejected
    while high - low > 1:
        mid = (low + high) // 2
        try:
            cli._code_model_grid(dataclasses.replace(config, theta_points=mid))
            low = mid
        except CapacityError:
            high = mid
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
    c=st.sampled_from([0, 17]), v=st.sampled_from([0, 65]), L=st.sampled_from([0, -1]),
    snr_start=st.sampled_from([math.inf, "0"]), snr_stop=st.just(-math.inf),
    snr_step=st.floats(max_value=0.0), theta_points=st.sampled_from([0, -1, 1 << 40]),
    seed=st.just(-1), format=st.sampled_from(["xml", 1]),
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
