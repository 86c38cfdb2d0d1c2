"""CLI tests: subcommands, validation exits, output formats, determinism."""

import csv
import io
import json
import time
from contextlib import redirect_stdout

import pytest

from spinalfade import cli, verify
from spinalfade.cli import main

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
    # c=1: 30 MiB of pair terms, but one kernel row per segment (n/k = 8)
    assert_one_line_error(capsys, ["bound", "--n", "8", "--k", "1", "--c", "1",
                                   "--theta-points", "4000000"])


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
