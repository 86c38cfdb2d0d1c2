"""Command-line front end: bound evaluation, Monte Carlo sweeps, self-checks.

Exit codes: 0 success, 1 invalid configuration (a bad flag, config file
or value), 2 failed self-check, 3 output I/O failure.  Output is
deterministic given (config, seed): numbers are serialized in scientific
notation with 12 significant digits, and the JSON document carries the
same values as the CSV plus the per-segment bound vector.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, fields

from .bounds import pe_bound, uniform_theta_grid
from .channel import FadingModel, snr_to_sigma
from .codec import CodeParams, ConfigurationError
from .decoder import MEMORY_BUDGET, CapacityError
from .sim import sweep
from .verify import run_checks

CSV_HEADER = ("model,n,k,c,v,L,N,snr_db,sigma,trials,errors,"
              "fer,fer_stderr,pe_bound")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings.  The defaults are the CLI's; every field is also
    a config-file key and a flag of the same name."""

    model: str = "rayleigh"
    omega: float = 1.0
    m: float = 2.0
    K: float = 0.5
    n: int = 8
    k: int = 2
    c: int = 8
    v: int = 32
    L: int = 6
    snr_start: float = 0.0
    snr_stop: float = 30.0
    snr_step: float = 2.0
    trials: int = 100_000
    theta_points: int = 20
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int = 1
    early_stop: int | None = None
    min_trials: int = 0
    quick: bool = False

    def code_params(self) -> CodeParams:
        return CodeParams(n=self.n, k=self.k, c=self.c, v=self.v, L=self.L)

    def fading_model(self) -> FadingModel:
        if self.model == "rayleigh":
            return FadingModel.rayleigh(self.omega)
        if self.model == "nakagami":
            return FadingModel.nakagami(self.m, self.omega)
        if self.model == "rician":
            return FadingModel.rician(self.K, self.omega)
        raise ConfigurationError(f"unknown model {self.model!r}")

    def snr_values(self) -> list[float]:
        if self.snr_step <= 0:
            raise ConfigurationError(
                f"snr step must be > 0, got {self.snr_step}")
        values = []
        snr = self.snr_start
        while snr <= self.snr_stop + 1e-9 or not values:
            values.append(snr)
            snr = self.snr_start + self.snr_step * len(values)
        return values


def fmt(x: float) -> str:
    """12-significant-digit scientific notation, shared by CSV and JSON."""
    return f"{float(x):.11e}"


def _accepts(hint, value) -> bool:
    """Whether a JSON config value has the type RunConfig declares."""
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    if typing.get_args(hint):                   # X | None
        return any(_accepts(h, value) for h in typing.get_args(hint))
    return isinstance(value, hint)


def _read_config(path: str) -> dict:
    try:
        with open(path) as f:
            file_conf = json.load(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(file_conf, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    unknown = set(file_conf) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigurationError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    hints = typing.get_type_hints(RunConfig)
    for key, value in file_conf.items():
        if not _accepts(hints[key], value):
            raise ConfigurationError(
                f"config key {key!r} has the wrong type: {value!r}")
    return file_conf


def _merge_config(args: argparse.Namespace) -> RunConfig:
    merged = {f.name: f.default for f in fields(RunConfig)}
    if getattr(args, "config", None):
        merged.update(_read_config(args.config))
    for key in merged:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            merged[key] = value
    for key, value in merged.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {value}")
    if merged["workers"] < 1:
        raise ConfigurationError(f"workers must be >= 1, got {merged['workers']}")
    if merged["trials"] < 1:
        raise ConfigurationError(f"trials must be >= 1, got {merged['trials']}")
    if merged["seed"] < 0:
        raise ConfigurationError(f"seed must be >= 0, got {merged['seed']}")
    if merged["theta_points"] < 1:
        raise ConfigurationError(
            f"theta-points must be >= 1, got {merged['theta_points']}")
    if merged["format"] not in ("csv", "json"):
        raise ConfigurationError(f"unknown format {merged['format']!r}")
    return RunConfig(**merged)


def _row_csv(config: RunConfig, row: dict) -> str:
    sim_cols = (
        [str(row["trials"]), str(row["errors"]), fmt(row["fer"]),
         fmt(row["fer_stderr"])]
        if "trials" in row else ["", "", "", ""]
    )
    cols = [config.model, str(config.n), str(config.k), str(config.c),
            str(config.v), str(config.L), str(config.theta_points),
            fmt(row["snr_db"]), fmt(row["sigma"])] + sim_cols + [fmt(row["pe_bound"])]
    return ",".join(cols)


def _render(config: RunConfig, rows: list[dict]) -> str:
    if config.format == "csv":
        return "\n".join([CSV_HEADER] + [_row_csv(config, r) for r in rows]) + "\n"
    doc_rows = []
    for row in rows:
        out = {"snr_db": float(fmt(row["snr_db"])),
               "sigma": float(fmt(row["sigma"])),
               "pe_bound": float(fmt(row["pe_bound"])),
               "segment_bounds": [float(fmt(e)) for e in row["segment_bounds"]]}
        if "trials" in row:
            out.update(trials=row["trials"], errors=row["errors"],
                       fer=float(fmt(row["fer"])),
                       fer_stderr=float(fmt(row["fer_stderr"])))
        doc_rows.append(out)
    doc = {"config": asdict(config), "rows": doc_rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(config: RunConfig, text: str) -> int:
    try:
        if config.out is None:
            sys.stdout.write(text)
        else:
            with open(config.out, "w", newline="") as f:
                f.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.out or 'stdout'}: {exc}", file=sys.stderr)
        return 3
    return 0


def _code_model_grid(config: RunConfig):
    """Code, fading model and theta grid; the grid only once a kernel call
    over it fits MEMORY_BUDGET (N times 2^c - 1 pair terms and n/k rows)."""
    params, model = config.code_params(), config.fading_model()
    need = config.theta_points * ((1 << params.c) - 1 + params.num_segments) * 8
    if need > MEMORY_BUDGET:
        raise CapacityError(f"theta-points {config.theta_points} at c={params.c} needs "
                            f"{need >> 20} MiB, over the {MEMORY_BUDGET >> 20} MiB budget")
    return params, model, uniform_theta_grid(config.theta_points)


def cmd_bound(config: RunConfig) -> int:
    params, model, grid = _code_model_grid(config)
    rows = []
    for snr_db in config.snr_values():
        sigma = snr_to_sigma(snr_db, model, params.c)
        bound = pe_bound(params, model, sigma, grid)
        rows.append(dict(snr_db=snr_db, sigma=sigma, pe_bound=bound.pe,
                         segment_bounds=list(bound.segment_bounds)))
    return _emit(config, _render(config, rows))


def cmd_simulate(config: RunConfig) -> int:
    params, model, grid = _code_model_grid(config)
    results = sweep(params, model, config.snr_values(), config.trials,
                    config.seed, grid, workers=config.workers,
                    early_stop_errors=config.early_stop,
                    min_trials=config.min_trials)
    rows = [dict(snr_db=r.snr_db, sigma=r.sigma, trials=r.fer.trials,
                 errors=r.fer.errors, fer=r.fer.fer, fer_stderr=r.fer.stderr,
                 pe_bound=r.bound.pe,
                 segment_bounds=list(r.bound.segment_bounds))
            for r in results]
    return _emit(config, _render(config, rows))


def cmd_verify(config: RunConfig) -> int:
    results = run_checks(quick=config.quick)
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  {'observed':>14}  {'tolerance':>14}  status")
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{r.name:<{width}}  {r.observed:14.6e}  {r.tolerance:14.6e}  {status}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error: one line, exit 1."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinalfade",
        description="Spinal-code FER bounds and Monte Carlo sweeps over "
                    "fading channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("bound", "evaluate the analytical FER bound over an SNR grid"),
            ("simulate", "Monte Carlo sweep with the bound alongside"),
            ("verify", "run the numerical self-check suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", choices=["rayleigh", "nakagami", "rician"])
        p.add_argument("--omega", type=float, help="mean-square fading gain")
        p.add_argument("--m", type=float, help="Nakagami shape parameter")
        p.add_argument("--K", type=float, help="Rician K-factor")
        p.add_argument("--n", type=int, help="message length in bits")
        p.add_argument("--k", type=int, help="segment size in bits")
        p.add_argument("--c", type=int, help="bits per channel symbol")
        p.add_argument("--v", type=int, help="spine width in bits")
        p.add_argument("--L", type=int, help="number of passes")
        p.add_argument("--snr-start", dest="snr_start", type=float)
        p.add_argument("--snr-stop", dest="snr_stop", type=float)
        p.add_argument("--snr-step", dest="snr_step", type=float)
        p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        p.add_argument("--theta-points", dest="theta_points", type=int,
                       help="number of theta grid cells")
        p.add_argument("--seed", type=int, help="run seed (default 0)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--workers", type=int, help="parallel workers per point")
        p.add_argument("--early-stop", dest="early_stop", nargs="?", const=100,
                       type=int, help="stop a point after this many errors "
                                      "(default 100 when given)")
        p.add_argument("--min-trials", dest="min_trials", type=int,
                       help="minimum trials before early stop")
        p.add_argument("--quick", action="store_true",
                       help="verify only: reduced trial counts")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _merge_config(args)
        if args.command == "bound":
            return cmd_bound(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        return cmd_verify(config)
    except (ConfigurationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
