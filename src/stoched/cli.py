"""Command-line interface.

Subcommands: parse (instance summary), forecast (prior Monte Carlo
forecast), update (Bayesian updates from an observation file, then
forecast), experiment (scenario matrix from a config file). forecast and
update share one handler: an update is the forecast run from the MAP
posterior, and a forecast is an update with no observations. Only update
reads an observation file, and its manifest lists that file as a second
input.

stdout carries machine-readable JSON payloads only; diagnostics go to
stderr. Exit codes: 0 success, 2 usage or config error (including
unreadable or non-UTF-8 files, an unwritable output directory, and
replicate counts too large for memory), 3 malformed input data, 4
numerical failure. All outputs are deterministic given flags and inputs;
the seed is always an explicit flag, never wall-clock. A command with an
output directory creates it after every check, before computing, and
writes its result files and then one manifest.json only after the run
succeeds, before it prints; a failed write removes the files it wrote.
The manifest records the command, resolved configuration, digests of the
input bytes that ran, tool version and timestamp (it is an audit record,
unlike the result files, and carries the only non-deterministic fields).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bayes import DEFAULT_TAU_LOG_SIGMA, DEFAULT_TAU_MU, parse_observation_text
from .durations import SIGMA_MIN, expected_duration, priors_from_baselines
from .errors import (
    ConfigError,
    InputError,
    NumericalError,
    UnknownActivityIndex,
)
from .experiment import (
    POINT_METHODS,
    UNCERTAINTY_SIGMA,
    GridConfig,
    check_seed,
    csv_lines,
    derive_seeds,
    finite_json,
    histogram_csv,
    jsonl_lines,
    median_rmse_by_method,
    posterior_models,
    run_matrix,
)
from .network import compute_cpm
from .psplib import parse_sm, real_activity_count, to_network
from .simulate import SimulationConfig, simulate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_USAGE
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_NUMERIC
    except MemoryError:
        print("error: out of memory; lower --n or replicate_count", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoched",
        description="Stochastic schedule forecasting with Bayesian updating",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="summarize an instance file")
    p_parse.add_argument("path", help="instance .sm file")
    p_parse.set_defaults(handler=cmd_parse)

    p_forecast = sub.add_parser("forecast", help="prior Monte Carlo forecast")
    p_forecast.add_argument("path", help="instance .sm file")
    _add_forecast_flags(p_forecast)
    p_forecast.set_defaults(handler=cmd_forecast)

    p_update = sub.add_parser(
        "update", help="apply observations, then forecast from the posterior"
    )
    p_update.add_argument("path", help="instance .sm file")
    p_update.add_argument(
        "observations",
        help="observation file: 'activity observed noise_sd' per line",
    )
    _add_forecast_flags(p_update)
    p_update.set_defaults(handler=cmd_forecast)

    p_exp = sub.add_parser("experiment", help="run a scenario matrix")
    p_exp.add_argument("config", help="key = value experiment config file")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--threads", default="auto", help="worker count or 'auto'")
    p_exp.set_defaults(handler=cmd_experiment)

    return parser


def _add_forecast_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sigma",
        default="moderate",
        help="uncertainty: low|moderate|high or a float >= 1e-6 (log-space sd)",
    )
    p.add_argument("--n", type=int, default=10_000, help="replicate count")
    p.add_argument("--seed", type=int, default=42, help="simulation seed")
    p.add_argument(
        "--target",
        default="auto",
        help="delay target; 'auto' = deterministic CPM makespan",
    )
    p.add_argument("--out", default=None, help="directory for result files")
    p.add_argument("--threads", default="auto", help="worker count or 'auto'")


def _resolve_sigma(text: str) -> float:
    if text in UNCERTAINTY_SIGMA:
        return UNCERTAINTY_SIGMA[text]
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"--sigma must be low|moderate|high or a float, got {text!r}"
        ) from None
    # priors floor sigma at SIGMA_MIN; mu = ln d - sigma^2/2 needs a finite square
    if not (value >= SIGMA_MIN and math.isfinite(value * value)):
        raise ConfigError(
            f"--sigma must be >= {SIGMA_MIN:g} with a finite square, got {text}"
        )
    return value


def _resolve_threads(text: str) -> int:
    if text != "auto":
        source = f"--threads {text!r}"
    elif os.environ.get("STOCHED_THREADS"):
        text = os.environ["STOCHED_THREADS"]
        source = f"STOCHED_THREADS={text!r}"
    else:
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{source} is not an integer") from None
    if value < 1:
        raise ConfigError(f"{source} must be >= 1")
    return value


def _resolve_target(text: str, deterministic_makespan: float) -> float:
    if text == "auto":
        return float(deterministic_makespan)
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--target must be 'auto' or a float, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"--target must be finite, got {text}")
    return value


def _read_text(path: str, digests: dict) -> str:
    """path's text from one read, whose sha256 goes into digests[path]."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    digests[path] = hashlib.sha256(data).hexdigest()
    return text


def _load_instance(path: str, digests: dict):
    name = Path(path).stem
    inst = parse_sm(_read_text(path, digests), instance_name=name)
    net, baselines = to_network(inst)
    return name, inst, net, baselines


def _json_text(payload: dict) -> str:
    return finite_json(payload, sort_keys=True, indent=2) + "\n"


def _make_out_dir(path: str) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None
    return out_dir


def _write_outputs(
    out_dir: Path, files: dict, command: str, config: dict, seed: int, digests: dict
) -> None:
    """Write files (name -> text), then manifest.json with the input
    digests (path -> sha256), into out_dir. If a write fails, the files
    written so far are removed and ConfigError is raised."""
    manifest = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "tool_version": __version__,
        "inputs": digests,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    written: list[Path] = []
    for name, text in {**files, "manifest.json": _json_text(manifest)}.items():
        path = out_dir / name
        try:
            with path.open("w", encoding="utf-8") as handle:
                written.append(path)
                handle.write(text)
        except OSError as exc:
            for done in written:
                done.unlink(missing_ok=True)
            raise ConfigError(f"cannot write {path}: {exc}") from None


def cmd_parse(args) -> int:
    name, inst, net, baselines = _load_instance(args.path, {})
    result = compute_cpm(net, baselines)
    summary = {
        "instance": name,
        "jobs": inst.job_count,
        "real_activities": real_activity_count(inst),
        "edges": len(net.edges),
        "cpm_makespan": result.completion_time,
    }
    sys.stdout.write(_json_text(summary))
    return EXIT_OK


def cmd_forecast(args) -> int:
    """forecast and update: an update is the forecast run from the MAP
    posterior of its observations, so forecast is an update with none."""
    digests: dict[str, str] = {}
    name, inst, net, baselines = _load_instance(args.path, digests)
    sigma = _resolve_sigma(args.sigma)
    n = args.n
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    check_seed(args.seed, "--seed")
    workers = _resolve_threads(args.threads)
    priors = priors_from_baselines(baselines, sigma)
    det = compute_cpm(net, baselines).completion_time
    target = _resolve_target(args.target, det)

    records = []
    if args.command == "update":
        text = _read_text(args.observations, digests)
        for lineno, record in parse_observation_text(text):
            if record.activity >= net.activity_count:
                raise UnknownActivityIndex(
                    f"{args.observations} line {lineno}: activity {record.activity} "
                    f"outside 0..{net.activity_count - 1}"
                )
            if baselines[record.activity] == 0:
                raise UnknownActivityIndex(
                    f"{args.observations} line {lineno}: activity {record.activity} "
                    "is a frozen dummy and cannot be observed"
                )
            records.append(record)

    out_dir = _make_out_dir(args.out) if args.out else None
    posterior = posterior_models(priors, records, DEFAULT_TAU_MU, DEFAULT_TAU_LOG_SIGMA)
    observation_counts = [0] * net.activity_count
    for record in records:
        observation_counts[record.activity] += 1
    result = simulate(
        net,
        posterior,
        SimulationConfig(
            replicate_count=n, seed=args.seed, target_completion=target
        ),
        workers,
    )
    payload = {
        "instance": name,
        "jobs": inst.job_count,
        "sigma": sigma,
        "replicates": n,
        "seed": args.seed,
        "target": target,
        "expected_completion": result.expected_completion,
        "completion_variance": result.completion_variance,
        "delay_probability": result.delay_probability,
        "ci90_width": result.ci90_width,
        "quantiles": {str(level): q for level, q in result.quantiles.items()},
        "critical_probability": [float(p) for p in result.critical_probability],
        "critical_counts": [int(c) for c in result.critical_counts],
        "prior_expected_durations": [expected_duration(m) for m in priors],
        "posterior_expected_durations": [expected_duration(m) for m in posterior],
        "observation_counts": observation_counts,
    }
    if out_dir:
        files = {
            "result.json": _json_text(payload),
            "histogram.csv": histogram_csv(result.samples),
        }
        config = {"sigma": sigma, "n": n, "seed": args.seed, "target": target}
        _write_outputs(out_dir, files, args.command, config, args.seed, digests)
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


# Config keys that set a GridConfig field: the field, the type of its
# values and whether it takes a list. GridConfig's default holds for a key
# the file leaves out.
_GRID_KEYS = {
    "uncertainty": ("uncertainties", str, True),
    "strategy": ("strategies", str, True),
    "method": ("methods", str, True),
    "replicate_count": ("replicate_count", int, False),
    "target_rule": ("target_rule", float, False),
}
_CLI_KEYS = ("instances", "master_seed", "seed_count", "seeds", "emit_histograms")


def parse_experiment_config(text: str) -> dict[str, list[str]]:
    """Parse 'key = value [value ...]' config text into key -> values."""
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _GRID_KEYS and key not in _CLI_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value.replace(",", " ").split()
    return raw


def _value(raw: dict, key: str, cast, default=None, many=False):
    """key's value cast, or a tuple of them if many; default if left out."""
    if key not in raw:
        return default
    if not many and len(raw[key]) != 1:
        raise ConfigError(f"config key {key!r} takes exactly one value")
    try:
        values = tuple(cast(v) for v in raw[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    return values if many else values[0]


def cmd_experiment(args) -> int:
    """Run the grid of a config file. Instance paths resolve relative to
    the config file's directory. Every check runs before --out is made."""
    digests: dict[str, str] = {}
    raw = parse_experiment_config(_read_text(args.config, digests))
    paths = [str(Path(args.config).parent / p) for p in raw.get("instances", [])]
    emit_histograms = _value(raw, "emit_histograms", str, "false").lower()
    if emit_histograms not in ("true", "false"):
        raise ConfigError("config key 'emit_histograms': expected true or false")
    master_seed = _value(raw, "master_seed", int, 42)
    check_seed(master_seed, "config key 'master_seed'")
    seed_count = _value(raw, "seed_count", int, 10)
    if seed_count < 1:
        raise ConfigError("config key 'seed_count' must be >= 1")
    seeds = _value(raw, "seeds", int, many=True)
    grid_fields = {
        field: _value(raw, key, cast, many=many)
        for key, (field, cast, many) in _GRID_KEYS.items()
        if key in raw
    }
    workers = _resolve_threads(args.threads)
    loaded = [_load_instance(path, digests) for path in paths]
    grid = GridConfig(
        instances=tuple((name, net, baselines) for name, _, net, baselines in loaded),
        seeds=tuple(derive_seeds(master_seed, seed_count) if seeds is None else seeds),
        **grid_fields,
    )

    out_dir = _make_out_dir(args.out)
    files: dict[str, str] = {}

    def keep_histogram(row, forecast) -> None:
        if row.method not in POINT_METHODS:
            name = (
                f"hist_{row.instance_name}_{row.method}_{row.strategy}"
                f"_{row.uncertainty}_{row.seed}.csv"
            )
            files[name] = histogram_csv(forecast.samples)

    on_result = keep_histogram if emit_histograms == "true" else None
    rows = run_matrix(grid, workers=workers, on_result=on_result)
    files["results.csv"] = csv_lines(rows)
    files["results.jsonl"] = jsonl_lines(rows)
    manifest_config = {
        **{field: getattr(grid, field) for field, _, _ in _GRID_KEYS.values()},
        "instances": paths,
        "master_seed": master_seed,
        "seed_count": seed_count,
        "seeds": seeds,
        "threads": workers,
        "seeds_used": grid.seeds,
    }
    _write_outputs(out_dir, files, "experiment", manifest_config, master_seed, digests)
    summary = {
        "rows": len(rows),
        "out_dir": str(out_dir),
        "csv": str(out_dir / "results.csv"),
        "median_rmse_by_method": median_rmse_by_method(rows),
    }
    sys.stdout.write(_json_text(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
