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
unreadable files and replicate counts too large for memory), 3 malformed
input data, 4 numerical failure. All outputs are deterministic given
flags and inputs; the seed is always an explicit flag, never wall-clock.
Output directories receive exactly one manifest.json recording the
command, resolved configuration, input digests, tool version, and
timestamp (the manifest, unlike result files, is an audit record and
carries the only non-deterministic fields).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bayes import make_initial_state, map_update, parse_observation_text
from .durations import SIGMA_MIN, expected_duration, priors_from_baselines
from .errors import (
    ConfigError,
    InputError,
    NumericalError,
    UnknownActivityIndex,
)
from .experiment import (
    METHODS,
    STRATEGIES,
    UNCERTAINTY_SIGMA,
    GridConfig,
    csv_lines,
    derive_seeds,
    histogram_csv,
    jsonl_lines,
    median_rmse_by_method,
    posterior_models,
    run_matrix,
)
from .network import compute_cpm
from .psplib import parse_sm, real_activity_count, to_network
from .simulate import ForecastResult, SimulationConfig, simulate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
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


def _check_replicates(n: int) -> int:
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    return n


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_instance(path: str):
    name = Path(path).stem
    inst = parse_sm(_read_text(path), instance_name=name)
    net, baselines = to_network(inst)
    return name, inst, net, baselines


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path, command: str, config: dict, seed: int, inputs: list[str]
) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "tool_version": __version__,
        "inputs": {path: _sha256(path) for path in inputs},
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    target = out_dir / "manifest.json"
    target.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return target


def cmd_parse(args) -> int:
    name, inst, net, baselines = _load_instance(args.path)
    result = compute_cpm(net, baselines)
    _print_json(
        {
            "instance": name,
            "jobs": inst.job_count,
            "real_activities": real_activity_count(inst),
            "edges": len(net.edges),
            "cpm_makespan": result.completion_time,
        }
    )
    return EXIT_OK


def cmd_forecast(args) -> int:
    """forecast and update: an update is the forecast run from the MAP
    posterior of its observations, so forecast is an update with none."""
    name, inst, net, baselines = _load_instance(args.path)
    sigma = _resolve_sigma(args.sigma)
    n = _check_replicates(args.n)
    workers = _resolve_threads(args.threads)
    priors = priors_from_baselines(baselines, sigma)
    det = compute_cpm(net, baselines).completion_time
    target = _resolve_target(args.target, det)

    inputs = [args.path]
    grouped: dict[int, list] = {}
    if args.command == "update":
        inputs.append(args.observations)
        records = parse_observation_text(_read_text(args.observations))
        for lineno, record in records:
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
            grouped.setdefault(record.activity, []).append(record)

    states = {
        activity: map_update(make_initial_state(priors[activity]), recs)
        for activity, recs in grouped.items()
    }
    posterior = posterior_models(priors, states)
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
        "observation_counts": [
            len(grouped.get(i, ())) for i in range(net.activity_count)
        ],
    }
    _print_json(payload)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "result.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        (out_dir / "histogram.csv").write_text(histogram_csv(result.samples))
        config = {"sigma": sigma, "n": n, "seed": args.seed, "target": target}
        _write_manifest(out_dir, args.command, config, args.seed, inputs)
    return EXIT_OK


_CONFIG_KEYS = {
    "instances",
    "uncertainty",
    "strategy",
    "method",
    "replicate_count",
    "target_rule",
    "master_seed",
    "seed_count",
    "seeds",
    "emit_histograms",
}


def parse_experiment_config(text: str, base_dir: Path) -> dict:
    """Parse 'key = value [value ...]' experiment config text.

    Instance paths are resolved relative to the config file's directory.
    """
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value.replace(",", " ").split()

    if not raw.get("instances"):
        raise ConfigError("config must set 'instances' to one or more .sm paths")

    def one(key: str, default: str, cast):
        values = raw.get(key)
        if values is None:
            return cast(default)
        if len(values) != 1:
            raise ConfigError(f"config key {key!r} takes exactly one value")
        try:
            return cast(values[0])
        except ValueError:
            raise ConfigError(f"config key {key!r}: bad value {values[0]!r}") from None

    def axis(key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(raw[key]) if key in raw else default

    emit_histograms = one("emit_histograms", "false", str).lower()
    if emit_histograms not in ("true", "false"):
        raise ConfigError("config key 'emit_histograms': expected true or false")

    seeds = None
    if "seeds" in raw:
        try:
            seeds = [int(s) for s in raw["seeds"]]
        except ValueError:
            raise ConfigError("config key 'seeds': values must be integers") from None

    config = {
        "instances": [str((base_dir / p)) for p in raw["instances"]],
        "uncertainties": axis("uncertainty", tuple(UNCERTAINTY_SIGMA)),
        "strategies": axis("strategy", STRATEGIES),
        "methods": axis("method", METHODS),
        "replicate_count": one("replicate_count", "10000", int),
        "target_rule": one("target_rule", "1.0", float),
        "master_seed": one("master_seed", "42", int),
        "seed_count": one("seed_count", "10", int),
        "seeds": seeds,
        "emit_histograms": emit_histograms == "true",
    }
    if config["seed_count"] < 1:
        raise ConfigError("config key 'seed_count' must be >= 1")
    return config


def cmd_experiment(args) -> int:
    config_path = Path(args.config)
    config = parse_experiment_config(_read_text(args.config), config_path.parent)
    workers = _resolve_threads(args.threads)
    grid = GridConfig(
        uncertainties=config["uncertainties"],
        strategies=config["strategies"],
        methods=config["methods"],
        replicate_count=config["replicate_count"],
        target_rule=config["target_rule"],
    )
    instances = []
    for path in config["instances"]:
        name, _, net, baselines = _load_instance(path)
        instances.append((name, net, baselines))
    seeds = (
        config["seeds"]
        if config["seeds"] is not None
        else derive_seeds(config["master_seed"], config["seed_count"])
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []

    def emit_histogram(row, forecast) -> None:
        if not isinstance(forecast, ForecastResult):
            return
        name = (
            f"hist_{row.instance_name}_{row.method}_{row.strategy}"
            f"_{row.uncertainty}_{row.seed}.csv"
        )
        path = out_dir / name
        path.write_text(histogram_csv(forecast.samples))
        created.append(path)

    on_result = emit_histogram if config["emit_histograms"] else None
    try:
        rows = run_matrix(instances, grid, seeds, workers=workers, on_result=on_result)
        csv_path = out_dir / "results.csv"
        csv_path.write_text(csv_lines(rows))
        created.append(csv_path)
        jsonl_path = out_dir / "results.jsonl"
        jsonl_path.write_text(jsonl_lines(rows))
        created.append(jsonl_path)
        manifest_config = {
            key: value
            for key, value in config.items()
            if key not in ("emit_histograms",)
        }
        manifest_config["threads"] = workers
        manifest_config["seeds_used"] = [int(s) for s in seeds]
        created.append(
            _write_manifest(
                out_dir,
                "experiment",
                manifest_config,
                config["master_seed"],
                [args.config, *config["instances"]],
            )
        )
    except Exception:
        for path in created:
            path.unlink(missing_ok=True)
        raise

    _print_json(
        {
            "rows": len(rows),
            "out_dir": str(out_dir),
            "csv": str(out_dir / "results.csv"),
            "median_rmse_by_method": median_rmse_by_method(rows),
        }
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
