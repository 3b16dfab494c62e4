"""Command-line interface: JSON contract, exit codes, artifact files."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, read_fixture
import stoched
from stoched.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from stoched.errors import OptimizationFailed
from stoched.experiment import derive_seeds

J30 = str(FIXTURE_DIR / "j30_fix_a.sm")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# --------------------------------------------------------------------- parse


def test_parse_summarizes_instance(capsys):
    payload = stdout_json(capsys, "parse", J30)
    assert payload == {
        "instance": "j30_fix_a",
        "jobs": 32,
        "real_activities": 30,
        "edges": 87,
        "cpm_makespan": 56.0,
    }


def test_parse_missing_file_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "parse", "/nonexistent/x.sm")
    assert code == EXIT_USAGE
    assert "no such file" in err
    assert out == ""


def test_parse_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.sm"
    bad.write_text(read_fixture("j30_fix_a.sm").replace("PRECEDENCE RELATIONS:", "X:"))
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == EXIT_INPUT
    assert err.startswith("error:")
    assert out == ""


# ------------------------------------------------------------------ forecast


def test_forecast_payload_and_determinism(capsys):
    args = ("forecast", J30, "--n", "300", "--seed", "7", "--threads", "1")
    payload = stdout_json(capsys, *args)
    assert payload["instance"] == "j30_fix_a"
    assert payload["jobs"] == 32
    assert payload["sigma"] == 0.3  # moderate default
    assert payload["replicates"] == 300
    assert payload["seed"] == 7
    assert payload["target"] == 56.0  # auto = deterministic makespan
    assert payload["expected_completion"] > 56.0  # parallel-path inflation
    assert payload["completion_variance"] > 0.0
    assert 0.0 <= payload["delay_probability"] <= 1.0
    assert set(payload["quantiles"]) == {"0.05", "0.5", "0.95"}
    assert payload["ci90_width"] == pytest.approx(
        payload["quantiles"]["0.95"] - payload["quantiles"]["0.05"]
    )
    assert len(payload["critical_probability"]) == 32
    assert payload["critical_probability"][0] == 1.0
    assert payload["critical_counts"][0] == 300
    assert payload["prior_expected_durations"] == payload["posterior_expected_durations"]
    assert payload["observation_counts"] == [0] * 32
    again = stdout_json(capsys, *args)
    assert again == payload


def test_forecast_sigma_levels_change_spread(capsys):
    low = stdout_json(capsys, "forecast", J30, "--n", "200", "--sigma", "low", "--threads", "1")
    high = stdout_json(capsys, "forecast", J30, "--n", "200", "--sigma", "high", "--threads", "1")
    assert high["completion_variance"] > low["completion_variance"]
    numeric = stdout_json(capsys, "forecast", J30, "--n", "200", "--sigma", "0.1", "--threads", "1")
    assert numeric["expected_completion"] == low["expected_completion"]


def test_forecast_threads_do_not_change_output(capsys):
    # two full chunks of 4096 and a ragged tail, so the pool has work
    a = stdout_json(capsys, "forecast", J30, "--n", "9000", "--threads", "1")
    b = stdout_json(capsys, "forecast", J30, "--n", "9000", "--threads", "3")
    assert a == b


@pytest.mark.parametrize("command", ["forecast", "update"])
def test_forecast_out_directory_artifacts(tmp_path, capsys, command):
    inputs = [J30]
    if command == "update":
        obs = tmp_path / "obs.txt"
        obs.write_text("2 5.5 0.3\n")
        inputs.append(str(obs))
    out = tmp_path / "fc"
    payload = stdout_json(
        capsys, command, *inputs, "--n", "250", "--seed", "3", "--threads", "1", "--out", str(out)
    )
    result = json.loads((out / "result.json").read_text())
    assert result == payload
    hist = (out / "histogram.csv").read_text().strip().split("\n")
    assert hist[0] == "bin_left,bin_right,count"
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 250
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["master_seed"] == 3
    assert manifest["config"] == {"sigma": 0.3, "n": 250, "seed": 3, "target": 56.0}
    assert manifest["inputs"] == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs
    }
    assert "timestamp_utc" in manifest and "tool_version" in manifest
    assert sorted(p.name for p in out.iterdir()) == [
        "histogram.csv",
        "manifest.json",
        "result.json",
    ]


def _out_argv(tmp_path, command, out):
    """argv for a small run of command that writes into out."""
    if command == "experiment":
        config = tmp_path / "exp.conf"
        config.write_text(EXPERIMENT_CONFIG + "emit_histograms = true\n")
        return ["experiment", str(config), "--out", str(out), "--threads", "1"]
    argv = [command, J30, "--n", "50", "--threads", "1", "--out", str(out)]
    if command == "update":
        obs = tmp_path / "obs.txt"
        obs.write_text("2 5.5 0.3\n")
        argv.insert(2, str(obs))
    return argv


@pytest.mark.parametrize("under_file", [False, True])
@pytest.mark.parametrize("command", ["forecast", "update", "experiment"])
def test_out_at_or_under_a_file_is_usage_error(tmp_path, capsys, command, under_file):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under_file else blocker
    code, stdout, err = run_cli(capsys, *_out_argv(tmp_path, command, out))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["forecast", "update", "experiment"])
def test_failed_write_removes_the_files_already_written(tmp_path, capsys, command):
    # A directory where the manifest should go makes the last write fail.
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    code, stdout, err = run_cli(capsys, *_out_argv(tmp_path, command, out))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error: cannot write")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_experiment_failing_part_way_leaves_no_result_files(tmp_path, capsys, monkeypatch):
    import stoched.experiment

    simulate = stoched.experiment.simulate
    calls = []

    # Each seed's sampled forecasts come from one draw pass before its
    # cells, so simulate makes only the point forecasts: calls 1-4 are
    # those of the none-strategy cells of both seeds, whose
    # full_framework cells emit histograms, and call 5 is the first
    # continuous-strategy cell.
    def fails_on_fifth_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise OptimizationFailed("injected failure")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(stoched.experiment, "simulate", fails_on_fifth_call)
    out = tmp_path / "results"
    code, stdout, err = run_cli(capsys, *_out_argv(tmp_path, "experiment", out))
    assert code == EXIT_NUMERIC
    assert stdout == ""
    assert err.startswith("error:") and "injected failure" in err
    assert len(calls) == 5
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("forecast", J30, "--sigma", "tiny"),
        ("forecast", J30, "--sigma", "-0.3"),
        ("forecast", J30, "--sigma", "0"),
        ("forecast", J30, "--n", "0"),
        ("forecast", J30, "--threads", "x"),
        ("forecast", J30, "--threads", "0"),
        ("forecast", J30, "--target", "soon"),
        ("forecast", J30, "--sigma", "2e154"),  # sigma^2 overflows
        ("forecast", J30, "--sigma", "1e308"),
        ("forecast", J30, "--sigma", "1e-300"),  # below the sigma floor
        # stream_key takes seeds modulo 2**64: -1 would run as 2**64 - 1
        ("forecast", J30, "--seed", "-1"),
        ("forecast", J30, "--seed", "18446744073709551616"),
    ],
)
def test_forecast_flag_validation(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert out == ""
    assert argv[2] in err
    assert not out_dir.exists()


def test_sigma_below_floor_names_the_floor(capsys):
    code, out, err = run_cli(capsys, "forecast", J30, "--sigma", "9e-7")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--sigma" in err and "1e-06" in err
    assert run_cli(capsys, "forecast", J30, "--sigma", "1e-6", "--n", "10")[0] == 0


def test_threads_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("STOCHED_THREADS", "2")
    with_env = stdout_json(capsys, "forecast", J30, "--n", "500")
    monkeypatch.delenv("STOCHED_THREADS")
    without = stdout_json(capsys, "forecast", J30, "--n", "500", "--threads", "1")
    assert with_env == without
    monkeypatch.setenv("STOCHED_THREADS", "0")
    code, _, err = run_cli(capsys, "forecast", J30, "--n", "500")
    assert code == EXIT_USAGE
    assert "STOCHED_THREADS" in err


# -------------------------------------------------------------------- update


def test_update_moves_observed_activity(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("# one late activity\n1 9.0 0.4\n")
    payload = stdout_json(
        capsys, "update", J30, str(obs), "--n", "300", "--seed", "7", "--threads", "1"
    )
    assert payload["observation_counts"][1] == 1
    assert sum(payload["observation_counts"]) == 1
    prior = payload["prior_expected_durations"]
    post = payload["posterior_expected_durations"]
    assert post[1] != prior[1]
    assert post[1] > prior[1]  # observed well above the baseline of 4
    others = [i for i in range(32) if i != 1]
    assert [post[i] for i in others] == [prior[i] for i in others]


def test_update_empty_observation_file_matches_forecast(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("# nothing observed yet\n\n")
    flags = ("--n", "300", "--seed", "7", "--threads", "1")
    code, update_out, _ = run_cli(capsys, "update", J30, str(obs), *flags)
    assert code == EXIT_OK
    code, forecast_out, _ = run_cli(capsys, "forecast", J30, *flags)
    assert code == EXIT_OK
    assert update_out == forecast_out


def test_update_rejects_unknown_and_frozen_activities(tmp_path, capsys):
    out_of_range = tmp_path / "a.txt"
    out_of_range.write_text("40 9.0 0.4\n")
    code, _, err = run_cli(capsys, "update", J30, str(out_of_range), "--n", "10")
    assert code == EXIT_INPUT
    assert "line 1" in err and str(out_of_range) in err

    frozen = tmp_path / "b.txt"
    frozen.write_text("# dummy source\n0 1.0 0.4\n")
    code, _, err = run_cli(capsys, "update", J30, str(frozen), "--n", "10")
    assert code == EXIT_INPUT
    assert "line 2" in err and "frozen" in err


def test_update_malformed_observation_line(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("1 9.0\n")
    code, _, err = run_cli(capsys, "update", J30, str(obs), "--n", "10")
    assert code == EXIT_INPUT
    assert "line 1" in err


def test_update_overflowing_observation_is_numerical_failure(tmp_path, capsys):
    # No lognormal inside the optimizer's box explains 1e308, so the MAP
    # runs to the box edge, where the posterior mean is not representable.
    obs = tmp_path / "obs.txt"
    obs.write_text("4 1e308 1e300\n")
    code, out, err = run_cli(capsys, "update", J30, str(obs), "--n", "10")
    assert code == EXIT_NUMERIC
    assert err.startswith("error:") and "too large" in err
    assert out == ""


def test_update_measurements_near_the_float_limit_fail_cleanly(tmp_path, capsys):
    # Two measurements of one activity whose plain weighted sum overflows:
    # their combination must not, and the MAP fails as for one record.
    obs = tmp_path / "obs.txt"
    obs.write_text("2 1e308 1\n2 1.5e308 1\n")
    code, out, err = run_cli(capsys, "update", J30, str(obs), "--n", "10")
    assert code in (EXIT_INPUT, EXIT_NUMERIC)
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert out == ""


def test_update_tiny_noise_sd_runs_without_warnings(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("4 6.0 1e-300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = stdout_json(
            capsys, "update", J30, str(obs), "--n", "100", "--threads", "1"
        )
    assert payload["observation_counts"][4] == 1
    assert all(math.isfinite(d) for d in payload["posterior_expected_durations"])


def test_update_tiny_noise_matches_small_noise(tmp_path, capsys):
    # A measurement far more precise than the prior's spread has the
    # noiseless limit as its likelihood, so noise_sd 1e-12 moves the
    # forecast as 1e-6 and 0.01 do.
    results = []
    for noise_sd in ("1e-12", "1e-6", "0.01"):
        obs = tmp_path / f"obs_{noise_sd}.txt"
        obs.write_text(f"4 6.0 {noise_sd}\n")
        payload = stdout_json(
            capsys, "update", J30, str(obs), "--n", "10000", "--seed", "3"
        )
        results.append(
            (payload["posterior_expected_durations"][4], payload["expected_completion"])
        )
    for mean, completion in results[1:]:
        assert f"{mean:.4g}" == f"{results[0][0]:.4g}"
        assert f"{completion:.4g}" == f"{results[0][1]:.4g}"


# ---------------------------------------------------------------- experiment


EXPERIMENT_CONFIG = f"""
# scenario sweep for tests
instances = {J30}
uncertainty = low
strategy = none, continuous
method = deterministic_cpm, bayes_no_propagation, full_framework
replicate_count = 50
seeds = 1 2
"""


def test_experiment_end_to_end(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(EXPERIMENT_CONFIG + "emit_histograms = true\n")
    out = tmp_path / "results"
    payload = stdout_json(
        capsys, "experiment", str(config), "--out", str(out), "--threads", "1"
    )
    assert payload["rows"] == 12
    assert payload["out_dir"] == str(out)
    assert payload["csv"] == str(out / "results.csv")
    assert set(payload["median_rmse_by_method"]) == {
        "deterministic_cpm",
        "bayes_no_propagation",
        "full_framework",
    }

    csv_lines_ = (out / "results.csv").read_text().strip().split("\n")
    assert csv_lines_[0] == (
        "instance,method,strategy,uncertainty,seed,rmse,mae,e_t,var_t,p_delay,ci90,wall_ms"
    )
    assert len(csv_lines_) == 13
    assert all(line.split(",")[0] == "j30_fix_a" for line in csv_lines_[1:])

    jsonl = (out / "results.jsonl").read_text().strip().split("\n")
    assert len(jsonl) == 12
    parsed = [json.loads(line) for line in jsonl]
    assert {p["method"] for p in parsed} == {
        "deterministic_cpm",
        "bayes_no_propagation",
        "full_framework",
    }
    assert all(p["wall_ms"] == 0.0 for p in parsed)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "experiment"
    config_digest = hashlib.sha256(config.read_bytes()).hexdigest()
    assert manifest["inputs"][str(config)] == config_digest
    assert manifest["config"]["seeds_used"] == [1, 2]
    assert manifest["config"]["threads"] == 1

    # histograms only for sample-based method rows, none for the two
    # point methods: 2 strategies x 2 seeds
    hists = sorted(p.name for p in out.glob("hist_*.csv"))
    assert hists == [
        "hist_j30_fix_a_full_framework_continuous_low_1.csv",
        "hist_j30_fix_a_full_framework_continuous_low_2.csv",
        "hist_j30_fix_a_full_framework_none_low_1.csv",
        "hist_j30_fix_a_full_framework_none_low_2.csv",
    ]

    # a second run reproduces the result files byte for byte
    out2 = tmp_path / "results2"
    stdout_json(capsys, "experiment", str(config), "--out", str(out2), "--threads", "1")
    assert (out2 / "results.csv").read_bytes() == (out / "results.csv").read_bytes()
    assert (out2 / "results.jsonl").read_bytes() == (out / "results.jsonl").read_bytes()


def test_experiment_derives_seeds_and_records_its_config(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(
        f"instances = {J30}\nmethod = deterministic_cpm, static_mc\n"
        "replicate_count = 50\nmaster_seed = 7\nseed_count = 2\n"
    )
    out = tmp_path / "results"
    payload = stdout_json(
        capsys, "experiment", str(config), "--out", str(out), "--threads", "1"
    )
    assert payload["rows"] == 3 * 3 * 2 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds_used"] == derive_seeds(7, 2)
    assert manifest["config"] == {
        "instances": [J30],
        "uncertainties": ["low", "moderate", "high"],
        "strategies": ["none", "periodic", "continuous"],
        "methods": ["deterministic_cpm", "static_mc"],
        "replicate_count": 50,
        "target_rule": 1.0,
        "master_seed": 7,
        "seed_count": 2,
        "seeds": None,
        "threads": 1,
        "seeds_used": derive_seeds(7, 2),
    }
    assert manifest["master_seed"] == 7


@pytest.mark.parametrize("change", ["edit", "remove"])
def test_manifest_digests_the_input_bytes_that_ran(
    tmp_path, capsys, monkeypatch, change
):
    import stoched.cli

    config = tmp_path / "exp.conf"
    config.write_text(EXPERIMENT_CONFIG)
    ran = config.read_bytes()
    run_matrix = stoched.cli.run_matrix

    def change_config_then_run(*args, **kwargs):
        if change == "edit":
            config.write_text(EXPERIMENT_CONFIG + "# edited mid-run\n")
        else:
            config.unlink()
        return run_matrix(*args, **kwargs)

    monkeypatch.setattr(stoched.cli, "run_matrix", change_config_then_run)
    out = tmp_path / "results"
    stdout_json(capsys, "experiment", str(config), "--out", str(out), "--threads", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        str(config): hashlib.sha256(ran).hexdigest(),
        J30: hashlib.sha256(Path(J30).read_bytes()).hexdigest(),
    }


def test_crlf_config_and_instance_run_like_lf(tmp_path, capsys):
    sm = tmp_path / "j30_fix_a.sm"
    sm.write_bytes(read_fixture("j30_fix_a.sm").replace("\n", "\r\n").encode())
    crlf = tmp_path / "crlf.conf"
    crlf_text = EXPERIMENT_CONFIG.replace(J30, sm.name).replace("\n", "\r\n")
    crlf.write_bytes(crlf_text.encode())
    lf = tmp_path / "lf.conf"
    lf.write_text(EXPERIMENT_CONFIG)
    for config in (crlf, lf):
        stdout_json(
            capsys, "experiment", str(config), "--out", str(tmp_path / config.stem),
            "--threads", "1",
        )
    for name in ("results.csv", "results.jsonl"):
        assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()
    assert stdout_json(capsys, "parse", str(sm)) == stdout_json(capsys, "parse", J30)


def test_experiment_config_errors(tmp_path, capsys):
    cases = [
        "instances = missing.sm\nuncertaintee = low\n",  # unknown key
        "uncertainty = low\n",  # no instances
        f"instances = {J30}\nmethod = oracle\n",  # unknown method
        f"instances = {J30}\nreplicate_count = 0\n",
        f"instances = {J30}\nseeds = one two\n",
        f"instances = {J30}\nseeds =\n",  # no seeds
        f"instances = {J30}\nseeds = -1 18446744073709551615\n",  # equal modulo 2**64
        f"instances = {J30}\nseeds = 0 18446744073709551616\n",
        f"instances = {J30}\nmaster_seed = -1\n",  # runs as 2**64 - 1
        f"instances = {J30}\nmaster_seed = 18446744073709551616\n",
        f"instances = {J30}\nemit_histograms = maybe\n",
        f"instances = {J30}\nuncertainty = low\nuncertainty = low\n",  # duplicate
        f"instances = {J30}\nbroken line\n",
    ]
    for i, text in enumerate(cases):
        config = tmp_path / f"c{i}.conf"
        config.write_text(text)
        out = tmp_path / f"o{i}"
        code, stdout, err = run_cli(capsys, "experiment", str(config), "--out", str(out))
        assert code == EXIT_USAGE, text
        assert stdout == ""
        assert err.startswith("error:")
        assert not out.exists(), text

    # repeated values would give rows that cannot be told apart
    other = tmp_path / "elsewhere" / "j30_fix_a.sm"
    other.parent.mkdir()
    other.write_text(read_fixture("j30_fix_a.sm"))
    repeats = [
        (f"instances = {J30}, {J30}\nemit_histograms = true\n", "'j30_fix_a'"),
        (f"instances = {J30} elsewhere/j30_fix_a.sm\n", "'j30_fix_a'"),
        (f"instances = {J30}\nseeds = 1 1\n", "seed 1 "),
        (f"instances = {J30}\nuncertainty = low high low\n", "'low'"),
        (f"instances = {J30}\nstrategy = none, none\n", "'none'"),
        (f"instances = {J30}\nmethod = static_mc static_mc\n", "'static_mc'"),
    ]
    for i, (text, named) in enumerate(repeats):
        config = tmp_path / f"r{i}.conf"
        config.write_text(text + "replicate_count = 10\n")
        out = tmp_path / f"r{i}"
        code, stdout, err = run_cli(capsys, "experiment", str(config), "--out", str(out))
        assert code == EXIT_USAGE, text
        assert stdout == ""
        assert err.startswith("error:") and named in err and "more than once" in err
        assert not out.exists(), text


@pytest.mark.parametrize("key", ["uncertainty", "strategy", "method"])
def test_experiment_empty_axis_is_usage_error(tmp_path, capsys, key):
    config = tmp_path / "c.conf"
    config.write_text(f"instances = {J30}\n{key} =\n")
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "experiment", str(config), "--out", str(out))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error:") and "no " in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["instance", "observations", "config"])
def test_undecodable_input_file_is_usage_error(tmp_path, capsys, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# \xff\n")
    obs = tmp_path / "obs.txt"
    obs.write_text("2 5.5 0.3\n")
    argv = {
        "instance": ["parse", str(bad)],
        "observations": ["update", J30, str(bad), "--n", "50"],
        "config": ["experiment", str(bad), "--out", str(tmp_path / "o")],
    }[kind]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert stdout == ""
    assert err.startswith(f"error: cannot read {bad}:")


def test_experiment_missing_instance_file(tmp_path, capsys):
    config = tmp_path / "c.conf"
    config.write_text("instances = nowhere.sm\n")
    code, _, err = run_cli(capsys, "experiment", str(config), "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert "no such file" in err


def _huge_durations(tmp_path, durations: dict[int, int]) -> str:
    """A copy of j30_fix_a.sm with the given jobs' durations replaced."""
    lines = read_fixture("j30_fix_a.sm").splitlines(keepends=True)
    table = next(i for i, line in enumerate(lines) if line.startswith("REQUESTS")) + 3
    for job, duration in durations.items():
        fields = lines[table + job - 1].split()
        assert fields[0] == str(job)
        fields[2] = str(duration)
        lines[table + job - 1] = "  ".join(fields) + "\n"
    path = tmp_path / "huge.sm"
    path.write_text("".join(lines))
    return str(path)


def _assert_numerical_failure(code, out, err, out_dir=None):
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error:") and "overflows" in err
    assert len(err.splitlines()) == 1
    if out_dir is not None:
        assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["forecast", "update", "experiment"])
def test_overflowing_draw_is_numerical_failure(tmp_path, capsys, command):
    # job 5 (activity 4) at 1e308: its lognormal draws overflow to inf
    instance = _huge_durations(tmp_path, {5: 10**308})
    out_dir = tmp_path / "out"
    if command == "experiment":
        config = tmp_path / "exp.conf"
        config.write_text(f"instances = {instance}\nseeds = 1\nreplicate_count = 500\n")
        argv = ["experiment", str(config)]
    else:
        argv = [command, instance]
        if command == "update":
            obs = tmp_path / "obs.txt"
            obs.write_text("3 5.0 0.5\n")
            argv.append(str(obs))
        argv += ["--n", "5000"]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    _assert_numerical_failure(code, out, err, out_dir)


def test_overflowing_variance_is_numerical_failure(tmp_path, capsys):
    # finite draws near 1e300 whose squared deviations overflow
    instance = _huge_durations(tmp_path, {5: 10**300})
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "forecast", instance, "--sigma", "3", "--out", str(out_dir)
    )
    _assert_numerical_failure(code, out, err, out_dir)


def test_overflowing_makespan_is_numerical_failure(tmp_path, capsys):
    # two finite durations of 1e308 on one path sum to inf
    instance = _huge_durations(tmp_path, {2: 10**308, 5: 10**308})
    code, out, err = run_cli(capsys, "parse", instance)
    _assert_numerical_failure(code, out, err)


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def explode(args):
        raise OptimizationFailed("objective non-finite everywhere")

    monkeypatch.setattr("stoched.cli.cmd_parse", explode)
    code, out, err = run_cli(capsys, "parse", J30)
    assert code == EXIT_NUMERIC
    assert "error:" in err
    assert out == ""


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("stoched.cli.simulate", exhausted)
    code, out, err = run_cli(capsys, "forecast", J30, "--n", "1000000000000000")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "--n" in err
    assert len(err.splitlines()) == 1


def test_huge_replicate_count_fails_before_it_fills_memory(tmp_path):
    # A real run, not a monkeypatched simulate: the replicate count must
    # be rejected at the first allocation its size forces, before any
    # per-chunk bookkeeping (N / 4096 entries) fills the address space.
    limit = 1_500_000_000

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        resource.setrlimit(resource.RLIMIT_CPU, (120, 120))  # bounds the wait

    env = dict(os.environ, PYTHONPATH=str(Path(stoched.__file__).parents[1]))
    script = "import sys; from stoched.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["forecast", J30, "--n", "1000000000000", "--threads", "1"]
    err_path = tmp_path / "stderr"
    with open(err_path, "wb") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
            preexec_fn=cap_address_space,
        )
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = err_path.read_text().splitlines()
    assert child.returncode == EXIT_USAGE, lines
    assert len(lines) == 1 and lines[0].startswith("error:") and "--n" in lines[0]
    assert usage.ru_maxrss < 300 * 1024  # kilobytes on Linux
