"""PSPLIB single-mode (.sm) ingestion: fixtures, round-trips, corruptions."""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from conftest import FIXTURE_DIR, FIXTURE_JOB_COUNTS, read_fixture
from stoched.errors import (
    CycleDetected,
    JobCountMismatch,
    MalformedDurationRow,
    MalformedHeader,
    MalformedPrecedenceRow,
)
from stoched.network import compute_cpm
from stoched.psplib import (
    canonical_sm,
    parse_sm,
    real_activity_count,
    to_network,
)


def test_fixture_generator_reproduces_committed_fixtures(tmp_path):
    script = FIXTURE_DIR.parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIXTURE_JOB_COUNTS)
    for name in FIXTURE_JOB_COUNTS:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name


@pytest.mark.parametrize("name,jobs", sorted(FIXTURE_JOB_COUNTS.items()))
def test_fixture_parses_with_expected_shape(name, jobs):
    inst = parse_sm(read_fixture(name), instance_name=name)
    assert inst.job_count == jobs
    assert real_activity_count(inst) == jobs - 2
    assert len(inst.durations) == jobs
    # supersource and supersink are zero-duration dummies
    assert inst.durations[0] == 0
    assert inst.durations[-1] == 0
    net, baselines = to_network(inst)
    assert net.activity_count == jobs
    assert baselines.dtype == np.float64
    assert net.sources == (0,)
    assert net.sinks == (jobs - 1,)
    # a deterministic pass over the parsed durations runs end to end
    assert compute_cpm(net, baselines).completion_time > 0


@pytest.mark.parametrize("name", sorted(FIXTURE_JOB_COUNTS))
def test_canonical_rendering_round_trips(name):
    inst = parse_sm(read_fixture(name), instance_name=name)
    again = parse_sm(canonical_sm(inst), instance_name=name)
    assert again.job_count == inst.job_count
    assert again.durations == inst.durations
    assert again.successors == inst.successors
    # canonical form is a fixpoint
    assert canonical_sm(again) == canonical_sm(inst)


def test_missing_jobs_header():
    text = read_fixture("j30_fix_a.sm").replace("jobs (incl. supersource/sink )", "johs")
    with pytest.raises(MalformedHeader):
        parse_sm(text)


def test_non_ascii_input():
    with pytest.raises(MalformedHeader):
        parse_sm("jobs (incl. supersource/sink ):  32☃")
    with pytest.raises(MalformedHeader):
        parse_sm(read_fixture("j30_fix_a.sm").encode().replace(b"jobs", b"j\xffbs"))


def test_successor_out_of_range():
    text = read_fixture("j30_fix_a.sm").replace(
        "  29        1            1         32",
        "  29        1            1         33",
    )
    with pytest.raises(MalformedPrecedenceRow):
        parse_sm(text)


def test_duplicate_precedence_row():
    text = read_fixture("j30_fix_a.sm").replace(
        "  30        1            1         32",
        "  29        1            1         32",
    )
    with pytest.raises(MalformedPrecedenceRow):
        parse_sm(text)


def test_truncated_precedence_section():
    text = read_fixture("j30_fix_a.sm")
    cut = text.index("REQUESTS/DURATIONS:")
    with pytest.raises(MalformedPrecedenceRow, match="not terminated"):
        parse_sm(text[: text.index("PRECEDENCE RELATIONS:")] + "PRECEDENCE RELATIONS:\njobnr.\n   1 1 0\n")
    # chopping the file inside the durations table leaves that section open
    with pytest.raises(MalformedDurationRow, match="not terminated"):
        parse_sm(text[: cut + 200])


def test_negative_duration():
    text = read_fixture("j30_fix_a.sm").replace(
        "   2     1        4     1    4    0   10",
        "   2     1       -4     1    4    0   10",
    )
    with pytest.raises(MalformedDurationRow):
        parse_sm(text)


def test_non_integer_duration():
    text = read_fixture("j30_fix_a.sm").replace(
        "   2     1        4     1    4    0   10",
        "   2     1      4.5     1    4    0   10",
    )
    with pytest.raises(MalformedDurationRow):
        parse_sm(text)


def test_declared_job_count_mismatch():
    text = read_fixture("j30_fix_a.sm").replace(
        "jobs (incl. supersource/sink ):  32",
        "jobs (incl. supersource/sink ):  33",
    )
    with pytest.raises(JobCountMismatch):
        parse_sm(text)


def test_cycle_between_jobs():
    # redirect job 29's successor back up to job 5: 5 ->...-> 29 -> 5
    text = read_fixture("j30_fix_a.sm").replace(
        "  29        1            1         32",
        "  29        1            1          5",
    )
    with pytest.raises(CycleDetected):
        parse_sm(text)


def test_durations_preserve_layer_values():
    inst = parse_sm(read_fixture("j30_fix_a.sm"))
    _, baselines = to_network(inst)
    real = baselines[1:-1]
    assert np.all(real >= 2) and np.all(real <= 9)
