"""PSPLIB single-mode (.sm) ingestion: fixtures, round-trips, corruptions."""

from __future__ import annotations

import importlib.util
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, FIXTURE_JOB_COUNTS, read_fixture
from stoched.errors import (
    CycleDetected,
    InputError,
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


def test_duration_too_large_for_a_double():
    text = read_fixture("j30_fix_a.sm").replace(
        "   2     1        4     1    4    0   10",
        "   2     1  " + "9" * 400 + "     1    4    0   10",
    )
    with pytest.raises(MalformedDurationRow, match="^line 56: duration too large"):
        parse_sm(text)


def test_duration_row_missing_a_token():
    # without its duration the row would read its first request, 1, as one
    text = read_fixture("j30_fix_a.sm").replace(
        "   2     1        4     1    4    0   10",
        "   2     1        1    4    0   10",
    )
    with pytest.raises(MalformedDurationRow, match="^line 56: expected .* 4 resource requests, got 6"):
        parse_sm(text)


@pytest.mark.parametrize("count", ["x", "", "-1"])
def test_unreadable_resource_count(count):
    text = read_fixture("j30_fix_a.sm").replace(
        "- nonrenewable              :  0", f"- nonrenewable              :  {count}"
    )
    with pytest.raises(MalformedHeader, match="resource count"):
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
        to_network(parse_sm(text))


def test_durations_preserve_layer_values():
    inst = parse_sm(read_fixture("j30_fix_a.sm"))
    _, baselines = to_network(inst)
    real = baselines[1:-1]
    assert np.all(real >= 2) and np.all(real <= 9)


def _token_rows(lines: list[str]) -> list[int]:
    """Indices of the job-count header line and of every job-table row."""
    rows = [next(i for i, line in enumerate(lines) if line.startswith("jobs (incl."))]
    for marker in ("PRECEDENCE RELATIONS", "REQUESTS/DURATIONS"):
        i = next(i for i, line in enumerate(lines) if line.startswith(marker)) + 1
        while not lines[i].startswith("*"):
            if lines[i].split()[0].isdigit():
                rows.append(i)
            i += 1
    return rows


_FIXTURE_LINES = {name: read_fixture(name).splitlines() for name in sorted(FIXTURE_JOB_COUNTS)}
_TOKENS = st.one_of(
    st.integers(-10, 10**12).map(str),
    st.just("9" * 400),
    st.floats().map(str),
    st.text(string.ascii_letters, min_size=1, max_size=6),
)


@st.composite
def _edited_fixture(draw) -> str:
    """A fixture with one edit: a header or job-table token replaced or
    deleted, or any row deleted or duplicated."""
    lines = list(_FIXTURE_LINES[draw(st.sampled_from(sorted(_FIXTURE_LINES)))])
    kind = draw(st.sampled_from(["replace", "delete token", "delete row", "duplicate row"]))
    if kind.endswith("row"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i : i + 1] = [] if kind == "delete row" else [lines[i]] * 2
    else:
        i = draw(st.sampled_from(_token_rows(lines)))
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j : j + 1] = [draw(_TOKENS)] if kind == "replace" else []
        lines[i] = "  ".join(tokens)
    return "\n".join(lines) + "\n"


_J30 = read_fixture("j30_fix_a.sm")


@settings(max_examples=200, deadline=None)
@given(text=_edited_fixture())
@example(text=_J30.replace("   2     1        4 ", "   2     1  " + "9" * 400 + " "))
@example(text=_J30.replace("):  32", "):  1000000000000"))
@example(text=_J30.replace("   2     1        4     1 ", "   2     1        1 "))
def test_no_single_edit_escapes_the_input_error_taxonomy(text):
    try:
        to_network(parse_sm(text))
    except InputError:
        pass
