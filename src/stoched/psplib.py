"""PSPLIB single-mode (.sm) instance ingestion.

Instances are plain ASCII with star-delimited sections. Four things are
read: the job count from the "jobs (incl. supersource/sink )" header
line, the resource counts of the RESOURCES header block, successor lists
from the PRECEDENCE RELATIONS table, and mode-1 durations from the
REQUESTS/DURATIONS table, whose rows must carry one request per declared
resource when the block is there (canonical_sm writes none). Request
values and availabilities are skipped without validation. Lines are
parsed by whitespace token splitting, not column offsets: the files are
roughly column-aligned but not reliably so across generator versions.

Both job tables are read through _job_rows, which applies the row checks
they share and counts job coverage; the graph is checked only where it is
built, in to_network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    JobCountMismatch,
    MalformedDurationRow,
    MalformedHeader,
    MalformedPrecedenceRow,
)
from .network import ProjectNetwork, build_network

_JOBS_MARKER = "jobs (incl."
_PRECEDENCE_MARKER = "PRECEDENCE RELATIONS"
_DURATIONS_MARKER = "REQUESTS/DURATIONS"
_RESOURCE_KINDS = ("- renewable", "- nonrenewable", "- doubly constrained")


@dataclass(frozen=True)
class PsplibInstance:
    """Parsed instance: job ids are 1-based as in the file; job 1 and job
    job_count are the dummy source and sink."""

    instance_name: str
    job_count: int
    durations: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]


def parse_sm(text, instance_name: str = "") -> PsplibInstance:
    """Parse .sm text (str or bytes) into a PsplibInstance.

    Raises MalformedHeader (job or resource count, non-ASCII bytes), then
    per table MalformedPrecedenceRow or MalformedDurationRow (the shared
    row checks of _job_rows, then a bad successor list, or a row without
    one request per declared resource, a negative duration or one too
    large for a double) and JobCountMismatch. Graph errors
    (CycleDetected, DuplicateEdge, InvalidEdge) come from to_network.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"instance file is not ASCII: {exc}") from exc
    lines = text.splitlines()

    job_count = _parse_job_count(lines)
    resources = _parse_resource_count(lines)
    successors = _parse_precedence(lines, job_count)
    durations = _parse_durations(lines, job_count, resources)

    return PsplibInstance(
        instance_name=instance_name,
        job_count=job_count,
        durations=durations,
        successors=successors,
    )


def _parse_job_count(lines: list[str]) -> int:
    for line in lines:
        if _JOBS_MARKER in line:
            _, _, value = line.rpartition(":")
            try:
                n = int(value.split()[0])
            except (ValueError, IndexError) as exc:
                raise MalformedHeader(f"unreadable job count in {line!r}") from exc
            if n < 1:
                raise MalformedHeader(f"job count must be >= 1, got {n}")
            return n
    raise MalformedHeader(f"no header line containing {_JOBS_MARKER!r}")


def _parse_resource_count(lines: list[str]) -> int | None:
    """The header's renewable, nonrenewable and doubly constrained counts
    summed, kinds it leaves out counting 0; None when it declares none."""
    counts = {}
    for line in lines:
        kind, _, value = (part.strip() for part in line.partition(":"))
        if kind in _RESOURCE_KINDS:
            try:
                counts[kind] = int(value.split()[0])
            except (ValueError, IndexError) as exc:
                raise MalformedHeader(f"unreadable resource count in {line!r}") from exc
            if counts[kind] < 0:
                raise MalformedHeader(f"negative resource count in {line!r}")
    return sum(counts.values()) if counts else None


def _section_rows(lines: list[str], marker: str, error_cls) -> list[tuple[int, list[str]]]:
    """Rows of the table that follows the section line containing marker.

    Returns (1-based line number, tokens) pairs, ending at the next
    star-delimiter line. A table that runs into end-of-file (a truncated
    file) raises error_cls.
    """
    start = None
    for idx, line in enumerate(lines):
        if marker in line:
            start = idx + 1
            break
    if start is None:
        raise error_cls(f"section {marker!r} not found")
    # Skip the column-header line and any dashed rule under it.
    while start < len(lines) and (
        lines[start].lstrip().startswith(("jobnr", "-")) or not lines[start].strip()
    ):
        start += 1
    rows = []
    for idx in range(start, len(lines)):
        stripped = lines[idx].strip()
        if stripped.startswith("*"):
            return rows
        if not stripped:
            continue
        rows.append((idx + 1, stripped.split()))
    raise error_cls(f"section {marker!r} not terminated before end of file")


def _job_rows(lines, marker, error_cls, table, columns, job_count):
    """Yield (line number, ints) for each row of one job table, checked for
    integer tokens, three leading columns, a job in 1..job_count and no
    repeated job. Distinct in-range jobs cover 1..job_count exactly when
    there are job_count of them, so coverage is counted, not built.
    """
    seen: set[int] = set()
    for lineno, tokens in _section_rows(lines, marker, error_cls):
        try:
            ints = [int(t) for t in tokens]
        except ValueError as exc:
            raise error_cls(f"line {lineno}: non-numeric token in {table} row") from exc
        if len(ints) < 3:
            raise error_cls(f"line {lineno}: expected jobnr, {columns}")
        job = ints[0]
        if not 1 <= job <= job_count:
            raise error_cls(f"line {lineno}: job number {job} outside 1..{job_count}")
        if job in seen:
            raise error_cls(f"line {lineno}: duplicate row for job {job}")
        seen.add(job)
        yield lineno, ints
    if len(seen) != job_count:
        raise JobCountMismatch(
            f"{table} table covers {len(seen)} jobs, header declares {job_count}"
        )


def _parse_precedence(lines: list[str], job_count: int) -> tuple[tuple[int, ...], ...]:
    successors: dict[int, tuple[int, ...]] = {}
    rows = _job_rows(lines, _PRECEDENCE_MARKER, MalformedPrecedenceRow, "precedence",
                     "#modes, #successors", job_count)
    for lineno, ints in rows:
        n_succ, succ = ints[2], ints[3:]
        if n_succ < 0 or len(succ) != n_succ:
            raise MalformedPrecedenceRow(
                f"line {lineno}: row declares {n_succ} successors, lists {len(succ)}"
            )
        if any(not 1 <= s <= job_count for s in succ):
            raise MalformedPrecedenceRow(f"line {lineno}: successor outside 1..{job_count}")
        successors[ints[0]] = tuple(succ)
    return tuple(successors[j] for j in range(1, job_count + 1))


def _parse_durations(lines: list[str], job_count: int, resources: int | None) -> tuple[int, ...]:
    durations: dict[int, int] = {}
    rows = _job_rows(lines, _DURATIONS_MARKER, MalformedDurationRow, "duration",
                     "mode, duration", job_count)
    for lineno, ints in rows:
        if resources is not None and len(ints) != 3 + resources:
            raise MalformedDurationRow(
                f"line {lineno}: expected jobnr, mode, duration and {resources} "
                f"resource requests, got {len(ints)} tokens"
            )
        duration = ints[2]
        if duration < 0:
            raise MalformedDurationRow(f"line {lineno}: negative duration {duration}")
        try:
            float(duration)
        except OverflowError:
            raise MalformedDurationRow(f"line {lineno}: duration too large for a double") from None
        durations[ints[0]] = duration
    return tuple(durations[j] for j in range(1, job_count + 1))


def to_network(inst: PsplibInstance) -> tuple[ProjectNetwork, np.ndarray]:
    """Map 1-based jobs to 0-based activities; return network + baselines."""
    edges = [
        (job - 1, succ - 1)
        for job in range(1, inst.job_count + 1)
        for succ in inst.successors[job - 1]
    ]
    net = build_network(inst.job_count, edges)
    return net, np.asarray(inst.durations, dtype=np.float64)


def real_activity_count(inst: PsplibInstance) -> int:
    """Jobs excluding the dummy source and sink."""
    return max(inst.job_count - 2, 0)


def canonical_sm(inst: PsplibInstance) -> str:
    """Minimal .sm-format rendering of the parsed content.

    Contains exactly the sections parse_sm reads, so parsing the output
    reproduces job_count, durations, and successors.
    """
    bar = "*" * 72
    out = [
        bar,
        f"jobs (incl. supersource/sink ):  {inst.job_count}",
        bar,
        "PRECEDENCE RELATIONS:",
        "jobnr.    #modes  #successors   successors",
    ]
    for job in range(1, inst.job_count + 1):
        succ = inst.successors[job - 1]
        row = f"{job:4d} {1:9d} {len(succ):12d}"
        if succ:
            row += "   " + "  ".join(str(s) for s in succ)
        out.append(row)
    out += [
        bar,
        "REQUESTS/DURATIONS:",
        "jobnr. mode duration",
        "-" * 72,
    ]
    for job in range(1, inst.job_count + 1):
        out.append(f"{job:4d} {1:5d} {inst.durations[job - 1]:9d}")
    out.append(bar)
    return "\n".join(out) + "\n"
