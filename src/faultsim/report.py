"""Simulation reports and their file formats.

The report CSV carries one row per fault and is byte-deterministic; timing
lives in the separate stats text, whose per-cycle lines use the CycleStats
field names verbatim.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from operator import attrgetter

from .faults import FaultDescriptor


class ReportFormatError(ValueError):
    pass


@dataclass(slots=True)
class FaultResult:
    """One report row: the fault's record and its verdict.

    Slotted rather than frozen, like ``FaultDescriptor``: a report holds one
    row per fault, and a frozen dataclass builds each one about five times
    as slowly.  Rows are not mutated after they are built, and they are not
    hashable.
    """

    fid: int
    location_kind: str
    location_name: str
    bit: int
    kind: str
    detected: bool
    detect_cycle: int | None
    observing_output: str | None


@dataclass
class CycleStats:
    """One cycle's times and tallies.  ``wall_ns`` is the cycle's share of
    the run's clock: serial host time, a barrier cycle's stimulus, drains
    and strobe, or, in ``full``, where consecutive cycles overlap, the
    finish of the cycle's last task less that of the previous cycle's.
    ``busy_ns`` is each worker's busy time in that stretch, and the counts
    are of the cycle's own node and register bodies."""

    cycle: int
    wall_ns: int = 0
    busy_ns: tuple[int, ...] = ()
    executed: int = 0
    skipped: int = 0
    sync_ns: int = 0


@dataclass
class RunTotals:
    wall_ns: int = 0
    host_ns: int = 0
    busy_ns: tuple[int, ...] = ()
    executed: int = 0
    skipped: int = 0
    # Tasks the pool dispatched; a merged chain is one dispatch for many
    # executed or skipped nodes.
    dispatches: int = 0
    dispatch_overhead_ns: int = 0
    # Evaluated nodes and registers outside every output's cone: never
    # evaluated or committed.
    swept: int = 0
    # Faults outside every output's cone: never simulated, reported undetected.
    unobservable: int = 0
    # Bad gates the kernel evaluated, and those it kept as divergent.
    bad_gates_evaluated: int = 0
    bad_gates_kept: int = 0
    # Nodes split into a master and slaves at setup, heaviest first.
    expanded: tuple[int, ...] = ()
    # A lower bound on wall_ns: the critical path of the executed schedule,
    # the costliest chain of tasks each released by the one before it (with
    # the host time between a barrier cycle's drains), or the summed busy
    # time spread over every worker, if more.
    bound_ns: int = 0

    @property
    def mean_dispatch_ns(self) -> float:
        return self.dispatch_overhead_ns / self.dispatches if self.dispatches else 0.0

    @property
    def bound_ratio(self) -> float:
        return self.wall_ns / self.bound_ns if self.bound_ns else 0.0


@dataclass
class SimulationReport:
    """A run's verdicts as the fault list in fid order plus the detection
    map, fid -> (detect cycle, observing output); a fault absent from the
    map is undetected.  The list is a copy of references to the caller's
    descriptors; ``results`` builds report rows from the two only when it
    is read."""

    faults: list[FaultDescriptor]
    detections: dict[int, tuple[int, str]]
    config: dict
    cycles: list[CycleStats] = field(default_factory=list)
    totals: RunTotals = field(default_factory=RunTotals)

    def __post_init__(self):
        self.faults = sorted(self.faults, key=attrgetter("fid"))

    @property
    def detected(self) -> int:
        detections = self.detections
        return sum(1 for f in self.faults if f.fid in detections)

    @property
    def coverage(self) -> float:
        return self.detected / len(self.faults) if self.faults else 0.0

    def verdicts(self) -> list[tuple[int, bool, int | None, str | None]]:
        verdicts = []
        for f in self.faults:
            hit = self.detections.get(f.fid)
            verdicts.append((f.fid, True, *hit) if hit else (f.fid, False, None, None))
        return verdicts

    @property
    def results(self) -> list[FaultResult]:
        """One row per fault, in fid order, built on each read."""

        return [
            FaultResult(f.fid, f.location_kind, f.location_name, f.bit, f.kind,
                        detected, cycle, output)
            for f, (_, detected, cycle, output) in zip(self.faults, self.verdicts())
        ]


REPORT_COLUMNS = [
    "fid", "location_kind", "location_name", "bit",
    "fault_kind", "verdict", "detect_cycle", "observing_output",
]


class _CsvField(dict):
    """Text field -> its CSV form, computed once per distinct text: quoted,
    with each quote doubled, when it holds a delimiter, a quote or a line
    break, and as is otherwise.  This is ``csv.writer``'s minimal quoting,
    except that a carriage return is always quoted, so that every report
    parses back."""

    def __missing__(self, text: str) -> str:
        if "," in text or '"' in text or "\n" in text or "\r" in text:
            quoted = '"' + text.replace('"', '""') + '"'
        else:
            quoted = text
        self[text] = quoted
        return quoted


_CHUNK_ROWS = 1024  # report lines joined at a time


def emit_report_csv(report: SimulationReport) -> str:
    """The header and one line per fault, each ending in a newline.  Lines
    are joined a chunk at a time, so no more than one chunk of per-fault
    strings is held at once."""

    quote = _CsvField()
    detections = report.detections
    chunks = [",".join(REPORT_COLUMNS) + "\n"]
    lines = []
    for f in report.faults:
        hit = detections.get(f.fid)
        if hit:
            verdict = f"detected,{hit[0]},{quote[hit[1]]}"
        else:
            verdict = "undetected,,"
        lines.append(
            f"{f.fid},{quote[f.location_kind]},{quote[f.location_name]},{f.bit},"
            f"{quote[f.kind]},{verdict}\n"
        )
        if len(lines) == _CHUNK_ROWS:
            chunks.append("".join(lines))
            lines.clear()
    chunks.append("".join(lines))
    return "".join(chunks)


def parse_report_csv(text: str) -> list[FaultResult]:
    """The results of a report CSV.  A ``detected`` row names its detect
    cycle and observing output, an ``undetected`` row neither, and the
    fid, bit and cycle fields are integers."""

    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        # An unreadable row, such as a field over csv.field_size_limit().
        raise ReportFormatError(f"report CSV line {reader.line_num}: {exc}") from None
    if not rows or rows[0] != REPORT_COLUMNS:
        raise ReportFormatError("missing or malformed report header")
    results = []
    for row in rows[1:]:
        if len(row) != len(REPORT_COLUMNS):
            raise ReportFormatError(f"bad report row {row!r}")
        fid, location_kind, location_name, bit, kind, verdict, cycle, output = row
        if verdict not in ("detected", "undetected"):
            raise ReportFormatError(f"unknown verdict {verdict!r} in row {row!r}")
        detected = verdict == "detected"
        if (bool(cycle), bool(output)) != (detected, detected):
            raise ReportFormatError(
                f"{verdict} row must {'' if detected else 'not '}name a detect "
                f"cycle and an observing output: {row!r}"
            )
        try:
            results.append(FaultResult(
                int(fid), location_kind, location_name, int(bit), kind,
                detected, int(cycle) if detected else None, output or None,
            ))
        except ValueError:
            raise ReportFormatError(f"non-integer fid, bit or cycle in row {row!r}") from None
    return results


def emit_stats(report: SimulationReport) -> str:
    lines = []
    cfg = " ".join(f"{k}={v}" for k, v in sorted(report.config.items()))
    lines.append(f"config {cfg}")
    t = report.totals
    lines.append(
        "totals "
        f"wall_ns={t.wall_ns} host_ns={t.host_ns} "
        f"busy_ns={';'.join(str(b) for b in t.busy_ns)} "
        f"executed={t.executed} skipped={t.skipped} "
        f"bad_gates_evaluated={t.bad_gates_evaluated} "
        f"bad_gates_kept={t.bad_gates_kept} "
        f"expanded={';'.join(str(e) for e in t.expanded)} "
        f"dispatches={t.dispatches} mean_dispatch_ns={t.mean_dispatch_ns:.1f} "
        f"bound_ns={t.bound_ns} bound_ratio={t.bound_ratio:.4f} "
        f"coverage={report.coverage:.6f} faults={len(report.faults)} "
        f"swept={t.swept} unobservable={t.unobservable}"
    )
    for c in report.cycles:
        lines.append(
            "cycle "
            f"cycle={c.cycle} wall_ns={c.wall_ns} "
            f"busy_ns={';'.join(str(b) for b in c.busy_ns)} "
            f"executed={c.executed} skipped={c.skipped} "
            f"sync_ns={c.sync_ns}"
        )
    return "\n".join(lines) + "\n"
