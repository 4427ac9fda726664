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
    cycle: int
    wall_ns: int
    busy_ns: tuple[int, ...]
    executed: int
    skipped: int
    sync_ns: int

    @property
    def utilization(self) -> float:
        cap = self.wall_ns * len(self.busy_ns)
        return sum(self.busy_ns) / cap if cap else 0.0


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
    # Faults outside every output's cone: never simulated, reported undetected.
    unobservable: int = 0
    # Bad gates the kernel evaluated, and those it kept as divergent.
    bad_gates_evaluated: int = 0
    bad_gates_kept: int = 0
    # Nodes split into a master and slaves at setup, heaviest first.
    expanded: tuple[int, ...] = ()

    @property
    def mean_dispatch_ns(self) -> float:
        return self.dispatch_overhead_ns / self.dispatches if self.dispatches else 0.0


@dataclass
class SimulationReport:
    results: list[FaultResult]
    config: dict
    cycles: list[CycleStats] = field(default_factory=list)
    totals: RunTotals = field(default_factory=RunTotals)
    output_trace: list[tuple[int, ...]] | None = None

    @property
    def coverage(self) -> float:
        return (
            sum(1 for r in self.results if r.detected) / len(self.results)
            if self.results
            else 0.0
        )

    def verdicts(self) -> list[tuple[int, bool, int | None, str | None]]:
        return [
            (r.fid, r.detected, r.detect_cycle, r.observing_output)
            for r in self.results
        ]


def build_results(
    faults: list[FaultDescriptor],
    detections: dict[int, tuple[int, str]],
) -> list[FaultResult]:
    results = []
    for f in sorted(faults, key=attrgetter("fid")):
        hit = detections.get(f.fid)
        results.append(
            FaultResult(
                f.fid, f.location_kind, f.location_name, f.bit, f.kind,
                hit is not None,
                hit[0] if hit else None,
                hit[1] if hit else None,
            )
        )
    return results


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


def emit_report_csv(report: SimulationReport) -> str:
    """The header and one line per result, each ending in a newline."""

    quote = _CsvField()
    lines = [",".join(REPORT_COLUMNS)]
    for r in report.results:
        cycle = "" if r.detect_cycle is None else r.detect_cycle
        lines.append(
            f"{r.fid},{quote[r.location_kind]},{quote[r.location_name]},{r.bit},"
            f"{quote[r.kind]},{'detected' if r.detected else 'undetected'},"
            f"{cycle},{quote[r.observing_output or '']}"
        )
    lines.append("")
    return "\n".join(lines)


def parse_report_csv(text: str) -> list[FaultResult]:
    """The results of a report CSV.  A ``detected`` row names its detect
    cycle and observing output, an ``undetected`` row neither, and the
    fid, bit and cycle fields are integers."""

    rows = list(csv.reader(io.StringIO(text)))
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
        f"coverage={report.coverage:.6f} faults={len(report.results)} "
        f"unobservable={t.unobservable}"
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
