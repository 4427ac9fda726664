import csv
import io
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from faultsim import report as report_module
from faultsim.config import SimConfig
from faultsim.faults import FaultDescriptor
from faultsim.genbench import gen_bench
from faultsim.report import (
    REPORT_COLUMNS, CycleStats, FaultResult, ReportFormatError, RunTotals,
    SimulationReport, emit_report_csv, emit_stats, parse_report_csv,
)
from faultsim.scheduler import run_simulation
from faultsim.stimulus import (
    StimulusError, StimulusFile, bind_stimulus, emit_stimulus, parse_stimulus,
)

from conftest import build


class TestStimulus:
    def test_round_trip(self):
        stim = StimulusFile(["a", "b"], [[1, 0xFF], [2, 0x10]])
        assert parse_stimulus(emit_stimulus(stim)) == stim

    def test_hex_parsing(self):
        stim = parse_stimulus("cycle a\n0 ff\n1 1A\n")
        assert stim.rows == [[0xFF], [0x1A]]

    def test_header_required(self):
        with pytest.raises(StimulusError, match="header"):
            parse_stimulus("a b\n0 1 1\n")
        with pytest.raises(StimulusError, match="empty"):
            parse_stimulus("\n")

    def test_column_count_checked(self):
        with pytest.raises(StimulusError, match="columns"):
            parse_stimulus("cycle a b\n0 1\n")

    def test_cycle_index_must_be_dense(self):
        with pytest.raises(StimulusError, match="cycle column"):
            parse_stimulus("cycle a\n0 1\n3 0\n")

    def test_bind_reorders_and_checks_names(self):
        g = build("module m\ninput a 2\ninput b 4\nassign y 4 = ADD a b\nend")
        stim = parse_stimulus("cycle b a\n0 f 3\n")
        assert bind_stimulus(g, stim) == [[3, 0xF]]
        with pytest.raises(StimulusError, match="do not match"):
            bind_stimulus(g, parse_stimulus("cycle a\n0 1\n"))

    def test_bind_rejects_wide_values(self):
        g = build("module m\ninput a 2\nassign y 2 = NOT a\nend")
        with pytest.raises(StimulusError, match="exceeds"):
            bind_stimulus(g, parse_stimulus("cycle a\n0 f\n"))


class TestReport:
    def _report(self):
        b = gen_bench("uniform", 40, 2, cycles=5, fault_count=12)
        g, stim, faults = b.build()
        return run_simulation(g, faults, stim, SimConfig(workers=2))

    def test_csv_round_trip(self):
        report = self._report()
        assert parse_report_csv(emit_report_csv(report)) == report.results

    def test_csv_header_enforced(self):
        with pytest.raises(ReportFormatError, match="header"):
            parse_report_csv("a,b,c\n")

    def test_csv_row_shape_enforced(self):
        text = emit_report_csv(self._report()) + "1,2,3\n"
        with pytest.raises(ReportFormatError, match="bad report row"):
            parse_report_csv(text)

    def test_stats_uses_cycle_stats_field_names(self):
        report = self._report()
        stats = json.loads(emit_stats(report))
        for field in ("cycle", "wall_ns", "busy_ns", "executed",
                      "skipped", "sync_ns"):
            assert field in stats["cycles"][0]
        assert "expanded" in stats["totals"]

    def test_stats_document_is_the_dataclass_fields(self):
        """The stats file holds exactly the config, the totals and the
        cycles, each keyed by its dataclass's field names; the totals add
        four derived values."""

        report = self._report()
        stats = json.loads(emit_stats(report))
        names = lambda cls: {f.name for f in fields(cls)}
        assert set(stats) == {"config", "totals", "cycles"}
        assert set(stats["config"]) == names(SimConfig)
        assert set(stats["totals"]) == names(RunTotals) | {
            "mean_dispatch_ns", "bound_ratio", "coverage", "faults"}
        assert len(stats["cycles"]) == len(report.cycles) == 5
        assert all(set(c) == names(CycleStats) for c in stats["cycles"])
        totals = report.totals
        assert stats["config"]["workers"] == 2
        assert stats["totals"]["busy_ns"] == list(totals.busy_ns)
        assert stats["totals"]["bound_ratio"] == totals.bound_ratio
        assert stats["totals"]["faults"] == 12
        assert stats["totals"]["coverage"] == report.coverage
        assert [c["cycle"] for c in stats["cycles"]] == list(range(5))

    @pytest.mark.parametrize("row, problem", [
        ("0,wire,n,0,sa0,detected,,o", "must name"),
        ("0,wire,n,0,sa0,detected,3,", "must name"),
        ("0,wire,n,0,sa0,undetected,3,o", "must not name"),
        ("0,wire,n,0,sa0,undetected,,o", "must not name"),
        ("0,wire,n,0,sa0,undetected,3,", "must not name"),
        ("0,wire,n,0,sa0,maybe,,", "unknown verdict"),
        ("0,wire,n,0,sa0,Detected,3,o", "unknown verdict"),
        ("x,wire,n,0,sa0,undetected,,", "non-integer"),
        ("0,wire,n,b0,sa0,undetected,,", "non-integer"),
        ("0,wire,n,0,sa0,detected,3.5,o", "non-integer"),
    ])
    def test_csv_row_must_agree_with_its_verdict(self, row, problem):
        header = ",".join(REPORT_COLUMNS)
        assert parse_report_csv(f"{header}\n0,wire,n,0,sa0,detected,3,o\n")[0].detected
        with pytest.raises(ReportFormatError, match=problem):
            parse_report_csv(f"{header}\n{row}\n")

    def test_coverage_bounds(self):
        report = self._report()
        assert 0.0 <= report.coverage <= 1.0
        empty = SimulationReport(faults=[], detections={}, config=SimConfig())
        assert empty.coverage == 0.0 and empty.results == []
        faults = [FaultDescriptor(fid, "wire", "n", 0, "sa0") for fid in (7, 2, 5, 0)]
        quarter = SimulationReport(faults=faults, detections={5: (1, "o")},
                                   config=SimConfig())
        assert quarter.coverage == 0.25 and quarter.detected == 1
        assert quarter.verdicts() == [
            (0, False, None, None), (2, False, None, None),
            (5, True, 1, "o"), (7, False, None, None),
        ]

    def test_overlong_field_is_a_format_error(self):
        header = ",".join(REPORT_COLUMNS)
        text = f"{header}\n0,wire,{'n' * 200_000},0,sa0,undetected,,\n"
        with pytest.raises(ReportFormatError, match="line 2: field larger than"):
            parse_report_csv(text)


def reference_report_csv(results) -> str:
    """The report CSV as ``csv.writer`` writes it, one row at a time.  The
    writer quotes a field holding a delimiter, a quote or a character of
    its line terminator; with "\r\n" that covers both line breaks, and each
    row's terminator is then replaced by the report's "\n"."""

    lines = []
    for row in [REPORT_COLUMNS] + [
        [r.fid, r.location_kind, r.location_name, r.bit, r.kind,
         "detected" if r.detected else "undetected",
         "" if r.detect_cycle is None else r.detect_cycle,
         r.observing_output or ""]
        for r in results
    ]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


# Names with every character the CSV quoting reacts to, spaces and the
# empty string.
csv_text = st.text(alphabet=st.sampled_from(list('ab ,"\r\n')), max_size=6)


# Every field drawn on its own, fids distinct; a detected fault has a
# detect cycle and a non-empty observing output.
fault_verdicts = st.tuples(
    st.builds(FaultDescriptor, st.integers(0, 10**6), csv_text, csv_text,
              st.integers(0, 63), csv_text),
    st.none() | st.tuples(st.integers(0, 99), csv_text.filter(bool)),
)


def expected_results(faults, detections) -> list[FaultResult]:
    """Report rows built straight from the descriptors, in fid order."""

    return [
        FaultResult(f.fid, f.location_kind, f.location_name, f.bit, f.kind,
                    f.fid in detections, *detections.get(f.fid, (None, None)))
        for f in sorted(faults, key=lambda f: f.fid)
    ]


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(fault_verdicts, max_size=8, unique_by=lambda d: d[0].fid))
def test_report_csv_matches_csv_writer(drawn):
    """The report writer formats rows itself; its bytes equal
    ``csv.writer``'s and parse back to the same results."""

    faults = [f for f, _ in drawn]
    detections = {f.fid: hit for f, hit in drawn if hit}
    report = SimulationReport(faults=faults, detections=detections, config=SimConfig())
    results = expected_results(faults, detections)
    text = emit_report_csv(report)
    assert text == reference_report_csv(results)
    assert parse_report_csv(text) == report.results == results


def test_report_csv_across_chunk_boundaries():
    """Lines are joined a chunk at a time; a report of a few chunks and a
    remainder still reads as ``csv.writer`` writes it."""

    count = 2 * report_module._CHUNK_ROWS + 3
    faults = [FaultDescriptor(fid, "reg", f"r,{fid % 5}", fid % 8, "sa1")
              for fid in range(count)]
    detections = {fid: (fid % 10, "o") for fid in range(0, count, 3)}
    report = SimulationReport(faults=faults, detections=detections, config=SimConfig())
    text = emit_report_csv(report)
    assert text == reference_report_csv(expected_results(faults, detections))
    assert text.count("\n") == count + 1


@pytest.mark.parametrize("profile, size", [
    ("uniform", 60), ("skewed", 120), ("pipeline", 120),
])
def test_rows_on_demand_agree_with_csv_verdicts_and_coverage(profile, size):
    """``results`` is built from the fault list and the detection map when
    it is read; it equals the parsed report CSV, and ``verdicts()`` and
    ``coverage`` agree with it."""

    g, stim, faults = gen_bench(profile, size, 5, cycles=6, fault_count=40).build()
    report = run_simulation(g, faults, stim, SimConfig(workers=4))
    rows = report.results
    assert rows == parse_report_csv(emit_report_csv(report))
    assert [r.fid for r in rows] == sorted(f.fid for f in faults)
    assert report.verdicts() == [
        (r.fid, r.detected, r.detect_cycle, r.observing_output) for r in rows
    ]
    detected = sum(r.detected for r in rows)
    assert 0 < detected < len(rows)
    assert report.detected == detected
    assert report.coverage == detected / len(rows)


def test_emitters_do_not_depend_on_reading_rows():
    """Reading ``results`` changes neither the report CSV nor the stats
    text."""

    g, stim, faults = gen_bench("skewed", 120, 3, cycles=5, fault_count=30).build()
    report = run_simulation(g, faults, stim, SimConfig(workers=2))
    before = emit_report_csv(report), emit_stats(report)
    assert report.results
    assert (emit_report_csv(report), emit_stats(report)) == before
