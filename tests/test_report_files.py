import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from faultsim.config import SimConfig
from faultsim.genbench import gen_bench
from faultsim.report import (
    REPORT_COLUMNS, CycleStats, FaultResult, ReportFormatError,
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
        text = emit_stats(report)
        line = next(ln for ln in text.splitlines() if ln.startswith("cycle "))
        for field in ("cycle=", "wall_ns=", "busy_ns=", "executed=",
                      "skipped=", "expansions=", "sync_ns="):
            assert field in line

    def test_coverage_bounds(self):
        report = self._report()
        assert 0.0 <= report.coverage <= 1.0
        empty = SimulationReport(results=[], config={})
        assert empty.coverage == 0.0

    def test_cycle_stats_utilization(self):
        c = CycleStats(0, 100, (50, 25), 2, 0, (), 0)
        assert c.utilization == 0.375


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


# Every field drawn on its own, as a parsed report may combine them; an
# empty output name reads back as None.
fault_results = st.builds(
    FaultResult, st.integers(0, 10**6), csv_text, csv_text,
    st.integers(0, 63), csv_text, st.booleans(),
    st.none() | st.integers(0, 99), st.none() | csv_text.filter(bool),
)


@settings(max_examples=200, deadline=None)
@given(results=st.lists(fault_results, max_size=8))
def test_report_csv_matches_csv_writer(results):
    """The report writer formats rows itself; its bytes equal
    ``csv.writer``'s and parse back to the same results."""

    text = emit_report_csv(SimulationReport(results=results, config={}))
    assert text == reference_report_csv(results)
    assert parse_report_csv(text) == results
