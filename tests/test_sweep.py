"""The sweep: logic outside every output's cone is never evaluated or
committed.  ``SimulationEngine`` derives the live evaluated nodes and
registers from ``rtl.observable`` once, at setup; the serial order, the
task graph and its sync tasks hold exactly those, expansion picks drop
any swept node, and every verdict stays the single-fault resimulator's."""

import json
import random

import pytest

from faultsim import rtl
from faultsim.config import MODES, SimConfig
from faultsim.faults import generate_fault_list
from faultsim.oracles import run_good_trace, run_single_fault
from faultsim.report import emit_stats
from faultsim.rtl import elaborate_text
from faultsim.scheduler import MAX_EXPANSIONS, SimulationEngine, flag_overloaded
from faultsim.taskgraph import SYNC

from conftest import output_faults, rand_rows, record_outputs, topo_positions

# `s` is live: the output `o` reads it through `x`.  `d0`/`d1` hang off the
# live `y` and reach no output; `h` reads both outputs' drivers, so its cone
# holds most fids, yet it reaches no output either; `w0`/`w1` and their next
# logic form a write-only register bank.
SWEEP = """
module sweep
input a 4
input b 4
input c 4
reg s 4 = 3
reg w0 4 = 1
reg w1 4 = 2
assign x 4 = XOR a s
assign y 4 = ADD x b
assign z 4 = SUB b c
output o 4 = y
output p 4 = z
next s = y
assign d0 4 = NOT y
assign d1 4 = AND d0 c
assign h 4 = XOR y z
assign v0 4 = ADD w0 c
assign v1 4 = XOR w1 v0
next w0 = v0
next w1 = v1
end
"""

# Both outputs read inputs: nothing is evaluated or committed.
INPUTS_ONLY = """
module inputs_only
input a 4
input b 2
reg r 4 = 0
assign n 4 = ADD a r
output o 4 = a
output q 2 = b
next r = n
end
"""

DEAD = {"d0", "d1", "h", "v0", "v1", "w0", "w1"}


def faults_for(text):
    graph = elaborate_text(text)
    faults = generate_fault_list(graph, ("sa0", "sa1", "transient"),
                                 transient_window=(1, 3))
    return faults + output_faults(graph, len(faults))


def truth_for(text, faults, rows):
    graph = elaborate_text(text)
    good = run_good_trace(graph, rows)
    verdicts = []
    for fault in faults:
        r = run_single_fault(graph, fault, rows, good=good)
        verdicts.append((fault.fid, r.detected, r.detect_cycle, r.observing_output))
    return verdicts


def live_sets(eng):
    """The engine graph's observable evaluated nodes and registers, found
    from ``rtl.observable`` here."""

    graph = eng.graph
    seen = rtl.observable(graph)
    evaluated = {n.id for n in graph.nodes if n.kind in rtl.TASK_KINDS and seen[n.id]}
    regs = [rid for rid in graph.regs if seen[rid]]
    return seen, evaluated, regs


def test_serial_order_and_task_graph_hold_exactly_the_live_logic():
    rows = rand_rows(random.Random(5), elaborate_text(SWEEP), 8)
    faults = faults_for(SWEEP)
    for mode in MODES:
        graph = elaborate_text(SWEEP)
        eng = SimulationEngine(graph, faults, rows,
                               SimConfig(workers=3, mode=mode, threshold=0.1))
        topo, regs, swept = list(graph.topo), list(graph.regs), eng.totals.swept
        seen, evaluated, live_regs = live_sets(eng)
        names = {graph.nodes[n].name for n in range(len(graph.nodes)) if not seen[n]}
        assert DEAD <= names, mode
        dead = sum(1 for n in graph.nodes if n.kind in rtl.TASK_KINDS) - len(evaluated)
        assert swept == dead + len(graph.regs) - len(live_regs) >= len(DEAD)
        if mode == "serial":
            pos = topo_positions(graph)
            assert set(eng.order) == evaluated and len(eng.order) == len(evaluated)
            assert [pos[n] for n in eng.order] == sorted(pos[n] for n in eng.order)
            assert eng.regs == live_regs
        else:
            tasks = eng.tg.tasks
            assert [tasks[t].regs for t in eng.tg.sync_tasks] == [(r,) for r in live_regs]
            assert all(t.kind != SYNC or t.id in eng.tg.sync_tasks for t in tasks)
            nodes = [n for t in tasks if t.nodes for n in t.nodes]
            assert sorted(nodes) == sorted(evaluated), mode
            assert set(eng.tg.node_task) == evaluated, mode
        eng.run()
        # The sweep leaves the graph's order and register list whole.
        assert sorted(topo) == list(range(len(graph.nodes)))
        assert regs == [n.id for n in graph.nodes if n.kind == rtl.REG]
        assert (graph.topo, graph.regs) == (topo, regs), mode


@pytest.mark.parametrize("text", [SWEEP, INPUTS_ONLY], ids=["sweep", "inputs_only"])
def test_swept_runs_match_the_resimulator(text):
    rows = rand_rows(random.Random(text), elaborate_text(text), 8)
    faults = faults_for(text)
    truth = truth_for(text, faults, rows)
    assert any(t[1] for t in truth) and not all(t[1] for t in truth)
    for mode in MODES:
        for drop in (False, True):
            for steady in (False, True):
                cfg = SimConfig(workers=3, mode=mode, threshold=0.1,
                                drop_on_detect=drop, steady_state_check=steady)
                report = SimulationEngine(elaborate_text(text), faults, rows, cfg).run()
                assert report.verdicts() == truth, (mode, drop, steady)


def test_inputs_only_design_has_an_empty_task_graph():
    """With faults only on the dead logic (an input's port fault would
    splice a live carrier), nothing is evaluated or committed; every mode
    still strobes the inputs' values and files no fault."""

    graph = elaborate_text(INPUTS_ONLY)
    rows = rand_rows(random.Random(1), graph, 4)
    good = run_good_trace(graph, rows)
    faults = [f for f in faults_for(INPUTS_ONLY) if f.location_name in ("n", "r")]
    assert faults
    for mode in MODES:
        eng = SimulationEngine(elaborate_text(INPUTS_ONLY), faults, rows,
                               SimConfig(workers=2, mode=mode, steady_state_check=True))
        assert eng.order == [] and eng.regs == []
        if mode != "serial":
            assert eng.tg.tasks == []
        trace = record_outputs(eng)
        report = eng.run()
        assert trace == good, mode
        t = report.totals
        assert (t.swept, t.unobservable, t.executed, report.detected) == (2, len(faults), 0, 0)
        assert len(report.cycles) == 4, mode


def test_swept_heavy_node_is_not_expanded():
    """``flag_overloaded`` counts cones over every evaluated node, so the
    dead ``h``, whose cone is the largest, tops its picks; the engine
    expands the picks that are live, in order."""

    rows = rand_rows(random.Random(5), elaborate_text(SWEEP), 8)
    faults = faults_for(SWEEP)
    for mode in ("structural+fault", "full"):
        graph = elaborate_text(SWEEP)
        eng = SimulationEngine(graph, faults, rows,
                               SimConfig(workers=3, mode=mode, threshold=0.1))
        seen = rtl.observable(graph)
        picks = flag_overloaded(graph, eng.nf, 0.1)
        assert graph.nodes[picks[0]].name == "h" and picks[0] not in eng.totals.expanded
        live_picks = tuple(n for n in picks if seen[n])[:MAX_EXPANSIONS]
        assert live_picks and eng.totals.expanded == live_picks, mode
        assert sorted(eng.tg.boards) == sorted(live_picks)
        totals = json.loads(emit_stats(eng.run()))["totals"]
        assert totals["swept"] == eng.totals.swept and "unobservable" in totals
