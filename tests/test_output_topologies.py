"""Outputs are observation points: after ``rtl.observe_outputs`` an output
is a sink that shares its driver's state and is never evaluated.  These
hand-written netlists cover every way an output can be driven or read;
each runs in all four modes at P=1 and P=4 with the steady-state re-sweep
on, and must give the reference interpreter's fault-free output trace and
the single-fault resimulator's verdicts."""

import random

import pytest

from faultsim import rtl
from faultsim.config import MODES, SimConfig
from faultsim.faults import generate_fault_list
from faultsim.oracles import run_good_trace, run_single_fault
from faultsim.rtl import elaborate_text
from faultsim.scheduler import SimulationEngine

from conftest import comb_edges, expanding_first, output_faults, rand_rows, topo_positions

# A comb node and a register read an output.
READ_OUTPUT = """
module readout
input a 8
input b 8
reg r 8 = 5
assign n 8 = ADD a b
output o 8 = n
assign x 8 = ADD o r
output ox 8 = x
next r = o
end
"""

# An output of an output, and a narrower one of that.
OUTPUT_CHAIN = """
module chain
input a 8
input b 8
assign n 8 = XOR a b
output o1 8 = n
output o2 8 = o1
output o3 3 = o2
assign y 4 = ADD o3 #1:4
output oy 4 = y
end
"""

# An output wider than its driver and a 4-bit output of a 16-bit driver,
# both read by comb nodes.
WIDTHS = """
module widths
input a 8
input b 16
assign n 8 = XOR a #5a:8
output w 16 = n
assign m 16 = ADD b b
output q 4 = m
assign y 8 = SHR w #4:8
assign z 4 = NOT q
assign c 20 = CONCAT q m
output oy 8 = y
output oz 4 = z
output oc 20 = c
end
"""

# Outputs driven by an input (which carries port faults), by a constant
# and by a register that also feeds a register; one reg reads the output
# of another reg, one output of a reg is narrower than the reg.
SOURCES = """
module sources
input a 4
input s 1
reg r 4 = 3
reg t 4 = 0
reg u 4 = 9
output oa 4 = a
output ok 4 = #9:4
output orr 4 = r
output or2 2 = r
output ou 4 = u
assign e 4 = MUX s a orr
next r = e
next t = r
next u = ou
end
"""

# Outputs of registers only: their copies have no evaluated reader.
REG_OUTPUTS = """
module regout
input a 4
reg r 4 = 3
reg t 4 = 1
output o 4 = r
output p 2 = t
next r = a
next t = r
end
"""

CASES = {"read_output": READ_OUTPUT, "output_chain": OUTPUT_CHAIN,
         "widths": WIDTHS, "sources": SOURCES, "reg_outputs": REG_OUTPUTS}


def rows_for(graph):
    return rand_rows(random.Random(graph.name), graph, 6)


def faults_for(text):
    """Every generated fault, plus wire and port faults named on every
    output bit that its driver reaches."""

    graph = elaborate_text(text)
    faults = generate_fault_list(graph, ("sa0", "sa1", "transient"),
                                 transient_window=(1, 3))
    return faults + output_faults(graph, len(faults))


def middle_node(graph):
    """The middle evaluated node by id, to split into a master and slaves."""

    nids = [n.id for n in graph.nodes if n.kind in rtl.TASK_KINDS]
    return [nids[len(nids) // 2]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_topologies_match_the_resimulator(name):
    text = CASES[name]
    graph = elaborate_text(text)
    rows = rows_for(graph)
    faults = faults_for(text)
    good = run_good_trace(graph, rows)

    def resimulate(g):
        verdicts = []
        for fault in faults:
            r = run_single_fault(g, fault, rows, good=good)
            verdicts.append((fault.fid, r.detected, r.detect_cycle, r.observing_output))
        return verdicts

    truth = resimulate(graph)
    assert any(t[1] for t in truth)

    for mode in MODES:
        for workers in (1, 4):
            cfg = SimConfig(workers=workers, mode=mode, threshold=0.02,
                            steady_state_check=True, record_outputs=True)
            # The expanding modes split the middle evaluated node first.
            with expanding_first(middle_node):
                eng = SimulationEngine(elaborate_text(text), faults, rows, cfg)
            report = eng.run()
            assert report.output_trace == good, (name, mode, workers)
            assert report.verdicts() == truth, (name, mode, workers)

    # The resimulator reads the rewired graph the same way.
    assert resimulate(eng.graph) == truth


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_sinks_that_share_their_drivers_state(name):
    text = CASES[name]
    graph = elaborate_text(text)
    eng = SimulationEngine(graph, faults_for(text), rows_for(graph),
                           SimConfig(workers=4, mode="full"))
    nodes = graph.nodes
    outputs = set(graph.outputs)
    for oid in outputs:
        out = nodes[oid]
        driver = nodes[out.fanin[0]]
        assert out.fanout == []
        assert driver.kind not in (rtl.REG, rtl.OUTPUT)
        assert driver.width <= out.width
        assert oid in driver.fanout
        assert eng.states[oid] is eng.states[driver.id]
        assert oid not in eng.tg.node_task
    for node in nodes:
        assert not outputs & set(node.fanin)
        assert node.next_src not in outputs
        for src in node.fanin:
            assert node.fanin.count(src) == nodes[src].fanout.count(node.id)
    pos = topo_positions(graph)
    assert sorted(graph.topo) == list(range(len(nodes)))
    assert all(pos[u] < pos[v] for u, v in comb_edges(graph))


def test_register_output_shares_the_register_copy():
    graph = elaborate_text(SOURCES)
    SimulationEngine(graph, [], rows_for(graph), SimConfig(mode="serial"))
    ids = graph.name_to_id
    r_copy = graph.nodes[ids["t"]].next_src
    assert graph.nodes[r_copy].name == "r$cpy"
    assert graph.nodes[ids["orr"]].fanin == [r_copy]
    assert graph.nodes[ids["e"]].fanin[2] == r_copy
    assert graph.nodes[graph.nodes[ids["or2"]].fanin[0]].name == "r$cpy2"
    # `next u = ou` reads u through u's copy, as `next u = u` would.
    assert graph.nodes[ids["u"]].next_src == graph.nodes[ids["ou"]].fanin[0]
    assert graph.nodes[graph.nodes[ids["u"]].next_src].name == "u$cpy"
    # A constant drives its output directly.
    assert graph.nodes[graph.nodes[ids["ok"]].fanin[0]].kind == rtl.CONST


def test_observe_outputs_is_idempotent():
    graph = elaborate_text(WIDTHS)
    rtl.observe_outputs(graph)
    before = ([list(n.fanin) for n in graph.nodes], list(graph.topo), len(graph.nodes))
    rtl.observe_outputs(graph)
    assert ([list(n.fanin) for n in graph.nodes], list(graph.topo), len(graph.nodes)) \
        == before
