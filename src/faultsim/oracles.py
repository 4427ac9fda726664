"""Reference engines that define ground truth.

``run_single_fault`` resimulates one fault at a time with a plain
topological interpreter and its own operator evaluation code.  It shares
no kernel with the concurrent engine, but it imports the engine's forcing
rule (``faulty_val``) and fault-site rule (``resolve_injection_site``), so
a defect in either would show on both sides.  ``run_serial_concurrent``
runs the concurrent engine in ``serial`` mode (single threaded,
topological order); the parallel modes must reproduce its report bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import rtl
from .config import MODE_SERIAL, SimConfig
from .faults import FaultDescriptor, faulty_val, resolve_injection_site
from .report import SimulationReport
from .rtl import RtlGraph
from .scheduler import SimulationEngine
from .stimulus import as_rows


def _ref_op(node, ins: list[int]) -> int:
    """Operator semantics, written independently of the simulation kernels."""

    full = (1 << node.width) - 1
    op = node.op
    if op in ("AND", "OR", "XOR"):
        a, b = ins
        raw = {"AND": a & b, "OR": a | b, "XOR": a ^ b}[op]
    elif op == "NOT":
        raw = (~ins[0]) % (1 << node.width)
    elif op == "ADD":
        raw = (ins[0] + ins[1]) % (1 << node.width)
    elif op == "SUB":
        raw = (ins[0] - ins[1]) % (1 << node.width)
    elif op == "MUL":
        raw = (ins[0] * ins[1]) % (1 << node.width)
    elif op == "EQ":
        raw = int(ins[0] == ins[1])
    elif op == "LT":
        raw = int(ins[0] < ins[1])
    elif op == "MUX":
        raw = ins[1] if ins[0] == 1 else ins[2]
    elif op == "SHL":
        raw = ins[0] * (2 ** min(ins[1], 64))
    elif op == "SHR":
        raw = ins[0] // (2 ** min(ins[1], 64))
    elif op == "SLICE":
        raw = (ins[0] // (2 ** node.slice_lo)) % (2 ** node.width)
    elif op == "CONCAT":
        raw = ins[0] * (2 ** node.concat_lo_width) + ins[1]
    else:
        raise ValueError(f"unknown operator '{op}'")
    return raw & full


# Every node kind with a fanin.  The engine shares an output's state with
# its driver instead of evaluating it; this interpreter keeps evaluating
# outputs, so it does not depend on that rule.
_EVALUATED = (rtl.COMB, rtl.OUTPUT, rtl.VIRTUAL)


def _plain_sim(
    graph: RtlGraph,
    rows: list[list[int]],
    site: int | None = None,
    rule: FaultDescriptor | None = None,
) -> list[tuple[int, ...]]:
    """Full-vector simulation, optionally forcing one fault at its site."""

    vals = [0] * len(graph.nodes)
    for node in graph.nodes:
        if node.kind == rtl.CONST:
            vals[node.id] = node.init
        elif node.kind == rtl.REG:
            v = node.init
            if node.id == site:
                v = faulty_val(rule, v, 0)
            vals[node.id] = v

    order = [nid for nid in graph.topo if graph.nodes[nid].kind in _EVALUATED]
    out_trace: list[tuple[int, ...]] = []
    for cycle, row in enumerate(rows):
        for nid, v in zip(graph.inputs, row):
            vals[nid] = v & graph.nodes[nid].mask
        for nid in order:
            node = graph.nodes[nid]
            if node.kind == rtl.COMB:
                v = _ref_op(node, [vals[f] for f in node.fanin])
            else:
                v = vals[node.fanin[0]] & node.mask
            if nid == site:
                v = faulty_val(rule, v, cycle)
            vals[nid] = v
        out_trace.append(tuple(vals[o] for o in graph.outputs))
        committed = [
            (r, vals[graph.nodes[r].next_src] & graph.nodes[r].mask)
            for r in graph.regs
        ]
        for r, v in committed:
            if r == site:
                v = faulty_val(rule, v, cycle + 1)
            vals[r] = v
    return out_trace


@dataclass
class SingleFaultResult:
    detected: bool
    detect_cycle: int | None
    observing_output: str | None
    output_trace: list[tuple[int, ...]]


def run_single_fault(
    graph: RtlGraph,
    fault: FaultDescriptor,
    stimulus,
    good: list[tuple[int, ...]] | None = None,
) -> SingleFaultResult:
    """Resimulate one fault from scratch and compare against the fault-free
    trace; detection is the first cycle any output differs.  ``good`` is
    that trace from ``run_good_trace``, computed here when not given, so a
    caller checking many faults on one stimulus computes it once."""

    rows = as_rows(graph, stimulus)
    site = resolve_injection_site(graph, fault)
    if good is None:
        good = _plain_sim(graph, rows)
    bad = _plain_sim(graph, rows, site, fault)
    for cycle, (g, b) in enumerate(zip(good, bad)):
        if g != b:
            idx = next(i for i, (x, y) in enumerate(zip(g, b)) if x != y)
            name = graph.nodes[graph.outputs[idx]].name
            return SingleFaultResult(True, cycle, name, bad)
    return SingleFaultResult(False, None, None, bad)


def run_good_trace(graph: RtlGraph, stimulus) -> list[tuple[int, ...]]:
    """Fault-free output trace from the reference interpreter."""

    return _plain_sim(graph, as_rows(graph, stimulus))


def run_serial_concurrent(
    graph: RtlGraph,
    faults: list[FaultDescriptor],
    stimulus,
    config: SimConfig | None = None,
) -> SimulationReport:
    """The concurrent engine in serial mode: nodes in topological order,
    registers committed one by one after the strobe."""

    config = replace(config, mode=MODE_SERIAL) if config else SimConfig(mode=MODE_SERIAL)
    return SimulationEngine(graph, faults, stimulus, config).run()
