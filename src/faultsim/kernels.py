"""Concurrent-simulation kernels: good-value evaluation, bad-gate set
evaluation with divergence/convergence pruning, dependence checking,
register next-state computation, the state commit every node evaluation and
register commit goes through, and the drop of detected faults.

A node's state is its fault-free value plus a sorted list of (fid, value)
pairs, one per fault whose value at this node currently differs from the
good value.  Entries appear when a fault diverges here and silently vanish
when re-evaluation produces the good value again (convergence); there is
no event queue and no explicit deletion, which is what lets any worker
evaluate any node from nothing but its fanin states.

Each kernel writes exactly one node's state and reads only fanin states
that the schedule has already sealed, so the kernels themselves need no
locking in any execution discipline.  ``drop_detected`` writes every
state and so runs only after a cycle's drain.
"""

from __future__ import annotations

from bisect import bisect_left

from . import rtl
from .faults import FaultTable, NodeFaults, faulty_val, window_active, window_toggles
from .rtl import RtlGraph, RtlNode


class SimulationError(RuntimeError):
    pass


class NodeState:
    """Per-node simulation state.

    Change flags are cycle-stamped rather than cleared: the node's value or
    bad list changed "for" cycle c exactly when the corresponding stamp
    equals c.  Evaluated nodes and registers are stamped by ``commit_state``
    (evaluation during cycle c stamps c; the register commit at the end of
    cycle c stamps c+1, the cycle its readers run in), and inputs by
    ``apply_stimulus_row``, so a stale stamp reads as unchanged without any
    boundary sweep.
    """

    __slots__ = ("good", "bads", "good_stamp", "bads_stamp")

    def __init__(self, good: int = 0, bads: list | None = None):
        self.good = good
        self.bads: list[tuple[int, int]] = bads if bads is not None else []
        self.good_stamp = -1
        self.bads_stamp = -1

    def __repr__(self):
        return f"NodeState(good={self.good:#x}, bads={self.bads})"


def eval_good(node: RtlNode, fanin_goods: list[int], stored: int | None = None) -> int:
    """Fault-free value of a node given its fanin values (already masked)."""

    kind = node.kind
    if kind == rtl.COMB:
        return apply_op(node, fanin_goods)
    if kind in (rtl.OUTPUT, rtl.VIRTUAL):
        return fanin_goods[0] & node.mask
    if kind == rtl.CONST:
        return node.init
    if kind in (rtl.REG, rtl.INPUT):
        if stored is None:
            raise SimulationError(f"no stored value for source node '{node.name}'")
        return stored
    raise SimulationError(f"cannot evaluate node kind '{kind}'")


def apply_op(node: RtlNode, vals: list[int]) -> int:
    op = node.op
    m = node.mask
    if op == "AND":
        return (vals[0] & vals[1]) & m
    if op == "OR":
        return (vals[0] | vals[1]) & m
    if op == "XOR":
        return (vals[0] ^ vals[1]) & m
    if op == "NOT":
        return ~vals[0] & m
    if op == "ADD":
        return (vals[0] + vals[1]) & m
    if op == "SUB":
        return (vals[0] - vals[1]) & m
    if op == "MUL":
        return (vals[0] * vals[1]) & m
    if op == "EQ":
        return 1 if vals[0] == vals[1] else 0
    if op == "LT":
        return 1 if vals[0] < vals[1] else 0
    if op == "MUX":
        return (vals[1] if vals[0] else vals[2]) & m
    if op == "SHL":
        return (vals[0] << min(vals[1], 64)) & m
    if op == "SHR":
        return (vals[0] >> min(vals[1], 64)) & m
    if op == "SLICE":
        return (vals[0] >> node.slice_lo) & m
    if op == "CONCAT":
        return ((vals[0] << node.concat_lo_width) | vals[1]) & m
    raise SimulationError(f"unknown operator '{op}'")


def affected_fids(
    node: RtlNode,
    fanin_states: list[NodeState],
    nf: NodeFaults,
    own_state: NodeState,
    cycle: int,
) -> list[int]:
    """Candidate fault ids for this node's bad-gate evaluation: every fault
    divergent at a fanin, every fault injected here with an active window,
    and every fault currently divergent here (so convergence is observed)."""

    fids: set[int] = {fid for fid, _ in own_state.bads}
    for st in fanin_states:
        bads = st.bads
        if bads:
            fids.update(fid for fid, _ in bads)
    if nf.entries:
        for entry in nf.entries:
            if not entry.dropped and window_active(entry.rule, cycle):
                fids.add(entry.fid)
    return sorted(fids)


def eval_bad_set(
    node: RtlNode,
    fanin_states: list[NodeState],
    nf: NodeFaults,
    new_good: int,
    cycle: int,
    affected: list[int],
    begin: int,
    end: int,
) -> list[tuple[int, int]]:
    """Evaluate the bad gates with ids affected[begin:end].

    For each fault, fanin values fall back to the fanin's good value when
    the fault is not divergent there.  A fault injected at this node has
    its forcing rule applied on top of the computed value.  Only values
    that differ from the good value are kept, ascending by fid; the result
    over any partition of the affected list concatenates to the result
    over the full list, which is what makes range-split evaluation exact.
    """

    if begin >= end:
        return []
    result: list[tuple[int, int]] = []
    fanin_bads = [st.bads for st in fanin_states]
    fanin_goods = [st.good for st in fanin_states]
    first_fid = affected[begin]
    ptrs = [bisect_left(bads, (first_fid,)) for bads in fanin_bads]
    fid_map = nf.fid_map if nf.entries else None
    vals = [0] * len(fanin_states)
    passthrough = node.kind != rtl.COMB
    mask = node.mask

    for idx in range(begin, end):
        fid = affected[idx]
        for i, bads in enumerate(fanin_bads):
            p = ptrs[i]
            n = len(bads)
            while p < n and bads[p][0] < fid:
                p += 1
            ptrs[i] = p
            if p < n and bads[p][0] == fid:
                vals[i] = bads[p][1]
            else:
                vals[i] = fanin_goods[i]
        if passthrough:  # output / virtual
            raw = vals[0] & mask
        else:
            raw = apply_op(node, vals)
        if fid_map is not None:
            entry = fid_map.get(fid)
            if entry is not None and not entry.dropped \
                    and window_active(entry.rule, cycle):
                raw = faulty_val(entry.rule, raw, cycle)
        if raw != new_good:
            result.append((fid, raw))
    return result


def check_dependence_changed(
    node: RtlNode,
    fanin_states: list[NodeState],
    nf: NodeFaults,
    cycle: int,
) -> bool:
    """Decide whether the node must be re-evaluated this cycle."""

    if cycle == 0:
        return True
    for st in fanin_states:
        if st.good_stamp == cycle or st.bads_stamp == cycle:
            return True
    for entry in nf.entries:
        if not entry.dropped and window_toggles(entry.rule, cycle):
            return True
    return False


def sync_register(
    reg: RtlNode,
    next_state: NodeState,
    nf: NodeFaults,
    serve_cycle: int,
) -> tuple[int, list[tuple[int, int]]]:
    """Compute the register's committed state for the coming cycle.

    The incoming good and bad values are the next-source node's state; a
    fault injected at the reg applies its forcing rule to the incoming
    value (window judged at the cycle the stored value will serve).  As
    everywhere else, entries equal to the good value are not stored, so a
    transient whose window just closed persists only through genuinely
    divergent next values.
    """

    mask = reg.mask
    incoming = next_state.bads
    new_good = next_state.good & mask
    new_bads: list[tuple[int, int]] = []

    if not nf.entries:
        for pair in incoming:
            value = pair[1] & mask
            if value != new_good:
                new_bads.append(pair if value == pair[1] else (pair[0], value))
        return new_good, new_bads

    # Merge the incoming divergences with the statically injected fids.
    fid_map = nf.fid_map
    inj_fids = nf.fids
    i = j = 0
    ni, nj = len(incoming), len(inj_fids)
    next_good = next_state.good
    while i < ni or j < nj:
        if j >= nj or (i < ni and incoming[i][0] < inj_fids[j]):
            fid, value = incoming[i]
            i += 1
        elif i >= ni or incoming[i][0] > inj_fids[j]:
            fid, value = inj_fids[j], next_good
            j += 1
        else:
            fid, value = incoming[i]
            i += 1
            j += 1
        value &= mask
        entry = fid_map.get(fid)
        if entry is not None and not entry.dropped \
                and window_active(entry.rule, serve_cycle):
            value = faulty_val(entry.rule, value, serve_cycle)
        if value != new_good:
            new_bads.append((fid, value))
    return new_good, new_bads


def sync_check_needed(
    reg_state: NodeState,
    next_state: NodeState,
    nf: NodeFaults,
    serve_cycle: int,
) -> bool:
    """A register commit may be skipped when its next source did not change,
    its own state did not change last commit, and no injected window moves."""

    if serve_cycle <= 1:
        return True
    cycle = serve_cycle - 1
    if next_state.good_stamp == cycle or next_state.bads_stamp == cycle:
        return True
    if reg_state.good_stamp == cycle or reg_state.bads_stamp == cycle:
        return True
    for entry in nf.entries:
        if not entry.dropped and window_toggles(entry.rule, serve_cycle):
            return True
    return False


def commit_state(st: NodeState, good: int, bads: list[tuple[int, int]],
                 stamp: int) -> None:
    """Store a node's new good value and bad list, stamping whichever one
    changed with ``stamp``."""

    if good != st.good:
        st.good = good
        st.good_stamp = stamp
    if bads != st.bads:
        st.bads = bads
        st.bads_stamp = stamp


def drop_detected(table: FaultTable, states: list[NodeState], new_fids) -> None:
    """Stop simulating a cycle's newly detected faults: mark their injected
    entries dropped and remove their divergences from every node state.  A
    fault dropped earlier is not injected and diverges nowhere, so it cannot
    reappear and needs no second visit."""

    if not new_fids:
        return
    for fid in new_fids:
        table.node_faults(table.site_of[fid]).fid_map[fid].dropped = True
    fids = set(new_fids)
    for st in states:
        if st.bads and any(f in fids for f, _ in st.bads):
            st.bads = [e for e in st.bads if e[0] not in fids]


def initial_states(graph: RtlGraph, table: FaultTable) -> list[NodeState]:
    """States before cycle 0: inputs zero, consts fixed, regs at their reset
    value with any reg-injected fault already forced for cycle 0."""

    states = [NodeState() for _ in graph.nodes]
    for node in graph.nodes:
        if node.kind == rtl.CONST:
            states[node.id].good = node.init
        elif node.kind == rtl.REG:
            st = states[node.id]
            st.good = node.init
            bads = []
            for entry in table.node_faults(node.id).entries:
                if entry.dropped or not window_active(entry.rule, 0):
                    continue
                forced = faulty_val(entry.rule, node.init, 0)
                if forced != node.init:
                    bads.append((entry.fid, forced))
            bads.sort()
            st.bads = bads
    return states


def apply_stimulus_row(
    graph: RtlGraph, states: list[NodeState], row: list[int], cycle: int
) -> None:
    """Drive input nodes from one stimulus row, stamping real changes."""

    for nid, value in zip(graph.inputs, row):
        node = graph.nodes[nid]
        st = states[nid]
        value &= node.mask
        if value != st.good:
            st.good = value
            st.good_stamp = cycle


def scan_outputs(
    graph: RtlGraph,
    states: list[NodeState],
    already_detected,
    cycle: int,
) -> list[tuple[int, int, str]]:
    """Detection strobe: report (fid, cycle, output name) for every fault
    newly observable at an output, lowest output id first."""

    found: list[tuple[int, int, str]] = []
    seen: set[int] = set()
    for out_id in graph.outputs:
        name = graph.nodes[out_id].name
        for fid, _ in states[out_id].bads:
            if fid in already_detected or fid in seen:
                continue
            seen.add(fid)
            found.append((fid, cycle, name))
    return found
