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

Most bad-gate calls are light: in a serial run of the generated
``skewed_3000_42`` bench about three in four evaluate one fid and one in
five evaluates two, while a few hub nodes hold most of the fids.
``eval_bad_set`` therefore looks a single fid up by bisection in each
fanin's sorted list, and a longer fid range through one dict per fanin.
The candidates are the fids divergent at a fanin plus the live fids
injected here, never the node's own list: a fid divergent here and nowhere
upstream evaluates to the good value, so it would only be dropped, and
``commit_state`` drops it by replacing the whole list (the prune of
concurrent fault simulation, Ulrich & Baker 1974).  The engine calls
neither bad-gate kernel for a node with no divergent fanin and no injected
fault, since every bad gate there converges.

Each kernel writes exactly one node's state and reads only fanin states
that the schedule has already sealed, so the kernels themselves need no
locking in any execution discipline.  ``drop_detected`` removes the newly
detected faults from their injection sites and their divergences from
every state, and so runs only after a cycle's drain; a dropped fault is
then neither injected nor divergent anywhere, and no kernel tests for it.

Outputs are not evaluated: no fault lands on one, so an output only
observes its driver, and ``initial_states`` gives it the driver's state
object.  The detection strobe and the output trace read that object.
"""

from __future__ import annotations

import operator
from bisect import bisect_left

from . import rtl
from .faults import TRANSIENT, FaultTable, NodeFaults, faulty_val, window_toggles
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


def _shl(a: int, b: int) -> int:
    return a << min(b, 64)


def _shr(a: int, b: int) -> int:
    return a >> min(b, 64)


def _mux(sel: int, a: int, b: int) -> int:
    return a if sel else b


_fid = operator.itemgetter(0)


# Operator name -> function of the operand values.  Results are unmasked;
# every caller masks them to the node width.  SLICE and CONCAT take their
# bit offsets from the node and are bound per node in ``operator_of``.
OPS = {
    "AND": operator.and_, "OR": operator.or_, "XOR": operator.xor,
    "NOT": operator.invert, "ADD": operator.add, "SUB": operator.sub,
    "MUL": operator.mul, "EQ": operator.eq, "LT": operator.lt,
    "MUX": _mux, "SHL": _shl, "SHR": _shr,
}


def operator_of(node: RtlNode):
    """The node's operator as a function of its fanin values, resolved on
    first use and kept on the node; a virtual node copies its single fanin
    (``operator.pos`` is the identity on ints)."""

    fn = node.fn
    if fn is not None:
        return fn
    kind, op = node.kind, node.op
    if kind == rtl.VIRTUAL:
        fn = operator.pos
    elif kind != rtl.COMB:
        raise SimulationError(f"cannot evaluate node kind '{kind}'")
    elif op == "SLICE":
        lo = node.slice_lo
        fn = lambda a: a >> lo  # noqa: E731
    elif op == "CONCAT":
        shift = node.concat_lo_width
        fn = lambda a, b: (a << shift) | b  # noqa: E731
    elif op in OPS:
        fn = OPS[op]
    else:
        raise SimulationError(f"unknown operator '{op}'")
    node.fn = fn
    return fn


def bind_operators(graph: RtlGraph) -> None:
    """Resolve every evaluated node's operator before the first cycle, so
    that no task pays for the lookup (nor inflates its measured load with
    it)."""

    for node in graph.nodes:
        if node.kind in rtl.TASK_KINDS:
            operator_of(node)


def eval_good(node: RtlNode, fanin_goods: list[int]) -> int:
    """Fault-free value of an evaluated node given its fanin values
    (already masked)."""

    return (node.fn or operator_of(node))(*fanin_goods) & node.mask


def affected_fids(
    node: RtlNode,
    fanin_states: list[NodeState],
    nf: NodeFaults,
    cycle: int,
    lo: int = 0,
    hi: int | None = None,
) -> list[int]:
    """Candidate fault ids in [lo, hi) (``hi`` None: no upper end) for this
    node's bad-gate evaluation: every fault divergent at a fanin and every
    fault injected here with an active window.

    A fault divergent here but at no fanin, and not live-injected here, is
    no candidate: every fanin gives it the good value, so it would evaluate
    to the good value and be dropped.  ``commit_state`` replaces the whole
    bad list, so leaving it out drops it just the same."""

    bounded = lo or hi is not None
    fids = set()
    for st in fanin_states:
        bads = st.bads
        if bads:
            if bounded:
                a = bisect_left(bads, (lo,)) if lo else 0
                bads = bads[a:len(bads) if hi is None else bisect_left(bads, (hi,), a)]
            fids.update(map(_fid, bads))
    entries = nf.entries
    if entries and bounded:
        inj = nf.fids
        a = bisect_left(inj, lo) if lo else 0
        entries = entries[a:len(inj) if hi is None else bisect_left(inj, hi, a)]
    for fault in entries:
        # A stuck-at window is always open.
        if fault.kind != TRANSIENT or fault.start <= cycle <= fault.end:
            fids.add(fault.fid)
    return sorted(fids)


_NO_BADS: dict[int, int] = {}


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
    over the full list, which is what makes split evaluation exact.
    """

    if begin >= end:
        return []
    fn = node.fn or operator_of(node)
    if end - begin == 1:
        # One fid, the common light call: bisect for it in each fanin's
        # list rather than building a dict per fanin.
        f = affected[begin]
        key = (f,)
        vals = []
        for st in fanin_states:
            bads = st.bads
            i = bisect_left(bads, key)
            vals.append(bads[i][1] if i < len(bads) and bads[i][0] == f else st.good)
        raw = fn(*vals) & node.mask
        fault = nf.fid_map.get(f)
        if fault is not None:
            raw = faulty_val(fault, raw, cycle)
        return [(f, raw)] if raw != new_good else []
    fids = affected if begin == 0 and end == len(affected) else affected[begin:end]
    first, last = fids[0], fids[-1]
    # Each fanin's divergences within [first, last], looked up by fid.
    gets = []
    goods = []
    for st in fanin_states:
        bads = st.bads
        goods.append(st.good)
        if not bads:
            gets.append(_NO_BADS.get)
            continue
        lo, hi = bads[0][0], bads[-1][0]
        if lo > last or hi < first:
            gets.append(_NO_BADS.get)
        elif lo >= first and hi <= last:
            gets.append(dict(bads).get)
        else:
            a = bisect_left(bads, (first,))
            gets.append(dict(bads[a:bisect_left(bads, (last + 1,), a)]).get)
    injected = nf.fid_map
    mask = node.mask
    result = []
    # One loop per operand count: a generic loop that gathers the operands
    # per fid runs about twice as long on the wide links.
    if len(gets) == 2:
        get0, get1 = gets
        g0, g1 = goods
        for f in fids:
            raw = fn(get0(f, g0), get1(f, g1)) & mask
            if injected and f in injected:
                raw = faulty_val(injected[f], raw, cycle)
            if raw != new_good:
                result.append((f, raw))
    elif len(gets) == 1:
        get0, = gets
        g0, = goods
        for f in fids:
            raw = fn(get0(f, g0)) & mask
            if injected and f in injected:
                raw = faulty_val(injected[f], raw, cycle)
            if raw != new_good:
                result.append((f, raw))
    else:
        get0, get1, get2 = gets
        g0, g1, g2 = goods
        for f in fids:
            raw = fn(get0(f, g0), get1(f, g1), get2(f, g2)) & mask
            if injected and f in injected:
                raw = faulty_val(injected[f], raw, cycle)
            if raw != new_good:
                result.append((f, raw))
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
    for fault in nf.transients:
        if window_toggles(fault, cycle):
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
        fault = fid_map.get(fid)
        if fault is not None:
            value = faulty_val(fault, value, serve_cycle)
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
    for fault in nf.transients:
        if window_toggles(fault, serve_cycle):
            return True
    return False


def commit_state(st: NodeState, good: int, bads: list[tuple[int, int]],
                 stamp: int) -> None:
    """Store a node's new good value and bad list, stamping whichever one
    changed with ``stamp``."""

    if good != st.good:
        st.good = good
        st.good_stamp = stamp
    if bads is not st.bads and bads != st.bads:
        st.bads = bads
        st.bads_stamp = stamp


def drop_detected(table: FaultTable, states: list[NodeState], new_fids) -> None:
    """Stop simulating a cycle's newly detected faults: discard each from
    its injection site and remove their divergences from every state in
    ``states``, which lists each distinct state object once (an output
    shares its driver's).  A fault dropped earlier is not injected and
    diverges nowhere, so it cannot reappear and needs no second visit."""

    if not new_fids:
        return
    for fid in new_fids:
        table.node_faults(table.site_of[fid]).discard(fid)
    new = sorted(new_fids)
    fids = set(new)
    for st in states:
        bads = st.bads
        if not bads:
            continue
        # Skip lists whose [first, last] fid span holds no new fid (found
        # by bisection) or that share none with the new fids.
        a = bisect_left(new, bads[0][0])
        if a == len(new) or new[a] > bads[-1][0] or fids.isdisjoint(map(_fid, bads)):
            continue
        st.bads = [e for e in bads if e[0] not in fids]


def initial_states(graph: RtlGraph, table: FaultTable) -> list[NodeState]:
    """States before cycle 0: inputs zero, consts fixed, regs at their reset
    value with any reg-injected fault already forced for cycle 0.  An output
    gets its driver's state object itself (``rtl.observe_outputs`` has made
    the driver a node that is not a register and is no wider than the
    output), so the strobe reads the driver's value, bad list and stamps."""

    states = [NodeState() for _ in graph.nodes]
    for node in graph.nodes:
        if node.kind == rtl.CONST:
            states[node.id].good = node.init
        elif node.kind == rtl.REG:
            st = states[node.id]
            st.good = node.init
            bads = []
            for fault in table.node_faults(node.id).entries:
                forced = faulty_val(fault, node.init, 0)
                if forced != node.init:
                    bads.append((fault.fid, forced))
            bads.sort()
            st.bads = bads
    for oid in graph.outputs:
        states[oid] = states[graph.nodes[oid].fanin[0]]
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
    newly observable at an output, lowest output id first.  Only outputs
    whose bad list changed this cycle can hold a new fid."""

    found: list[tuple[int, int, str]] = []
    seen: set[int] = set()
    for out_id in graph.outputs:
        st = states[out_id]
        if st.bads_stamp != cycle:
            # Unchanged since a strobe that already reported all its fids
            # (a drop only removes fids and leaves the stamp alone).
            continue
        name = graph.nodes[out_id].name
        for fid, _ in st.bads:
            if fid in already_detected or fid in seen:
                continue
            seen.add(fid)
            found.append((fid, cycle, name))
    return found
