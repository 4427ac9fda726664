"""Concurrent-simulation kernels: good-value evaluation, bad-gate
evaluation with divergence/convergence pruning, dependence checking,
register next-state computation, the state commit every node evaluation and
register commit goes through, and the drop of detected faults.

A node's state is its fault-free value plus a sorted list of (fid, value)
pairs, one per fault whose value at this node currently differs from the
good value.  Entries appear when a fault diverges here and silently vanish
when re-evaluation produces the good value again (convergence); there is
no event queue and no explicit deletion, which is what lets any worker
evaluate any node from nothing but its fanin states.

``eval_bad_gates`` handles a node's bad gates in one call: it collects
the candidates and evaluates them.  It builds one dict per fanin from that
fanin's divergences, which serves both as the candidate source (its keys)
and as the per-fid lookup, adds the stuck-at fids injected here from a
sorted list and the transients whose window is open, and evaluates the
union in fid order.  A slave passes its [lo, hi) fid range and reads only
the slices of the lists inside it.  The candidates never include the
node's own list: a fid divergent here and nowhere upstream evaluates to
the good value, so it would only be dropped, and ``commit_state`` drops it
by replacing the whole list (the prune of concurrent fault simulation,
Ulrich & Baker 1974).  The engine does not call the kernel for a node with
no divergent fanin and no injected fault, since every bad gate there
converges.

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
from .faults import FaultTable, NodeFaults, faulty_val, window_toggles
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


_NO_BADS: dict[int, int] = {}


def eval_bad_gates(
    node: RtlNode,
    fanin_states: list[NodeState],
    nf: NodeFaults,
    new_good: int,
    cycle: int,
    lo: int = 0,
    hi: int | None = None,
) -> tuple[list[tuple[int, int]], int]:
    """Collect and evaluate the node's bad gates with fids in [lo, hi)
    (``hi`` None: no upper end).  Returns the kept (fid, value) pairs,
    ascending by fid, and the number of bad gates evaluated.

    The candidates are the fids divergent at a fanin plus the fids injected
    here with an open window.  For each, a fanin reads its bad value when
    the fault diverges there and its good value otherwise, and a fault
    injected here has its forcing rule applied on top of the computed
    value.  Only values that differ from ``new_good`` are kept, so the
    result over any partition of the fid range concatenates to the result
    over the whole range, which is what makes split evaluation exact.
    """

    bounded = lo or hi is not None
    gets = []
    goods = []
    found = []  # each fanin's divergences in range, by fid
    for st in fanin_states:
        goods.append(st.good)
        bads = st.bads
        if bads and bounded:
            a = bisect_left(bads, (lo,)) if lo else 0
            bads = bads[a:len(bads) if hi is None else bisect_left(bads, (hi,), a)]
        if bads:
            d = dict(bads)
            found.append(d)
            gets.append(d.get)
        else:
            gets.append(_NO_BADS.get)
    # Stuck-at fids are always live; a transient only inside its window.
    stuck = nf.stuck
    if stuck and bounded:
        a = bisect_left(stuck, lo) if lo else 0
        stuck = stuck[a:len(stuck) if hi is None else bisect_left(stuck, hi, a)]
    live = nf.transients
    if live:
        live = [f.fid for f in live if f.start <= cycle <= f.end
                and lo <= f.fid and (hi is None or f.fid < hi)]
    if not (stuck or live) and len(found) == 1:
        fids = found[0]  # a dict iterates in insertion order: ascending fids
    elif not (found or live):
        fids = stuck
    else:
        # Updating an empty dict from a dict clones it, and sorting the
        # keys merges the ascending runs the updates appended.
        union = {}
        for d in found:
            union.update(d)
        if stuck:
            union.update(dict.fromkeys(stuck))
        if live:
            union.update(dict.fromkeys(live))
        fids = sorted(union)
    if not fids:
        return [], 0
    fn = node.fn or operator_of(node)
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
    return result, len(fids)


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
