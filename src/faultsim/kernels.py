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
and as the per-fid lookup, adds every fid injected here from the site's
sorted list, and evaluates the union in fid order.  A fault injected here
is one more bad gate whose forcing rule (``faulty_val``) decides its
value: outside a transient's window the rule returns the computed value,
which is the good value unless a fanin diverges.  So the kernels read a
fault's window only through that rule and through the site's
``toggles``, which tell the skip checks when a window opens or closes.
A slave passes its [lo, hi) fid range and reads only the slices of the
lists inside it.  The candidates never include the node's own list: a fid
divergent here and nowhere upstream evaluates to the good value, so it
would only be dropped, and ``commit_state`` drops it by replacing the
whole list (the prune of concurrent fault simulation, Ulrich & Baker
1974).  The engine does not call the kernel for a node with no divergent
fanin and no injected fault, since every bad gate there converges.

A stored bad list is never mutated: every kernel that changes a state
stores a new list, so several states may hold one list object.  A list that
does not change is passed on instead of rebuilt.  A virtual copy no
narrower than its fanin and with no filed fault holds its fanin's list
(``bind_operators`` marks it), and a register with no wider next source
holds that source's list (``sync_register``) unless forcing one of its
injected fids changes it; the first such patch copies the list.

Each kernel writes exactly one node's state and reads only fanin states
that the schedule has already sealed, so the kernels themselves need no
locking in any execution discipline.  ``drop_detected`` removes the newly
detected faults from their injection sites and their divergences from
every state, and so runs only at the strobe, after a cycle's evaluations
and before its commits; a dropped fault is then neither injected nor
divergent anywhere, and no kernel tests for it.

Outputs are not evaluated: no fault lands on one, so an output only
observes its driver, and ``initial_states`` gives it the driver's state
object.  The detection strobe and the output trace read that object.
"""

from __future__ import annotations

import operator
from bisect import bisect_left

from . import rtl
from .faults import FaultTable, NodeFaults, faulty_val
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
    boundary sweep.  Every state starts stamped 0, so cycle 0 evaluates
    every live node and commits every live register.
    """

    __slots__ = ("good", "bads", "good_stamp", "bads_stamp")

    def __init__(self, good: int = 0, bads: list | None = None):
        self.good = good
        self.bads: list[tuple[int, int]] = bads if bads is not None else []
        self.good_stamp = 0
        self.bads_stamp = 0

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


def bind_operators(graph: RtlGraph, table: FaultTable) -> None:
    """Resolve every evaluated node's operator before the first cycle, so
    that no task pays for the lookup (nor inflates its measured load with
    it), and mark each pass-through copy: a virtual node at least as wide
    as its fanin with no fault filed in ``table``.  Its value is its
    fanin's, so ``eval_bad_gates`` gives it its fanin's bad list."""

    nodes = graph.nodes
    for node in nodes:
        if node.kind in rtl.TASK_KINDS:
            operator_of(node)
            node.pass_through = (node.kind == rtl.VIRTUAL
                                 and node.width >= nodes[node.fanin[0]].width
                                 and not table.node_faults(node.id).fid_map)


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
    here.  For each, a fanin reads its bad value when the fault diverges
    there and its good value otherwise, and a fault injected here has its
    forcing rule applied on top of the computed value; a transient outside
    its window leaves that value alone, so unless a fanin diverges it is
    the good value.  Only values that differ from ``new_good`` are kept,
    so the result over any partition of the fid range concatenates to the
    result over the whole range, which is what makes split evaluation
    exact.

    A pass-through copy (see ``bind_operators``) evaluates nothing: it
    returns its fanin's list itself, or its slice in [lo, hi).
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
    own = nf.fids
    if own and bounded:
        a = bisect_left(own, lo) if lo else 0
        own = own[a:len(own) if hi is None else bisect_left(own, hi, a)]
    if not own and len(found) == 1:
        if node.pass_through:
            return bads, 0  # the one fanin's list, in range
        fids = found[0]  # a dict iterates in insertion order: ascending fids
    elif not found:
        fids = own
    else:
        # Updating an empty dict from a dict clones it, and sorting the
        # keys merges the ascending runs the updates appended.
        union = {}
        for d in found:
            union.update(d)
        if own:
            union.update(dict.fromkeys(own))
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
    fanin_states: list[NodeState],
    nf: NodeFaults,
    cycle: int,
) -> bool:
    """Decide whether a node must be re-evaluated this cycle: when a fanin
    state changed (each starts stamped 0), or when a transient's window
    injected here opens or closes."""

    for st in fanin_states:
        if st.good_stamp == cycle or st.bads_stamp == cycle:
            return True
    return cycle in nf.toggles


def sync_register(
    reg: RtlNode,
    next_state: NodeState,
    nf: NodeFaults,
    serve_cycle: int,
    narrows: bool,
) -> tuple[int, list[tuple[int, int]]]:
    """Compute the register's committed state for the coming cycle.

    The incoming good and bad values are the next-source node's state, cut
    to the register's width when the source is wider (``narrows``); a
    fault injected at the reg applies its forcing rule to the incoming
    value (window judged at the cycle the stored value will serve).  As
    everywhere else, entries equal to the good value are not stored, so a
    transient whose window just closed persists only through genuinely
    divergent next values.

    A stored bad list is never mutated and states may share one, so
    unless the source is narrowed the result is the source's list object
    itself, which the register then shares with it, until a patch changes
    it.  Only the injected fids are patched: each is found by bisection
    and forced, and a forced value that differs from the one it replaces
    (the good value where the fid is absent) is written into a copy made
    at the first such patch: replaced, inserted, or deleted when it is
    forced to the good value.  The result stays ascending by fid.
    """

    mask = reg.mask
    new_good = next_state.good & mask
    bads = next_state.bads
    if narrows and bads:
        bads = [(f, v) for f, w in bads if (v := w & mask) != new_good]
    fid_map = nf.fid_map
    if not fid_map:
        return new_good, bads
    if not bads:
        # Nothing diverges upstream: each injected fault forces the good value.
        return new_good, [(f, v) for f, fault in fid_map.items()
                          if (v := faulty_val(fault, new_good, serve_cycle)) != new_good]
    shared = bads is next_state.bads
    i = 0
    for fid, fault in fid_map.items():  # ascending, so positions only grow
        i = bisect_left(bads, (fid,), i)
        present = i < len(bads) and bads[i][0] == fid
        old = bads[i][1] if present else new_good
        value = faulty_val(fault, old, serve_cycle)
        if value == old:
            continue
        if shared:
            bads = bads.copy()
            shared = False
        if not present:
            bads.insert(i, (fid, value))
        elif value == new_good:
            del bads[i]
        else:
            bads[i] = (fid, value)
    return new_good, bads


def sync_check_needed(
    next_state: NodeState,
    nf: NodeFaults,
    serve_cycle: int,
) -> bool:
    """A register commit is needed when its next source changed in the
    cycle that ends or an injected window opens or closes at the cycle it
    serves: ``sync_register`` reads nothing else."""

    cycle = serve_cycle - 1
    if next_state.good_stamp == cycle or next_state.bads_stamp == cycle:
        return True
    return serve_cycle in nf.toggles


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
    shares its driver's).  Each distinct list is filtered once, so states
    that shared a list still share one after the drop.  A fault dropped
    earlier is not injected and diverges nowhere, so it cannot reappear and
    needs no second visit."""

    if not new_fids:
        return
    for fid in new_fids:
        table.node_faults(table.site_of[fid]).discard(fid)
    new = sorted(new_fids)
    fids = set(new)
    # Each distinct list once, by id: the list (held, so that no list made
    # here can take its id) and what it became.
    done = {}
    for st in states:
        bads = st.bads
        if not bads:
            continue
        seen = done.get(id(bads))
        if seen is not None:
            st.bads = seen[1]
            continue
        # Keep lists whose [first, last] fid span holds no new fid (found
        # by bisection) or that share none with the new fids.
        a = bisect_left(new, bads[0][0])
        if not (a == len(new) or new[a] > bads[-1][0] or fids.isdisjoint(map(_fid, bads))):
            st.bads = [e for e in bads if e[0] not in fids]
        done[id(bads)] = (bads, st.bads)


def initial_states(graph: RtlGraph, table: FaultTable) -> list[NodeState]:
    """States before cycle 0: inputs zero, consts fixed, and each reg as a
    commit of its reset value for cycle 0 stores it (``sync_register``),
    so a reg-injected fault is already forced.  An output
    gets its driver's state object itself (``rtl.observe_outputs`` has made
    the driver a node that is not a register and is no wider than the
    output), so the strobe reads the driver's value, bad list and stamps."""

    states = [NodeState() for _ in graph.nodes]
    for node in graph.nodes:
        if node.kind == rtl.CONST:
            states[node.id].good = node.init
        elif node.kind == rtl.REG:
            st = states[node.id]
            # The reset value has no bad list to narrow.
            st.good, st.bads = sync_register(
                node, NodeState(node.init), table.node_faults(node.id), 0, False
            )
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
    detections: dict[int, tuple[int, str]],
    cycle: int,
) -> list[int]:
    """Detection strobe: file ``detections[fid] = (cycle, output name)``
    for every fault newly observable at an output, lowest output id first,
    and return the new fids.  Only an output whose bad list changed this
    cycle can hold one."""

    found: list[int] = []
    for out_id in graph.outputs:
        st = states[out_id]
        if st.bads_stamp != cycle:
            # Unchanged since a strobe that already filed all its fids
            # (a drop only removes fids and leaves the stamp alone).
            continue
        name = graph.nodes[out_id].name
        for fid, _ in st.bads:
            if fid not in detections:
                detections[fid] = (cycle, name)
                found.append(fid)
    return found
