import contextlib
import random
from collections import Counter
from unittest import mock

import pytest

from faultsim import scheduler
from faultsim.faults import FaultDescriptor
from faultsim.netlist import Literal
from faultsim.rtl import COMB, CONST, INPUT, OUTPUT, REG, TASK_KINDS, VIRTUAL, elaborate_text
from faultsim.scheduler import SimulationEngine
from faultsim.taskgraph import DEFAULT, GATE, MASTER, SLAVE, STIMULUS, STROBE, SYNC, Task


WINDOW_KINDS = (STIMULUS, STROBE, GATE)


def build(text):
    return elaborate_text(text)


def topo_positions(graph) -> list[int]:
    """Position of each node id within graph.topo (id-indexed)."""

    pos = [0] * len(graph.nodes)
    for position, nid in enumerate(graph.topo):
        pos[nid] = position
    return pos


def comb_edges(graph):
    """Every (producer, consumer) edge of the combinational view; sources
    have no fanin."""

    return [(src, node.id) for node in graph.nodes for src in node.fanin]


def graph_to_netlist(graph) -> str:
    """Print the graph back as netlist text (pre-injection graphs only)."""

    if any(n.kind == VIRTUAL for n in graph.nodes):
        raise ValueError("cannot print a graph containing injected virtual nodes")

    def operand(nid: int) -> str:
        node = graph.nodes[nid]
        return str(Literal(node.init, node.width)) if node.kind == CONST else node.name

    lines = [f"module {graph.name}"]
    for node in graph.nodes:
        if node.kind == INPUT:
            lines.append(f"input {node.name} {node.width}")
        elif node.kind == REG:
            lines.append(f"reg {node.name} {node.width} = {node.init:x}")
        elif node.kind == COMB:
            ops = " ".join(operand(src) for src in node.fanin)
            if node.op == "SLICE":
                ops = f"{node.slice_hi} {node.slice_lo} {ops}"
            lines.append(f"assign {node.name} {node.width} = {node.op} {ops}")
        elif node.kind == OUTPUT:
            lines.append(f"output {node.name} {node.width} = {operand(node.fanin[0])}")
    for rid in graph.regs:
        reg = graph.nodes[rid]
        lines.append(f"next {reg.name} = {operand(reg.next_src)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


AND2 = """
module and2
input a 1
input b 1
assign y 1 = AND a b
output o 1 = y
end
"""

# One register read by one comb consumer, next value produced by other logic.
REG_LOOP = """
module regloop
input x 4
reg r 4 = 3
assign d 4 = ADD r #1:4
assign e 4 = XOR d x
output o 4 = d
next r = e
end
"""


# One register read by one comb consumer; its next value is produced by a
# node that reads the consumer.
SYNCED = """
module m
input x 1
reg r 1 = 0
assign d 1 = NOT r
assign e 1 = AND d x
output o 1 = e
next r = e
end
"""


@pytest.fixture
def and2_graph():
    return build(AND2)


@pytest.fixture
def regloop_graph():
    return build(REG_LOOP)


def output_faults(graph, first_fid: int) -> list[FaultDescriptor]:
    """Stuck-at faults named on every output bit that the output's driver
    reaches, alternately as wire and port faults, fids from ``first_fid``."""

    faults = []
    for oid in graph.outputs:
        node, lanes = graph.nodes[oid], graph.nodes[oid].width
        while node.kind == OUTPUT:
            node = graph.nodes[node.fanin[0]]
            lanes = min(lanes, node.width)
        for bit in range(lanes):
            for kind in ("sa0", "sa1"):
                faults.append(FaultDescriptor(
                    first_fid + len(faults), ("wire", "port")[bit % 2],
                    graph.nodes[oid].name, bit, kind))
    return faults


def rand_rows(rng: random.Random, graph, cycles: int):
    widths = [graph.nodes[i].width for i in graph.inputs]
    return [[rng.randrange(1 << w) for w in widths] for _ in range(cycles)]


def preds_of(tasks) -> list[list[int]]:
    """Each task's predecessors, by task id: the inversion of the tasks'
    successor lists, which are the task graph's only statement of its
    dependencies.  Each list is in id order."""

    preds: list[list[int]] = [[] for _ in tasks]
    for tid, task in enumerate(tasks):
        for succ in task.succs:
            preds[succ].append(tid)
    return preds


def per_node_graph(graph, expanded=(), k=1) -> list[Task]:
    """Reference tasks for ``make_task_graph``'s output, with no chain
    merged: one default or master task per evaluated node in node-id order,
    one sync task per register, then k slaves per expanded node, each
    task's successors in the order the builder lists them."""

    tasks, node_task = [], {}
    for node in graph.nodes:
        if node.kind in TASK_KINDS:
            node_task[node.id] = len(tasks)
            kind = MASTER if node.id in expanded else DEFAULT
            tasks.append(Task(len(tasks), kind, node=node.id, nodes=(node.id,)))

    def edge(a, b):
        if b not in tasks[a].succs:
            tasks[a].succs.append(b)

    for node in graph.nodes:
        for src in node.fanin:
            if node.id in node_task and src in node_task:
                edge(node_task[src], node_task[node.id])
    for rid in graph.regs:
        sync = Task(len(tasks), SYNC, regs=(rid,))
        tasks.append(sync)
        for nid in (graph.nodes[rid].next_src, *graph.nodes[rid].fanout):
            if nid in node_task:
                edge(node_task[nid], sync.id)
    for nid in expanded:
        master = tasks[node_task[nid]]
        succs, master.succs = master.succs, []
        for i in range(k):
            slave = Task(len(tasks), SLAVE, node=nid, slave_index=i)
            tasks.append(slave)
            edge(master.id, slave.id)
            for succ in succs:
                edge(slave.id, succ)
        master.succs += succs
    return tasks


@contextlib.contextmanager
def expanding_first(pick):
    """Engines built inside expand the nodes ``pick(graph)`` returns ahead
    of those ``flag_overloaded`` picks itself (the engine keeps the first
    ``MAX_EXPANSIONS``).  ``graph`` is the engine's, with its register
    reads split and its outputs observed; only the expanding modes ask."""

    flag = scheduler.flag_overloaded

    def picking(graph, nf, threshold):
        picks = list(pick(graph))
        return picks + [nid for nid in flag(graph, nf, threshold) if nid not in picks]

    with mock.patch.object(scheduler, "flag_overloaded", picking):
        yield


def record_traces(eng):
    """Make every ``run_phase`` call of this engine's pool fill a fresh
    schedule trace, and return the list those traces are appended to."""

    traces = []
    run_phase = eng.pool.run_phase

    def recording(*args, **kwargs):
        traces.append([])
        return run_phase(*args, trace=traces[-1], **kwargs)

    eng.pool.run_phase = recording
    return traces


def record_outputs(eng):
    """Make this engine append, at each cycle's strobe, the good value of
    every output, and return the list those tuples are appended to.  Every
    executor calls ``_detect`` once per cycle, in cycle order, when the
    cycle's outputs hold their values; in ``full`` the next cycle's tasks
    may already have run, but none that writes an output's driver."""

    trace = []
    detect = eng._detect

    def recording(cycle):
        trace.append(tuple(eng.states[o].good for o in eng.graph.outputs))
        detect(cycle)

    eng._detect = recording
    return trace


def run_with_outputs(graph, faults, stimulus, config):
    """Run an engine with ``record_outputs`` attached; return its report and
    its output trace."""

    eng = SimulationEngine(graph, faults, stimulus, config)
    trace = record_outputs(eng)
    return eng.run(), trace


def _wrap_execute(eng, wrap):
    """Make every ``run_phase`` call of this engine's pool run the tasks
    through ``wrap(tasks, execute)`` instead of the engine's ``execute``
    callable.  ``wrap`` is called once per phase."""

    run_phase = eng.pool.run_phase

    def wrapped(counts, ready, tasks, execute, **kwargs):
        return run_phase(counts, ready, tasks, wrap(tasks, execute), **kwargs)

    eng.pool.run_phase = wrapped


def cost_key(task):
    """A task's key in a cost log: ``(node, slave index)`` for a slave and
    the kind for a cycle window's stimulus, strobe or gate, whose task ids
    depend on the worker count, and the task id for every other task,
    whose id does not.  A cycle window's task reads as the task it runs."""

    if task.kind == SLAVE:
        return (task.node, task.slave_index)
    return task.kind if task.kind in WINDOW_KINDS else task.id


def record_costs(eng):
    """Make this engine's pool log the cost ``execute`` returns for each
    task, keyed by ``(cycle, cost_key)``, and return that dict.  The
    engine sets ``eng._cycle`` to the cycle of the task it runs, so one
    phase may log many cycles: ``full`` drains every cycle in one.
    Attached after ``replay_costs``, it logs the live costs, not the
    charged ones; attached before, the charged ones."""

    log = {}

    def wrap(tasks, execute):
        def recording(tid):
            cost = log[eng._cycle, cost_key(tasks[tid])] = execute(tid)
            return cost

        return recording

    _wrap_execute(eng, wrap)
    return log


def replay_costs(eng, table):
    """Charge this engine's pool the costs of a ``record_costs`` log: each
    task still runs, but the pool is charged ``table[cycle, key]``.  A
    slave is charged by fid range, so that a replay at any worker count
    charges the same work: slave i of an expanded node's k is charged the
    sum of that node's logged slaves [K*i/k, K*(i+1)/k) in that cycle, K
    being how many the log holds; a log holds all of a node's slaves in a
    cycle or none.  A task the table does not list in its cycle (for a
    slave, no slave of its node) keeps its live cost, and so does a cycle
    window's gate, whose cost is 0: a cycle ends when its gate starts."""

    boards = eng.tg.boards
    logged = Counter((cycle, key[0]) for cycle, key in table if isinstance(key, tuple))

    def wrap(tasks, execute):
        def charged(tid):
            cost = execute(tid)
            task, cycle = tasks[tid], eng._cycle
            if task.kind == GATE:
                return cost
            if task.kind != SLAVE:
                return table.get((cycle, cost_key(task)), cost)
            K = logged[cycle, task.node]
            if not K:
                return cost
            k, i = len(boards[task.node].partials), task.slave_index
            return sum(table[cycle, (task.node, j)]
                       for j in range(K * i // k, K * (i + 1) // k))

        return charged

    _wrap_execute(eng, wrap)


def cycle_costs(log, cycles):
    """The summed costs of a ``record_costs`` log, per cycle."""

    sums = [0] * cycles
    for (cycle, _), cost in log.items():
        sums[cycle] += cost
    return sums


def cycle_traces(eng, traces):
    """The schedule traces of a run as one trace per phase with task ids:
    a barrier run's as they are, and a ``full`` run's one trace split into
    one per cycle, each window id turned into its task id.  Within a
    window slot, every task of a cycle finishes before any task of the
    cycle two on starts, so a slot's completions come a cycle at a time."""

    if not eng.unified:
        return traces
    size = len(eng.tg.tasks) + 3
    out = []
    for trace in traces:
        per_cycle, seen = [], [0, 0]
        for iid, w, start, fin in trace:
            slot, tid = divmod(iid, size)
            cycle = slot + 2 * (seen[slot] // size)
            seen[slot] += 1
            per_cycle += [[] for _ in range(cycle + 1 - len(per_cycle))]
            per_cycle[cycle].append((tid, w, start, fin))
        out += per_cycle
    return out


def check_schedule_invariants(eng, traces):
    """Sync tasks have no sync predecessor; masters finish before their
    slaves start; every reader of a register completes before that
    register's sync task starts.  Returns the number of ordered pairs
    checked."""

    tg = eng.tg
    preds = preds_of(tg.tasks)
    reader_map = {tid: set(preds[tid]) for tid in tg.sync_tasks}
    for tid, readers in reader_map.items():
        assert all(tg.tasks[p].kind != SYNC for p in readers), \
            f"sync {tid} waits for another sync task"
    slaves_of = {}
    for t in tg.tasks:
        if t.kind == SLAVE:
            slaves_of.setdefault(tg.node_task[t.node], []).append(t.id)

    checked_ms = checked_sync = 0
    for trace in cycle_traces(eng, traces):
        times = {tid: (start, fin) for tid, _, start, fin in trace}
        # A trace is one phase; behind a barrier the compute phase runs no
        # sync task and the commit phase only sync tasks.
        for master, slaves in slaves_of.items():
            if master not in times:
                continue
            for s in slaves:
                if s in times:
                    assert times[master][1] <= times[s][0], \
                        f"slave {s} started before master {master} finished"
                    checked_ms += 1
        for sync_tid, readers in reader_map.items():
            if sync_tid not in times:
                continue
            for r in readers:
                if r in times:
                    assert times[r][1] <= times[sync_tid][0], \
                        f"sync {sync_tid} started before reader {r} finished"
                    checked_sync += 1
    return checked_ms, checked_sync


def check_data_hazards(eng, traces):
    """Every state of a ``full`` run is read and written in order across
    cycles, judged from the netlist and the executed schedule alone.  A
    state's version v is written by its writers in cycle v and read by
    its readers in cycle v (in cycle v + 1 for a register, which serves
    the value its commit of cycle v stored); every writer of version v
    finishes before any reader of v or writer of v + 1 starts, and every
    reader of v before any writer of v + 1.  Returns the number of ordered
    pairs checked."""

    graph, tg = eng.graph, eng.tg
    nodes = graph.nodes
    n = len(tg.tasks)
    stim, strobe = n, n + 1
    writes, reads = {}, {}       # state -> tasks; a board is ("board", node)
    for t in tg.tasks:
        if t.kind == SYNC:
            rid = t.regs[0]
            writes.setdefault(rid, []).append(t.id)
            reads.setdefault(nodes[rid].next_src, []).append(t.id)
            continue
        own = t.nodes if t.kind == DEFAULT else (t.node,)
        for nid in own:
            writes.setdefault(nid, []).append(t.id)
            for f in nodes[nid].fanin:
                if f not in own:
                    reads.setdefault(f, []).append(t.id)
        if t.kind == MASTER:
            writes.setdefault(("board", t.node), []).append(t.id)
        elif t.kind == SLAVE:
            reads.setdefault(("board", t.node), []).append(t.id)
    for nid in graph.inputs:
        writes.setdefault(nid, []).append(stim)
    for oid in graph.outputs:
        reads.setdefault(nodes[oid].fanin[0], []).append(strobe)

    per_cycle = [{tid: (start, fin) for tid, _, start, fin in trace}
                 for trace in cycle_traces(eng, traces)]
    checked = 0

    def before(a, b):
        nonlocal checked
        (ta, ca), (tb, cb) = a, b
        if 0 <= ca < len(per_cycle) and 0 <= cb < len(per_cycle):
            assert per_cycle[ca][ta][1] <= per_cycle[cb][tb][0], \
                f"task {ta} of cycle {ca} must finish before task {tb} of cycle {cb}"
            checked += 1

    for state, writers in writes.items():
        lag = 1 if not isinstance(state, tuple) and nodes[state].kind == REG else 0
        readers = reads.get(state, [])
        for v in range(len(per_cycle)):
            for w in writers:
                for r in readers:
                    before((w, v), (r, v + lag))
                    before((r, v + lag), (w, v + 1))
                for w2 in writers:
                    before((w, v), (w2, v + 1))
    return checked
