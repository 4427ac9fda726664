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
from faultsim.taskgraph import DEFAULT, MASTER, SLAVE, SYNC, Task


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
            tasks[b].preds.add(a)

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
    """Make this engine append, at the end of each cycle, the good value of
    every output, and return the list those tuples are appended to.  The
    engine ends each cycle with one ``_end_cycle`` call, in every mode; an
    output's driver is never a register (``rtl.observe_outputs``), so
    serial's commits before that call leave the values as the strobe saw
    them."""

    trace = []
    end_cycle = eng._end_cycle

    def recording(stats):
        end_cycle(stats)
        trace.append(tuple(eng.states[o].good for o in eng.graph.outputs))

    eng._end_cycle = recording
    return trace


def run_with_outputs(graph, faults, stimulus, config):
    """Run an engine with ``record_outputs`` attached; return its report and
    its output trace."""

    eng = SimulationEngine(graph, faults, stimulus, config)
    trace = record_outputs(eng)
    return eng.run(), trace


def _wrap_execute(eng, wrap):
    """Make every ``run_phase`` call of this engine's pool run the tasks
    through ``wrap(execute)`` instead of the engine's ``execute``
    callable.  ``wrap`` is called once per phase."""

    run_phase = eng.pool.run_phase

    def wrapped(counts, ready, tasks, execute, **kwargs):
        return run_phase(counts, ready, tasks, wrap(execute), **kwargs)

    eng.pool.run_phase = wrapped


def cost_key(task):
    """A task's key in a cost log: ``(node, slave index)`` for a slave, whose
    task id depends on the worker count, and the task id for every other
    task, whose id does not."""

    return (task.node, task.slave_index) if task.kind == SLAVE else task.id


def record_costs(eng):
    """Make this engine's pool log the cost ``execute`` returns for each
    task, one dict per cycle keyed by ``cost_key``, and return the list of
    those dicts.  A barrier cycle's two phases log into the same dict.
    Attached after ``replay_costs``, it logs the live costs, not the
    charged ones."""

    log = []
    tasks = eng.tg.tasks

    def wrap(execute):
        if len(log) == eng._cycle:
            log.append({})
        costs = log[eng._cycle]

        def recording(tid):
            cost = costs[cost_key(tasks[tid])] = execute(tid)
            return cost

        return recording

    _wrap_execute(eng, wrap)
    return log


def replay_costs(eng, table):
    """Charge this engine's pool the costs of a ``record_costs`` log: each
    task still runs, but the pool is charged ``table[cycle][key]``.  A
    slave is charged by fid range, so that a replay at any worker count
    charges the same work: slave i of an expanded node's k is charged the
    sum of that node's logged slaves [K*i/k, K*(i+1)/k), K being how many
    the log holds; a log holds all of a node's slaves or none.  A task the
    cycle's entry does not list (for a slave, no slave of its node), and
    every task of a cycle past the end of the table, keeps its live cost."""

    tasks, boards = eng.tg.tasks, eng.tg.boards

    def wrap(execute):
        costs = table[eng._cycle] if eng._cycle < len(table) else {}
        logged = Counter(key[0] for key in costs if isinstance(key, tuple))

        def charged(tid):
            cost = execute(tid)
            task = tasks[tid]
            if task.kind != SLAVE:
                return costs.get(tid, cost)
            K = logged[task.node]
            if not K:
                return cost
            k, i = len(boards[task.node].partials), task.slave_index
            return sum(costs[task.node, j] for j in range(K * i // k, K * (i + 1) // k))

        return charged

    _wrap_execute(eng, wrap)


def check_schedule_invariants(eng, traces):
    """Sync tasks have no sync predecessor; masters finish before their
    slaves start; every reader of a register completes before that
    register's sync task starts.  Returns the number of ordered pairs
    checked."""

    tg = eng.tg
    reader_map = {tid: set(tg.tasks[tid].preds) for tid in tg.sync_tasks}
    for tid, preds in reader_map.items():
        assert all(tg.tasks[p].kind != SYNC for p in preds), \
            f"sync {tid} waits for another sync task"
    slaves_of = {}
    for t in tg.tasks:
        if t.kind == SLAVE:
            slaves_of.setdefault(tg.node_task[t.node], []).append(t.id)

    checked_ms = checked_sync = 0
    for trace in traces:
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
