"""Executable task graph built from the RTL graph.

Evaluated nodes map one-to-one onto compute tasks; register commits become
local-sync tasks.  Under the unified schedule a sync task depends on the
producer of the register's next value and on every task that reads the
register, so it becomes runnable as soon as the current-cycle readers are
done, mid-cycle, instead of waiting for a global barrier.  High-load nodes
can be expanded between cycles into a master plus a fixed set of slaves
that split the node's bad-gate work at fid cut points the master
publishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rtl
from .rtl import RtlGraph

DEFAULT = "default"
MASTER = "master"
SLAVE = "slave"
SYNC = "sync"


@dataclass(slots=True)
class Task:
    id: int
    kind: str
    node: int = -1
    slave_index: int = -1
    regs: tuple[int, ...] = ()
    preds: set[int] = field(default_factory=set)
    succs: list[int] = field(default_factory=list)


class RangeBoard:
    """Per-expanded-node scratch published by the master for its slaves:
    slave i covers the fids in [bounds[i], bounds[i + 1]); the last bound
    is None, no upper end."""

    __slots__ = ("new_good", "bounds", "skip", "remaining", "partials")

    def __init__(self, k: int):
        self.new_good = 0
        self.bounds: list[int | None] = [0] * k + [None]
        self.skip = False
        self.remaining = k
        self.partials: list[list[tuple[int, int]]] = [[] for _ in range(k)]

    def reset(self) -> None:
        # In a cycle that commits, every slave overwrites its partial, so
        # stale partials need no clearing here.
        self.skip = False
        self.remaining = len(self.partials)


@dataclass
class TaskGraph:
    tasks: list[Task]
    node_task: dict[int, int]           # rtl node id -> default/master task id
    sync_tasks: list[int]
    unified: bool
    expanded: set[int] = field(default_factory=set)
    boards: dict[int, RangeBoard] = field(default_factory=dict)
    pred_reset: list[int] = field(default_factory=list)
    sync_pred_reset: dict[int, int] = field(default_factory=dict)
    entry_tasks: list[int] = field(default_factory=list)

    def rebuild_reset_image(self) -> None:
        self.pred_reset = [len(t.preds) for t in self.tasks]
        # Within the commit phase only sync-to-sync hazard edges matter;
        # barrier execution seeds its second phase from this image.
        self.sync_pred_reset = {
            tid: sum(1 for p in self.tasks[tid].preds
                     if self.tasks[p].kind == SYNC)
            for tid in self.sync_tasks
        }
        if not self.unified:
            # Barrier discipline: sync tasks run as a separate phase and
            # must not be released by the compute drain.
            for tid in self.sync_tasks:
                self.pred_reset[tid] = -1
        self.entry_tasks = [
            t.id for t in self.tasks if self.pred_reset[t.id] == 0
        ]


def build_task_graph(graph: RtlGraph) -> TaskGraph:
    """One compute task per evaluated node, edges mirroring the
    combinational dependencies between them."""

    tasks: list[Task] = []
    node_task: dict[int, int] = {}
    for nid in range(len(graph.nodes)):
        node = graph.nodes[nid]
        if node.kind in rtl.TASK_KINDS:
            task = Task(len(tasks), DEFAULT, node=nid)
            node_task[nid] = task.id
            tasks.append(task)
    for nid, tid in node_task.items():
        task = tasks[tid]
        for src in graph.nodes[nid].fanin:
            src_tid = node_task.get(src)
            if src_tid is not None and src_tid not in task.preds:
                task.preds.add(src_tid)
                tasks[src_tid].succs.append(tid)
    tg = TaskGraph(tasks, node_task, [], unified=True)
    tg.rebuild_reset_image()
    return tg


def _merge_mutual_commit_groups(graph: RtlGraph, groups: list[tuple[int, ...]]):
    """Collapse strongly connected components of the commits-read-commits
    relation.  A register whose next value is another register makes its
    commit a reader of that register, so register swaps and rotation rings
    force the involved commits into one snapshot-and-commit task."""

    index_of = {reg: i for i, group in enumerate(groups) for reg in group}
    succs: list[set[int]] = [set() for _ in groups]
    for reg in graph.regs:
        src = graph.nodes[reg].next_src
        if graph.nodes[src].kind == rtl.REG:
            a, b = index_of[reg], index_of[src]
            if a != b:
                succs[a].add(b)  # group a reads group b's current value

    # Iterative Tarjan SCC over the group graph.
    n = len(groups)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succs[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succs[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)

    merged: list[tuple[int, ...]] = []
    for comp in sorted(comps, key=min):
        regs: list[int] = []
        for gi in sorted(comp):
            regs.extend(groups[gi])
        merged.append(tuple(sorted(regs)))
    return merged


def insert_local_sync(tg: TaskGraph, graph: RtlGraph, group_size: int = 1) -> TaskGraph:
    """Add one local-sync task per register group with reader-dependency
    edges; a group commits only after all its registers' current-cycle
    readers and next-value producers have finished."""

    groups = [
        tuple(graph.regs[i:i + group_size])
        for i in range(0, len(graph.regs), group_size)
    ]
    groups = _merge_mutual_commit_groups(graph, groups)
    fed_by: dict[int, list[int]] = {}  # reg -> regs whose next value it is
    for other in graph.regs:
        fed_by.setdefault(graph.nodes[other].next_src, []).append(other)
    group_of: dict[int, int] = {}
    sync_ids: list[int] = []
    for group in groups:
        task = Task(len(tg.tasks), SYNC, regs=group)
        tg.tasks.append(task)
        sync_ids.append(task.id)
        for reg in group:
            group_of[reg] = task.id

    for group, tid in zip(groups, sync_ids):
        task = tg.tasks[tid]
        preds: set[int] = set()
        for reg in group:
            next_src = graph.nodes[reg].next_src
            producer = tg.node_task.get(next_src)
            if producer is not None:
                preds.add(producer)
            # Readers: compute tasks with the reg in their fanin, plus sync
            # tasks whose next value is the reg itself (reg-to-reg chains).
            for consumer in graph.nodes[reg].fanout:
                reader = tg.node_task.get(consumer)
                if reader is not None:
                    preds.add(reader)
            for other in fed_by.get(reg, ()):
                preds.add(group_of[other])
        preds.discard(tid)
        task.preds = preds
        for p in preds:
            tg.tasks[p].succs.append(tid)

    tg.sync_tasks = sync_ids
    tg.rebuild_reset_image()
    return tg


def make_task_graph(graph: RtlGraph, unified: bool, group_size: int = 1) -> TaskGraph:
    tg = build_task_graph(graph)
    tg = insert_local_sync(tg, graph, group_size)
    tg.unified = unified
    tg.rebuild_reset_image()
    return tg


def expand_high_load(tg: TaskGraph, node_id: int, k: int) -> TaskGraph:
    """Replace a node's default task with a master and k slaves.

    The master inherits the default task's predecessors and only evaluates
    the good gate and publishes k - 1 fid cut points; each slave depends
    on the master alone and evaluates the bad gates of the fids between
    its two cuts; the node's original successors wait for the master and
    every slave.  The reset image is updated in place: each slave starts
    at one pending predecessor and each original successor gains k, except
    sync tasks of a barrier graph, which the compute drain never releases.
    """

    if k < 1:
        raise ValueError("slave count must be >= 1")
    if node_id in tg.expanded:
        raise ValueError(f"node {node_id} already expanded")
    tid = tg.node_task.get(node_id)
    if tid is None:
        raise ValueError(f"node {node_id} has no compute task")
    master = tg.tasks[tid]
    master.kind = MASTER
    original_succs = list(master.succs)
    slave_ids = []
    for i in range(k):
        slave = Task(len(tg.tasks), SLAVE, node=node_id, slave_index=i,
                     preds={tid}, succs=list(original_succs))
        tg.tasks.append(slave)
        slave_ids.append(slave.id)
        for succ in original_succs:
            tg.tasks[succ].preds.add(slave.id)
    master.succs = slave_ids + original_succs
    tg.expanded.add(node_id)
    tg.boards[node_id] = RangeBoard(k)
    reset = tg.pred_reset
    reset.extend([1] * k)
    for succ in original_succs:
        if tg.unified or tg.tasks[succ].kind != SYNC:
            reset[succ] += k
    return tg


def reset_for_cycle(tg: TaskGraph) -> tuple[list[int], list[int]]:
    """Fresh predecessor countdowns and the entry task list for one cycle."""

    for board in tg.boards.values():
        board.reset()
    return tg.pred_reset.copy(), tg.entry_tasks


def dump_dot(tg: TaskGraph) -> str:
    """Deterministic graphviz text of the task graph, for golden files."""

    lines = ["digraph tasks {"]
    for t in tg.tasks:
        if t.kind == SYNC:
            label = f"sync({','.join(str(r) for r in t.regs)})"
        elif t.kind == SLAVE:
            label = f"slave(n{t.node}.{t.slave_index})"
        else:
            label = f"{t.kind}(n{t.node})"
        lines.append(f'  t{t.id} [label="{label}"];')
    for t in tg.tasks:
        for s in sorted(set(t.succs)):
            lines.append(f"  t{t.id} -> t{s};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonical_form(tg: TaskGraph):
    """Structure of the graph with ids replaced by stable task keys, for
    isomorphism comparisons (expansion order must not matter)."""

    def key(t: Task):
        if t.kind == SLAVE:
            return (SLAVE, t.node, t.slave_index)
        if t.kind == SYNC:
            return (SYNC, t.regs)
        return (t.kind, t.node)

    keys = {t.id: key(t) for t in tg.tasks}
    nodes = sorted(keys.values())
    edges = sorted(
        (keys[t.id], keys[s]) for t in tg.tasks for s in set(t.succs)
    )
    return nodes, edges
