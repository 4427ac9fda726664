"""Executable task graph built from the RTL graph.

Evaluated nodes (comb and virtual, ``rtl.TASK_KINDS``) map one-to-one
onto compute tasks.  An output is no task: it shares its driver's state
(see ``rtl.observe_outputs``).  Each register commit becomes a local-sync
task that depends on the producer of the register's next value and on
every task reading the register, and nothing depends on it (a
register-to-register read goes through a copy node, see
``rtl.split_register_reads``).  The graph is a plain dependency
description with one shape for every mode: whether sync tasks run
mid-cycle or behind a commit barrier is the engine's choice, not the
graph's.  The engine expands the nodes with the largest fault cones,
before the first cycle, into a master plus a fixed set of slaves that
split the node's bad-gate work at fid cut points the master publishes.
When the run starts, after every expansion, ``merge_chains`` folds each
straight-line chain of default tasks into one task that evaluates its
nodes in chain order; the graph does not change after that.
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
    """One unit the pool dispatches.  ``node`` is the node a master or
    slave serves, or a default task's first node; ``nodes`` lists the
    nodes a default task evaluates, in order, or a master's one node."""

    id: int
    kind: str
    node: int = -1
    nodes: tuple[int, ...] = ()
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
    boards: dict[int, RangeBoard] = field(default_factory=dict)  # expanded nodes
    pred_reset: list[int] = field(default_factory=list)
    entry_tasks: list[int] = field(default_factory=list)

    def rebuild_reset_image(self) -> None:
        self.pred_reset = [len(t.preds) for t in self.tasks]
        self.entry_tasks = [t.id for t in self.tasks if not t.preds]


def build_task_graph(graph: RtlGraph) -> TaskGraph:
    """One compute task per evaluated node, edges mirroring the
    combinational dependencies between them."""

    tasks: list[Task] = []
    node_task: dict[int, int] = {}
    for nid in range(len(graph.nodes)):
        node = graph.nodes[nid]
        if node.kind in rtl.TASK_KINDS:
            task = Task(len(tasks), DEFAULT, node=nid, nodes=(nid,))
            node_task[nid] = task.id
            tasks.append(task)
    for nid, tid in node_task.items():
        task = tasks[tid]
        for src in graph.nodes[nid].fanin:
            src_tid = node_task.get(src)
            if src_tid is not None and src_tid not in task.preds:
                task.preds.add(src_tid)
                tasks[src_tid].succs.append(tid)
    tg = TaskGraph(tasks, node_task, [])
    tg.rebuild_reset_image()
    return tg


def insert_local_sync(tg: TaskGraph, graph: RtlGraph) -> TaskGraph:
    """Add one local-sync task per register, depending on the producer of
    the register's next value and on every compute task that reads the
    register.  No register's next source may be a register
    (``rtl.split_register_reads`` routes such an edge through a copy
    node), so no sync task reads another register and sync tasks are
    sinks."""

    for rid in graph.regs:
        reg = graph.nodes[rid]
        if graph.nodes[reg.next_src].kind == rtl.REG:
            raise ValueError(
                f"reg '{reg.name}' reads reg '{graph.nodes[reg.next_src].name}' "
                f"directly; split register reads first"
            )
        task = Task(len(tg.tasks), SYNC, regs=(rid,))
        tg.tasks.append(task)
        tg.sync_tasks.append(task.id)
        producer = tg.node_task.get(reg.next_src)
        if producer is not None:
            task.preds.add(producer)
        for consumer in reg.fanout:
            reader = tg.node_task.get(consumer)
            if reader is not None:
                task.preds.add(reader)
        for p in task.preds:
            tg.tasks[p].succs.append(task.id)
    tg.rebuild_reset_image()
    return tg


def make_task_graph(graph: RtlGraph) -> TaskGraph:
    return insert_local_sync(build_task_graph(graph), graph)


def expand_high_load(tg: TaskGraph, node_id: int, k: int) -> TaskGraph:
    """Replace a node's default task with a master and k slaves.

    The master inherits the default task's predecessors and only evaluates
    the good gate and publishes k - 1 fid cut points; each slave depends
    on the master alone and evaluates the bad gates of the fids between
    its two cuts; the node's original successors wait for the master and
    every slave.  The reset image is updated in place: each slave starts
    at one pending predecessor and each original successor gains k.  A
    task that ``merge_chains`` merged cannot be expanded.
    """

    if k < 1:
        raise ValueError("slave count must be >= 1")
    if node_id in tg.boards:
        raise ValueError(f"node {node_id} already expanded")
    tid = tg.node_task.get(node_id)
    if tid is None:
        raise ValueError(f"node {node_id} has no compute task")
    master = tg.tasks[tid]
    if len(master.nodes) > 1:
        raise ValueError(f"node {node_id} is in a merged chain; expand before merging")
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
    tg.boards[node_id] = RangeBoard(k)
    reset = tg.pred_reset
    reset.extend([1] * k)
    for succ in original_succs:
        reset[succ] += k
    return tg


def merge_chains(tg: TaskGraph) -> TaskGraph:
    """Fold every maximal straight-line chain of default tasks into its
    first task.  A link A -> B qualifies when B is A's only successor and
    A is B's only predecessor; the merged task holds the chain's nodes in
    order and the last link's successors.  Masters, slaves and sync tasks
    never merge.

    The modeled schedule does not change: the pool releases B onto A's
    worker at A's finish, and that worker pops its own deque LIFO, so B
    already ran there next.  Only B's dispatch goes.

    The kept tasks are renumbered in place, in their old order, and the
    reset image is remapped rather than rebuilt.  A second call finds no
    link and changes nothing.
    """

    tasks = tg.tasks
    nxt: dict[int, int] = {}
    for a in tasks:
        succs = a.succs
        if len(succs) == 1 and a.kind == DEFAULT:
            b = tasks[succs[0]]
            if len(b.preds) == 1 and b.kind == DEFAULT:
                nxt[a.id] = b.id
    if not nxt:
        return tg
    absorbed = set(nxt.values())
    node_task = tg.node_task
    for head_id in nxt:
        if head_id in absorbed:
            continue
        head = tasks[head_id]
        tid = head_id
        while tid in nxt:
            tid = nxt[tid]
            head.nodes += tasks[tid].nodes
        head.succs = tasks[tid].succs
        for succ in head.succs:
            preds = tasks[succ].preds
            preds.discard(tid)
            preds.add(head_id)
        for nid in head.nodes:
            node_task[nid] = head_id

    kept = [t for t in tasks if t.id not in absorbed]
    remap = [-1] * len(tasks)
    for new_id, t in enumerate(kept):
        remap[t.id] = new_id
    reset = tg.pred_reset
    tg.pred_reset = [reset[t.id] for t in kept]
    for t in kept:
        t.id = remap[t.id]
        t.preds = {remap[p] for p in t.preds}
        t.succs = [remap[s] for s in t.succs]
    tasks[:] = kept
    for nid, tid in node_task.items():
        node_task[nid] = remap[tid]
    tg.sync_tasks = [remap[tid] for tid in tg.sync_tasks]
    tg.entry_tasks = [remap[tid] for tid in tg.entry_tasks]
    return tg


def reset_for_cycle(tg: TaskGraph) -> list[int]:
    """Fresh predecessor countdowns for one cycle."""

    for board in tg.boards.values():
        board.reset()
    return tg.pred_reset.copy()
