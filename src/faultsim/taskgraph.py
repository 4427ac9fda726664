"""Executable task graph built from the RTL graph, once, in its final shape.

Evaluated nodes (comb and virtual, ``rtl.TASK_KINDS``) become compute
tasks; an output is no task: it shares its driver's state (see
``rtl.observe_outputs``).  Each straight-line chain of evaluated nodes is
one default task that evaluates them in chain order.  Each register
commit becomes a local-sync task that depends on the producer of the
register's next value and on every task reading the register, and
nothing depends on it (a register-to-register read goes through a copy
node, see ``rtl.split_register_reads``).  Each node the engine chose to
expand, from its fault cone, is a master plus a fixed set of slaves that
split the node's bad-gate work at fid cut points the master publishes.
The graph is a plain dependency description with one shape for every
mode: whether sync tasks run mid-cycle or behind a commit barrier is the
engine's choice, not the graph's.  ``make_task_graph`` builds it at
setup, and nothing changes it after that.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    slave serves, or the first node of a default task's chain; ``nodes``
    lists the chain a default task evaluates, in order, or a master's one
    node."""

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
    boards: dict[int, RangeBoard]       # expanded node -> its slaves' board
    pred_reset: list[int]               # task id -> predecessor count
    entry_tasks: list[int]              # tasks with no predecessor


def make_task_graph(graph: RtlGraph, expanded: Sequence[int] = (), k: int = 1) -> TaskGraph:
    """The task graph in its final shape, built once.

    Node A links to node B when B is A's only evaluated reader, A is B's
    only evaluated fanin, A feeds no register commit, and neither node is
    in ``expanded``; each maximal chain of links becomes one default task
    that evaluates its nodes in order.  The modeled schedule is the one a
    task per node would give: the pool releases B onto A's worker at A's
    finish, and that worker pops its own deque LIFO, so B ran there next;
    only B's dispatch goes.

    Tasks come in a fixed order: one default or master task per chain
    head, in node-id order; one sync task per register, in ``graph.regs``
    order; then k slaves per expanded node, in ``expanded`` order.  A
    master evaluates the good gate and publishes k - 1 fid cut points;
    each slave depends on the master alone and evaluates the bad gates of
    the fids between its two cuts; the node's successors wait for the
    master and every slave.  ``expanded`` lists distinct evaluated nodes.
    """

    nodes = graph.nodes
    evaluated = [n.id for n in nodes if n.kind in rtl.TASK_KINDS]
    # Per node id: an evaluated node's evaluated readers, in node-id order
    # (None for any other node), and its count of distinct evaluated fanins.
    readers: list[list[int] | None] = [None] * len(nodes)
    for nid in evaluated:
        readers[nid] = []
    fanin_count: dict[int, int] = {}
    for nid in evaluated:
        srcs = []
        for src in nodes[nid].fanin:
            if readers[src] is not None and src not in srcs:
                srcs.append(src)
                readers[src].append(nid)
        fanin_count[nid] = len(srcs)
    # The registers (by index) whose commit waits for a node: it produces
    # the next value or reads the register, and waits once if it does both.
    commits: dict[int, list[int]] = {}
    for j, rid in enumerate(graph.regs):
        reg = nodes[rid]
        if nodes[reg.next_src].kind == rtl.REG:
            raise ValueError(
                f"reg '{reg.name}' reads reg '{nodes[reg.next_src].name}' "
                f"directly; split register reads first"
            )
        for nid in (reg.next_src, *reg.fanout):
            if readers[nid] is not None:
                waits = commits.setdefault(nid, [])
                if not waits or waits[-1] != j:
                    waits.append(j)

    split = set(expanded)
    link: dict[int, int] = {}
    for a in evaluated:
        outs = readers[a]
        if len(outs) == 1 and a not in commits and a not in split:
            b = outs[0]
            if fanin_count[b] == 1 and b not in split:
                link[a] = b
    linked = set(link.values())

    tasks: list[Task] = []
    node_task: dict[int, int] = {}
    for nid in evaluated:
        if nid in linked:
            continue
        chain = [nid]
        while chain[-1] in link:
            chain.append(link[chain[-1]])
        tid = len(tasks)
        tasks.append(Task(tid, MASTER if nid in split else DEFAULT, node=nid,
                          nodes=tuple(chain)))
        for n in chain:
            node_task[n] = tid
    first_sync = len(tasks)
    sync_tasks = [first_sync + j for j in range(len(graph.regs))]
    tasks += [Task(tid, SYNC, regs=(rid,)) for tid, rid in zip(sync_tasks, graph.regs)]
    slaves: dict[int, list[int]] = {}
    for nid in expanded:
        base = len(tasks)
        slaves[nid] = list(range(base, base + k))
        tasks += [Task(base + i, SLAVE, node=nid, slave_index=i) for i in range(k)]

    for task in tasks[:first_sync]:
        last = task.nodes[-1]
        succs = [node_task[r] for r in readers[last]]
        if last in commits:
            succs += [first_sync + j for j in commits[last]]
        if task.kind == MASTER:
            for sid in slaves[task.node]:
                tasks[sid].succs = list(succs)
            succs = slaves[task.node] + succs
        task.succs = succs
    for task in tasks:
        tid = task.id
        for sid in task.succs:
            tasks[sid].preds.add(tid)
    return TaskGraph(
        tasks, node_task, sync_tasks, {nid: RangeBoard(k) for nid in expanded},
        [len(t.preds) for t in tasks], [t.id for t in tasks if not t.preds],
    )


def reset_for_cycle(tg: TaskGraph) -> list[int]:
    """Fresh predecessor countdowns for one cycle."""

    for board in tg.boards.values():
        board.reset()
    return tg.pred_reset.copy()
