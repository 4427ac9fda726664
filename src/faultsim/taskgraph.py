"""Executable task graph built from the RTL graph, once, in its final shape.

Live evaluated nodes (comb and virtual, ``rtl.TASK_KINDS``, in some
output's cone) become compute tasks.  An output is no task: it shares
its driver's state (see ``rtl.observe_outputs``).  Nor is any node or
register the engine sweeps as outside every output's cone.  Each
straight-line chain of evaluated nodes is one default task that
evaluates them in chain order.  Each live register's commit becomes a
local-sync task that depends on the producer of the register's next
value and on every task reading the register, and nothing depends on it
(a register-to-register read goes through a copy node, see
``rtl.split_register_reads``).  Each node the engine chose to
expand, from its fault cone, is a master plus a fixed set of slaves that
split the node's bad-gate work at fid cut points the master publishes.
The graph is a plain dependency description with one shape for every
mode: whether sync tasks run mid-cycle or behind a commit barrier is the
engine's choice, not the graph's.  It states its dependencies once, as
each task's successor list (``Task.succs``): the engine counts a barrier
cycle's countdowns from them, and ``make_window`` inverts them for the
writers of what each task reads.  ``make_task_graph`` builds it at
setup, and nothing changes it after that.  ``make_window`` lays two
cycles of it side by side for a drain that spans the run, with the
per-cycle stimulus, strobe and gate tasks and the edges from each cycle
to the next, as one successor tuple per window id.  Those tuples are the
window's only statement of its dependencies: ``window_countdowns``
counts every instance's predecessors from them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import add

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
        # The master calls this first thing.  In a cycle that commits,
        # every slave overwrites its partial, so stale partials need no
        # clearing here.
        self.skip = False
        self.remaining = len(self.partials)


@dataclass
class TaskGraph:
    """The tasks, by id, whose successor lists are the graph's only
    statement of its dependencies, and what the engine looks up in them."""

    tasks: list[Task]
    node_task: dict[int, int]           # rtl node id -> default/master task id
    sync_tasks: list[int]
    boards: dict[int, RangeBoard]       # expanded node -> its slaves' board


def make_task_graph(graph: RtlGraph, expanded: Sequence[int] = (), k: int = 1,
                    live: Sequence[bool] | None = None) -> TaskGraph:
    """The task graph in its final shape, built once, over the live
    evaluated nodes and registers: those ``live`` marks by node id, or
    every one when it is None.  The engine passes ``rtl.observable``, and
    logic outside every output's cone gets no task.

    Only live nodes and registers count below: a swept reader is no
    reader, and a swept register has no commit.  Node A links to node B
    when B is A's only evaluated reader, A is B's only evaluated fanin, A
    feeds no register commit, and neither node is in ``expanded``; each
    maximal chain of links becomes one default task that evaluates its
    nodes in order.  The modeled schedule is the one a task per node
    would give: the pool releases B onto A's worker at A's finish, and
    that worker pops its own deque LIFO, so B ran there next; only B's
    dispatch goes.

    Tasks come in a fixed order: one default or master task per chain
    head, in node-id order; one sync task per live register, in
    ``graph.regs`` order; then k slaves per expanded node, in ``expanded``
    order.  A master evaluates the good gate and publishes k - 1 fid cut
    points; each slave depends on the master alone and evaluates the bad
    gates of the fids between its two cuts; the node's successors wait for
    the master and every slave.  ``expanded`` lists distinct live
    evaluated nodes.  No predecessor list is built: the successor lists
    are the graph's only statement of its dependencies.
    """

    nodes = graph.nodes
    evaluated = [n.id for n in nodes
                 if n.kind in rtl.TASK_KINDS and (live is None or live[n.id])]
    regs = graph.regs if live is None else [rid for rid in graph.regs if live[rid]]
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
    for j, rid in enumerate(regs):
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
    sync_tasks = [first_sync + j for j in range(len(regs))]
    tasks += [Task(tid, SYNC, regs=(rid,)) for tid, rid in zip(sync_tasks, regs)]
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
    return TaskGraph(tasks, node_task, sync_tasks, {nid: RangeBoard(k) for nid in expanded})


# The per-cycle tasks a cycle window adds after the graph's own.
STIMULUS = "stimulus"
STROBE = "strobe"
GATE = "gate"


class SlotTask:
    """One task of a cycle window's slot: the per-cycle ``task`` it runs
    and the window ids it releases when it finishes (``succs``).  Every
    other attribute reads through to ``task``, except ``preds``, the
    window ids it waits for."""

    __slots__ = ("task", "succs", "iid", "inverse")

    def __init__(self, task: Task, succs: tuple[int, ...], iid: int, inverse: _Inverse):
        self.task = task
        self.succs = succs
        self.iid = iid
        self.inverse = inverse

    @property
    def preds(self) -> tuple[int, ...]:
        return self.inverse.preds(self.iid)

    def __getattr__(self, name):
        return getattr(self.task, name)


class _Inverse:
    """Predecessor lists, worked out from successor lists on first read:
    a window's, from its tuples, or the task graph's, which ``make_window``
    reads for the writers of what each task reads.  A window's holds the
    tuples, not the slot tasks, so that no reference cycle outlives a
    run."""

    __slots__ = ("succs", "lists")

    def __init__(self, succs: Sequence[Sequence[int]]):
        self.succs = succs
        self.lists: list[tuple[int, ...]] | None = None

    def preds(self, iid: int) -> tuple[int, ...]:
        if self.lists is None:
            lists: list[list[int]] = [[] for _ in self.succs]
            for pred, succs in enumerate(self.succs):
                for succ in succs:
                    lists[succ].append(pred)
            self.lists = [tuple(ids) for ids in lists]
        return self.lists[iid]


def make_window(graph: RtlGraph, tg: TaskGraph, hold_strobe: bool = False) -> list[SlotTask]:
    """The cycle window of ``tg``: its tasks plus three per cycle, joined
    by same-cycle edges and by edges from tasks of cycle c to tasks of
    cycle c + 1, and nothing wider, as one ``SlotTask`` per window id.
    Two slots of ``size = len(tg.tasks) + 3`` ids each, graph tasks then
    stimulus, strobe and gate: id ``s * size + t`` is task ``t`` of the
    cycle slot s serves, which has parity s.  Slot 1 is slot 0 moved one
    cycle: its successor tuples are slot 0's with each id moved to the
    other slot.  The tuples are the window's one statement of its
    dependencies; the countdowns are counted from them
    (``window_countdowns``).

    The stimulus task drives the inputs, and every task reading an input
    waits for it.  The strobe task detects, and waits for the tasks that
    write an output's driver.  The gate task waits for every task with no
    same-cycle successor, so it runs once its cycle is done.  With
    ``hold_strobe`` (a run that drops detected faults or re-sweeps, which
    change or read every state) a cycle runs in serial's order: the
    strobe also waits for every task of its cycle but the commits, and
    every commit waits for the strobe.

    These are the per-task next-cycle successor lists the engine's setup
    builds once: a task of cycle c + 1 waits for every task of cycle c
    that reads a state it writes (write after read; a slave reads its
    node's fanins and its master's cut points), and for itself in cycle c,
    unless it already does through such a reader or through a task of its
    own cycle that writes what it reads.  A task reading a register waits
    for that register's commit in the cycle before.  With ``hold_strobe`` every task
    of cycle c + 1 with no same-cycle predecessor waits for the strobe of
    cycle c.  The gate of cycle c releases the tasks of cycle c + 2 with no
    same-cycle predecessor, so no cycle starts before the one two back is
    done; that is what lets two slots serve every cycle.  Same-cycle
    successors come first in a task's ``succs``, then next-cycle ones, and
    the gate last, so that the worker finishing a cycle's last task runs
    its gate at once.
    """

    nodes = graph.nodes
    tasks = tg.tasks
    n = len(tasks)
    stim, strobe, gate = n, n + 1, n + 2
    size = n + 3
    # The task that starts writing an evaluated node's state in a cycle is
    # its node task, and an input's the stimulus; an expanded node's slaves
    # finish it.
    node_task = tg.node_task
    inputs = set(graph.inputs)
    finishers: dict[int, list[int]] = {}
    for task in tasks:
        if task.kind == SLAVE:
            finishers.setdefault(task.node, []).append(task.id)
    # The tasks that read an input: its evaluated readers, and the commits
    # of registers whose next value it is.
    reads_input = [False] * n
    for nid in inputs:
        for reader in nodes[nid].fanout:
            if reader in node_task:
                reads_input[node_task[reader]] = True

    # Next-cycle successors.  A task waits, in the next cycle, for every
    # task that reads a state it writes: a graph task's predecessors are
    # the writers of what it reads (a slave reads what its master does, and
    # the master's cut points), and a commit's are its register's readers
    # and the producer of its next value.  A task that reads a state
    # another task writes in its cycle follows itself in the next cycle
    # through that writer, which it precedes there; every other task
    # follows itself directly.
    preds = _Inverse([task.succs for task in tasks]).preds
    following: list[list[int]] = []
    for task in tasks:
        tid, kind = task.id, task.kind
        if kind == SYNC:
            source = nodes[task.regs[0]].next_src
            producer = node_task.get(source)
            if source in inputs:
                reads_input[tid] = True
                producer = stim
            # Its register's readers read this commit in the next cycle.
            reading = [p for p in preds(tid) if p != producer and tasks[p].kind != SLAVE]
            following.append([producer if producer is not None else tid, *reading])
        elif kind == SLAVE:
            master = node_task[task.node]
            following.append([master, *(w for w in following[master] if w != master)])
        else:
            writers = [p for p in preds(tid) if tasks[p].kind != SLAVE]
            if reads_input[tid]:
                writers.append(stim)
            following.append(writers or [tid])
    readers = [tid for tid in range(n) if reads_input[tid]]
    # Each output's driver that some task writes, and the task that starts
    # writing it.  The strobe waits for the tasks that finish them, and
    # follows itself unless one of those starts one too.
    drivers = {d: stim if d in inputs else node_task[d]
               for oid in graph.outputs
               if (d := nodes[oid].fanin[0]) in inputs or d in node_task}
    strobed = dict.fromkeys(t for d, w in drivers.items() for t in finishers.get(d, (w,)))
    following += [
        [] if readers else [stim],
        [*dict.fromkeys(drivers.values()),
         *([] if any(d not in finishers for d in drivers) else [strobe])],
        [gate],
    ]
    commits: list[int] = []
    if hold_strobe:
        commits = tg.sync_tasks
        strobed.update(dict.fromkeys(
            tid for tid in range(n) if tasks[tid].kind != SYNC and tid not in strobed
            and all(tasks[s].kind == SYNC for s in tasks[tid].succs)))
        if not readers:
            strobed[stim] = None

    # Same-cycle successors: the graph's, the stimulus's readers, the
    # strobe after its writers and before the held commits, and the gate
    # after every task with none.
    intra = [task.succs for task in tasks] + [readers, commits, []]
    for tid in strobed:
        intra[tid] = intra[tid] + [strobe]
    # The tasks with no same-cycle predecessor.  The gate is not one: it
    # waits for the strobe, or for the held commits.
    waiting = {succ for succs in intra for succ in succs}
    entry = [tid for tid in range(gate) if tid not in waiting]
    if hold_strobe:
        following[strobe] = list(dict.fromkeys(following[strobe] + entry))

    # Every id of slot 1 is one int object of ``ids``, however many tuples
    # hold it.
    ids = list(range(2 * size))
    shifted = ids[size:].__getitem__
    succ_ids = [(*intra[tid], *map(shifted, following[tid]), *(() if intra[tid] else (gate,)))
                for tid in range(gate)]
    succ_ids.append((*entry, shifted(gate)))
    moved = (ids[size:] + ids[:size]).__getitem__
    succ_ids += [tuple(map(moved, succs)) for succs in succ_ids]
    base = [*tasks, Task(stim, STIMULUS), Task(strobe, STROBE), Task(gate, GATE)]
    inverse = _Inverse(succ_ids)
    return [SlotTask(base[iid % size], succs, iid, inverse)
            for iid, succs in zip(ids, succ_ids)]


def window_countdowns(window: list[SlotTask]) -> tuple[list[int], list[int], list[int]]:
    """Per task id, how many releases an instance waits for: in cycle 0,
    in cycle 1, and in every later cycle, which a slot is re-armed with.
    A window id waits for every id whose successor tuple holds it.  Slot
    1's tuples are slot 0's moved one slot, so slot 0's count for both: an
    id of slot 0 in them is a same-cycle successor, or, in the gate's, a
    task of the cycle two on; an id of slot 1 is a task of the next
    cycle.  Cycle 0 leaves out the releases of cycle -1, and cycles 0 and
    1 leave out the gate two back."""

    size = len(window) // 2
    gate = size - 1
    first = [0] * size      # from the same cycle
    behind = [0] * size     # from the cycle before
    held = [0] * size       # from the gate two cycles back
    for tid in range(size):
        counts = held if tid == gate else first
        for succ in window[tid].succs:
            if succ < size:
                counts[succ] += 1
            else:
                behind[succ - size] += 1
    second = list(map(add, first, behind))
    return first, second, list(map(add, second, held))
