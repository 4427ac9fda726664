"""The simulation engine: the cycle loop and its executors, plus the
worker pool, the per-task cost record and the choice of nodes to expand.

Every mode runs a cycle in one order: evaluate, strobe, then commit.
Mode ``serial`` is a plain loop: each cycle evaluates the live nodes in
topological order, strobes the outputs, and commits the live registers.
Outputs are never evaluated in any mode: after ``rtl.observe_outputs`` an
output shares its driver's state, so it is in neither the serial order
nor the task graph, and neither is any node or register outside every
output's cone.  It builds no task graph and times no task; its cycle
times are host time.  It is the reference the parallel modes must
reproduce bit for bit, and the baseline the ablation grid divides by.

The other modes execute the task graph on a fixed pool of workers with
work stealing, through the same per-node and register-commit bodies.  The
engine alone holds the schedule policy; every mode builds the same task
graph.  ``structural`` and ``structural+fault`` drain it once per cycle
and hold every commit back for a second phase behind a barrier, after the
strobe.  ``full`` drains every cycle in one pool phase over the cycle
window (``taskgraph.make_window``): stimulus and strobe are tasks, a
commit runs mid-cycle once its readers and producer are done (and, when
the strobe drops or re-sweeps, once the strobe is), and a task of the next
cycle starts once the states it touches are free, with no cycle starting
before the one two back is done.  ``structural+fault`` and ``full`` also
expand up to ``MAX_EXPANSIONS`` of the nodes with the largest fault
cones into a master and one slave per worker.  The task graph is built
once, at setup, in its final shape (``taskgraph.make_task_graph``): each
straight-line chain of nodes is one task, which leaves the modeled
schedule as it was and saves a dispatch per chained node.  The graph does
not change after that.

The pool is a deterministic discrete-event executor: every task's kernel
runs exactly once on the host, in an order consistent with the dependency
edges and the stealing policy, and its measured duration advances the
claiming worker's virtual clock.  Wall time, busy time and utilization are
properties of that executed schedule.  CPython serializes compute-bound
threads, so scheduling quality is accounted on the schedule itself rather
than on OS threads; the drain contract (exactly-once execution, no busy
waiting, stuck-task detection) is unchanged.

Workers keep a local LIFO deque; a phase's entry tasks start in a shared
injection queue.  An idle worker pops its own deque, then steals FIFO from
the next non-empty victim in index order, and only then takes an entry
task, so released successors (above all the slaves of an expanded node)
run ahead of fresh entry tasks.  Completion events release successor
tasks by decrementing their predecessor countdowns onto the finishing
worker's deque; a task is claimed exactly once per countdown, when it
reaches zero, and a caller that re-arms a countdown (the cycle window
does, for the cycle two on) runs the task again.
"""

from __future__ import annotations

import gc
import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import add
from time import perf_counter_ns

from . import rtl
from .config import MODE_FULL, MODE_SERIAL, MODE_STRUCTURAL, SimConfig
from .faults import FaultDescriptor, FaultTable, NodeFaults, inject
from .kernels import (
    SimulationError, apply_stimulus_row, bind_operators,
    check_dependence_changed, commit_state, drop_detected, eval_bad_gates,
    eval_good, initial_states, scan_outputs, sync_check_needed, sync_register,
)
from .report import CycleStats, RunTotals, SimulationReport
from .rtl import RtlGraph
from .stimulus import as_rows
from .taskgraph import (
    DEFAULT, MASTER, SLAVE, STIMULUS, STROBE, SYNC, make_task_graph, make_window,
    window_countdowns,
)

MAX_EXPANSIONS = 8  # nodes expanded at setup, heaviest first


@dataclass
class PhaseResult:
    makespan_ns: int
    busy_ns: list[int]
    dispatched: int
    # The critical path of the executed schedule: the costliest chain of
    # tasks each released by the one before it (its last predecessor to
    # finish), in summed charged costs.  A chain of dependent tasks, so no
    # longer than the makespan.
    critical_ns: int = 0


class WorkerPool:
    """Deterministic work-stealing executor for one dependency phase."""

    def __init__(self, workers: int):
        self.workers = workers

    def run_phase(self, counts, ready, tasks, execute, trace=None, time_base=0):
        P = self.workers
        queues: list[deque] = [deque() for _ in range(P)]
        # Each worker's steal victims, in scan order.
        victims = [[queues[(w + off) % P] for off in range(1, P)] for w in range(P)]
        injection = deque(ready)
        busy = [0] * P
        idle: list[int] = []        # idle workers, ascending
        heap: list[tuple[int, int, int, int, int, int]] = []
        # Per released task: the charged costs of the critical path that
        # ends at the predecessor that released it.
        reach = [0] * len(tasks)
        push, replace = heapq.heappush, heapq.heapreplace
        queued = 0                  # tasks held in the worker deques
        seq = 0                     # tasks dispatched
        self._busy, self._heap, self._now = busy, heap, time_base

        # The deques start empty: worker w takes the w-th entry task.
        for w in range(P):
            if not injection:
                idle.extend(range(w, P))
                break
            tid = injection.popleft()
            cost = execute(tid)
            busy[w] += cost
            push(heap, (time_base + cost, seq, w, tid, time_base, reach[tid] + cost))
            seq += 1

        makespan = time_base
        critical = 0
        while heap:
            # The earliest finish stays on the heap until the finishing
            # worker's next task replaces it (one sift instead of two).
            fin, _, w, tid, started, path = heap[0]
            self._now = fin
            if fin > makespan:
                makespan = fin
            if path > critical:
                critical = path
            if trace is not None:
                trace.append((tid, w, started, fin))
            q = queues[w]
            for succ in tasks[tid].succs:
                left = counts[succ] - 1
                counts[succ] = left
                if not left:
                    reach[succ] = path
                    q.append(succ)
                    queued += 1
            if not queued and not injection:
                heapq.heappop(heap)
                insort(idle, w)
                continue
            # Dispatch the finishing worker, then the idle workers in index
            # order, while anything is runnable.  An idle worker's own deque
            # is empty: releases go only to the deque of a finishing worker.
            taken = 0
            put = replace
            while True:
                if q:
                    tid = q.pop()
                    queued -= 1
                elif queued:
                    for victim in victims[w]:
                        if victim:
                            tid = victim.popleft()
                            break
                    queued -= 1
                else:
                    tid = injection.popleft()
                cost = execute(tid)
                busy[w] += cost
                put(heap, (fin + cost, seq, w, tid, fin, reach[tid] + cost))
                put = push
                seq += 1
                if taken == len(idle) or not (queued or injection):
                    break
                w = idle[taken]
                taken += 1
                q = queues[w]
            if taken:
                del idle[:taken]
        return PhaseResult(makespan - time_base, busy, seq, critical)

    def clock(self) -> tuple[int, list[int]]:
        """From inside an ``execute`` call of ``run_phase``: the modeled
        time at which the task being dispatched starts, and each worker's
        busy time elapsed by then, which is its charged costs less what
        its running task has left."""

        now = self._now
        elapsed = list(self._busy)
        for fin, _, w, *_ in self._heap:
            if fin > now:
                elapsed[w] -= fin - now
        return now, elapsed


class LoadMonitor:
    """Per-task execution time, as ``_execute`` measured it on the host:
    each task's latest run, by task id, in any cycle.  The pool is charged
    the value ``execute`` returns, which is this cost unless a caller
    wraps the callable (the tests' cost record and replay do), or 0 for a
    cycle window's gate, which is not recorded.

    Nothing in the package or its tests reads ``task_ns``.  Its one reader
    is perfbench's tracer, which wraps ``record`` to count dispatched
    tasks (``scheduler.tasks_executed``) and to time the call itself."""

    def __init__(self):
        self.task_ns: dict[int, int] = {}

    def record(self, tid: int, cost: int) -> None:
        self.task_ns[tid] = cost


def flag_overloaded(graph: RtlGraph, nf: list[NodeFaults], threshold: float) -> list[int]:
    """Evaluated nodes whose fault-cone count exceeds ``threshold`` of the
    summed counts, heaviest first, ties by node id.  A node's count is the
    number of filed fids whose site reaches it through fanin and register
    ``next`` edges, a bound on its bad-list length: one bit per fid, ORed
    over the evaluated nodes in topological order and then into each
    register from its next source, until no register grows.  The counts,
    the sum and so the floor cover every evaluated node, including those
    the engine sweeps as outside every output's cone; the engine drops a
    swept node from the picks."""

    nodes = graph.nodes
    order = [nid for nid in graph.topo if nodes[nid].kind in rtl.TASK_KINDS]
    cone, width = [0] * len(nodes), 0
    for nid, site in enumerate(nf):
        cone[nid] = ((1 << len(site.fid_map)) - 1) << width
        width += len(site.fid_map)
    grew = True
    while grew:
        for nid in order:
            bits = cone[nid]
            for src in nodes[nid].fanin:
                bits |= cone[src]
            cone[nid] = bits
        grew = False
        for rid in graph.regs:
            bits = cone[rid] | cone[nodes[rid].next_src]
            if bits != cone[rid]:
                cone[rid] = bits
                grew = True
    counts = [(cone[nid].bit_count(), nid) for nid in order]
    floor = threshold * sum(count for count, _ in counts)
    heavy = sorted((-count, nid) for count, nid in counts if count > floor)
    return [nid for _, nid in heavy]


class SimulationEngine:
    """Drives the cycle loop: stimulus, node evaluation, detection strobe,
    register commit, and statistics, in that order in every mode.

    Setup files only the faults whose site lies in some output's cone
    (``rtl.observable``).  Any other fault can never be detected: no kernel,
    state or drop ever sees it, ``totals.unobservable`` counts it, and the
    report reads it undetected.  Setup sweeps the logic outside the cone
    too: those evaluated nodes and registers are in neither the serial
    order (``order``), the commit list (``regs``) nor the task graph, and
    the re-sweep and the drop skip them, since no cycle refreshes their
    states.  ``totals.swept`` counts them.

    Three executors run the same per-node and register-commit bodies.  Mode
    ``serial`` evaluates the live nodes in topological order, strobes, and
    then commits the live registers; it builds no task graph, pool or load
    monitor, and its cycle times are host time.  ``structural`` and
    ``structural+fault`` drain the task graph on the discrete-event pool
    once per cycle: the compute drain, the strobe, then the commits behind
    a barrier.  ``full`` drains every cycle in one pool phase over the
    cycle window (``taskgraph.make_window``), where stimulus and strobe are
    tasks too, and a strobe that drops or re-sweeps runs after every task
    of its cycle but the commits, and before them.  Setup builds the task
    graph once, in its final shape: the expanding modes split the nodes
    ``flag_overloaded`` picks from the netlist and the filed faults alone,
    and each straight-line chain of nodes is one task.  Every executor
    calls ``_detect`` once per cycle, when the cycle's outputs hold their
    values (and, when it drops or re-sweeps, before any commit of the
    cycle), and ``_end_cycle`` once per cycle, in cycle order."""

    def __init__(self, graph: RtlGraph, faults: list[FaultDescriptor],
                 stimulus, config: SimConfig):
        config.validate()
        self.graph = graph
        self.faults = faults
        self.rows = as_rows(graph, stimulus)
        self.config = config
        by_site = inject(graph, faults)
        rtl.split_register_reads(graph)
        rtl.observe_outputs(graph)
        seen = rtl.observable(graph)
        nodes = graph.nodes
        self.table = FaultTable({nid: fs for nid, fs in by_site.items() if seen[nid]})
        # The live logic, in some output's cone: the evaluated nodes in
        # topological order, and the registers.
        self.order = [nid for nid in graph.topo
                      if seen[nid] and nodes[nid].kind in rtl.TASK_KINDS]
        self.regs = [rid for rid in graph.regs if seen[rid]]
        evaluated = sum(1 for n in nodes if n.kind in rtl.TASK_KINDS)
        self.totals = RunTotals(
            swept=evaluated - len(self.order) + len(graph.regs) - len(self.regs),
            unobservable=len(faults) - len(self.table.site_of),
        )
        bind_operators(graph, self.table)
        self.nf = [self.table.node_faults(i) for i in range(len(nodes))]
        self.states = initial_states(graph, self.table)
        # Each live state object once: an output's is its driver's.
        self.distinct_states = [self.states[n.id] for n in nodes
                                if seen[n.id] and n.kind != rtl.OUTPUT]
        # What a node evaluation reads and writes, per live node id: the
        # node, its state, its fanin states and its injected faults.  For a
        # register, what its commit reads and writes: the register, its
        # state, its next source's state, its injected faults, and whether
        # the source is wider than the register.  A node's state object
        # lives for the run.
        states = self.states
        self.bound = [None] * len(nodes)
        for node in nodes:
            nid = node.id
            if not seen[nid]:
                continue
            if node.kind == rtl.REG:
                src = nodes[node.next_src]
                self.bound[nid] = (node, states[nid], states[src.id], self.nf[nid],
                                   node.width < src.width)
            else:
                self.bound[nid] = (node, states[nid], [states[f] for f in node.fanin],
                                   self.nf[nid])
        self.serial = config.mode == MODE_SERIAL
        if not self.serial:
            heavy = []
            if config.mode != MODE_STRUCTURAL:
                heavy = [nid for nid in flag_overloaded(graph, self.nf, config.threshold)
                         if seen[nid]][:MAX_EXPANSIONS]
            self.totals.expanded = tuple(heavy)
            self.tg = tg = make_task_graph(graph, heavy, config.workers, seen)
            self._tasks = tg.tasks          # what ``_execute`` runs, by id
            self.unified = config.mode == MODE_FULL
            if self.unified:
                # Dropping detected faults changes every state, and the
                # re-sweep reads every state.
                self.window = make_window(
                    graph, tg, hold_strobe=config.drop_on_detect or config.steady_state_check)
            else:
                # Each task's predecessor count, from the successor lists;
                # each cycle starts from a copy.  The compute drain starts
                # with the tasks that have none, but must not release a
                # sync task: its countdown starts below zero and only falls.
                self._rearm = counts = [0] * len(tg.tasks)
                for task in tg.tasks:
                    for succ in task.succs:
                        counts[succ] += 1
                self.entry = [t.id for t in tg.tasks if not counts[t.id] and t.kind != SYNC]
                for tid in tg.sync_tasks:
                    counts[tid] = -1
            self.pool = WorkerPool(config.workers)
            self.monitor = LoadMonitor()
        self.detections: dict[int, tuple[int, str]] = {}
        self.cycle_stats: list[CycleStats] = []
        self._cycle = 0
        self._stats = CycleStats(0)     # the tallies of the running task's cycle
        self._critical_ns = 0

    # -- per-task execution -------------------------------------------------

    def _execute(self, xid: int) -> int:
        """Run one dispatched task and return its host time: task ``xid``
        of the graph in a barrier cycle, or, in ``full``, the instance with
        cycle window id ``xid`` (see ``_execute_instance``)."""

        t0 = perf_counter_ns()
        task = self._tasks[xid]
        kind = task.kind
        if kind == DEFAULT:
            self._run_default(task.nodes)
        elif kind == MASTER:
            self._run_master(task)
        elif kind == SLAVE:
            self._run_slave(task)
        elif kind == SYNC:
            self._run_sync(task.regs)
        elif kind == STIMULUS:
            apply_stimulus_row(self.graph, self.states, self.rows[self._cycle], self._cycle)
        elif kind == STROBE:
            self._detect(self._cycle)
        else:                           # a cycle window's gate
            self._close_cycle(xid >= self._size)
            return 0
        cost = perf_counter_ns() - t0
        self.monitor.record(task.id, cost)
        if kind == SYNC:
            self._stats.sync_ns += cost
        return cost

    def _execute_instance(self, xid: int) -> int:
        """``full``'s execute callable: point the bodies at the cycle, and
        its tallies, that the window id's slot serves (the slot's open
        ``CycleStats`` names its cycle), then run it."""

        self._stats = stats = self._open[xid >= self._size]     # slot 0 or 1
        self._cycle = stats.cycle
        return self._execute(xid)

    def _run_default(self, nids) -> None:
        """Evaluate nodes in the given order: a default task's chain, or
        every node of a serial cycle."""

        bound = self.bound
        cycle = self._cycle
        stats = self._stats
        for nid in nids:
            node, st, fanin_states, nf = bound[nid]
            if not check_dependence_changed(fanin_states, nf, cycle):
                stats.skipped += 1
                continue
            diverged = nf.fid_map
            goods = []
            for fs in fanin_states:
                goods.append(fs.good)
                if fs.bads:
                    diverged = True
            new_good = eval_good(node, goods)
            if diverged:
                new_bads, evaluated = eval_bad_gates(
                    node, fanin_states, nf, new_good, cycle
                )
                totals = self.totals
                totals.bad_gates_evaluated += evaluated
                totals.bad_gates_kept += len(new_bads)
            else:
                # No divergence at a fanin and nothing injected here: every
                # bad gate takes the good value.
                new_bads = []
            commit_state(st, new_good, new_bads, cycle)
            stats.executed += 1

    def _run_master(self, task) -> None:
        node, st, fanin_states, nf = self.bound[task.node]
        board = self.tg.boards[task.node]
        board.reset()
        cycle = self._cycle
        if not check_dependence_changed(fanin_states, nf, cycle):
            board.skip = True
            self._stats.skipped += 1
            return
        new_good = eval_good(node, [fs.good for fs in fanin_states])
        board.new_good = new_good
        # Cut at the quantiles of the longest of the node's own bad list, its
        # fanins' lists and the fids injected here.  The slaves do not read
        # the own list, but as last cycle's result it tracks the union they
        # evaluate better than any one fanin list does.
        longest = max((fs.bads for fs in fanin_states), key=len)
        if len(st.bads) > len(longest):
            longest = st.bads
        k = len(board.partials)
        if len(nf.fid_map) > len(longest):
            cuts = list(nf.fid_map)
            n = len(cuts)
            board.bounds[1:k] = [cuts[i * n // k] for i in range(1, k)]
        else:
            n = len(longest)
            board.bounds[1:k] = [longest[i * n // k][0] if n else 0 for i in range(1, k)]
        commit_state(st, new_good, st.bads, cycle)
        self._stats.executed += 1

    def _run_slave(self, task) -> None:
        board = self.tg.boards[task.node]
        if board.skip:
            self._stats.skipped += 1
            return
        node, st, fanin_states, nf = self.bound[task.node]
        i = task.slave_index
        lo, hi = board.bounds[i], board.bounds[i + 1]
        partial = []
        if hi is None or lo < hi:
            partial, evaluated = eval_bad_gates(
                node, fanin_states, nf, board.new_good, self._cycle, lo, hi
            )
            totals = self.totals
            totals.bad_gates_evaluated += evaluated
            totals.bad_gates_kept += len(partial)
        board.partials[i] = partial
        self._stats.executed += 1
        board.remaining -= 1
        if board.remaining == 0:
            new_bads = list(chain.from_iterable(board.partials))
            commit_state(st, st.good, new_bads, self._cycle)

    def _run_sync(self, regs) -> None:
        """Compute and commit registers one at a time (a sync task's one
        register, or all of them in serial mode).  No register's next
        source is a register (see ``rtl.split_register_reads``), so no
        commit reads another's state."""

        bound = self.bound
        stats = self._stats
        serve = self._cycle + 1
        for rid in regs:
            reg, st, next_st, nf, narrows = bound[rid]
            if sync_check_needed(st, next_st, nf, serve):
                new_good, new_bads = sync_register(reg, next_st, nf, serve, narrows)
                commit_state(st, new_good, new_bads, serve)
                stats.executed += 1
            else:
                stats.skipped += 1

    # -- cycle loop ----------------------------------------------------------

    def run(self) -> SimulationReport:
        """Simulate every stimulus row with the cyclic garbage collector
        off.  A run creates no reference cycles, so the collector would
        free nothing; its pauses over the caller's heap would only be
        charged to whichever task was running, and measured task times
        decide the modeled schedule."""

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            host_start = perf_counter_ns()
            if self.serial or not self.unified:
                run_cycle = self._run_serial_cycle if self.serial else self._run_pool_cycle
                for cycle, row in enumerate(self.rows):
                    self._cycle = cycle
                    run_cycle(cycle, row)
            else:
                self._run_window()
            self.totals.host_ns = perf_counter_ns() - host_start
        finally:
            if gc_was_enabled:
                gc.enable()
        t = self.totals
        workers = len(t.busy_ns) or 1
        t.bound_ns = max(self._critical_ns, -(-sum(t.busy_ns) // workers))
        return SimulationReport(
            faults=self.faults,
            detections=self.detections,
            config=self.config.echo(),
            cycles=self.cycle_stats,
            totals=self.totals,
        )

    def _begin_cycle(self, cycle: int, row) -> None:
        apply_stimulus_row(self.graph, self.states, row, cycle)
        self._stats = CycleStats(cycle)

    def _detect(self, cycle: int) -> None:
        """Detection strobe, then the steady-state re-sweep, then the drop
        of the faults detected now, all after the cycle's evaluations and
        before its commits.  The strobe reads outputs, which share no state
        with a register (see ``rtl.split_register_reads``), so it would see
        the same values after the commits; the re-sweep reads the register
        values the cycle read, and after the drop the commits carry none
        of its faults.  The re-sweep runs before the drop, which removes
        divergences from the states it reads."""

        hits = scan_outputs(self.graph, self.states, self.detections, cycle)
        for fid, at, out in hits:
            self.detections[fid] = (at, out)
        if self.config.steady_state_check:
            self._assert_steady(cycle)
        if self.config.drop_on_detect:
            drop_detected(self.table, self.distinct_states, [hit[0] for hit in hits])

    def _end_cycle(self, stats: CycleStats) -> None:
        self.cycle_stats.append(stats)
        t = self.totals
        t.wall_ns += stats.wall_ns
        t.executed += stats.executed
        t.skipped += stats.skipped
        t.busy_ns = tuple(
            a + b for a, b in zip(t.busy_ns or (0,) * len(stats.busy_ns), stats.busy_ns)
        )

    def _run_serial_cycle(self, cycle: int, row) -> None:
        t0 = perf_counter_ns()
        self._begin_cycle(cycle, row)
        self._run_default(self.order)
        self._detect(cycle)
        sync0 = perf_counter_ns()
        self._run_sync(self.regs)
        stats = self._stats
        stats.sync_ns = perf_counter_ns() - sync0
        stats.wall_ns = perf_counter_ns() - t0
        stats.busy_ns = (stats.wall_ns,)
        self._critical_ns += stats.wall_ns
        self._end_cycle(stats)

    def _run_pool_cycle(self, cycle: int, row) -> None:
        """A barrier cycle: stimulus, the compute drain, the strobe, then
        the commit drain.  Stimulus and strobe are host time outside the
        drains.  Both drains share one copy of the countdowns setup counted
        from the successor lists, with every sync task's below zero."""

        tg = self.tg
        boundary0 = perf_counter_ns()
        self._begin_cycle(cycle, row)
        counts = self._rearm.copy()
        boundary_ns = perf_counter_ns() - boundary0

        pool0 = perf_counter_ns()
        compute = self.pool.run_phase(counts, self.entry, tg.tasks, self._execute)
        b1 = perf_counter_ns()
        self._detect(cycle)
        b2 = perf_counter_ns()
        # Sync tasks are sinks: the commit phase starts with all of them.
        commit = self.pool.run_phase(
            counts, tg.sync_tasks, tg.tasks, self._execute, time_base=compute.makespan_ns
        )
        pool_host_ns = b1 - pool0 + perf_counter_ns() - b2
        boundary_ns += b2 - b1
        busy = [a + b for a, b in zip(compute.busy_ns, commit.busy_ns)]
        ran = compute.dispatched + commit.dispatched
        if ran != len(tg.tasks):
            stuck = [(t.id, t.kind, counts[t.id]) for t in tg.tasks if counts[t.id] > 0]
            raise SimulationError(
                f"cycle {cycle}: pool drained with {len(tg.tasks) - ran} "
                f"unexecuted tasks; (id, kind, pending preds): {stuck[:20]}"
            )

        stats = self._stats
        stats.wall_ns = compute.makespan_ns + commit.makespan_ns + boundary_ns
        stats.busy_ns = tuple(busy)
        self._critical_ns += boundary_ns + compute.critical_ns + commit.critical_ns
        self._end_cycle(stats)
        self.totals.dispatches += ran
        self.totals.dispatch_overhead_ns += max(0, pool_host_ns - sum(busy))

    def _run_window(self) -> None:
        """Mode ``full``: every cycle in one pool phase over the cycle
        window (``taskgraph.make_window``).  A window id names a slot, and
        the slot's open ``CycleStats`` the cycle it serves; each cycle's
        gate task closes it (``_close_cycle``).  The countdowns are counted
        from the window's successor tuples (``taskgraph.window_countdowns``):
        cycles 0 and 1 start from their own, and each later cycle from the
        re-arm vector."""

        window, self.window = self.window, None     # held for the run only
        cycles = len(self.rows)
        if not cycles:
            return
        cfg = self.config
        size = len(window) // 2
        first, second, self._rearm = window_countdowns(window)
        self._never = [-2 * size] * size     # a slot past the last cycle: below zero for good
        self._counts = counts = first + (second if cycles > 1 else self._never)
        self._tasks = [task.task for task in window]
        self._size = size
        self._open = [CycleStats(0), CycleStats(1)]
        self._closed = (0, [0] * cfg.workers)   # the last closed cycle's end, busy

        ready = [tid for tid in range(size) if not first[tid]]
        pool0 = perf_counter_ns()
        phase = self.pool.run_phase(counts, ready, window, self._execute_instance)
        pool_host_ns = perf_counter_ns() - pool0
        ran = phase.dispatched
        if ran != cycles * size:
            stuck = [(iid, window[iid].kind, k) for iid, k in enumerate(counts) if k > 0]
            cycle = min(stats.cycle for stats in self._open)
            raise SimulationError(
                f"cycle {cycle}: pool drained with {cycles * size - ran} "
                f"unexecuted task instances; (window id, kind, pending preds): {stuck[:20]}"
            )
        self._critical_ns = phase.critical_ns
        self.totals.dispatches += ran
        self.totals.dispatch_overhead_ns += max(0, pool_host_ns - sum(phase.busy_ns))

    def _close_cycle(self, slot: int) -> None:
        """The gate task of the cycle ``slot`` serves, whose open
        ``CycleStats`` (``self._open[slot]``) names it; it runs once the
        cycle is done.  The cycle's wall time runs from the previous
        cycle's last finish to its own, and its busy time is each worker's
        busy time in between.  The slot's countdowns are re-armed for the
        cycle two on, and its open stats now name that cycle: every
        instance of the slot has been released, and a countdown has fallen
        below zero only by releases from the cycle between, into the cycle
        two on, which the re-arm vector (counted from the window's tuples)
        adds to."""

        now, elapsed = self.pool.clock()
        stats = self._open[slot]
        end, busy = self._closed
        stats.wall_ns = now - end
        stats.busy_ns = tuple(e - b for e, b in zip(elapsed, busy))
        self._closed = (now, elapsed)
        self._end_cycle(stats)
        cycle = stats.cycle + 2
        size = self._size
        lo = slot * size
        counts = self._counts
        if cycle < len(self.rows):
            counts[lo:lo + size] = map(add, counts[lo:lo + size], self._rearm)
        else:
            counts[lo:lo + size] = self._never
        self._open[slot] = CycleStats(cycle)

    def _assert_steady(self, cycle: int) -> None:
        """Debug re-sweep: re-evaluating any live node must change
        nothing.  A swept node's state is never refreshed, so it is left
        out."""

        for nid in self.order:
            node, st, fanin_states, nf = self.bound[nid]
            good = eval_good(node, [fs.good for fs in fanin_states])
            bads, _ = eval_bad_gates(node, fanin_states, nf, good, cycle)
            if good != st.good or bads != st.bads:
                raise SimulationError(
                    f"cycle {cycle}: node '{node.name}' not steady after drain"
                )


def run_simulation(
    graph: RtlGraph,
    faults: list[FaultDescriptor],
    stimulus,
    config: SimConfig | None = None,
) -> SimulationReport:
    """Inject, build the executor for the configured mode, and simulate
    the whole stimulus."""

    return SimulationEngine(graph, faults, stimulus, config or SimConfig()).run()
