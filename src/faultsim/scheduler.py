"""The simulation engine: the cycle loop and its two executors, plus the
worker pool, the per-task cost record and the choice of nodes to expand.

Mode ``serial`` is a plain loop: each cycle evaluates the nodes in
topological order, strobes the outputs, and commits the registers.
Outputs are never evaluated in any mode: after ``rtl.observe_outputs`` an
output shares its driver's state, so it is in neither the serial order
nor the task graph.  It
builds no task graph and times no task; its cycle times are host time.  It
is the reference the parallel modes must reproduce bit for bit, and the
baseline the ablation grid divides by.

The other modes execute the task graph on a fixed pool of workers with
work stealing, through the same per-node and register-commit bodies.  The
engine alone holds the schedule policy; every mode builds the same task
graph.  ``full`` releases each register commit mid-cycle once its readers
and producer are done; ``structural`` and ``structural+fault`` hold every
commit back for a second phase behind a barrier.  ``structural+fault`` and
``full`` also expand up to ``MAX_EXPANSIONS`` of the nodes with the
largest fault cones into a master and one slave per worker.  The task
graph is built once, at setup, in its final shape
(``taskgraph.make_task_graph``): each straight-line chain of nodes is one
task, which leaves the modeled schedule as it was and saves a dispatch per
chained node.  The graph does not change after that.

The pool is a deterministic discrete-event executor: every task's kernel
runs exactly once on the host, in an order consistent with the dependency
edges and the stealing policy, and its measured duration advances the
claiming worker's virtual clock.  Wall time, busy time and utilization are
properties of that executed schedule.  CPython serializes compute-bound
threads, so scheduling quality is accounted on the schedule itself rather
than on OS threads; the drain contract (exactly-once execution, no busy
waiting, stuck-task detection) is unchanged.

Workers keep a local LIFO deque; cycle-entry tasks start in a shared
injection queue.  An idle worker pops its own deque, then steals FIFO from
the next non-empty victim in index order, and only then takes an entry
task, so released successors (above all the slaves of an expanded node)
run ahead of fresh entry tasks.  Completion events release successor
tasks by decrementing their predecessor countdowns onto the finishing
worker's deque; a task is claimed exactly once, when its countdown reaches
zero.
"""

from __future__ import annotations

import gc
import heapq
import time
from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import chain

from . import rtl
from .config import MODE_FULL, MODE_SERIAL, MODE_STRUCTURAL, SimConfig
from .faults import FaultDescriptor, FaultTable, NodeFaults, inject
from .kernels import (
    NodeState, SimulationError, apply_stimulus_row, bind_operators,
    check_dependence_changed, commit_state, drop_detected, eval_bad_gates,
    eval_good, initial_states, scan_outputs, sync_check_needed, sync_register,
)
from .report import CycleStats, RunTotals, SimulationReport
from .rtl import RtlGraph
from .stimulus import as_rows
from .taskgraph import (
    DEFAULT, MASTER, SLAVE, SYNC, make_task_graph, reset_for_cycle,
)

MAX_EXPANSIONS = 8  # nodes expanded at setup, heaviest first


@dataclass
class PhaseResult:
    makespan_ns: int
    busy_ns: list[int]
    executed: list[int]


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
        heap: list[tuple[int, int, int, int, int]] = []
        executed: list[int] = []
        push, replace = heapq.heappush, heapq.heapreplace
        queued = 0                  # tasks held in the worker deques
        seq = 0

        # The deques start empty: worker w takes the w-th entry task.
        for w in range(P):
            if not injection:
                idle.extend(range(w, P))
                break
            tid = injection.popleft()
            cost = execute(tid)
            busy[w] += cost
            push(heap, (time_base + cost, seq, w, tid, time_base))
            seq += 1
            executed.append(tid)

        makespan = time_base
        while heap:
            # The earliest finish stays on the heap until the finishing
            # worker's next task replaces it (one sift instead of two).
            fin, _, w, tid, started = heap[0]
            if fin > makespan:
                makespan = fin
            if trace is not None:
                trace.append((tid, w, started, fin))
            q = queues[w]
            for succ in tasks[tid].succs:
                counts[succ] -= 1
                if counts[succ] == 0:
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
                put(heap, (fin + cost, seq, w, tid, fin))
                put = push
                seq += 1
                executed.append(tid)
                if taken == len(idle) or not (queued or injection):
                    break
                w = idle[taken]
                taken += 1
                q = queues[w]
            if taken:
                del idle[:taken]
        return PhaseResult(makespan - time_base, busy, executed)


class LoadMonitor:
    """Per-task execution time for one cycle, as ``_execute`` measured it
    on the host.  The drain runs each task exactly once per cycle, so a
    task's time is its one recorded cost.  The pool is charged the value
    ``execute`` returns, which is this cost unless a caller wraps the
    callable (the tests' cost record and replay do).

    Nothing in the package or its tests reads ``task_ns``.  Its one reader
    is perfbench's tracer, which wraps ``record`` to count dispatched
    tasks (``scheduler.tasks_executed``) and to time the call itself."""

    def __init__(self):
        self.task_ns: dict[int, int] = {}

    def reset(self) -> None:
        self.task_ns.clear()

    def record(self, tid: int, cost: int) -> None:
        self.task_ns[tid] = cost


def flag_overloaded(graph: RtlGraph, nf: list[NodeFaults], threshold: float) -> list[int]:
    """Evaluated nodes whose fault-cone count exceeds ``threshold`` of the
    summed counts, heaviest first, ties by node id.  A node's count is the
    number of filed fids whose site reaches it through fanin and register
    ``next`` edges, a bound on its bad-list length: one bit per fid, ORed
    over the evaluated nodes in topological order and then into each
    register from its next source, until no register grows."""

    nodes = graph.nodes
    order = [nid for nid in graph.topo if nodes[nid].kind in rtl.TASK_KINDS]
    cone, width = [0] * len(nodes), 0
    for nid, site in enumerate(nf):
        cone[nid] = ((1 << len(site.fids)) - 1) << width
        width += len(site.fids)
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
    register commit, and statistics.

    Setup files only the faults whose site lies in some output's cone
    (``rtl.observable``).  Any other fault can never be detected: no kernel,
    state or drop ever sees it, ``totals.unobservable`` counts it, and the
    report reads it undetected.  Every node is still evaluated.

    Two executors run the same per-node and register-commit bodies.  Mode
    ``serial`` evaluates every node in topological order, strobes, and then
    commits the registers; it builds no task graph, pool or load monitor,
    and its cycle times are host time.  Every other mode drains the task
    graph on the discrete-event pool, then strobes.  Setup builds that
    graph once, in its final shape: the expanding modes split the nodes
    ``flag_overloaded`` picks from the netlist and the filed faults alone,
    and each straight-line chain of nodes is one task.  Both executors
    call ``_detect`` once per cycle, after their drain, and end the cycle
    with one ``_end_cycle`` call, after which no state changes until the
    next cycle's stimulus."""

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
        self.table = FaultTable({nid: fs for nid, fs in by_site.items() if seen[nid]})
        self.totals = RunTotals(unobservable=len(faults) - len(self.table.site_of))
        bind_operators(graph)
        self.nf = [self.table.node_faults(i) for i in range(len(graph.nodes))]
        self.states = initial_states(graph, self.table)
        # Each state object once: an output's is its driver's.
        self.distinct_states = [self.states[n.id] for n in graph.nodes
                                if n.kind != rtl.OUTPUT]
        # What a node evaluation reads and writes, per node id: the node,
        # its state, its fanin states and its injected faults.  A node's
        # state object lives for the run.
        self.bound = [
            (node, self.states[node.id], [self.states[f] for f in node.fanin],
             self.nf[node.id])
            for node in graph.nodes
        ]
        self.serial = config.mode == MODE_SERIAL
        if self.serial:
            self.order = [nid for nid in graph.topo
                          if graph.nodes[nid].kind in rtl.TASK_KINDS]
        else:
            heavy = []
            if config.mode != MODE_STRUCTURAL:
                heavy = flag_overloaded(graph, self.nf, config.threshold)[:MAX_EXPANSIONS]
            self.totals.expanded = tuple(heavy)
            self.tg = tg = make_task_graph(graph, heavy, config.workers)
            self.unified = config.mode == MODE_FULL
            # Behind a barrier phase 1's entry list leaves out the sync tasks.
            self.entry = [tid for tid in tg.entry_tasks
                          if self.unified or tg.tasks[tid].kind != SYNC]
            self.pool = WorkerPool(config.workers)
            self.monitor = LoadMonitor()
        self.detections: dict[int, tuple[int, str]] = {}
        self.cycle_stats: list[CycleStats] = []
        self._cycle = 0
        self._executed = 0
        self._skipped = 0
        self._sync_ns = 0

    # -- per-task execution -------------------------------------------------

    def _execute(self, tid: int) -> int:
        t0 = time.perf_counter_ns()
        task = self.tg.tasks[tid]
        kind = task.kind
        if kind == DEFAULT:
            self._run_default(task.nodes)
        elif kind == MASTER:
            self._run_master(task)
        elif kind == SLAVE:
            self._run_slave(task)
        else:
            self._run_sync(task.regs)
        cost = time.perf_counter_ns() - t0
        self.monitor.record(tid, cost)
        if kind == SYNC:
            self._sync_ns += cost
        return cost

    def _run_default(self, nids) -> None:
        """Evaluate nodes in the given order: a default task's chain, or
        every node of a serial cycle."""

        bound = self.bound
        cycle = self._cycle
        for nid in nids:
            node, st, fanin_states, nf = bound[nid]
            if not check_dependence_changed(node, fanin_states, nf, cycle):
                self._skipped += 1
                continue
            diverged = nf.fids
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
            self._executed += 1

    def _run_master(self, task) -> None:
        node, st, fanin_states, nf = self.bound[task.node]
        board = self.tg.boards[task.node]
        cycle = self._cycle
        if not check_dependence_changed(node, fanin_states, nf, cycle):
            board.skip = True
            self._skipped += 1
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
        if len(nf.fids) > len(longest):
            cuts = nf.fids
            n = len(cuts)
            board.bounds[1:k] = [cuts[i * n // k] for i in range(1, k)]
        else:
            n = len(longest)
            board.bounds[1:k] = [longest[i * n // k][0] if n else 0 for i in range(1, k)]
        commit_state(st, new_good, st.bads, cycle)
        self._executed += 1

    def _run_slave(self, task) -> None:
        board = self.tg.boards[task.node]
        if board.skip:
            self._skipped += 1
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
        self._executed += 1
        board.remaining -= 1
        if board.remaining == 0:
            new_bads = list(chain.from_iterable(board.partials))
            commit_state(st, st.good, new_bads, self._cycle)

    def _run_sync(self, regs) -> None:
        """Compute and commit registers one at a time (a sync task's one
        register, or all of them in serial mode).  No register's next
        source is a register (see ``rtl.split_register_reads``), so no
        commit reads another's state."""

        graph = self.graph
        states = self.states
        serve = self._cycle + 1
        for rid in regs:
            reg = graph.nodes[rid]
            st = states[rid]
            next_st = states[reg.next_src]
            nf = self.nf[rid]
            if sync_check_needed(st, next_st, nf, serve):
                new_good, new_bads = sync_register(reg, next_st, nf, serve)
                commit_state(st, new_good, new_bads, serve)
                self._executed += 1
            else:
                self._skipped += 1

    # -- cycle loop ----------------------------------------------------------

    def run(self) -> SimulationReport:
        """Simulate every stimulus row with the cyclic garbage collector
        off.  A run creates no reference cycles, so the collector would
        free nothing; its pauses over the caller's heap would only be
        charged to whichever task was running, and measured task times
        decide the modeled schedule."""

        run_cycle = self._run_serial_cycle if self.serial else self._run_pool_cycle
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            host_start = time.perf_counter_ns()
            for cycle, row in enumerate(self.rows):
                self._cycle = cycle
                run_cycle(cycle, row)
            self.totals.host_ns = time.perf_counter_ns() - host_start
        finally:
            if gc_was_enabled:
                gc.enable()
        return SimulationReport(
            faults=self.faults,
            detections=self.detections,
            config=self.config.echo(),
            cycles=self.cycle_stats,
            totals=self.totals,
        )

    def _begin_cycle(self, cycle: int, row) -> None:
        apply_stimulus_row(self.graph, self.states, row, cycle)
        if self.config.steady_state_check:
            # Pool modes commit registers before the re-sweep; it must judge
            # settlement against the values this cycle read.
            self._reg_snapshot = {
                rid: (self.states[rid].good, list(self.states[rid].bads))
                for rid in self.graph.regs
            }
        self._executed = 0
        self._skipped = 0
        self._sync_ns = 0

    def _detect(self, cycle: int) -> None:
        """Detection strobe, then the steady-state re-sweep, then the drop
        of the faults detected now.  The strobe reads outputs, which share
        no state with a register (see ``rtl.split_register_reads``), so it
        sees the same values before and after the commits.  The re-sweep
        runs before the drop: a drop removes divergences from every state
        but the register snapshot the re-sweep reads."""

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
        t0 = time.perf_counter_ns()
        self._begin_cycle(cycle, row)
        self._run_default(self.order)
        self._detect(cycle)
        sync0 = time.perf_counter_ns()
        self._run_sync(self.graph.regs)
        self._sync_ns = time.perf_counter_ns() - sync0
        wall = time.perf_counter_ns() - t0
        self._end_cycle(CycleStats(
            cycle, wall, (wall,), self._executed, self._skipped, self._sync_ns
        ))

    def _run_pool_cycle(self, cycle: int, row) -> None:
        tg = self.tg
        boundary0 = time.perf_counter_ns()
        self._begin_cycle(cycle, row)
        counts = reset_for_cycle(tg)
        if not self.unified:
            # Behind a barrier the compute drain must not release a sync
            # task: its countdown starts below zero and only falls.
            for tid in tg.sync_tasks:
                counts[tid] = -1
        self.monitor.reset()
        boundary_ns = time.perf_counter_ns() - boundary0

        pool0 = time.perf_counter_ns()
        phase = self.pool.run_phase(counts, self.entry, tg.tasks, self._execute)
        wall = phase.makespan_ns
        busy = phase.busy_ns
        ran = len(phase.executed)
        if not self.unified:
            # Sync tasks are sinks: the commit phase starts with all of them.
            phase = self.pool.run_phase(
                counts, tg.sync_tasks, tg.tasks, self._execute, time_base=wall
            )
            wall += phase.makespan_ns
            busy = [a + b for a, b in zip(busy, phase.busy_ns)]
            ran += len(phase.executed)
        pool_host_ns = time.perf_counter_ns() - pool0
        if ran != len(tg.tasks):
            stuck = [(t.id, t.kind, counts[t.id]) for t in tg.tasks if counts[t.id] > 0]
            raise SimulationError(
                f"cycle {cycle}: pool drained with {len(tg.tasks) - ran} "
                f"unexecuted tasks; (id, kind, pending preds): {stuck[:20]}"
            )

        b1 = time.perf_counter_ns()
        self._detect(cycle)
        boundary_ns += time.perf_counter_ns() - b1

        self._end_cycle(CycleStats(
            cycle=cycle,
            wall_ns=wall + boundary_ns,
            busy_ns=tuple(busy),
            executed=self._executed,
            skipped=self._skipped,
            sync_ns=self._sync_ns,
        ))
        self.totals.dispatches += ran
        self.totals.dispatch_overhead_ns += max(0, pool_host_ns - sum(busy))

    def _assert_steady(self, cycle: int) -> None:
        """Debug re-sweep: re-evaluating any node must change nothing."""

        def fanin_state(fid: int) -> NodeState:
            snap = self._reg_snapshot.get(fid)
            if snap is None:
                return self.states[fid]
            shim = NodeState(snap[0], snap[1])
            return shim

        for nid in self.graph.topo:
            node = self.graph.nodes[nid]
            if node.kind not in rtl.TASK_KINDS:
                continue
            st = self.states[nid]
            fanin_states = [fanin_state(f) for f in node.fanin]
            nf = self.nf[nid]
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
