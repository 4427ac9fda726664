import inspect
import random

import pytest

from faultsim import scheduler, taskgraph
from faultsim.config import MAX_WORKERS, SimConfig
from faultsim.genbench import gen_bench
from faultsim.kernels import SimulationError
from faultsim.oracles import run_good_trace, run_serial_concurrent, run_single_fault
from faultsim.report import emit_report_csv, emit_stats
from faultsim.rtl import TASK_KINDS, split_register_reads
from faultsim.scheduler import (
    LoadMonitor, SimulationEngine, WorkerPool, flag_overloaded, run_simulation,
)
from faultsim.taskgraph import DEFAULT, SLAVE, Task, make_task_graph

from conftest import (
    SYNCED, build, check_schedule_invariants, expanding_first, per_node_graph,
    cost_key, record_costs, record_traces, replay_costs, run_with_outputs,
)


def small_bench(seed, profile="uniform", size=40, cycles=8, faults=12):
    return gen_bench(profile, size, seed, cycles=cycles, fault_count=faults)


def test_no_faults_single_worker_matches_plain_interpreter():
    b = small_bench(3)
    g, stim, _ = b.build()
    _, trace = run_with_outputs(g, [], stim, SimConfig(workers=1))
    g2, _, _ = b.build()
    assert trace == run_good_trace(g2, stim)


def test_eval_deltas_identical_across_worker_counts(monkeypatch):
    # Every node evaluation and register commit ends in the engine's
    # commit_state; the state each one leaves must not depend on P.
    import faultsim.scheduler as scheduler

    b = small_bench(17, size=60, faults=20)
    _, stim, faults = b.build()
    commit = scheduler.commit_state
    captured = {}
    for P in (1, 2, 4, 8):
        g, _, _ = b.build()
        eng = SimulationEngine(g, faults, stim, SimConfig(workers=P))
        node_of = {id(st): nid for nid, st in enumerate(eng.states)}
        commits = captured[P] = {}

        def record(st, good, bads, stamp, commits=commits, node_of=node_of):
            commit(st, good, bads, stamp)
            commits[stamp, node_of[id(st)]] = (st.good, tuple(st.bads))

        monkeypatch.setattr(scheduler, "commit_state", record)
        eng.run()
    assert captured[1], "commit_state was never called"
    assert captured[1] == captured[2] == captured[4] == captured[8]


def test_quiescent_circuit_skips_nearly_everything():
    b = gen_bench("uniform", 150, 9, cycles=16, quiescent=True)
    g, stim, faults = b.build()
    report = run_simulation(g, faults, stim, SimConfig(workers=4))
    ratios = [c.skipped / (c.executed + c.skipped) for c in report.cycles]
    assert all(r > 0.9 for r in ratios[2:])
    # Executed work collapses after the inputs stop moving.
    assert report.cycles[-1].executed < report.cycles[0].executed / 10


def test_skip_ratio_majority_when_one_input_moves():
    # Only one input cone is active per cycle; most evaluations are redundant
    # and the dependence check must skip more than half of them.
    b = gen_bench("uniform", 200, 4, cycles=2, fault_count=60, quiescent=True)
    g, stim, faults = b.build()
    rng = random.Random(0)
    base = list(stim.rows[0])
    rows = [list(base) for _ in range(14)]
    for t in range(1, 14):
        lane = t % len(base)
        width = g.nodes[g.inputs[lane]].width
        rows[t] = list(rows[t - 1])
        rows[t][lane] = rng.randrange(1 << width)
    report = run_simulation(g, faults, rows, SimConfig(workers=4))
    skipped = sum(c.skipped for c in report.cycles[2:])
    total = sum(c.skipped + c.executed for c in report.cycles[2:])
    assert skipped / total > 0.5, skipped / total


# Fault cones by hand: w's 4 fids reach r through its next edge, and x, y
# and v through r; r's 1 fid reaches x, y and v; x's and y's 1 fid each
# reach what reads them.  Counts: w 4, x 6, y 7, v 7 (sum 24).  Read
# through fanin edges alone, x would count 2 and y 3.
CONES = """
module cones
input a 8
input b 8
reg r 8 = 0
assign w 8 = AND a b
assign x 8 = XOR r b
assign y 8 = ADD x a
assign v 8 = NOT y
output o 8 = y
output q 8 = v
next r = w
end
"""


def cone_engine(mode="structural", workers=2, threshold=0.02):
    from faultsim.faults import FaultDescriptor

    sites = [("wire", "w")] * 4 + [("reg", "r"), ("wire", "x"), ("wire", "y")]
    faults = [FaultDescriptor(fid, kind, name, fid % 8, "sa1")
              for fid, (kind, name) in enumerate(sites)]
    return SimulationEngine(build(CONES), faults, [[1, 2]] * 3,
                            SimConfig(workers=workers, mode=mode, threshold=threshold))


def test_flag_overloaded_orders_by_share():
    eng = cone_engine()
    g = eng.graph

    def names(threshold):
        return [g.nodes[nid].name for nid in flag_overloaded(g, eng.nf, threshold)]

    # More than the share, heaviest first, ties by node id (y before v).
    assert names(0.1) == ["y", "v", "x", "w"]
    assert names(0.2) == ["y", "v", "x"]
    assert names(0.25) == ["y", "v"]  # x holds exactly 6/24
    assert names(0.3) == []


def test_flag_overloaded_uniform_threshold_half_is_empty():
    # No node of a uniform bench holds half of the summed cone counts, and
    # without faults no node holds any.
    b = small_bench(5, size=60)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=2, mode="structural"))
    assert flag_overloaded(g, eng.nf, 0.5) == []
    g, _, _ = b.build()
    eng = SimulationEngine(g, [], stim, SimConfig(workers=2, mode="full"))
    assert flag_overloaded(g, eng.nf, 0.02) == []
    assert eng.totals.expanded == () and not eng.tg.boards


def test_expanding_modes_split_the_flagged_nodes_at_setup():
    for mode in ("structural", "structural+fault", "full"):
        eng = cone_engine(mode, workers=3, threshold=0.2)
        flagged = () if mode == "structural" else ("y", "v", "x")
        assert tuple(eng.graph.nodes[n].name for n in eng.totals.expanded) == flagged
        assert sorted(eng.tg.boards) == sorted(eng.totals.expanded), mode
        assert all(len(board.partials) == 3 for board in eng.tg.boards.values())
        totals = next(line for line in emit_stats(eng.run()).splitlines()
                      if line.startswith("totals "))
        assert f" expanded={';'.join(map(str, eng.totals.expanded))} " in totals


def test_heavy_hub_flagged_first_on_skewed_profile():
    b = gen_bench("skewed", 80, 21, cycles=4, fault_count=1)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim,
                           SimConfig(workers=4, mode="structural"))
    flagged = flag_overloaded(g, eng.nf, 0.1)
    assert flagged, "no node exceeded a 10% share"
    top = g.nodes[flagged[0]].name
    assert top.startswith(("f", "cmp", "o_hub")), top


def test_static_picks_on_skewed_3000_42():
    """The hub links and their comparator hold the largest fault cones of
    the bundled skewed bench; at the gates' threshold exactly they are
    expanded, and at P=8 each into a master and eight slaves."""

    b = gen_bench("skewed", 3000, 42, cycles=10)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=8, mode="full"))
    assert [g.nodes[nid].name for nid in eng.totals.expanded] == \
        ["f6", "cmp", "f5", "f4", "f3", "f2", "f1", "f0"]
    assert all(len(board.partials) == 8 for board in eng.tg.boards.values())


def test_expansion_does_not_depend_on_task_costs():
    """Two runs charge replayed costs, all equal in one and random over six
    decades in the other, where a few tasks take most of a cycle: both
    expand the same nodes and keep the same task list, in every cycle."""

    rng = random.Random(3)
    b = gen_bench("skewed", 300, 5, cycles=6)
    _, stim, faults = b.build()
    runs = []
    for table in ("equal", "random"):
        g, _, _ = b.build()
        cfg = SimConfig(workers=4, mode="full")
        eng = SimulationEngine(g, faults, stim, cfg)
        n = len(eng.tg.tasks)
        replay_costs(eng, [
            {cost_key(t): 1000 if table == "equal" else int(10 ** rng.uniform(0, 6))
             for t in eng.tg.tasks}
            for _ in stim.rows
        ])
        report = eng.run()
        # Each cycle runs or skips every body once (each node of a merged
        # task, each master, slave and commit) in one dispatch per task.
        bodies = sum(len(t.nodes) if t.kind == DEFAULT else 1 for t in eng.tg.tasks)
        assert bodies > n
        assert {c.executed + c.skipped for c in report.cycles} == {bodies}, table
        assert report.totals.dispatches == len(report.cycles) * n
        runs.append((report.totals.expanded,
                     [(t.kind, t.node, t.slave_index, t.regs, sorted(t.preds), t.succs)
                      for t in eng.tg.tasks]))
    assert runs[0][0], "nothing expanded"
    assert runs[0] == runs[1]


def test_mode_lattice_reports_identical():
    for seed in (1, 2):
        b = small_bench(seed, profile="skewed", size=120, cycles=6, faults=300)
        _, stim, faults = b.build()
        baseline = None
        for mode in ("serial", "structural", "structural+fault", "full"):
            for P in (1, 4):
                g, _, _ = b.build()
                rep = run_simulation(g, faults, stim,
                                     SimConfig(workers=P, mode=mode, threshold=0.05))
                if baseline is None:
                    baseline = rep.verdicts()
                assert rep.verdicts() == baseline, (mode, P)


def test_always_eval_equivalence(monkeypatch):
    # The dependence and sync checks only skip work: forcing both to say
    # "evaluate" must leave the verdicts unchanged.
    import faultsim.scheduler as scheduler

    b = small_bench(23, profile="pipeline", size=80, cycles=8, faults=40)
    _, stim, faults = b.build()
    for mode in ("full", "serial"):
        g, _, _ = b.build()
        base = run_simulation(g, faults, stim, SimConfig(workers=4, mode=mode))
        with monkeypatch.context() as m:
            m.setattr(scheduler, "check_dependence_changed", lambda *a: True)
            m.setattr(scheduler, "sync_check_needed", lambda *a: True)
            g2, _, _ = b.build()
            forced = run_simulation(g2, faults, stim, SimConfig(workers=4, mode=mode))
        assert base.verdicts() == forced.verdicts(), mode
        assert sum(c.skipped for c in base.cycles) > 0, mode
        assert sum(c.skipped for c in forced.cycles) == 0, mode


def test_drop_on_detect_keeps_verdicts():
    """A drop discards each detected fault from its site and nothing else,
    and leaves the caller's fault list fit for another run.  Faults no
    output can see are filed nowhere."""

    b = small_bench(31, size=70, faults=30)
    for mode in ("structural", "serial"):
        g, stim, faults = b.build()
        keep = run_simulation(g, faults, stim, SimConfig(workers=2, mode=mode))
        g2, _, _ = b.build()
        eng = SimulationEngine(
            g2, faults, stim, SimConfig(workers=2, mode=mode, drop_on_detect=True)
        )
        drop = eng.run()
        table = eng.table
        detected = {r.fid for r in drop.results if r.detected}
        assert detected and len(detected) < len(faults), mode
        # An unobservable fault is never filed, so it has no site to drop
        # from and reads undetected.
        unfiled = {f.fid for f in faults if f.fid not in table.site_of}
        assert len(unfiled) == eng.totals.unobservable, mode
        assert detected.isdisjoint(unfiled), mode
        for fault in faults:
            if fault.fid in unfiled:
                continue
            site = table.node_faults(table.site_of[fault.fid])
            filed = (fault.fid in site.fid_map, fault.fid in site.fids,
                     site.fid_map.get(fault.fid) is fault, fault in site.transients)
            live = fault.fid not in detected
            assert filed == (live, live, live, live and fault.kind == "transient"), \
                (mode, fault.fid)
        assert keep.verdicts() == drop.verdicts(), mode
        # Dropping detected faults removes their bad gates from later cycles;
        # both modes keep task counts deterministic for the comparison.
        assert sum(c.executed for c in drop.cycles) <= \
            sum(c.executed for c in keep.cycles), mode
        g3, _, _ = b.build()
        again = run_simulation(g3, faults, stim, SimConfig(workers=2, mode=mode))
        assert emit_report_csv(again) == emit_report_csv(keep), mode


def test_cost_log_replays_the_schedule():
    """The gates calibrate one run and replay its logged costs: fed back as
    the cost table, a run's log must charge the same busy time in every
    cycle, on the same expanded task graph."""

    b = gen_bench("skewed", 300, 5, cycles=6)
    _, stim, faults = b.build()
    g, _, _ = b.build()
    cfg = SimConfig(workers=8, mode="full", threshold=0.02)
    eng = SimulationEngine(g, faults, stim, cfg)
    log = record_costs(eng)
    live = eng.run()
    assert live.totals.expanded
    assert [sum(costs.values()) for costs in log] == \
        [sum(c.busy_ns) for c in live.cycles]
    g2, _, _ = b.build()
    eng2 = SimulationEngine(g2, faults, stim, SimConfig(
        workers=8, mode="full", threshold=0.02))
    replay_costs(eng2, log)
    replay = eng2.run()

    def shape(report):
        return (report.totals.expanded,
                [(c.executed, c.skipped, c.busy_ns) for c in report.cycles])

    assert shape(replay) == shape(live)


@pytest.mark.parametrize("mode", ["structural", "full"])
def test_replay_charges_listed_tasks_and_keeps_live_costs(mode):
    """Replay is keyed by ``cost_key``: a listed task is charged its table
    cost, an unlisted one and every task of a cycle past the table's end
    its live cost.  A cost log attached after the replay keeps the live
    costs, and a barrier cycle's log covers both of its phases."""

    b = gen_bench("pipeline", 120, 9, cycles=5, fault_count=60)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=4, mode=mode))
    tg = eng.tg
    n = len(tg.tasks)

    def parity(t):  # a node's slaves are listed with its master
        return (tg.node_task[t.node] if t.kind == SLAVE else t.id) % 2

    table = [{cost_key(t): 7 * (cycle + 1) for t in tg.tasks if parity(t) == cycle % 2}
             for cycle in range(3)]
    replay_costs(eng, table)
    live = record_costs(eng)
    report = eng.run()
    assert [len(costs) for costs in live] == [n] * len(stim.rows)
    for cycle, stats in enumerate(report.cycles):
        listed = table[cycle] if cycle < len(table) else {}
        assert sum(stats.busy_ns) == sum(listed.get(tid, cost)
                                         for tid, cost in live[cycle].items())


def test_replay_charges_the_same_work_at_every_worker_count():
    """Slave task ids depend on the worker count, so the gates' replay
    charges slaves by fid range: one P=8 log replayed at P = 1, 2, 4 and 8
    charges the same summed busy time in every cycle, the log's own."""

    b = gen_bench("skewed", 300, 5, cycles=6)
    _, stim, faults = b.build()
    g, _, _ = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=8, mode="full"))
    log = record_costs(eng)
    assert eng.run().totals.expanded
    logged = [sum(costs.values()) for costs in log]
    for workers in (1, 2, 4, 8):
        g, _, _ = b.build()
        eng = SimulationEngine(g, faults, stim, SimConfig(workers=workers, mode="full"))
        replay_costs(eng, log)
        report = eng.run()
        assert [sum(c.busy_ns) for c in report.cycles] == logged, workers


def test_layer_kernels_are_called_from_engine_modules(monkeypatch):
    # The benchmark's per-layer tracing wraps the kernel names that
    # scheduler imports; a call routed through a helper in kernels would
    # bypass those names and silently count nothing, in either executor.
    import faultsim.scheduler as scheduler

    calls = {}

    def count(name):
        fn = getattr(scheduler, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(scheduler, name, wrapper)

    for name in ("eval_good", "eval_bad_gates", "sync_register"):
        count(name)
    b = small_bench(7, profile="pipeline", size=60, cycles=6, faults=20)
    runs = []
    for mode in ("serial", "serial", "full"):
        g, stim, faults = b.build()
        before = dict(calls)
        if mode == "serial":
            run_serial_concurrent(g, faults, stim)
        else:
            run_simulation(g, faults, stim, SimConfig(workers=4, mode=mode))
        runs.append({k: calls[k] - before[k] for k in calls})
    assert all(n > 0 for run in runs for n in run.values()), runs
    assert runs[0] == runs[1]


@pytest.mark.parametrize("drop", [False, True])
def test_bad_gate_totals_identical_across_modes(drop):
    """Every mode evaluates each node once per cycle, and the slaves of an
    expanded node split its fid range exactly, so the run's bad-gate
    counts do not depend on the mode or on which nodes were expanded."""

    b = gen_bench("skewed", 300, 5, cycles=6)
    _, stim, faults = b.build()
    totals = {}
    for mode in ("serial", "structural", "structural+fault", "full"):
        g, _, _ = b.build()
        report = run_simulation(g, faults, stim, SimConfig(
            workers=4, mode=mode, drop_on_detect=drop))
        if mode in ("structural+fault", "full"):
            assert report.totals.expanded, mode
        t = report.totals
        totals[mode] = (t.bad_gates_evaluated, t.bad_gates_kept)
    evaluated, kept = totals["serial"]
    assert evaluated > kept > 0
    assert set(totals.values()) == {(evaluated, kept)}, totals


def test_liveness_random_graphs_with_random_expansions():
    rng = random.Random(77)
    for trial in range(12):
        profile = ("uniform", "pipeline", "skewed")[trial % 3]
        b = gen_bench(profile, rng.randint(20, 60), rng.randint(0, 9999),
                      cycles=rng.randint(2, 8), fault_count=rng.randint(1, 16))
        g, stim, faults = b.build()
        nodes = [n.id for n in g.nodes if n.kind in TASK_KINDS]
        pre = rng.sample(nodes, min(len(nodes), rng.randint(0, 4)))
        workers = rng.choice((1, 2, 3, 8))
        mode = rng.choice(("structural", "structural+fault", "full"))
        rng.choice((1, 2, 3))  # the retired sync-group draw; keeps later draws
        cfg = SimConfig(workers=workers, mode=mode, threshold=0.05)
        rng.choice((0, 1, 3))  # the retired slave-count draw; keeps later draws
        # The expanding modes split the picked nodes first, one slave per
        # worker; structural mode expands nothing.
        with expanding_first(lambda graph: pre):
            eng = SimulationEngine(g, faults, stim, cfg)
        report = eng.run()
        for c in report.cycles:
            assert sum(b for b in c.busy_ns) <= c.wall_ns * cfg.workers
        # Expansions and worker counts are pure performance
        # transforms: the report must match the scheduler-free baseline.
        g2, _, _ = b.build()
        assert report.verdicts() == run_serial_concurrent(g2, faults, stim).verdicts()


def test_deadlock_detector_reports_stuck_tasks():
    pool = WorkerPool(2)
    tasks = [Task(0, "default", node=0), Task(1, "default", node=1)]
    tasks[0].succs = []
    tasks[1].preds = {99}
    counts = [0, 5]  # task 1 never releases
    result = pool.run_phase(counts, [0], tasks, lambda tid: 10)
    assert result.executed == [0]

    b = small_bench(2)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=2))
    eng.tg.pred_reset[eng.tg.tasks[-1].id] = 99
    with pytest.raises(SimulationError, match="unexecuted"):
        eng.run()


def test_pool_executes_each_task_exactly_once():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 30)
        tasks = [Task(i, "default", node=i) for i in range(n)]
        for i in range(n):
            for j in rng.sample(range(i + 1, n), min(rng.randint(0, 3), n - i - 1)):
                tasks[i].succs.append(j)
                tasks[j].preds.add(i)
        counts = [len(t.preds) for t in tasks]
        ready = [t.id for t in tasks if not t.preds]
        pool = WorkerPool(rng.randint(1, 8))
        seen = []
        result = pool.run_phase(counts, ready, tasks,
                                lambda tid: (seen.append(tid), rng.randint(0, 50))[1])
        assert sorted(result.executed) == list(range(n))
        assert sorted(seen) == list(range(n))
        order = {tid: i for i, tid in enumerate(seen)}
        for t in tasks:
            for s in t.succs:
                assert order[t.id] < order[s]


def reference_run_phase(P, counts, ready, tasks, execute, trace, time_base):
    """The pool's loop as it was written with per-task ``acquire`` and
    ``dispatch`` closures, kept to pin the inlined ``WorkerPool.run_phase``
    to the same schedule."""

    import heapq
    from collections import deque

    queues = [deque() for _ in range(P)]
    injection = deque(ready)
    busy = [0] * P
    idle = set()
    heap = []
    executed = []
    seq = 0

    def acquire(w):
        q = queues[w]
        if q:
            return q.pop()
        for off in range(1, P):
            victim = queues[(w + off) % P]
            if victim:
                return victim.popleft()
        if injection:
            return injection.popleft()
        return None

    def dispatch(w, now):
        nonlocal seq
        tid = acquire(w)
        if tid is None:
            idle.add(w)
            return False
        idle.discard(w)
        cost = execute(tid)
        busy[w] += cost
        heapq.heappush(heap, (now + cost, seq, w, tid, now))
        seq += 1
        executed.append(tid)
        return True

    for w in range(P):
        dispatch(w, time_base)
    makespan = time_base
    while heap:
        fin, _, w, tid, started = heapq.heappop(heap)
        makespan = max(makespan, fin)
        trace.append((tid, w, started, fin))
        for succ in tasks[tid].succs:
            counts[succ] -= 1
            if counts[succ] == 0:
                queues[w].append(succ)
        dispatch(w, fin)
        if idle:
            for wi in sorted(idle):
                if not dispatch(wi, fin):
                    break
    return makespan - time_base, busy, executed


def test_inlined_pool_loop_keeps_the_reference_schedule():
    """Over random DAGs, worker counts 1..8, shuffled entry order, tied and
    zero costs, a nonzero time base and tasks that never release, the pool
    gives the reference loop's makespan, busy times, execution order, trace
    and final countdowns, and calls ``execute`` in the same order."""

    rng = random.Random(2024)
    for case in range(1200):
        n = rng.randint(1, 40)
        tasks = [Task(i, "default", node=i) for i in range(n)]
        for i in range(n):
            for j in rng.sample(range(i + 1, n), min(rng.randint(0, 4), n - i - 1)):
                tasks[i].succs.append(j)
                tasks[j].preds.add(i)
        counts = [len(t.preds) for t in tasks]
        if case % 10 == 0:
            # A predecessor outside the phase: that task and its
            # descendants are never released.
            counts[rng.randrange(n)] += 1
        ready = [t.id for t in tasks if not counts[t.id]]
        rng.shuffle(ready)
        levels = rng.choice(([0], [0, 7], [5], [3, 3, 9], list(range(100))))
        cost = [rng.choice(levels) for _ in range(n)]
        P = rng.randint(1, 8)
        time_base = rng.choice((0, 1, 12345))
        sides = []
        for run in ("pool", "reference"):
            calls, trace, cnt = [], [], list(counts)

            def execute(tid):
                calls.append(tid)
                return cost[tid]

            if run == "pool":
                res = WorkerPool(P).run_phase(cnt, list(ready), tasks, execute,
                                              trace, time_base)
                got = (res.makespan_ns, res.busy_ns, res.executed)
            else:
                got = reference_run_phase(P, cnt, list(ready), tasks, execute,
                                          trace, time_base)
            sides.append((*got, trace, cnt, calls))
        assert sides[0] == sides[1], case


def test_merging_chains_leaves_the_modeled_schedule_unchanged():
    """A merged task charged its nodes' summed costs gives the one task per
    node reference's makespan and per-worker busy times at every worker
    count.  The costs are distinct draws from a wide range, so no two
    events tie."""

    def units(t):
        if t.kind == DEFAULT:
            return [(DEFAULT, nid) for nid in t.nodes]
        return [(t.kind, t.node, t.slave_index, t.regs)]

    def schedules(tasks, cost):
        charge = [sum(cost[u] for u in units(t)) for t in tasks]
        entry = [t.id for t in tasks if not t.preds]
        out = []
        for P in (1, 2, 4, 8):
            phase = WorkerPool(P).run_phase([len(t.preds) for t in tasks], entry,
                                            tasks, charge.__getitem__)
            assert len(phase.executed) == len(tasks)
            out.append((phase.makespan_ns, phase.busy_ns))
        return out

    for seed, profile in enumerate(("skewed", "uniform", "pipeline", "skewed", "uniform")):
        g, _, _ = gen_bench(profile, 300, seed, cycles=2, fault_count=8).build()
        split_register_reads(g)
        rng = random.Random(seed)
        expanded = rng.sample([n.id for n in g.nodes if n.kind in TASK_KINDS], 3)
        k = rng.choice((1, 4))
        per_node = per_node_graph(g, expanded, k)
        keys = [u for t in per_node for u in units(t)]
        cost = dict(zip(keys, rng.sample(range(1, 10**9), len(keys))))
        tg = make_task_graph(g, expanded, k)
        assert tg.pred_reset == [len(t.preds) for t in tg.tasks]
        assert len(tg.tasks) < len(per_node) or profile == "pipeline", profile
        assert schedules(tg.tasks, cost) == schedules(per_node, cost), (seed, profile)


def test_names_the_perfbench_tracer_wraps():
    """A traced perfbench run (``perfbench/run.py --trace 1``) replaces
    ``vars(owner)[attr]`` for these names and calls ``run_phase`` with
    these parameters; renaming any of them breaks the traced run."""

    empty = inspect.Parameter.empty
    params = inspect.signature(vars(WorkerPool)["run_phase"]).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("self", empty), ("counts", empty), ("ready", empty), ("tasks", empty),
        ("execute", empty), ("trace", None), ("time_base", 0),
    ]
    assert inspect.isfunction(vars(LoadMonitor)["record"])
    assert inspect.isfunction(vars(scheduler)["flag_overloaded"])
    # taskgraph.build_s, taskgraph.reset_s and the setup spans read the
    # taskgraph functions the engine calls through these names.
    for name in ("make_task_graph", "reset_for_cycle"):
        assert vars(scheduler)[name] is vars(taskgraph)[name], name
        assert inspect.isfunction(vars(taskgraph)[name]), name


def test_names_perfbench_reads_from_an_untraced_run():
    """An untraced perfbench run (``perfbench/run.py --trace 0``) builds the
    engine and reads its results through these names, called as the
    benchmark calls them.  perfbench is edited only by a change to the
    benchmark itself, so a change to the package alone must keep every one
    of them: ``totals.wall_ns``, for one, holds a modeled time, but it can
    be renamed only together with perfbench's reads of it."""

    b = small_bench(7, profile="skewed", size=60, cycles=4, faults=20)
    graph, stim, faults = b.build()
    engine = SimulationEngine(graph, faults, stim,
                              SimConfig(workers=4, mode="full", threshold=0.02))
    assert engine.tg.tasks and engine.table.site_of
    report = engine.run()
    totals = report.totals
    assert totals.wall_ns > 0 and sum(totals.busy_ns) > 0
    assert totals.dispatch_overhead_ns >= 0
    assert totals.executed + totals.skipped > 0
    rows = {r.fid: r for r in report.results}
    serial = run_serial_concurrent(b.build()[0], faults, stim)
    assert serial.totals.executed + serial.totals.skipped > 0
    for fault in faults[:3]:
        single = run_single_fault(b.build()[0], fault, stim)
        row = rows[fault.fid]
        assert (single.detected, single.detect_cycle, single.observing_output) == \
            (row.detected, row.detect_cycle, row.observing_output)


@pytest.mark.parametrize("mode", ["structural", "full"])
def test_task_graph_is_final_at_setup(mode):
    """Setup builds the graph the run drains: each cycle dispatches every
    task of ``engine.tg`` as read right after construction, and the run
    neither replaces nor changes it."""

    def shape(tg):
        tasks = [(t.id, t.kind, t.node, t.nodes, t.slave_index, t.regs,
                  sorted(t.preds), list(t.succs)) for t in tg.tasks]
        return (tasks, dict(tg.node_task), list(tg.sync_tasks), list(tg.entry_tasks),
                list(tg.pred_reset), list(tg.boards))

    g, stim, faults = gen_bench("skewed", 300, 3, cycles=4, fault_count=40).build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=4, mode=mode, threshold=0.02))
    tg = eng.tg
    built = shape(tg)
    assert any(len(t.nodes) > 1 for t in tg.tasks)  # chains are merged already
    assert bool(tg.boards) == (mode == "full")
    report = eng.run()
    assert eng.tg is tg and shape(tg) == built
    assert report.totals.dispatches == len(stim.rows) * len(built[0])


@pytest.mark.parametrize("mode", ["serial", "structural", "full"])
def test_run_pauses_cyclic_gc_and_leaves_no_cycles(mode, monkeypatch):
    """The collector is off inside a run and back in its earlier state
    after it, also when the run fails; and a run leaves no cyclic garbage,
    which is why pausing the collector costs no memory."""

    import gc

    import faultsim.scheduler as scheduler

    b = small_bench(5, size=60, faults=20)
    commit = scheduler.commit_state
    seen = []

    def checking(*args):
        seen.append(gc.isenabled())
        return commit(*args)

    monkeypatch.setattr(scheduler, "commit_state", checking)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            g, stim, faults = b.build()
            cfg = SimConfig(workers=4, mode=mode, threshold=0.05,
                            drop_on_detect=True, steady_state_check=True)
            eng = SimulationEngine(g, faults, stim, cfg)
            gc.collect()
            eng.run()
            assert gc.isenabled() == enabled
            assert gc.collect() == 0
        assert seen and not any(seen)

        def fail(*args):
            raise SimulationError("stop")

        monkeypatch.setattr(scheduler, "commit_state", fail)
        gc.enable()
        g, stim, faults = b.build()
        with pytest.raises(SimulationError):
            SimulationEngine(g, faults, stim, SimConfig(workers=2, mode=mode)).run()
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_master_cuts_at_injected_fids_when_only_injection_diverges():
    """At cycle 0 nothing diverges anywhere yet, so every difference at n
    comes from the faults injected there; the master cuts the injected
    fids into equal shares instead of handing them all to the last slave."""

    from faultsim.faults import FaultDescriptor

    text = """
module inj
input a 8
input b 8
assign n 8 = AND a b
output o 8 = n
end
"""
    rows = [[0xF0, 0xFF]]
    # Fids are non-negative integers of any size; 30-digit ones cut alike.
    for base in (0, 10 ** 30):
        faults = [FaultDescriptor(base + 2 * bit + k, "wire", "n", bit, kind)
                  for bit in range(8) for k, kind in enumerate(("sa0", "sa1"))]
        g = build(text)
        eng = SimulationEngine(g, faults, rows, SimConfig(workers=4, mode="full"))
        nid = g.name_to_id["n"]
        # n is the only evaluated node, so its cone holds every fault and
        # the engine splits it into a master and one slave per worker.
        assert eng.totals.expanded == (nid,)
        report = eng.run()
        board = eng.tg.boards[nid]
        assert board.bounds == [0, base + 4, base + 8, base + 12, None]
        # n is 0xF0: sa1 diverges on bits 0-3, sa0 on bits 4-7, two per slave.
        assert [len(part) for part in board.partials] == [2, 2, 2, 2]
        serial = run_serial_concurrent(build(text), faults, rows).verdicts()
        assert report.verdicts() == serial
        assert sum(v[1] for v in serial) == 8


def test_idle_worker_steals_released_successor_before_entry_task():
    """Task a releases s1 and s2 onto worker 0's deque; worker 0 pops s2
    (LIFO).  Worker 1, finishing b while s1 and the entry tasks x1, x2 all
    wait, steals s1 (FIFO) before it takes an entry task."""

    a, b, x1, x2, s1, s2 = range(6)
    tasks = [Task(i, "default", node=i) for i in range(6)]
    tasks[a].succs = [s1, s2]
    counts = [0, 0, 0, 0, 1, 1]
    cost = {a: 1, b: 2, x1: 3, x2: 3, s1: 4, s2: 5}
    trace = []
    WorkerPool(2).run_phase(counts, [a, b, x1, x2], tasks, cost.__getitem__, trace)
    started = {tid: (worker, start) for tid, worker, start, _ in trace}
    assert started[s2] == (0, 1)
    assert started[s1] == (1, 2)
    assert started[x1] == (0, 6) and started[x2] == (1, 6)


def test_good_before_bad_and_sync_safety_on_traces():
    b = gen_bench("skewed", 200, 8, cycles=5)
    g, stim, faults = b.build()
    cfg = SimConfig(workers=4, mode="full", threshold=0.02)
    eng = SimulationEngine(g, faults, stim, cfg)
    traces = record_traces(eng)
    eng.run()
    assert eng.tg.boards, "expansion never triggered"
    checked_ms, checked_sync = check_schedule_invariants(eng, traces)
    assert checked_ms > 0 and checked_sync > 0


@pytest.mark.parametrize("mode", ["structural", "structural+fault"])
def test_barrier_modes_commit_every_register_in_a_second_phase(mode):
    # The engine holds sync tasks back from the compute drain: each cycle's
    # first phase runs no sync task, and its second phase runs exactly the
    # sync tasks.
    from faultsim.faults import FaultDescriptor

    faults = [FaultDescriptor(0, "reg", "r", 0, "sa1"),
              FaultDescriptor(1, "wire", "d", 0, "sa0")]
    rows = [[0], [1], [1], [0], [1]]
    eng = SimulationEngine(build(SYNCED), faults, rows, SimConfig(workers=2, mode=mode))
    traces = record_traces(eng)
    eng.run()
    assert len(traces) == 2 * len(rows)
    sync = eng.tg.sync_tasks
    for compute, commit in zip(traces[::2], traces[1::2]):
        assert sync and set(sync).isdisjoint(tid for tid, *_ in compute)
        assert sorted(tid for tid, *_ in commit) == sync


def test_steady_state_check_passes_on_normal_runs():
    # With drop_on_detect the re-sweep must run before the drop: it reads
    # registers from a cycle-start snapshot, which the drop does not touch.
    for profile in ("uniform", "pipeline", "skewed"):
        b = small_bench(6, profile=profile, size=50, cycles=6, faults=20)
        for mode in ("serial", "structural", "full"):
            for drop in (False, True):
                g, stim, faults = b.build()
                run_simulation(g, faults, stim, SimConfig(
                    workers=3, mode=mode, drop_on_detect=drop,
                    steady_state_check=True))


def test_serial_mode_runs_the_steady_state_check(monkeypatch):
    # Serial mode runs the re-sweep too, and builds no task graph or pool.
    import faultsim.scheduler as scheduler

    def refuse(*args, **kwargs):
        raise AssertionError("serial mode built a task graph")

    sweeps = []
    monkeypatch.setattr(scheduler, "make_task_graph", refuse)
    monkeypatch.setattr(SimulationEngine, "_assert_steady",
                        lambda self, cycle: sweeps.append(cycle))
    b = small_bench(6, size=50, cycles=6, faults=20)
    g, stim, faults = b.build()
    report = run_simulation(g, faults, stim,
                            SimConfig(mode="serial", steady_state_check=True))
    assert sweeps == list(range(6))
    assert report.totals.dispatches == 0
    assert all(c.busy_ns == (c.wall_ns,) for c in report.cycles)


def test_config_validation():
    with pytest.raises(ValueError, match="worker count"):
        SimConfig(workers=0).validate()
    SimConfig(workers=MAX_WORKERS).validate()
    with pytest.raises(ValueError, match="worker count"):
        SimConfig(workers=MAX_WORKERS + 1).validate()
    with pytest.raises(ValueError, match="mode"):
        SimConfig(mode="turbo").validate()
    with pytest.raises(ValueError, match="threshold"):
        SimConfig(threshold=1.5).validate()


def test_stimulus_width_mismatch_raises():
    g = build("module m\ninput a 2\nassign y 2 = NOT a\nend")
    from faultsim.stimulus import StimulusError

    with pytest.raises(StimulusError, match="expected 1 values"):
        run_simulation(g, [], [[1, 2]], SimConfig())


def test_register_swap_simulates_correctly():
    """Register-to-register next values (a swap, a 3-register ring, a
    register holding itself) give the oracle's outputs and verdicts in
    every mode, where each commit reads its source through a copy node."""

    from faultsim.faults import FaultDescriptor
    from faultsim.oracles import run_good_trace, run_single_fault

    swap = """
module m
input x 1
reg r1 4 = 3
reg r2 4 = c
output o1 4 = r1
output o2 4 = r2
next r1 = r2
next r2 = r1
end
"""
    ring = """
module m
input x 1
reg a 4 = 1
reg b 4 = 2
reg c 4 = 4
reg h 4 = 9
assign ab 8 = CONCAT a b
output o 8 = ab
output p 4 = c
output q 4 = h
next a = b
next b = c
next c = a
next h = h
end
"""
    cases = [
        (swap, [(3, 0xC), (0xC, 3)], ["r1", "r2"]),
        (ring, [(0x12, 4, 9), (0x24, 1, 9), (0x41, 2, 9)], ["a", "b", "c", "h"]),
    ]
    rows = [[0]] * 5
    for text, expected, regs in cases:
        faults = [FaultDescriptor(2 * i + k, "reg", r, k, kind)
                  for i, r in enumerate(regs)
                  for k, kind in enumerate(("sa1", "sa0"))]
        truth = []
        for fault in faults:
            oracle = run_single_fault(build(text), fault, rows)
            truth.append((fault.fid, oracle.detected, oracle.detect_cycle,
                          oracle.observing_output))
        good = run_good_trace(build(text), rows)
        assert good[:len(expected)] == expected
        for mode in ("serial", "structural", "structural+fault", "full"):
            rep, trace = run_with_outputs(build(text), faults, rows, SimConfig(
                workers=3, mode=mode, threshold=0.02, steady_state_check=True))
            assert trace == good, (mode, text)
            assert rep.verdicts() == truth, (mode, text)
