import random

import pytest

from faultsim.config import MAX_WORKERS, SimConfig
from faultsim.genbench import gen_bench
from faultsim.kernels import SimulationError
from faultsim.oracles import run_good_trace, run_serial_concurrent
from faultsim.report import emit_report_csv
from faultsim.scheduler import (
    LoadMonitor, SimulationEngine, WorkerPool, flag_overloaded, run_simulation,
)
from faultsim.taskgraph import Task, build_task_graph, expand_high_load

from conftest import SYNCED, build, check_schedule_invariants, record_traces


def small_bench(seed, profile="uniform", size=40, cycles=8, faults=12):
    return gen_bench(profile, size, seed, cycles=cycles, fault_count=faults)


def test_no_faults_single_worker_matches_plain_interpreter():
    b = small_bench(3)
    g, stim, _ = b.build()
    report = run_simulation(g, [], stim, SimConfig(workers=1, record_outputs=True))
    g2, _, _ = b.build()
    assert report.output_trace == run_good_trace(g2, stim)


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


def test_flag_overloaded_uniform_threshold_half_is_empty():
    # Every task is charged the same replayed cost, so the load is uniform
    # whatever the host's timing does.
    b = small_bench(5, size=60)
    g, stim, faults = b.build()
    cfg = SimConfig(workers=2, mode="structural")
    eng = SimulationEngine(g, faults, stim, cfg)
    cfg.cost_table = [dict.fromkeys(range(len(eng.tg.tasks)), 1000)] * len(stim.rows)
    eng.run()
    assert set(eng.monitor.task_ns.values()) == {1000}
    assert flag_overloaded(eng.monitor, eng.tg, 0.5) == []


def test_flag_overloaded_orders_by_share():
    from faultsim.taskgraph import Task, TaskGraph

    tasks = [Task(0, "default", node=10), Task(1, "default", node=11),
             Task(2, "default", node=12)]
    tg = TaskGraph(tasks, {10: 0, 11: 1, 12: 2}, [])
    mon = LoadMonitor()
    mon.record(0, 100)
    mon.record(1, 700)
    mon.record(2, 200)
    assert flag_overloaded(mon, tg, 0.15) == [11, 12]
    tasks[1].kind = "master"  # expanded nodes are no longer candidates
    assert flag_overloaded(mon, tg, 0.15) == [12]


def test_heavy_hub_flagged_first_on_skewed_profile():
    b = gen_bench("skewed", 80, 21, cycles=4, fault_count=1)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim,
                           SimConfig(workers=4, mode="structural"))
    eng.run()
    flagged = flag_overloaded(eng.monitor, eng.tg, 0.1)
    assert flagged, "no node exceeded a 10% share"
    top = g.nodes[flagged[0]].name
    assert top.startswith(("f", "cmp", "o_hub")), top


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
                     fault in site.entries, fault in site.transients)
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
    the cost table, a run's log must give the same expansions and charge
    the same busy time in every cycle."""

    b = gen_bench("skewed", 300, 5, cycles=6)
    _, stim, faults = b.build()
    g, _, _ = b.build()
    cfg = SimConfig(workers=8, mode="full", threshold=0.02, record_costs=True)
    eng = SimulationEngine(g, faults, stim, cfg)
    live = eng.run()
    assert any(c.expansions for c in live.cycles)
    assert [sum(log.values()) for log in eng.cost_log] == \
        [sum(c.busy_ns) for c in live.cycles]
    g2, _, _ = b.build()
    replay = run_simulation(g2, faults, stim, SimConfig(
        workers=8, mode="full", threshold=0.02, cost_table=eng.cost_log))

    def shape(report):
        return [(c.executed, c.skipped, c.expansions, c.busy_ns) for c in report.cycles]

    assert shape(replay) == shape(live)


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
            assert any(c.expansions for c in report.cycles), mode
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
        probe = build_task_graph(g)
        nodes = list(probe.node_task.keys())
        pre = rng.sample(nodes, min(len(nodes), rng.randint(0, 4)))
        workers = rng.choice((1, 2, 3, 8))
        mode = rng.choice(("structural", "structural+fault", "full"))
        rng.choice((1, 2, 3))  # the retired sync-group draw; keeps later draws
        cfg = SimConfig(workers=workers, mode=mode, threshold=0.05)
        # Pre-expanded nodes get k slaves, 0 meaning one per worker as at
        # the engine's own cycle-boundary expansions.
        k = rng.choice((0, 1, 3)) or workers
        eng = SimulationEngine(g, faults, stim, cfg)
        for nid in pre:
            expand_high_load(eng.tg, nid, k)
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
        expand_high_load(eng.tg, nid, 4)
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
            rep = run_simulation(build(text), faults, rows, SimConfig(
                workers=3, mode=mode, threshold=0.02, record_outputs=True,
                steady_state_check=True))
            assert rep.output_trace == good, (mode, text)
            assert rep.verdicts() == truth, (mode, text)
