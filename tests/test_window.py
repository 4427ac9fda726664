"""The cycle window of mode ``full`` (``taskgraph.make_window``): one pool
phase drains every cycle, and a task of cycle c + 1 starts as soon as the
cross-cycle edges allow.  Hand-written netlists put each hazard those
edges guard in reach of an adversarial schedule: a comb read, a register
read and write, an input read across the stimulus, an output strobe, and
an expanded master and its slaves.  Replayed cost tables make readers the
slowest tasks, then writers, so that the next cycle's tasks run as early
as the edges let them; verdicts, detect cycles and the per-cycle output
trace must equal ``serial``, and every state must be read and written in
order across cycles."""

import random

import pytest

from faultsim.config import SimConfig
from faultsim.faults import FaultDescriptor
from faultsim.genbench import gen_bench
from faultsim.oracles import run_serial_concurrent
from faultsim.report import emit_report_csv, emit_stats
from faultsim.rtl import elaborate_text
from faultsim.scheduler import SimulationEngine, run_simulation
from faultsim.taskgraph import GATE, STIMULUS, STROBE, make_window, window_countdowns

from conftest import (
    WINDOW_KINDS, check_data_hazards, cost_key, cycle_traces, expanding_first,
    output_faults, preds_of, rand_rows, record_outputs, record_traces,
    replay_costs, run_with_outputs,
)

# Every hazard in one netlist: ``a`` and ``b`` are read by several tasks
# and one output, ``r`` is read by ``d`` and written from ``e``, which
# reads ``d``; ``h`` is a hub the tests expand; ``q`` holds ``h`` a cycle.
HAZARDS = """
module hazards
input a 8
input b 8
reg r 8 = 3
reg q 8 = 0
assign d 8 = ADD r a
assign e 8 = XOR d b
assign h 8 = AND e d
assign k 8 = OR h q
assign m 8 = SUB k a
output o 8 = m
output ob 8 = b
output oh 8 = h
next r = e
next q = h
end
"""

# A register read only through its copy, an input feeding a register
# directly, and a constant driving an output.
SOURCES = """
module sources
input a 4
input b 4
reg r 4 = 1
reg s 4 = 2
assign x 4 = ADD r b
output ox 4 = x
output oc 4 = #5:4
output os 4 = s
next r = s
next s = a
end
"""


def faults_for(graph):
    """Both stuck-at kinds on every bit of every output and of every
    register, then a transient on the first comb node."""

    faults = output_faults(graph, 0)
    for rid in graph.regs:
        reg = graph.nodes[rid]
        for bit in range(reg.width):
            for kind in ("sa0", "sa1"):
                faults.append(FaultDescriptor(len(faults), "reg", reg.name, bit, kind))
    comb = next(n for n in graph.nodes if n.kind == "comb")
    faults.append(FaultDescriptor(len(faults), "wire", comb.name, 0, "transient", 1, 3))
    return faults


def depth_of(tasks):
    """Each task's longest same-cycle path from a task with no predecessor."""

    depth = {}
    preds = preds_of(tasks)

    def walk(tid):
        if tid not in depth:
            depth[tid] = 1 + max((walk(p) for p in preds[tid]), default=-1)
        return depth[tid]

    for task in tasks:
        walk(task.id)
    return depth


def adversarial_table(eng, cycles, readers_slow):
    """Per (cycle, cost key): deep tasks (the readers) cost four times more
    per level than shallow ones (the writers), or the other way round.
    The strobe reads, the stimulus writes; the gate stays free."""

    tasks = eng.tg.tasks
    depth = depth_of(tasks)
    top = max(depth.values(), default=0) + 1
    table = {}
    for cycle in range(cycles):
        for task in tasks:
            level = depth[task.id] if readers_slow else top - depth[task.id]
            table[cycle, cost_key(task)] = 1000 * 4 ** level
        table[cycle, STIMULUS] = 1000 * 4 ** (0 if readers_slow else top)
        table[cycle, STROBE] = 1000 * 4 ** (top if readers_slow else 0)
        table[cycle, GATE] = 0
    return table


def window_run(text, faults, rows, workers, readers_slow, drop, expand=()):
    graph = elaborate_text(text)
    with expanding_first(lambda g: [g.name_to_id[name] for name in expand]):
        eng = SimulationEngine(graph, faults, rows, SimConfig(
            workers=workers, mode="full", threshold=0.02, drop_on_detect=drop))
    replay_costs(eng, adversarial_table(eng, len(rows), readers_slow))
    outputs = record_outputs(eng)
    traces = record_traces(eng)
    report = eng.run()
    return eng, report, outputs, traces


@pytest.mark.parametrize("text, expand", [
    (HAZARDS, ()), (HAZARDS, ("h",)), (HAZARDS, ("d", "h")), (SOURCES, ()),
])
@pytest.mark.parametrize("readers_slow", [True, False])
@pytest.mark.parametrize("drop", [False, True])
def test_adversarial_costs_keep_serial_results(text, expand, readers_slow, drop):
    rows = rand_rows(random.Random(7), elaborate_text(text), 9)
    graph = elaborate_text(text)
    faults = faults_for(graph)
    want, want_outputs = run_with_outputs(
        elaborate_text(text), faults, rows, SimConfig(mode="serial", drop_on_detect=drop))
    assert any(v[1] for v in want.verdicts()), "nothing detected"
    for workers in (2, 3, 8):
        eng, report, outputs, traces = window_run(
            text, faults, rows, workers, readers_slow, drop, expand)
        assert tuple(eng.graph.nodes[n].name for n in eng.totals.expanded[:len(expand)]) \
            == expand
        assert report.verdicts() == want.verdicts(), workers
        assert outputs == want_outputs, workers
        assert emit_report_csv(report) == emit_report_csv(want), workers
        # A drop changes every state, so no bad gate of a cycle may run
        # before the strobe before it, or after its own.
        assert (report.totals.bad_gates_evaluated, report.totals.bad_gates_kept) == \
            (want.totals.bad_gates_evaluated, want.totals.bad_gates_kept), workers
        assert check_data_hazards(eng, traces) > 0


def test_adversarial_costs_overlap_cycles():
    """The tables do what they are for: with readers slowest, some task of
    a cycle starts before the cycle before it is done."""

    rows = rand_rows(random.Random(7), elaborate_text(HAZARDS), 9)
    faults = faults_for(elaborate_text(HAZARDS))
    eng, _, _, traces = window_run(HAZARDS, faults, rows, 3, True, False)
    per_cycle = cycle_traces(eng, traces)
    ends = [max(fin for *_, fin in trace) for trace in per_cycle]
    starts = [min(start for _, _, start, _ in trace) for trace in per_cycle]
    assert any(start < end for start, end in zip(starts[1:], ends))


@pytest.mark.parametrize("drop", [False, True])
def test_steady_check_passes_under_adversarial_costs(drop):
    """The re-sweep reads every state of its cycle and the drop writes
    every state, so a cycle runs in serial's order: the strobe waits for
    every task of its cycle but the commits, every commit of the cycle
    waits for the strobe, and the next cycle for the strobe."""

    rows = rand_rows(random.Random(3), elaborate_text(HAZARDS), 8)
    faults = faults_for(elaborate_text(HAZARDS))
    for costs in ("readers", "writers", "commits"):
        graph = elaborate_text(HAZARDS)
        with expanding_first(lambda g: [g.name_to_id["h"]]):
            eng = SimulationEngine(graph, faults, rows, SimConfig(
                workers=3, mode="full", drop_on_detect=drop, steady_state_check=True))
        table = adversarial_table(eng, len(rows), costs != "writers")
        if costs == "commits":
            # The commits, which feed no output, finish after everything else.
            table = {(cycle, key): cost * (10**9 if key in eng.tg.sync_tasks else 1)
                     for (cycle, key), cost in table.items()}
        replay_costs(eng, table)
        traces = record_traces(eng)
        eng.run()
        per_cycle = cycle_traces(eng, traces)
        strobe = len(eng.tg.tasks) + 1
        commits = set(eng.tg.sync_tasks)
        for cycle, trace in enumerate(per_cycle):
            times = {tid: (start, fin) for tid, _, start, fin in trace}
            assert times[strobe][0] >= max(fin for tid, (_, fin) in times.items()
                                           if tid < strobe and tid not in commits)
            assert min(times[tid][0] for tid in commits) >= times[strobe][1]
            if cycle + 1 < len(per_cycle):
                assert min(start for _, _, start, _ in per_cycle[cycle + 1]) >= times[strobe][1]


def test_random_benches_match_serial_under_random_costs():
    """Random small benches of every profile, random worker counts and
    cost tables spanning six decades: ``full`` gives ``serial``'s report
    and output trace, and keeps every state's reads and writes in order."""

    rng = random.Random(11)
    for trial in range(18):
        profile = ("uniform", "pipeline", "skewed")[trial % 3]
        bench = gen_bench(profile, rng.randint(20, 70), rng.randint(0, 9999),
                          cycles=rng.randint(2, 9), fault_count=rng.randint(4, 30))
        graph, stim, faults = bench.build()
        drop = trial % 2 == 1
        want, want_outputs = run_with_outputs(
            graph, faults, stim, SimConfig(mode="serial", drop_on_detect=drop))
        graph, _, _ = bench.build()
        nodes = [n.id for n in graph.nodes if n.kind in ("comb", "virtual")]
        picks = rng.sample(nodes, min(2, len(nodes)))
        with expanding_first(lambda g: picks):
            eng = SimulationEngine(graph, faults, stim, SimConfig(
                workers=rng.choice((2, 3, 5, 8)), mode="full", drop_on_detect=drop))
        keys = [cost_key(t) for t in eng.tg.tasks] + list(WINDOW_KINDS)
        replay_costs(eng, {(c, k): int(10 ** rng.uniform(0, 6))
                           for c in range(len(stim.rows)) for k in keys})
        outputs = record_outputs(eng)
        traces = record_traces(eng)
        report = eng.run()
        assert report.verdicts() == want.verdicts(), trial
        assert outputs == want_outputs, trial
        check_data_hazards(eng, traces)
        totals = report.totals
        assert sum(c.wall_ns for c in report.cycles) == totals.wall_ns, trial
        assert totals.wall_ns == max(fin for *_, fin in traces[0]), trial
        assert sum(totals.busy_ns) / len(totals.busy_ns) <= totals.bound_ns <= totals.wall_ns


def test_cycle_stats_split_the_run_at_each_cycles_last_finish():
    """A cycle's wall time runs from the previous cycle's last finish to
    its own last finish, and its busy time is each worker's busy time in
    that stretch; the cycles' times add up to the run's."""

    b = gen_bench("pipeline", 120, 9, cycles=6, fault_count=60)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=4, mode="full"))
    traces = record_traces(eng)
    report = eng.run()
    per_cycle = cycle_traces(eng, traces)
    ends = [max(fin for *_, fin in trace) for trace in per_cycle]
    assert [c.wall_ns for c in report.cycles] == [b - a for a, b in zip([0] + ends, ends)]
    assert sum(c.wall_ns for c in report.cycles) == report.totals.wall_ns == ends[-1]
    (trace,) = traces
    for cycle, stats in enumerate(report.cycles):
        lo, hi = ([0] + ends)[cycle], ends[cycle]
        busy = [0] * 4
        for _, w, start, fin in trace:
            busy[w] += max(0, min(fin, hi) - max(start, lo))
        assert list(stats.busy_ns) == busy, cycle
    assert tuple(map(sum, zip(*(c.busy_ns for c in report.cycles)))) == report.totals.busy_ns


def test_window_gate_holds_each_cycle_behind_the_one_two_back():
    rng = random.Random(5)
    b = gen_bench("uniform", 80, 4, cycles=8, fault_count=20)
    g, stim, faults = b.build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=8, mode="full"))
    replay_costs(eng, {(c, cost_key(t)): rng.randrange(1, 10**6)
                       for c in range(8) for t in eng.tg.tasks})
    traces = record_traces(eng)
    eng.run()
    per_cycle = cycle_traces(eng, traces)
    assert len(per_cycle) == 8
    assert all(len(trace) == len(eng.tg.tasks) + 3 for trace in per_cycle)
    for cycle in range(2, 8):
        assert min(start for _, _, start, _ in per_cycle[cycle]) >= \
            max(fin for *_, fin in per_cycle[cycle - 2])


# The fixed benches, 10 cycles each: (profile, size, seed, fault count).
FIXED_BENCHES = [("skewed", 3000, 42, None), ("pipeline", 1500, 42, 15000),
                 ("uniform", 600, 11, None)]


@pytest.mark.parametrize("hold", [False, True])
@pytest.mark.parametrize("bench", FIXED_BENCHES, ids=lambda k: f"{k[0]}_{k[1]}_{k[2]}")
def test_window_ids_map_to_their_slot_and_task(bench, hold):
    profile, scale, seed, fault_count = bench
    g, stim, faults = gen_bench(profile, scale, seed, cycles=10,
                                fault_count=fault_count).build()
    eng = SimulationEngine(g, faults, stim, SimConfig(workers=8, mode="full"))
    window = make_window(eng.graph, eng.tg, hold_strobe=hold)
    n = len(eng.tg.tasks)
    size, gate = n + 3, n + 2
    assert len(window) == 2 * size
    assert [t.kind for t in window[n:size]] == [STIMULUS, STROBE, GATE]
    for iid, task in enumerate(window):
        assert task.task is window[iid % size].task
        for succ in task.succs:
            assert iid in window[succ].preds
    # Slot 1 is slot 0 moved one slot, which the countdowns rely on.
    for tid in range(size):
        assert window[size + tid].succs == \
            tuple((succ + size) % (2 * size) for succ in window[tid].succs)
    # Each id waits for its preds: cycle 0 for those of its own slot but
    # the gate (cycle -1's releases and the gate two back are left out),
    # cycle 1 for all but its own slot's gate (the gate two back), and
    # every later cycle for all of them, in either slot.
    first, second, later = window_countdowns(window)
    for tid in range(size):
        preds, moved = window[tid].preds, window[size + tid].preds
        assert first[tid] == sum(p < gate for p in preds)
        assert second[tid] == sum(p != size + gate for p in moved)
        assert later[tid] == len(preds) == len(moved)


def test_one_cycle_and_no_cycle_runs():
    for rows in ([], [[1, 2]]):
        graph = elaborate_text(HAZARDS)
        faults = faults_for(graph)
        report = run_simulation(graph, faults, rows, SimConfig(workers=3, mode="full"))
        want = run_serial_concurrent(elaborate_text(HAZARDS), faults, rows)
        assert report.verdicts() == want.verdicts()
        assert len(report.cycles) == len(rows)
        assert "bound_ratio=" in emit_stats(report)
