"""Acceptance suite: every release gate in one module, one test per
criterion, each printing a PASS/FAIL line.

The exact gates (oracle equivalence, determinism, pruning, schedule
invariants) admit no tolerance.  The performance gates compare schedule
wall times of the same workload under different disciplines and worker
counts.  Cross-mode cells with different task sets are measured live as
the minimum of three interleaved runs, which cancels host-speed drift;
same-task-set comparisons are measured by calibrating per-task costs once
(kernels run live) and replaying that cost table under each discipline,
so the compared schedules charge identical costs and the ratio reflects
schedule structure alone.
"""

import gc
import random

import pytest

from faultsim.ablation import ablation_run
from faultsim.config import SimConfig
from faultsim.genbench import gen_bench
from faultsim.oracles import run_serial_concurrent, run_single_fault
from faultsim.report import emit_report_csv
from faultsim.scheduler import SimulationEngine, run_simulation
from faultsim.rtl import TASK_KINDS

from conftest import (
    check_schedule_invariants, expanding_first, record_costs, record_traces,
    replay_costs,
)

WORKER_GRID = (1, 2, 4, 8)
PARALLEL_MODES = ("structural", "structural+fault", "full")


def _criterion(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _verdicts_of_single_fault_runs(bench, faults, stim):
    graph, _, _ = bench.build()
    out = []
    for fault in faults:
        r = run_single_fault(graph, fault, stim)
        out.append((fault.fid, r.detected, r.detect_cycle, r.observing_output))
    return out


def _min_wall(bench, faults, stim, cells, trials=3, threshold=0.02):
    """Minimum schedule wall time per (mode, workers) cell over interleaved
    trials; verdicts must agree across every run."""

    best: dict = {}
    baseline = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            for mode, workers in cells:
                graph, _, _ = bench.build()
                cfg = SimConfig(workers=workers, mode=mode, threshold=threshold)
                report = run_simulation(graph, faults, stim, cfg)
                if baseline is None:
                    baseline = report.verdicts()
                assert report.verdicts() == baseline, (mode, workers)
                key = (mode, workers)
                wall = report.totals.wall_ns
                if key not in best or wall < best[key]:
                    best[key] = wall
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


# ---------------------------------------------------------------------------


def test_oracle_equivalence_exact():
    """Every parallel configuration reproduces the one-fault-at-a-time
    resimulation verdicts exactly, fault for fault, on fuzzed circuits of
    all three profiles."""

    rng = random.Random(2026)
    circuits = 0
    runs = 0
    for trial in range(200):
        profile = ("uniform", "skewed", "pipeline")[trial % 3]
        size = rng.randint(12, 200) if rng.random() < 0.15 else rng.randint(12, 90)
        cycles = rng.randint(25, 50) if rng.random() < 0.08 else rng.randint(3, 16)
        fault_count = rng.randint(32, 64) if rng.random() < 0.15 else rng.randint(1, 24)
        bench = gen_bench(profile, max(10, size), rng.randint(0, 10**6),
                          cycles=cycles, fault_count=fault_count)
        g, stim, faults = bench.build()
        serial = run_serial_concurrent(g, faults, stim)
        base = serial.verdicts()

        truth = _verdicts_of_single_fault_runs(bench, faults, stim)
        assert truth == base, f"trial {trial}: serial engine disagrees with resimulation"

        for mode in PARALLEL_MODES:
            for workers in WORKER_GRID:
                graph, _, _ = bench.build()
                cfg = SimConfig(workers=workers, mode=mode, threshold=0.02)
                report = run_simulation(graph, faults, stim, cfg)
                assert report.verdicts() == base, (
                    f"trial {trial}: {mode} P={workers} diverged")
                runs += 1
        circuits += 1
    _criterion("oracle equivalence (exact, zero tolerance)", True,
               f"{circuits} circuits, {runs} parallel runs")


def test_determinism_byte_identical_reports():
    bench = gen_bench("skewed", 400, 19, cycles=8)
    _, stim, faults = bench.build()
    blobs = set()
    for _ in range(5):
        graph, _, _ = bench.build()
        report = run_simulation(graph, faults, stim,
                                SimConfig(workers=8, mode="full", threshold=0.02))
        blobs.add(emit_report_csv(report).encode())
    _criterion("determinism: 5 runs at P=8 byte-identical", len(blobs) == 1,
               f"{len(blobs)} distinct report blobs")


def test_pruning_effectiveness_on_quiescent_benchmark():
    bench = gen_bench("uniform", 400, 23, cycles=30, quiescent=True)
    graph, stim, faults = bench.build()
    report = run_simulation(graph, faults, stim, SimConfig(workers=4, mode="full"))
    ratios = [c.skipped / (c.executed + c.skipped) for c in report.cycles]
    worst = min(ratios[2:])
    _criterion("pruning: skip ratio > 90% from cycle 2 on quiescent bench",
               worst > 0.9, f"worst ratio {worst:.3f}")


def _calibrate(bench, faults, stim, mode, workers=8, threshold=0.02):
    """Run once with live kernel timing, returning the per-cycle per-task
    cost table for schedule replay."""

    graph, _, _ = bench.build()
    cfg = SimConfig(workers=workers, mode=mode, threshold=threshold)
    engine = SimulationEngine(graph, faults, stim, cfg)
    log = record_costs(engine)
    engine.run()
    return log


def _replay_wall(bench, faults, stim, table, mode, workers):
    graph, _, _ = bench.build()
    cfg = SimConfig(workers=workers, mode=mode, threshold=0.02)
    engine = SimulationEngine(graph, faults, stim, cfg)
    replay_costs(engine, table)
    return engine.run().totals.wall_ns


@pytest.fixture(scope="module")
def skewed_bench():
    bench = gen_bench("skewed", 3000, 42, cycles=10)
    graph, stim, faults = bench.build()
    assert len(graph.nodes) >= 2000 and len(faults) >= 2000
    return bench, faults, stim


@pytest.mark.gate
def test_two_dimensional_parallelism_benefit(skewed_bench):
    bench, faults, stim = skewed_bench
    walls = _min_wall(bench, faults, stim, [("structural", 8), ("full", 8)])
    ratio = walls[("full", 8)] / walls[("structural", 8)]
    _criterion("two-dimensional parallelism: full <= 0.67x structural at P=8",
               ratio <= 0.67, f"ratio {ratio:.3f}")


@pytest.mark.gate
def test_scalability_trend(skewed_bench):
    bench, faults, stim = skewed_bench
    table = _calibrate(bench, faults, stim, "full")
    walls = {p: _replay_wall(bench, faults, stim, table, "full", p)
             for p in WORKER_GRID}
    speedup = {p: walls[1] / walls[p] for p in WORKER_GRID}
    monotone = all(
        speedup[b] >= speedup[a] * 0.95
        for a, b in zip(WORKER_GRID, WORKER_GRID[1:])
    )
    ok = speedup[8] >= 3.0 and monotone
    _criterion("scalability: full-mode speedup P8 >= 3.0x and non-decreasing",
               ok, "speedups " + ", ".join(f"P{p}={speedup[p]:.2f}x"
                                           for p in WORKER_GRID))


@pytest.mark.gate
def test_unified_schedule_benefit():
    bench = gen_bench("pipeline", 1500, 42, cycles=10, fault_count=15000)
    graph, stim, faults = bench.build()
    assert len(graph.regs) >= 1500 / 4
    table = _calibrate(bench, faults, stim, "structural+fault")
    barrier = _replay_wall(bench, faults, stim, table, "structural+fault", 8)
    unified = _replay_wall(bench, faults, stim, table, "full", 8)
    ratio = unified / barrier
    _criterion("unified schedule: full <= 0.9x structural+fault at P=8",
               ratio <= 0.9, f"ratio {ratio:.3f}")


@pytest.mark.gate
def test_overhead_bound_on_bundled_benchmarks():
    benches = [
        gen_bench("uniform", 600, 11, cycles=10),
        gen_bench("skewed", 2000, 42, cycles=10),
        gen_bench("pipeline", 1500, 42, cycles=10, fault_count=15000),
    ]
    details = []
    worst = 0.0
    for bench in benches:
        _, stim, faults = bench.build()
        table = ablation_run(bench.netlist, stim, faults, [8],
                             threshold=0.02, trials=2)
        assert table.verdicts_consistent
        details.append(f"{bench.name}={table.overhead_fraction:.4f}")
        worst = max(worst, table.overhead_fraction)
    _criterion("overhead: added-task fraction < 15% on all bundled benches",
               worst < 0.15, "; ".join(details))


def test_structural_invariants_over_many_cycles():
    """Good-before-bad ordering and commit-after-readers ordering hold on
    every executed schedule, across at least ten thousand cycles."""

    rng = random.Random(4242)
    total_cycles = 0
    pairs_ms = pairs_sync = 0
    runs = 0
    while total_cycles < 10_500:
        profile = ("skewed", "pipeline", "uniform")[runs % 3]
        bench = gen_bench(profile, rng.randint(20, 60), rng.randint(0, 10**6),
                          cycles=rng.randint(60, 120),
                          fault_count=rng.randint(4, 24))
        graph, stim, faults = bench.build()
        nodes = [n.id for n in graph.nodes if n.kind in TASK_KINDS]
        workers = rng.choice((2, 4, 8))
        rng.choice((1, 1, 2, 3))  # the retired sync-group draw; keeps later draws
        pre = rng.sample(nodes, min(len(nodes), 3))
        cfg = SimConfig(workers=workers, mode="full", threshold=0.02)
        rng.choice((0, 2))  # the retired slave-count draw; keeps later draws
        # The picked nodes are expanded first, one slave per worker.
        with expanding_first(lambda g: pre):
            eng = SimulationEngine(graph, faults, stim, cfg)
        traces = record_traces(eng)
        eng.run()
        ms, sync = check_schedule_invariants(eng, traces)
        pairs_ms += ms
        pairs_sync += sync
        total_cycles += len(stim.rows)
        runs += 1
    ok = pairs_ms > 0 and pairs_sync > 0
    _criterion("structural invariants: 0 violations over >= 10^4 cycles",
               ok, f"{total_cycles} cycles, {pairs_ms} master/slave pairs, "
                   f"{pairs_sync} reader/sync pairs")
