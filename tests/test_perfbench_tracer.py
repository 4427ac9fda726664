"""perfbench's tracer (``perfbench/tracer.py``, loaded as it is) against a
``full`` run: it wraps the engine's layers, records the pool's phases,
and reads every task of a phase trace through ``tasks[tid]``.  A change
to the shape of the phases the engine hands the pool breaks
``perfbench/run.py --trace 1`` here first."""

import importlib.util
from pathlib import Path

from faultsim.config import SimConfig
from faultsim.genbench import gen_bench
from faultsim.scheduler import SimulationEngine, run_simulation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_a_full_run():
    tr = load_tracer()
    bench = gen_bench("skewed", 120, 3, cycles=5, fault_count=40)
    graph, stim, faults = bench.build()
    tracer = tr.Tracer()
    tracer.install()
    try:
        with tracer.region("full"):
            eng = SimulationEngine(graph, faults, stim, SimConfig(workers=4, mode="full"))
            report = eng.run()
    finally:
        left = tracer.restore()
    assert not left
    assert eng.totals.expanded

    # One pool phase drains every cycle, each task once per cycle.
    (phase,) = tracer.phases
    workers, tasks, trace, result = phase
    assert workers == 4
    assert len(trace) == len(stim.rows) * (len(eng.tg.tasks) + 3)
    assert result.makespan_ns == report.totals.wall_ns
    utilization, ratio = tr.schedule_quality(tracer.phases)
    assert 0 < utilization <= 1 and ratio > 0

    chrome = tracer.chrome_trace(tracer.span_table("smoke"), tracer.phases)
    modeled = [e for e in chrome["traceEvents"] if e["pid"] == 2 and e["ph"] == "X"]
    assert len(modeled) == len(trace)
    labels = {e["name"].split()[0] for e in modeled}
    assert {"default", "master", "slave", "sync", "stimulus", "strobe", "gate"} <= labels
    names = set(tracer.names)
    assert {"scheduler.WorkerPool.run_phase", "scheduler.LoadMonitor.record",
            "kernels.eval_bad_gates"} <= names

    graph, _, _ = bench.build()
    untraced = run_simulation(graph, faults, stim, SimConfig(workers=4, mode="full"))
    assert report.verdicts() == untraced.verdicts()
