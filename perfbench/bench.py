"""Workloads, the timed chain, correctness checks and metric assembly.

Each workload is a generated benchmark profile and size.  A run generates
``instances`` inputs from the seed (generation seeds ``seed + 1000 * i``),
outside every timed region, and hands the program only their texts.  It
then repeats rounds over the instances until ``--seconds`` have passed;
each metric is the mean over instances of that instance's median.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

from faultsim.config import SimConfig
from faultsim.faults import parse_fault_csv
from faultsim.genbench import gen_bench
from faultsim.netlist import parse_module
from faultsim.oracles import run_serial_concurrent, run_single_fault
from faultsim.report import emit_report_csv
from faultsim.rtl import elaborate
from faultsim.scheduler import SimulationEngine
from faultsim.stimulus import parse_stimulus

import tracer as tr

WORKERS = 8          # modeled pool size; the discrete-event pool starts no threads
THRESHOLD = 0.02     # expansion threshold the bundled desk-scale benches use
CYCLES = 10
RESIM_SAMPLE = 12    # fids per instance checked against the single-fault resimulator

# Best-of-two time of reference_work() at full speed on the machine the
# benchmark was defined on (2-vCPU Intel Xeon at 2.1 GHz under KVM).
REF_NOMINAL_S = 0.0090


@dataclass(frozen=True)
class Workload:
    profile: str
    size: int
    fault_count: int | None   # None: the generator's default for the profile
    instances: int


WORKLOADS = {
    "skewed_3000": Workload("skewed", 3000, None, 4),
    "pipeline_1500": Workload("pipeline", 1500, 15000, 3),
    "uniform_600": Workload("uniform", 600, None, 8),
}

END_TO_END = {
    "setup_s": "s", "sim_s": "s", "serial_s": "s", "schedule_ms": "ms",
    "schedule_speedup": "x", "peak_mem_mb": "MB",
}

LAYER_UNITS = {
    "faults.entries": "count", "taskgraph.tasks": "count",
    "taskgraph.expansions": "count", "kernels.evals": "count",
    "kernels.skip_ratio": "ratio", "kernels.bad_gates_evaluated": "count",
    "kernels.bad_gates_kept": "count", "kernels.divergence_ratio": "ratio",
    "kernels.commits": "count", "scheduler.tasks_executed": "count",
    "scheduler.utilization": "ratio", "scheduler.makespan_over_bound": "ratio",
    "trace.overhead_frac": "ratio",
}

# Per-layer host times: metric -> (stage, span names, "total" or "self").
# Stages "setup" and "sim" are the full run's; "serial" is the reference's.
LAYER_TIMES = {
    "netlist.parse_s": ("setup", ["netlist.parse_module"], "total"),
    "rtl.elaborate_s": ("setup", ["rtl.elaborate"], "total"),
    "stimulus.parse_s": ("setup", ["stimulus.parse_stimulus"], "total"),
    "faults.parse_s": ("setup", ["faults.parse_fault_csv"], "total"),
    "faults.inject_s": ("setup", ["faults.inject"], "total"),
    "taskgraph.build_s": ("setup", ["taskgraph.make_task_graph"], "total"),
    "taskgraph.reset_s": ("sim", ["taskgraph.reset_for_cycle"], "total"),
    "taskgraph.expand_s": ("sim", ["scheduler.flag_overloaded",
                                   "taskgraph.expand_high_load"], "total"),
    "kernels.dep_check_s": ("sim", ["kernels.check_dependence_changed"], "total"),
    "kernels.eval_good_s": ("sim", ["kernels.eval_good"], "total"),
    "kernels.affected_s": ("sim", ["kernels.affected_fids"], "total"),
    "kernels.eval_bad_s": ("sim", ["kernels.eval_bad_set"], "total"),
    "kernels.sync_check_s": ("sim", ["kernels.sync_check_needed"], "total"),
    "kernels.sync_register_s": ("sim", ["kernels.sync_register"], "total"),
    "kernels.scan_outputs_s": ("sim", ["kernels.scan_outputs"], "total"),
    "scheduler.run_phase_s": ("sim", ["scheduler.WorkerPool.run_phase"], "total"),
    "scheduler.dispatch_s": ("sim", ["scheduler.WorkerPool.run_phase"], "self"),
    "scheduler.monitor_s": ("sim", ["scheduler.LoadMonitor.record"], "total"),
    "scheduler.boundary_s": ("sim", ["scheduler.SimulationEngine.run"], "self"),
    "oracles.loop_s": ("serial", ["oracles.run_serial_concurrent"], "self"),
    "report.emit_s": ("sim", ["report.emit_report_csv"], "total"),
}

PER_LAYER = [
    "netlist.parse_s", "rtl.elaborate_s", "stimulus.parse_s",
    "faults.parse_s", "faults.inject_s", "faults.entries",
    "taskgraph.build_s", "taskgraph.tasks", "taskgraph.reset_s",
    "taskgraph.expand_s", "taskgraph.expansions",
    "kernels.dep_check_s", "kernels.eval_good_s", "kernels.affected_s",
    "kernels.eval_bad_s", "kernels.sync_check_s", "kernels.sync_register_s",
    "kernels.scan_outputs_s",
    "kernels.evals", "kernels.skip_ratio", "kernels.bad_gates_evaluated",
    "kernels.bad_gates_kept", "kernels.divergence_ratio", "kernels.commits",
    "scheduler.run_phase_s", "scheduler.dispatch_s", "scheduler.monitor_s",
    "scheduler.boundary_s", "scheduler.tasks_executed",
    "scheduler.utilization", "scheduler.makespan_over_bound",
    "oracles.loop_s", "report.emit_s", "trace.overhead_frac",
]

# Spans of the full run's setup stage; the gap attribution leaves them out.
SETUP_SPANS = {
    "netlist.parse_module", "rtl.elaborate", "stimulus.parse_stimulus",
    "faults.parse_fault_csv", "scheduler.SimulationEngine.__init__",
    "faults.inject", "kernels.initial_states", "taskgraph.make_task_graph",
}


def layer_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else LAYER_UNITS[metric]


@dataclass
class Instance:
    name: str
    netlist: str
    stimulus: str
    faults_csv: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, list[float]] = field(default_factory=dict)
    serial_csv: str | None = None
    serial_counts: dict[str, float] | None = None
    attribution: list[dict] = field(default_factory=list)

    def add(self, store: dict, values: dict) -> None:
        for key, value in values.items():
            store.setdefault(key, []).append(value)


@dataclass
class Checks:
    """Verdicts checked and mismatches found (a mismatch is a failure)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def compare_csv(self, what: str, got: str, want: str) -> None:
        got_rows, want_rows = got.splitlines()[1:], want.splitlines()[1:]
        bad = sum(a != b for a, b in zip(got_rows, want_rows))
        bad += abs(len(got_rows) - len(want_rows))
        self.attempted += max(len(got_rows), len(want_rows))
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} report rows differ")

    def require(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def make_instances(workload: Workload, seed: int) -> list[Instance]:
    out = []
    for i in range(workload.instances):
        gen_seed = seed + 1000 * i
        bench = gen_bench(workload.profile, workload.size, gen_seed,
                          cycles=CYCLES, fault_count=workload.fault_count)
        out.append(Instance(bench.name, bench.netlist, bench.stimulus, bench.faults_csv))
    return out


def engine_config() -> SimConfig:
    return SimConfig(workers=WORKERS, mode="full", threshold=THRESHOLD)


def reference_work(n: int = 12000) -> int:
    """Fixed pure-Python work shaped like the kernels' inner loops (integer
    arithmetic, dict updates, a sort of tuples, lookups).  It never changes,
    so its time tracks only the speed the machine gives this process."""

    x = 12345
    table: dict[int, int] = {}
    pairs = []
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x >> 11
        table[k] = table.get(k, 0) ^ i
        pairs.append((k, i & 255))
    pairs.sort()
    acc = 0
    for k, v in pairs:
        acc += table[k] & v
    return acc


def slowdown() -> float:
    """How much slower than nominal the machine runs right now: the best of
    two reference_work() times over REF_NOMINAL_S."""

    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best / REF_NOMINAL_S


def no_probe() -> float:
    return 1.0


@dataclass
class ChainResult:
    faults: list
    stim: object
    engine: SimulationEngine
    report: object
    csv: str
    tasks_built: int
    setup_s: float
    sim_s: float
    setup_slowdown: float
    sim_slowdown: float


def run_chain(inst: Instance, t, probe=no_probe) -> ChainResult:
    """The `faultsim run` chain from netlist text to report CSV; ``probe``
    runs, untimed, before, between and after the two timed stages."""

    gc.collect()
    p0 = probe()
    t0 = time.perf_counter()
    name, decls = t.call("netlist.parse_module", parse_module, inst.netlist)
    graph = t.call("rtl.elaborate", elaborate, decls, name)
    stim = t.call("stimulus.parse_stimulus", parse_stimulus, inst.stimulus)
    faults = t.call("faults.parse_fault_csv", parse_fault_csv, inst.faults_csv)
    engine = t.call("scheduler.SimulationEngine.__init__", SimulationEngine,
                    graph, faults, stim, engine_config())
    t1 = time.perf_counter()
    tasks_built = len(engine.tg.tasks)
    p1 = probe()
    t2 = time.perf_counter()
    report = t.call("scheduler.SimulationEngine.run", engine.run)
    csv = t.call("report.emit_report_csv", emit_report_csv, report)
    t3 = time.perf_counter()
    p2 = probe()
    return ChainResult(faults, stim, engine, report, csv, tasks_built,
                       t1 - t0, t3 - t2, (p0 + p1) / 2, (p1 + p2) / 2)


def run_serial(inst: Instance, chain: ChainResult, t, probe=no_probe):
    """The reference engine on a freshly elaborated graph; returns the
    report, its host seconds and the slowdown probed around it."""

    name, decls = parse_module(inst.netlist)
    graph = elaborate(decls, name)
    gc.collect()
    p0 = probe()
    t0 = time.perf_counter()
    report = t.call("oracles.run_serial_concurrent", run_serial_concurrent,
                    graph, chain.faults, chain.stim)
    serial_s = time.perf_counter() - t0
    return report, serial_s, (p0 + probe()) / 2


def end_to_end_sample(chain: ChainResult, serial_s: float,
                      serial_slowdown: float) -> dict[str, float]:
    """Raw host and modeled times, and each divided by the slowdown probed
    around its stage."""

    totals = chain.report.totals
    raw = {
        "setup_s": (chain.setup_s, chain.setup_slowdown),
        "sim_s": (chain.sim_s, chain.sim_slowdown),
        "serial_s": (serial_s, serial_slowdown),
        "schedule_ms": (totals.wall_ns / 1e6, chain.sim_slowdown),
        "pool_overhead_s": (totals.dispatch_overhead_ns / 1e9, chain.sim_slowdown),
    }
    sample = {"schedule_speedup": sum(totals.busy_ns) / totals.wall_ns,
              "slowdown": chain.sim_slowdown}
    for key, (value, factor) in raw.items():
        sample[key] = value / factor
        sample[f"raw_{key}"] = value
    return sample


def measured_iteration(inst: Instance, checks: Checks) -> ChainResult:
    chain = run_chain(inst, tr.NullTracer(), slowdown)
    serial, serial_s, serial_slowdown = run_serial(inst, chain, tr.NullTracer(),
                                                   slowdown)
    serial_csv = emit_report_csv(serial)
    checks.compare_csv(f"{inst.name}: full vs serial report", chain.csv, serial_csv)
    inst.serial_csv = serial_csv
    inst.add(inst.samples, end_to_end_sample(chain, serial_s, serial_slowdown))
    return chain


def resim_check(inst: Instance, chain: ChainResult, seed: int, checks: Checks) -> None:
    """A seeded sample of fids against the independent single-fault
    resimulator."""

    name, decls = parse_module(inst.netlist)
    graph = elaborate(decls, name)
    rng = random.Random(f"resim:{seed}:{inst.name}")
    rows = {r.fid: r for r in chain.report.results}
    for i in sorted(rng.sample(range(len(chain.faults)),
                               min(RESIM_SAMPLE, len(chain.faults)))):
        fault = chain.faults[i]
        single = run_single_fault(graph, fault, chain.stim)
        row = rows[fault.fid]
        checks.require(
            f"{inst.name}: fid {fault.fid} differs from the single-fault resimulator",
            (single.detected, single.detect_cycle, single.observing_output)
            == (row.detected, row.detect_cycle, row.observing_output),
        )


def peak_mem_mb(inst: Instance) -> float:
    """Peak traced Python allocation over setup + simulation, in a pass of
    its own (tracemalloc slows the chain several times over)."""

    gc.collect()
    tracemalloc.start()
    try:
        run_chain(inst, tr.NullTracer())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_iteration(inst: Instance, tracer: tr.Tracer, checks: Checks, keep: bool) -> None:
    """One traced full run and one traced serial run; adds their layer
    metrics and span self times to the instance.  Spans are kept for the
    trace files only when ``keep``."""

    tracer.run_label = inst.name
    begin = len(tracer.spans)
    tracer.phases.clear()
    tracer.bad_gates[:] = [0, 0]
    tracer.install()
    try:
        with tracer.region("full"):
            chain = run_chain(inst, tracer, slowdown)
        mid = len(tracer.spans)
        full_bad = list(tracer.bad_gates)
        tracer.bad_gates[:] = [0, 0]
        with tracer.region("serial"):
            serial, serial_s, serial_slowdown = run_serial(inst, chain, tracer, slowdown)
        end = len(tracer.spans)
    finally:
        left = tracer.restore()
    checks.require(f"wrappers not restored: {left}", not left)
    checks.compare_csv(f"{inst.name}: traced vs untraced full report",
                       chain.csv, inst.serial_csv)
    checks.compare_csv(f"{inst.name}: traced vs untraced serial report",
                       emit_report_csv(serial), inst.serial_csv)

    full = tracer.summarize(begin, mid)
    ser = tracer.summarize(mid, end)
    regions = {"setup": full, "sim": full, "serial": ser}
    factor = {"setup": chain.setup_slowdown, "sim": chain.sim_slowdown,
              "serial": serial_slowdown}
    values = {}
    for metric, (stage, names, which) in LAYER_TIMES.items():
        col = 1 if which == "total" else 2
        ns = sum(regions[stage].get(n, [0, 0, 0])[col] for n in names)
        values[metric] = ns / 1e9 / factor[stage]

    def calls(stage, name):
        return regions[stage].get(name, [0])[0]

    stotals = serial.totals
    evaluated, kept = tracer.bad_gates
    counts = {
        "kernels.evals": calls("serial", "kernels.eval_good"),
        "kernels.skip_ratio": stotals.skipped / (stotals.executed + stotals.skipped),
        "kernels.bad_gates_evaluated": evaluated,
        "kernels.bad_gates_kept": kept,
        "kernels.divergence_ratio": kept / evaluated if evaluated else 0.0,
        "kernels.commits": calls("serial", "kernels.sync_register"),
    }
    if inst.serial_counts is not None:
        checks.require(f"{inst.name}: serial counts differ between passes",
                       counts == inst.serial_counts)
    inst.serial_counts = counts
    utilization, bound_ratio = tr.schedule_quality(tracer.phases)
    values.update(counts)
    values.update({
        "faults.entries": len(chain.engine.table.site_of),
        "taskgraph.tasks": chain.tasks_built,
        "taskgraph.expansions": calls("sim", "taskgraph.expand_high_load"),
        "scheduler.tasks_executed": calls("sim", "scheduler.LoadMonitor.record"),
        "scheduler.utilization": utilization,
        "scheduler.makespan_over_bound": bound_ratio,
        "traced_sim_s": chain.sim_s / chain.sim_slowdown,
        "traced_serial_s": serial_s / serial_slowdown,
        "full_bad_gates_evaluated": full_bad[0],
    })
    inst.add(inst.layers, values)
    inst.attribution.append(self_times(full, ser, chain.sim_slowdown, serial_slowdown))
    if keep:
        tracer.kept_phases = list(tracer.phases)
    else:
        tracer.discard(begin)


def self_times(full, ser, full_slowdown, serial_slowdown) -> dict[str, tuple[float, float]]:
    """Span name -> (self s in the full run's sim + report, self s in the
    serial run), each normalized by its stage's slowdown.  The full run's
    setup spans are left out; the serial run's own inject and initial
    states stay, since serial_s includes them."""

    sim = {n: v for n, v in full.items() if n not in SETUP_SPANS}
    return {
        name: (sim.get(name, [0, 0, 0])[2] / 1e9 / full_slowdown,
               ser.get(name, [0, 0, 0])[2] / 1e9 / serial_slowdown)
        for name in sorted(set(sim) | set(ser))
    }


def combine(instances: list[Instance], attr: str, keys) -> dict[str, float]:
    """Mean over instances of each instance's median."""

    return {
        key: statistics.fmean(statistics.median(getattr(inst, attr)[key])
                              for inst in instances)
        for key in keys
    }


# Attribution rows: span self times that are named after a metric.
LOOP_ROW = "cycle loop: scheduler.boundary_s | oracles.loop_s"
ROW_OF = {
    "scheduler.WorkerPool.run_phase": "scheduler.dispatch_s",
    "scheduler.LoadMonitor.record": "scheduler.monitor_s",
    "scheduler.SimulationEngine.run": LOOP_ROW,
    "oracles.run_serial_concurrent": LOOP_ROW,
    "report.emit_report_csv": "report.emit_s",
}


def attribute(instances: list[Instance]) -> dict[str, dict[str, float]]:
    """Rows of (full, serial, full - serial) self seconds whose deltas sum to
    the traced sim_s - serial_s gap: each span's median over the traced
    iterations, then the mean over instances."""

    rows: dict[str, dict[str, float]] = {}
    names = sorted({n for inst in instances for a in inst.attribution for n in a})
    for name in names:
        row = rows.setdefault(ROW_OF.get(name, name), {"full_s": 0.0, "serial_s": 0.0})
        for side, col in (("full_s", 0), ("serial_s", 1)):
            row[side] += statistics.fmean(
                statistics.median(a.get(name, (0.0, 0.0))[col] for a in inst.attribution)
                for inst in instances)
    for row in rows.values():
        row["delta_s"] = row["full_s"] - row["serial_s"]
    return rows


def format_attribution(rows, e2e) -> str:
    pool = ("scheduler.dispatch_s", "scheduler.monitor_s", LOOP_ROW)
    lines = ["gap attribution, traced run (self s): full sim+report vs serial reference",
             f"  {'row':52} {'full':>10} {'serial':>10} {'delta':>10}"]
    for name, row in sorted(rows.items(), key=lambda kv: -abs(kv[1]["delta_s"])):
        lines.append(f"  {name:52} {row['full_s']:10.4f} {row['serial_s']:10.4f} "
                     f"{row['delta_s']:+10.4f}")
    pool_d = sum(rows[r]["delta_s"] for r in pool if r in rows)
    kern_d = sum(r["delta_s"] for n, r in rows.items() if n.startswith("kernels."))
    total = sum(r["delta_s"] for r in rows.values())
    lines.append(f"  pool + loop (dispatch + monitor + boundary - loop): {pool_d:+.4f}")
    lines.append(f"  kernel time difference: {kern_d:+.4f}")
    lines.append(f"  everything else: {total - pool_d - kern_d:+.4f}")
    lines.append(f"  traced gap (sum): {total:+.4f}; untraced sim_s - serial_s: "
                 f"{e2e['sim_s'] - e2e['serial_s']:+.4f}")
    return "\n".join(lines)
