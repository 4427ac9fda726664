"""In-memory span recording around calls into faultsim's layers.

Spans are recorded from the benchmark's own files: a traced run replaces,
for its duration, the layer functions that ``faultsim.scheduler`` and
``faultsim.oracles`` import from ``kernels``, ``faults`` and ``taskgraph``
(plus ``scheduler.flag_overloaded``, ``WorkerPool.run_phase`` and
``LoadMonitor.record``) with timing wrappers, and puts every original back
afterwards.  Nothing under ``src/`` is edited.

A span is (name, start ns, end ns, parent span); spans are grouped into
regions (``full`` = setup + simulation + report, ``serial`` = the reference
engine), each tagged with its workload instance and run.  A layer's self
time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time

from faultsim import oracles, scheduler

LAYER_MODULES = ("faultsim.kernels", "faultsim.faults", "faultsim.taskgraph")


def layer_name(fn) -> str:
    """Span name of a layer function: ``<module>.<qualified name>``."""

    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def patch_targets():
    """(owner, attribute) pairs a traced run wraps."""

    targets = []
    for module in (scheduler, oracles):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ in LAYER_MODULES:
                targets.append((module, attr))
    targets.append((scheduler, "flag_overloaded"))
    targets.append((scheduler.WorkerPool, "run_phase"))
    targets.append((scheduler.LoadMonitor, "record"))
    return targets


class NullTracer:
    """Untraced runs: direct calls, no spans, no wrappers."""

    def call(self, name, fn, *args):
        return fn(*args)

    def region(self, label):
        return contextlib.nullcontext()


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []            # (name id, t0 ns, t1 ns, parent index)
        self._stack: list[int] = [-1]
        self.regions: list[tuple[str, str, int, int]] = []  # label, run, begin, end
        self.run_label = ""
        self.bad_gates = [0, 0]          # evaluated, kept (eval_bad_set)
        self.phases: list = []           # (workers, tasks, schedule trace, PhaseResult)
        self.kept_phases: list = []
        self._patches: list = []
        self.span_in_ns = 0.0
        self.span_out_ns = 0.0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name, fn, after=None):
        """Wrap fn so that every call records one span; ``after(args,
        result)`` runs once the span is closed."""

        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name_id, t0, t1, parent)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args):
        return self.timed(name, fn)(*args)

    @contextlib.contextmanager
    def region(self, label):
        begin = len(self.spans)
        try:
            yield
        finally:
            self.regions.append((label, self.run_label, begin, len(self.spans)))

    def discard(self, keep: int) -> None:
        """Drop spans (and regions) recorded after the first ``keep``."""

        del self.spans[keep:]
        self.regions = [r for r in self.regions if r[3] <= keep]

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr in patch_targets():
            original = vars(owner)[attr]
            if attr == "run_phase":
                wrapped = self.timed(layer_name(original),
                                     self._recording_phase(original))
            elif attr == "eval_bad_set":
                wrapped = self.timed(layer_name(original), original,
                                     self._count_bad_gates)
            else:
                wrapped = self.timed(layer_name(original), original)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; return the names still not restored."""

        for owner, attr, original in self._patches:
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if vars(owner)[attr] is not original]
        self._patches = []
        return left

    def _recording_phase(self, run_phase):
        """run_phase that always hands the pool a schedule trace list and
        keeps (workers, tasks, trace, result) of every phase."""

        phases = self.phases

        def recording(pool, counts, ready, tasks, execute, trace=None, time_base=0):
            own = [] if trace is None else trace
            result = run_phase(pool, counts, ready, tasks, execute, own, time_base)
            phases.append((pool.workers, tasks, own, result))
            return result

        return recording

    def _count_bad_gates(self, args, result) -> None:
        # eval_bad_set(node, fanin_states, nf, new_good, cycle, affected, begin, end)
        self.bad_gates[0] += args[7] - args[6]
        self.bad_gates[1] += len(result)

    # -- analysis ------------------------------------------------------------

    def calibrate(self, calls: int = 50_000, repeats: int = 5) -> None:
        """Estimate the wrapper's own cost per span: ``span_in_ns`` lands
        inside the span's measured window, ``span_out_ns`` in its parent's.
        Both are the minimum over repeats of a wrapped no-op."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.timed("noop", noop)
        clock = time.perf_counter_ns
        best_in = best_out = None
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop()
            plain = clock() - t0
            probe.spans.clear()
            t0 = clock()
            for _ in range(calls):
                wrapped()
            traced = clock() - t0
            inside = sum(t1 - s0 for _, s0, t1, _ in probe.spans) - plain
            outside = traced - plain - inside
            best_in = inside if best_in is None else min(best_in, inside)
            best_out = outside if best_out is None else min(best_out, outside)
        self.span_in_ns = max(0, best_in) / calls
        self.span_out_ns = max(0, best_out) / calls

    def summarize(self, begin: int, end: int) -> dict[str, list[float]]:
        """name -> [calls, total ns, self ns] over spans[begin:end], with the
        calibrated wrapper cost taken out of every span and its parent."""

        spans = self.spans
        names = self.names
        n = end - begin
        child_raw = [0] * n
        child_total = [0.0] * n
        child_count = [0] * n
        out: dict[str, list[float]] = {}
        for i in range(n - 1, -1, -1):  # children are recorded after parents
            name_id, t0, t1, parent = spans[begin + i]
            raw = t1 - t0
            own = raw - child_raw[i] - self.span_in_ns - child_count[i] * self.span_out_ns
            total = own + child_total[i]
            if parent >= begin:
                p = parent - begin
                child_raw[p] += raw
                child_total[p] += total
                child_count[p] += 1
            acc = out.setdefault(names[name_id], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += total
            acc[2] += own
        return out

    # -- output --------------------------------------------------------------

    def span_table(self, workload: str) -> dict:
        """Kept spans as a table; a span's id is its row, ``parent`` is the
        id of the enclosing span or -1, ``run`` indexes ``runs``."""

        runs, rows = [], []
        for label, run, begin, end in self.regions:
            runs.append(f"{run}/{label}")
            for name_id, t0, t1, parent in self.spans[begin:end]:
                rows.append([name_id, t0, t1, parent, len(runs) - 1])
        return {"workload": workload, "names": self.names,
                "columns": ["name", "start_ns", "end_ns", "parent", "run"],
                "runs": runs, "spans": rows}

    def chrome_trace(self, table: dict, phases) -> dict:
        """Chrome trace-event JSON: host spans on pid 1, the modeled
        worker schedule of the recorded phases on pid 2 (one thread per
        modeled worker, cycles laid end to end)."""

        events = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": f"host time, {table['workload']}"}},
            {"ph": "M", "pid": 2, "name": "process_name",
             "args": {"name": "modeled schedule (discrete-event pool)"}},
        ]
        names, runs = table["names"], table["runs"]
        origin = min((row[1] for row in table["spans"]), default=0)
        for name_id, t0, t1, parent, run in table["spans"]:
            event = {"ph": "X", "pid": 1, "tid": 1, "name": names[name_id],
                     "ts": (t0 - origin) / 1e3, "dur": (t1 - t0) / 1e3}
            if parent < 0:
                event["args"] = {"run": runs[run]}
            events.append(event)
        offset = 0
        for cycle, (workers, tasks, trace, result) in enumerate(phases):
            for tid, worker, start, fin in trace:
                events.append({
                    "ph": "X", "pid": 2, "tid": worker, "name": task_label(tasks[tid]),
                    "ts": (offset + start) / 1e3, "dur": (fin - start) / 1e3,
                    "args": {"task": tid, "cycle": cycle},
                })
            offset += result.makespan_ns
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def task_label(task) -> str:
    if task.kind == "sync":
        return f"sync r{','.join(map(str, task.regs))}"
    if task.kind == "slave":
        return f"slave n{task.node}.{task.slave_index}"
    return f"{task.kind} n{task.node}"


def schedule_quality(phases) -> tuple[float, float]:
    """(utilization, mean makespan / lower bound) over the recorded phases.

    Utilization is sum(busy) / (P * sum(makespan)).  The per-phase lower
    bound is max(critical path, sum(busy) / P), with the critical path taken
    over the tasks the phase executed, each costing its measured duration;
    predecessors created by later expansions are not among them.
    """

    busy_total = makespan_total = capacity = 0
    ratios = []
    for workers, tasks, trace, result in phases:
        cost = {tid: fin - start for tid, _, start, fin in trace}
        path: dict[int, int] = {}
        for tid, _, _, _ in trace:  # completion order: preds come first
            longest = max((path[p] for p in tasks[tid].preds if p in path), default=0)
            path[tid] = longest + cost[tid]
        busy = sum(result.busy_ns)
        bound = max(max(path.values(), default=0), busy / workers)
        if bound > 0:
            ratios.append(result.makespan_ns / bound)
        busy_total += busy
        makespan_total += result.makespan_ns
        capacity += workers * result.makespan_ns
    utilization = busy_total / capacity if capacity else 0.0
    ratio = sum(ratios) / len(ratios) if ratios else 0.0
    return utilization, ratio


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))
