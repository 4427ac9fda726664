"""Ablation and measurement pipeline: run every (mode, worker-count) cell
on one benchmark, report its time, speedup over the serial baseline,
utilization, and the task-overhead accounting of the added
master/slave tasks.

The two clocks differ: the serial cell holds host time, every other cell
the modeled makespan of its pool schedule, so ``speedup`` divides serial
host time by a modeled makespan.  Times are taken as the minimum over a
few interleaved trials, which filters host-speed drift out of cross-run
ratios; the engine pauses garbage collection during each run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import (
    MODE_FULL, MODE_SERIAL, MODE_STRUCTURAL, MODE_STRUCTURAL_FAULT, SimConfig,
)
from .oracles import run_serial_concurrent
from .report import RunTotals
from .rtl import elaborate_text
from .scheduler import run_simulation

ABLATION_MODES = (MODE_STRUCTURAL, MODE_STRUCTURAL_FAULT, MODE_FULL)


@dataclass
class AblationCell:
    """One (mode, P) cell: the totals of its fastest trial, and its
    speedup over the serial cell's fastest."""

    mode: str
    workers: int
    totals: RunTotals
    speedup: float

    @property
    def utilization(self) -> float:
        t = self.totals
        return sum(t.busy_ns) / (t.wall_ns * self.workers) if t.wall_ns else 0.0


@dataclass
class AblationTable:
    cells: list[AblationCell]
    overhead_fraction: float
    verdicts_consistent: bool
    # Nodes ``full`` expanded at the largest worker count; with none, no
    # task was added and the overhead fraction measures nothing.
    expanded: tuple[int, ...] = ()

    def format(self) -> str:
        lines = [f"{'mode':<18} {'P':>3} {'schedule_ms':>11} {'util':>6} {'speedup':>8}"]
        for c in self.cells:
            lines.append(
                f"{c.mode:<18} {c.workers:>3} {c.totals.wall_ns / 1e6:>11.2f} "
                f"{c.utilization:>6.2f} {c.speedup:>8.2f}"
            )
        lines.append(f"added-task overhead fraction: {self.overhead_text()}")
        lines.append(
            "verdicts consistent across cells: "
            + ("yes" if self.verdicts_consistent else "NO")
        )
        lines.append("serial row: host time; other rows: modeled schedule makespan")
        lines.append("speedup: serial host time / modeled makespan")
        lines.append("overhead: added dispatches x structural's host ns per dispatch"
                     " / full's modeled makespan")
        return "\n".join(lines) + "\n"

    def overhead_text(self) -> str:
        return f"{self.overhead_fraction:.4f}" if self.expanded else "none expanded"


def ablation_run(
    netlist_text: str,
    stimulus,
    faults,
    workers: list[int],
    threshold: float = SimConfig.threshold,
    trials: int = 3,
) -> AblationTable:
    """Measure serial plus every (mode, P) cell; all cells must agree on
    every fault verdict."""

    def fresh_graph():
        return elaborate_text(netlist_text)

    def fastest(best: RunTotals | None, totals: RunTotals) -> RunTotals:
        return totals if best is None or totals.wall_ns < best.wall_ns else best

    serial = None
    for _ in range(trials):
        report = run_serial_concurrent(fresh_graph(), faults, stimulus)
        serial = fastest(serial, report.totals)
    baseline = report.verdicts()

    best: dict[tuple[str, int], RunTotals] = {}
    consistent = True
    for _ in range(trials):
        for mode in ABLATION_MODES:
            for P in workers:
                cfg = SimConfig(workers=P, mode=mode, threshold=threshold)
                report = run_simulation(fresh_graph(), faults, stimulus, cfg)
                if report.verdicts() != baseline:
                    consistent = False
                best[mode, P] = fastest(best.get((mode, P)), report.totals)

    cells = [AblationCell(MODE_SERIAL, 1, serial, 1.0)]
    for mode in ABLATION_MODES:
        for P in workers:
            t = best[mode, P]
            cells.append(AblationCell(
                mode, P, t, serial.wall_ns / t.wall_ns if t.wall_ns else 0.0,
            ))

    p_max = max(workers)
    structural = best[MODE_STRUCTURAL, p_max]
    full = best[MODE_FULL, p_max]
    added = max(0, full.dispatches - structural.dispatches)
    overhead = added * structural.mean_dispatch_ns / full.wall_ns if full.wall_ns else 0.0
    return AblationTable(cells, overhead, consistent, full.expanded)
