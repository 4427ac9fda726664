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
from .rtl import elaborate_text
from .scheduler import run_simulation

ABLATION_MODES = (MODE_STRUCTURAL, MODE_STRUCTURAL_FAULT, MODE_FULL)


@dataclass
class AblationCell:
    mode: str
    workers: int
    wall_ns: int
    utilization: float
    speedup: float
    dispatches: int
    mean_dispatch_ns: float


@dataclass
class AblationTable:
    cells: list[AblationCell]
    overhead_fraction: float
    verdicts_consistent: bool
    # Nodes ``full`` expanded at the largest worker count; with none, no
    # task was added and the overhead fraction measures nothing.
    expanded: tuple[int, ...] = ()

    def cell(self, mode: str, workers: int) -> AblationCell:
        for c in self.cells:
            if c.mode == mode and c.workers == workers:
                return c
        raise KeyError((mode, workers))

    def format(self) -> str:
        lines = [f"{'mode':<18} {'P':>3} {'schedule_ms':>11} {'util':>6} {'speedup':>8}"]
        for c in self.cells:
            lines.append(
                f"{c.mode:<18} {c.workers:>3} {c.wall_ns / 1e6:>11.2f} "
                f"{c.utilization:>6.2f} {c.speedup:>8.2f}"
            )
        lines.append(f"added-task overhead fraction: {self.overhead_text()}")
        lines.append(
            "verdicts consistent across cells: "
            + ("yes" if self.verdicts_consistent else "NO")
        )
        lines.append("serial row: host time; other rows: modeled schedule makespan")
        lines.append("speedup: serial host time / modeled makespan")
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

    serial_walls = []
    serial_report = None
    for _ in range(trials):
        report = run_serial_concurrent(fresh_graph(), faults, stimulus)
        serial_walls.append(report.totals.wall_ns)
        serial_report = report
    serial_wall = min(serial_walls)
    baseline = serial_report.verdicts()

    cells: list[AblationCell] = []
    best: dict[tuple[str, int], dict] = {}
    consistent = True
    for trial in range(trials):
        for mode in ABLATION_MODES:
            for P in workers:
                cfg = SimConfig(workers=P, mode=mode, threshold=threshold)
                report = run_simulation(fresh_graph(), faults, stimulus, cfg)
                if report.verdicts() != baseline:
                    consistent = False
                key = (mode, P)
                wall = report.totals.wall_ns
                if key not in best or wall < best[key]["wall"]:
                    best[key] = {"wall": wall, "report": report}

    cells.append(AblationCell(
        mode=MODE_SERIAL, workers=1, wall_ns=serial_wall,
        utilization=1.0, speedup=1.0,
        dispatches=serial_report.totals.executed + serial_report.totals.skipped,
        mean_dispatch_ns=0.0,
    ))
    for mode in ABLATION_MODES:
        for P in workers:
            report = best[(mode, P)]["report"]
            wall = best[(mode, P)]["wall"]
            t = report.totals
            util = sum(t.busy_ns) / (wall * P) if wall else 0.0
            cells.append(AblationCell(
                mode=mode, workers=P, wall_ns=wall,
                utilization=util,
                speedup=serial_wall / wall if wall else 0.0,
                dispatches=t.dispatches,
                mean_dispatch_ns=t.mean_dispatch_ns,
            ))

    p_max = max(workers)
    table = AblationTable(cells, 0.0, consistent,
                          best[(MODE_FULL, p_max)]["report"].totals.expanded)
    structural = table.cell(MODE_STRUCTURAL, p_max)
    full = table.cell(MODE_FULL, p_max)
    added = max(0, full.dispatches - structural.dispatches)
    table.overhead_fraction = (
        added * structural.mean_dispatch_ns / full.wall_ns if full.wall_ns else 0.0
    )
    return table
