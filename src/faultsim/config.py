"""Run configuration shared by the simulation engine and the CLI.

The mode picks the engine's schedule; the engine alone turns it into
policy.  ``serial`` evaluates nodes in topological order and commits
registers after the strobe; it has no task graph or worker pool, so the
pool and expansion settings do not apply to it.  The other modes
drain the same task graph on the discrete-event pool: ``structural`` and
``structural+fault`` commit registers behind a barrier, ``full`` commits
them mid-cycle, and the last two expand, before the first cycle, the nodes
whose fault cone holds more than ``threshold`` of the summed cone counts.
"""

from __future__ import annotations

from dataclasses import dataclass

MODE_SERIAL = "serial"
MODE_STRUCTURAL = "structural"
MODE_STRUCTURAL_FAULT = "structural+fault"
MODE_FULL = "full"
MODES = (MODE_SERIAL, MODE_STRUCTURAL, MODE_STRUCTURAL_FAULT, MODE_FULL)
# The pool builds a P x (P - 1) steal table every phase, so its cost grows
# as P squared; far past any host's core count it only burns memory.
MAX_WORKERS = 1024


@dataclass
class SimConfig:
    """Run settings, and nothing else: ``steady_state_check`` is the CLI's
    ``--steady-check`` re-sweep.  Tests record output traces and per-task
    costs at the engine's seams, outside the engine."""

    workers: int = 1
    mode: str = MODE_FULL
    threshold: float = 0.02
    drop_on_detect: bool = False
    steady_state_check: bool = False

    def validate(self) -> None:
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"worker count must lie in 1..{MAX_WORKERS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")

    def echo(self) -> dict:
        return {
            "workers": self.workers,
            "mode": self.mode,
            "threshold": self.threshold,
            "drop_on_detect": int(self.drop_on_detect),
        }
