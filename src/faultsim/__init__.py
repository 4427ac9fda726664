"""Concurrent RTL fault simulation with structural- and fault-level
parallel scheduling and unified compute/commit execution."""

from .config import (
    MODE_FULL, MODE_SERIAL, MODE_STRUCTURAL, MODE_STRUCTURAL_FAULT, MODES,
    SimConfig,
)
from .faults import (
    FaultDescriptor, FaultTable, faulty_val, generate_fault_list,
    inject, parse_fault_csv, emit_fault_csv, resolve_injection_site,
)
from .kernels import NodeState, SimulationError
from .netlist import NetlistError
from .oracles import run_serial_concurrent, run_single_fault
from .report import SimulationReport, emit_report_csv, parse_report_csv
from .rtl import ElaborationError, RtlGraph, elaborate, elaborate_text
from .scheduler import SimulationEngine, run_simulation
from .stimulus import StimulusFile, StimulusError, emit_stimulus, parse_stimulus

__all__ = [
    "MODE_FULL", "MODE_SERIAL", "MODE_STRUCTURAL", "MODE_STRUCTURAL_FAULT",
    "MODES", "SimConfig",
    "FaultDescriptor", "FaultTable", "faulty_val",
    "generate_fault_list", "inject", "parse_fault_csv", "emit_fault_csv",
    "resolve_injection_site",
    "NodeState", "SimulationError",
    "NetlistError",
    "run_serial_concurrent", "run_single_fault",
    "SimulationReport", "emit_report_csv", "parse_report_csv",
    "ElaborationError", "RtlGraph", "elaborate", "elaborate_text",
    "SimulationEngine", "run_simulation",
    "StimulusFile", "StimulusError", "emit_stimulus", "parse_stimulus",
]
