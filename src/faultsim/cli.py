"""Command-line front end.

Subcommands:

* ``run``    - simulate one netlist/stimulus/fault-list triple
* ``gen``    - emit a synthetic benchmark (netlist, stimulus, fault list)
* ``ablate`` - run the full (mode, workers) measurement grid

Exit codes: 0 success, 1 usage, 2 input parse error, 3 simulation
invariant violation, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .ablation import ablation_run
from .config import MODES, MODE_FULL, MODE_SERIAL, SimConfig
from .faults import (
    FaultModelError, TRANSIENT, FaultDescriptor, generate_fault_list,
    parse_fault_csv,
)
from .genbench import MIN_SIZE, gen_bench
from .kernels import SimulationError
from .netlist import NetlistError
from .oracles import run_good_trace, run_serial_concurrent, run_single_fault
from .report import emit_report_csv, emit_stats
from .rtl import ElaborationError, elaborate_text
from .scheduler import run_simulation
from .stimulus import StimulusError, parse_stimulus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SIMULATION = 3
EXIT_ORACLE = 4


class InputEncodingError(ValueError):
    pass


def _read_text(path: str) -> str:
    """An input file's text; every input format is UTF-8."""

    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputEncodingError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


_PARSE_ERRORS = (
    NetlistError, ElaborationError, StimulusError, FaultModelError,
    OSError, InputEncodingError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="faultsim", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a netlist against a stimulus")
    run_p.add_argument("--netlist", required=True)
    run_p.add_argument("--stimulus", required=True)
    group = run_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--faults", help="fault list CSV")
    group.add_argument(
        "--gen-faults",
        help="comma-separated kinds, e.g. sa0,sa1 or sa0,sa1,transient:2:5",
    )
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument(
        "--mode", choices=MODES,
        help="schedule; default serial at --workers 1, where a one-worker "
             "pool models nothing serial does not, and full otherwise",
    )
    run_p.add_argument("--threshold", type=float, default=SimConfig.threshold)
    run_p.add_argument("--report", help="write per-fault verdict CSV here")
    run_p.add_argument(
        "--stats",
        help="write the config, run totals and per-cycle statistics here, "
             "as one JSON document",
    )
    run_p.add_argument("--drop-on-detect", action="store_true")
    run_p.add_argument("--steady-check", action="store_true")
    run_p.add_argument("--seed", type=int, default=0, help="seed for fault sampling")
    run_p.add_argument(
        "--fault-limit", type=int, default=0,
        help="with --gen-faults, sample down to this many faults",
    )
    run_p.add_argument(
        "--oracle-check", action="store_true",
        help="also run both reference engines and fail on any mismatch",
    )

    gen_p = sub.add_parser("gen", help="generate a synthetic benchmark")
    gen_p.add_argument("--profile", choices=("uniform", "skewed", "pipeline"),
                       required=True)
    gen_p.add_argument("--size", type=int, required=True,
                       help=f"node budget, at least {MIN_SIZE}")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--cycles", type=int, default=0,
                       help="stimulus cycles; 0 means the default, 12")
    gen_p.add_argument("--fault-count", type=int, default=0,
                       help="faults to sample; 0 means the profile default")
    gen_p.add_argument("--quiescent", action="store_true",
                       help="hold inputs constant after the first cycle")
    gen_p.add_argument("--out", required=True, help="output directory")

    abl_p = sub.add_parser("ablate", help="measure every (mode, workers) cell")
    abl_p.add_argument("--netlist", required=True)
    abl_p.add_argument("--stimulus", required=True)
    abl_p.add_argument("--faults", required=True)
    abl_p.add_argument("--workers", default="1,2,4,8",
                       help="comma-separated worker counts")
    abl_p.add_argument("--threshold", type=float, default=SimConfig.threshold)
    abl_p.add_argument("--trials", type=int, default=3,
                       help="runs per cell; each cell keeps its fastest")
    abl_p.add_argument("--out", help="write the table here instead of stdout")
    return parser


def _parse_gen_kinds(spec: str, seed: int, limit: int, graph):
    kinds = []
    window = (0, 0)
    for item in spec.split(","):
        item = item.strip().lower()
        if not item:
            continue
        kind, _, bounds = item.partition(":")
        if kind == TRANSIENT and bounds:
            try:
                start, end = map(int, bounds.split(":"))
            except ValueError:
                raise FaultModelError(f"bad transient spec '{item}'") from None
            window = (start, end)
            item = kind
        kinds.append(item)
    faults = generate_fault_list(graph, kinds, transient_window=window)
    if limit and limit < len(faults):
        rng = random.Random(seed)
        picked = sorted(rng.sample(range(len(faults)), limit))
        faults = [
            FaultDescriptor(new_fid, f.location_kind, f.location_name, f.bit,
                            f.kind, f.start, f.end)
            for new_fid, f in enumerate(faults[i] for i in picked)
        ]
    return faults


def _cmd_run(args) -> int:
    netlist_text = _read_text(args.netlist)
    graph = elaborate_text(netlist_text)
    stim = parse_stimulus(_read_text(args.stimulus))
    if args.faults:
        faults = parse_fault_csv(_read_text(args.faults))
    else:
        faults = _parse_gen_kinds(args.gen_faults, args.seed, args.fault_limit, graph)

    config = SimConfig(
        workers=args.workers,
        mode=args.mode or (MODE_SERIAL if args.workers == 1 else MODE_FULL),
        threshold=args.threshold,
        drop_on_detect=args.drop_on_detect,
        steady_state_check=args.steady_check,
    )
    try:
        config.validate()
    except ValueError as exc:
        return _usage_error(str(exc))

    report = run_simulation(graph, faults, stim, config)

    if args.oracle_check:
        mismatch = _oracle_check(netlist_text, faults, stim, report)
        if mismatch:
            print(f"oracle mismatch: {mismatch}", file=sys.stderr)
            return EXIT_ORACLE

    if args.report:
        Path(args.report).write_text(emit_report_csv(report))
    if args.stats:
        Path(args.stats).write_text(emit_stats(report))
    totals = report.totals
    print(
        f"faults={len(report.faults)} detected={report.detected} "
        f"swept={totals.swept} unobservable={totals.unobservable} "
        f"coverage={report.coverage:.4f} cycles={len(report.cycles)} "
        f"schedule_ms={totals.wall_ns / 1e6:.2f} host_ms={totals.host_ns / 1e6:.2f} "
        f"bound_ratio={totals.bound_ratio:.3f}"
    )
    if args.oracle_check:
        print("oracle-check: ok")
    return EXIT_OK


def _oracle_check(netlist_text, faults, stim, report) -> str | None:
    """Compare the report against both reference engines; return a
    description of the first mismatch."""

    serial = run_serial_concurrent(elaborate_text(netlist_text), faults, stim)
    if serial.verdicts() != report.verdicts():
        for a, b in zip(serial.verdicts(), report.verdicts()):
            if a != b:
                return f"serial {a} vs parallel {b}"
    oracle_graph = elaborate_text(netlist_text)
    good = run_good_trace(oracle_graph, stim)
    for fault, verdict in zip(report.faults, report.verdicts()):
        single = run_single_fault(oracle_graph, fault, stim, good=good)
        got = verdict[1:]
        want = (single.detected, single.detect_cycle, single.observing_output)
        if got != want:
            return f"fid {fault.fid}: single-fault {want} vs parallel {got}"
    return None


def _cmd_gen(args) -> int:
    bench = gen_bench(
        args.profile, args.size, args.seed,
        cycles=args.cycles or None,
        fault_count=args.fault_count or None,
        quiescent=args.quiescent,
    )
    paths = bench.write(args.out)
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    netlist_text = _read_text(args.netlist)
    stim = parse_stimulus(_read_text(args.stimulus))
    faults = parse_fault_csv(_read_text(args.faults))
    try:
        workers = [int(tok) for tok in args.workers.split(",") if tok.strip()]
    except ValueError:
        workers = []
    if not workers:
        return _usage_error("--workers needs comma-separated integers")
    try:
        for P in workers:
            SimConfig(workers=P, threshold=args.threshold).validate()
    except ValueError as exc:
        return _usage_error(str(exc))
    table = ablation_run(
        netlist_text, stim, faults, workers,
        threshold=args.threshold, trials=args.trials,
    )
    text = table.format()
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    if not table.verdicts_consistent:
        print("error: cells disagree on fault verdicts", file=sys.stderr)
        return EXIT_SIMULATION
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# Lower bounds of the integer options argparse cannot check by type.
_MINIMUMS = {
    "run": (("--fault-limit", 0),),
    "gen": (("--size", MIN_SIZE), ("--cycles", 0), ("--fault-count", 0)),
    "ablate": (("--trials", 1),),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    for flag, low in _MINIMUMS[args.command]:
        if getattr(args, flag[2:].replace("-", "_")) < low:
            return _usage_error(f"{flag} must be >= {low}")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_ablate(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SimulationError as exc:
        print(f"simulation invariant violation: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
