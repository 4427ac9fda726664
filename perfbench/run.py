"""faultsim benchmark: grade generated fault lists end to end, from netlist
text to report CSV, in one process and one OS thread, and check every
verdict.

Run from the repository root:

    python3 perfbench/run.py --workload skewed_3000 --seed 42 --seconds 36 --trace 0

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` adds a separate traced run and prints the per-layer metrics.
A summary goes to stdout first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Detailed
results go to ``perfbench/out/``.  The exit code is 0 only when every
check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="generation seed of the workload's first instance")
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measurement rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import faultsim from this checkout's src/, never from elsewhere."""

    if not (SRC / "faultsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no faultsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import faultsim

    if Path(faultsim.__file__).resolve().parent != SRC / "faultsim":
        raise SystemExit(f"error: imported faultsim from {faultsim.__file__}")


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import bench
    import tracer as tr

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(bench.WORKLOADS)})")

    t_gen = time.perf_counter()
    instances = bench.make_instances(workload, args.seed)
    gen_s = time.perf_counter() - t_gen
    checks = bench.Checks()
    tracer = tr.Tracer() if args.trace else None
    if tracer is not None:
        tracer.calibrate()

    gc.disable()
    try:
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        min_rounds = 2 if args.trace else 1
        while rounds < min_rounds or time.perf_counter() < deadline:
            for i, inst in enumerate(instances):
                if rounds >= min_rounds and time.perf_counter() >= deadline:
                    break
                chain = bench.measured_iteration(inst, checks)
                if rounds == 0:
                    bench.resim_check(inst, chain, args.seed, checks)
                if tracer is not None:
                    bench.traced_iteration(inst, tracer, checks,
                                           keep=(rounds == 0 and i == 0))
            rounds += 1
        peak = None if args.trace else bench.peak_mem_mb(instances[0])
    finally:
        gc.enable()

    e2e = bench.combine(instances, "samples", instances[0].samples.keys())
    if peak is not None:
        e2e["peak_mem_mb"] = peak
    e2e["mismatch_frac"] = checks.failed / checks.attempted

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "gen_seeds": [args.seed + 1000 * i for i in range(workload.instances)],
        "instances": [inst.name for inst in instances],
        "rounds": rounds, "generate_s": gen_s,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "notes": checks.notes},
        "end_to_end": e2e,
        "per_instance": {
            inst.name: {key: {"median": statistics.median(v), "min": min(v),
                              "max": max(v), "n": len(v)}
                         for key, v in inst.samples.items()}
            for inst in instances
        },
    }

    print(f"workload {args.workload} seed {args.seed} instances "
          f"{','.join(inst.name for inst in instances)} rounds {rounds}")
    print("roadmap rows (raw medians: host s, modeled makespan ms; slowdown probed):")
    print("  instance | serial host s | full P=8 host s | modeled makespan ms "
          "| pool overhead s | slowdown")
    for inst in instances:
        med = {k: statistics.median(v) for k, v in inst.samples.items()}
        print(f"  {inst.name} | {med['raw_serial_s']:.4f} | {med['raw_sim_s']:.4f} | "
              f"{med['raw_schedule_ms']:.2f} | {med['raw_pool_overhead_s']:.4f} "
              f"| {med['slowdown']:.3f}")
    print("end to end (normalized to nominal speed; mean over instances of the "
          "per-instance median):")
    for key in (*bench.END_TO_END, "mismatch_frac"):
        if key in e2e:
            unit = bench.END_TO_END.get(key, "ratio")
            print(f"  {key} = {fmt(e2e[key])} {unit}")

    if tracer is not None:
        layers = bench.combine(instances, "layers", instances[0].layers.keys())
        layers["trace.overhead_frac"] = statistics.fmean(
            statistics.median(inst.layers["traced_sim_s"])
            / statistics.median(inst.samples["sim_s"]) - 1
            for inst in instances)
        attribution = bench.attribute(instances)
        result["per_layer"] = layers
        result["span_overhead_ns"] = {"inside": tracer.span_in_ns,
                                      "outside": tracer.span_out_ns}
        result["attribution"] = attribution
        print("per layer (traced run):")
        for key in bench.PER_LAYER:
            print(f"  {key} = {fmt(layers[key])} {bench.layer_unit(key)}")
        print(bench.format_attribution(attribution, e2e))
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"TRACE_{args.workload}_s{args.seed}"
        table = tracer.span_table(args.workload)
        tr.write_json(f"{stem}.spans.json", table)
        tr.write_json(f"{stem}.chrome.json", tracer.chrome_trace(table, tracer.kept_phases))
        metrics = {k: {"value": layers[k], "unit": bench.layer_unit(k)}
                   for k in bench.PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in bench.END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    tr.write_json(OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json", result)
    for note in checks.notes:
        print(f"check failed: {note}")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
