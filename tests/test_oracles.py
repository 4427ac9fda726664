import random

import pytest

from faultsim.config import SimConfig
from faultsim.faults import FaultDescriptor, generate_fault_list
from faultsim.genbench import gen_bench
from faultsim.oracles import run_good_trace, run_serial_concurrent, run_single_fault
from faultsim.scheduler import SimulationEngine, run_simulation

from conftest import AND2, build, run_with_outputs


def test_controlling_value_detection():
    g = build(AND2)
    fault = FaultDescriptor(0, "port", "a", 0, "sa0")
    result = run_single_fault(g, fault, [[1, 1]])
    assert (result.detected, result.detect_cycle, result.observing_output) == (
        True, 0, "o")


def test_masked_stimulus_undetected():
    g = build(AND2)
    fault = FaultDescriptor(0, "port", "a", 0, "sa0")
    result = run_single_fault(g, fault, [[1, 0]])
    assert not result.detected


def test_dead_logic_never_detected():
    text = """
module m
input a 1
assign dead 1 = NOT a
assign live 1 = AND a a
output o 1 = live
end
"""
    g = build(text)
    fault = FaultDescriptor(0, "wire", "dead", 0, "sa1")
    result = run_single_fault(g, fault, [[0], [1], [0], [1]])
    assert not result.detected


def test_reg_stuck_fault_visible_from_reset():
    text = "module m\ninput a 4\nreg r 4 = 0\noutput o 4 = r\nnext r = a\nend"
    fault = FaultDescriptor(0, "reg", "r", 3, "sa1")
    result = run_single_fault(build(text), fault, [[0], [0]])
    assert (result.detected, result.detect_cycle) == (True, 0)


def test_serial_equals_parallel_at_many_worker_counts():
    rng = random.Random(55)
    for trial in range(6):
        profile = ("uniform", "skewed", "pipeline")[trial % 3]
        b = gen_bench(profile, rng.randint(25, 80), rng.randint(0, 9999),
                      cycles=rng.randint(3, 10), fault_count=rng.randint(2, 24))
        g, stim, faults = b.build()
        serial = run_serial_concurrent(g, faults, stim)
        for P in (1, 16):
            g2, _, _ = b.build()
            rep = run_simulation(g2, faults, stim,
                                 SimConfig(workers=P, mode="full", threshold=0.05))
            assert rep.verdicts() == serial.verdicts()


def test_serial_handles_empty_fault_list():
    b = gen_bench("uniform", 30, 1, cycles=4)
    g, stim, _ = b.build()
    report = run_serial_concurrent(g, [], stim)
    assert report.results == [] and report.coverage == 0.0
    assert len(report.cycles) == 4


@pytest.mark.parametrize("op", ["AND", "OR", "SHR"])
def test_narrow_result_of_wide_operands_is_masked(op):
    # y keeps only the low 4 bits of its 8-bit operands, so EQ y #f0 must
    # read 0 in every row; it reads 1 wherever the high bits leak through.
    text = f"""
module m
input a 8
input b 8
assign y 4 = {op} a b
assign hit 1 = EQ y #f0:8
output o 1 = hit
output w 4 = y
end
"""
    rows = [[0xF0, 0xF0], [0xF0, 0x00], [0x3C, 0x01]]
    g = build(text)
    faults = generate_fault_list(g, ["sa0", "sa1"])
    serial, serial_trace = run_with_outputs(g, faults, rows, SimConfig(mode="serial"))
    full, full_trace = run_with_outputs(build(text), faults, rows,
                                        SimConfig(workers=4, mode="full"))
    good = run_good_trace(build(text), rows)
    assert all(o == 0 for o, _ in good)
    assert serial_trace == full_trace == good
    single = []
    for f in faults:
        r = run_single_fault(build(text), f, rows)
        single.append((f.fid, r.detected, r.detect_cycle, r.observing_output))
    assert serial.verdicts() == full.verdicts() == single


@pytest.mark.parametrize("profile, size, seed, fault_count, unobservable", [
    ("skewed", 3000, 42, None, 0),
    ("pipeline", 1500, 42, 15000, 12194),
    ("uniform", 600, 11, None, 201),
])
def test_unobservable_faults_are_undetected_by_resimulation(
        profile, size, seed, fault_count, unobservable):
    """On the fixed benches the engine leaves out the pinned number of
    faults as unobservable, and single-fault resimulation, which shares
    nothing with that analysis, detects none of them: all of them where
    there are few, a seeded sample of 200 on the pipeline."""

    bench = gen_bench(profile, size, seed, cycles=10, fault_count=fault_count)
    graph, stim, faults = bench.build()
    engine = SimulationEngine(graph, faults, stim, SimConfig(mode="serial"))
    pruned = [f for f in faults if f.fid not in engine.table.site_of]
    assert (len(pruned), engine.totals.unobservable) == (unobservable, unobservable)
    if len(pruned) > 250:
        pruned = random.Random(seed).sample(pruned, 200)
    oracle_graph, _, _ = bench.build()
    good = run_good_trace(oracle_graph, stim)
    detected = [f.fid for f in pruned
                if run_single_fault(oracle_graph, f, stim, good=good).detected]
    assert detected == []
