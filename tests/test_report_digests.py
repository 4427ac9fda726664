"""Report digests pinned on the fixed benches.

A change to the engine that keeps every verdict keeps every report CSV
byte for byte.  These digests were computed before the engine swept the
logic outside every output's cone, and every mode, with and without
``drop_on_detect``, must still reproduce them; the runs that drop also
re-sweep (``steady_state_check``).

Every mode runs a cycle in serial's order (evaluate, strobe, commit), so
with the drop every mode also executes and skips, per cycle, what
``serial`` does where no node is expanded (an expanded node counts its
master and slaves as tasks).
"""

import hashlib

import pytest

from faultsim.config import MODES, SimConfig
from faultsim.genbench import gen_bench
from faultsim.report import emit_report_csv
from faultsim.scheduler import run_simulation

# (profile, size, seed, fault count) -> sha256 of the report CSV; 10 cycles.
DIGESTS = {
    ("skewed", 3000, 42, None):
        "ddc1a81a768e88c10d222ab83b488194435f10f3995522fdb8b7ad4b951f5675",
    ("pipeline", 1500, 42, 15000):
        "bbe96629ca14cf4640d79936244187efd0b95ba150c928cf29a2d2ea1f941170",
    ("uniform", 600, 11, None):
        "a46dc03aa1ce1d2ea491e68cf59ed433b2314b16c68c770d390ccd49e940e947",
}


@pytest.mark.parametrize("bench_key", list(DIGESTS), ids=lambda k: f"{k[0]}_{k[1]}_{k[2]}")
def test_report_digests_on_fixed_benches(bench_key):
    profile, size, seed, fault_count = bench_key
    bench = gen_bench(profile, size, seed, cycles=10, fault_count=fault_count)
    counts = {}
    for mode in MODES:
        for drop in (False, True):
            graph, stim, faults = bench.build()
            config = SimConfig(workers=8, mode=mode, threshold=0.02, drop_on_detect=drop,
                               steady_state_check=drop)
            report = run_simulation(graph, faults, stim, config)
            digest = hashlib.sha256(emit_report_csv(report).encode()).hexdigest()
            assert digest == DIGESTS[bench_key], (mode, drop)
            if drop:
                counts[mode] = [(c.executed, c.skipped) for c in report.cycles]
    if profile != "skewed":     # the one bench that expands nodes
        for mode in MODES:
            assert counts[mode] == counts["serial"], mode
