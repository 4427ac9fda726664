import hashlib

import pytest

from faultsim.faults import parse_fault_csv
from faultsim.genbench import gen_bench
from faultsim.rtl import elaborate_text


def test_deterministic_by_seed():
    a = gen_bench("uniform", 100, 7)
    b = gen_bench("uniform", 100, 7)
    assert (a.netlist, a.stimulus, a.faults_csv) == (b.netlist, b.stimulus, b.faults_csv)
    c = gen_bench("uniform", 100, 8)
    assert c.netlist != a.netlist or c.stimulus != a.stimulus


# sha256 of the netlist, stimulus and fault CSV texts of the first instance
# of each benchmark workload (perfbench/bench.py): a generator change that
# moves a byte of them changes what every earlier measurement meant.
GOLDEN = [
    (("skewed", 3000, 42), dict(cycles=10), (
        "f1f01a01aaee18036225cbbcc424c09cf1fd9e22558c15cdcbcbc14d3d60da8e",
        "c08170da6e32a079f3c6801c50bd4bcb663c5adb240cb309a158437b354d24d1",
        "274b6d7290144cfe0b78179338976ff844420bf79f184fed5fc573f8535e5f05")),
    (("pipeline", 1500, 42), dict(cycles=10, fault_count=15000), (
        "ecc4c14b871f15701be18523bde79b6d449864a674e4e901b623366ba60e2e5f",
        "6a8d5d30d7ca398a7bbcd72ccd3490e6104e5fab428d1f66c3317ae0035b890e",
        "da828597c7275a628ef7514efb0ed81fa5f57c2b2318d858f71ec8fae41da49f")),
    (("uniform", 600, 11), dict(cycles=10), (
        "b9e0b5c2ec6cefb500780748b6b717d3c227f45a13c4873e77640dc8615964a6",
        "d2d2c61792d40523e3bf2c36b77646daadb79c4b4375ccc14c62968af614032d",
        "92ea30911833850d2d1d9b0c16e0c1a069bd6af9b55444ccc07fbf0bd9042115")),
]


@pytest.mark.parametrize("args,kwargs,digests", GOLDEN,
                         ids=["_".join(map(str, args)) for args, _, _ in GOLDEN])
def test_fixed_benches_are_byte_stable(args, kwargs, digests):
    bench = gen_bench(*args, **kwargs)
    texts = (bench.netlist, bench.stimulus, bench.faults_csv)
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == digests


def test_size_floor_and_profile_validation():
    with pytest.raises(ValueError, match="size"):
        gen_bench("uniform", 9, 0)
    with pytest.raises(ValueError, match="profile"):
        gen_bench("gaussian", 100, 0)


@pytest.mark.parametrize("profile", ["uniform", "skewed", "pipeline"])
def test_minimum_size_builds(profile):
    g, stim, faults = gen_bench(profile, 10, 3).build()
    assert g.nodes and stim.rows and faults


def test_pipeline_reg_density():
    for size in (200, 1000):
        g, _, _ = gen_bench("pipeline", size, 5).build()
        assert len(g.regs) >= size / 4


def test_skewed_routes_most_faults_through_hub():
    bench = gen_bench("skewed", 600, 5)
    g, _, faults = bench.build()
    heavy = [f for f in faults if f.location_name.startswith(("h", "f"))]
    assert len(heavy) / len(faults) >= 0.8
    # Every heavy fault sits in the fan-in cone of the reduction hub.
    hub = max((n for n in g.nodes if n.name.startswith("f") and n.kind == "comb"),
              key=lambda n: n.id, default=g.nodes[g.name_to_id["h0"]])
    cone = set()
    stack = [hub.id]
    while stack:
        nid = stack.pop()
        if nid in cone:
            continue
        cone.add(nid)
        stack.extend(g.nodes[nid].fanin)
    cone_names = {g.nodes[n].name for n in cone}
    assert all(f.location_name in cone_names for f in heavy)


def test_skewed_one_node_dominates_before_expansion():
    """The generated skew really concentrates execution time: some single
    node's measured share exceeds 0.3 while expansion is disabled."""

    from conftest import record_costs
    from faultsim.config import SimConfig
    from faultsim.scheduler import SimulationEngine

    bench = gen_bench("skewed", 80, 3, cycles=6, fault_count=1)
    g, stim, faults = bench.build()
    eng = SimulationEngine(g, faults, stim,
                           SimConfig(workers=4, mode="structural"))
    log = record_costs(eng)
    eng.run()
    task_ns = log[-1]  # the last cycle's costs, keyed by task id
    total_ns = sum(task_ns.values())
    node_share = {
        eng.tg.tasks[tid].node: ns / total_ns for tid, ns in task_ns.items()
        if eng.tg.tasks[tid].node >= 0
    }
    top_node, top_share = max(node_share.items(), key=lambda kv: kv[1])
    assert top_share > 0.3, (g.nodes[top_node].name, top_share)


def test_fault_csv_parses_and_respects_count():
    bench = gen_bench("uniform", 80, 9, fault_count=25)
    faults = parse_fault_csv(bench.faults_csv)
    assert len(faults) == 25
    assert [f.fid for f in faults] == list(range(25))


def test_quiescent_stimulus_constant_after_first_row():
    bench = gen_bench("uniform", 50, 4, cycles=8, quiescent=True)
    _, stim, _ = bench.build()
    assert all(row == stim.rows[1] for row in stim.rows[1:])


def test_write_files(tmp_path):
    bench = gen_bench("pipeline", 60, 2)
    paths = bench.write(tmp_path)
    assert [p.suffix for p in paths] == [".nl", ".stim", ".flt"]
    assert elaborate_text(paths[0].read_text()).nodes
