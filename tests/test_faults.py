import pytest
from hypothesis import given, strategies as st

from faultsim import faults as faults_module, rtl
from faultsim.config import SimConfig
from faultsim.faults import (
    FaultDescriptor, FaultModelError, FaultTable, emit_fault_csv, faulty_val,
    generate_fault_list, inject, parse_fault_csv, resolve_injection_site,
)
from faultsim.genbench import gen_bench
from faultsim.oracles import run_good_trace
from faultsim.report import FaultResult
from faultsim.scheduler import run_simulation

from conftest import AND2, REG_LOOP, build, run_with_outputs


def fd(fid, lk, name, bit, kind, start=0, end=0):
    return FaultDescriptor(fid, lk, name, bit, kind, start, end)


def test_one_bit_wire_two_kinds():
    g = build("module m\ninput a 1\nassign y 1 = NOT a\nend")
    faults = [f for f in generate_fault_list(g, ("sa0", "sa1"))
              if f.location_name == "y"]
    assert [(f.bit, f.kind) for f in faults] == [(0, "sa0"), (0, "sa1")]


def test_fault_count_over_wires_regs_and_ports():
    text = """
module m
input a 1
reg r 1 = 0
assign w0 1 = NOT a
assign w1 1 = NOT w0
assign w2 1 = AND w0 w1
assign w3 1 = OR w1 r
next r = w3
end
"""
    g = build(text)
    faults = generate_fault_list(g, ("sa0", "sa1"))
    # 4 wires + 1 reg -> 10, plus 2 for the input port.
    assert len(faults) == 12
    by_kind = {}
    for f in faults:
        by_kind[f.location_kind] = by_kind.get(f.location_kind, 0) + 1
    assert by_kind == {"wire": 8, "reg": 2, "port": 2}


def test_fid_assignment_is_dense_and_ordered():
    g = build(REG_LOOP)
    faults = generate_fault_list(g, ("sa1", "sa0"))  # order given unsorted
    assert [f.fid for f in faults] == list(range(len(faults)))
    keys = [(g.name_to_id[f.location_name], f.bit, f.kind) for f in faults]
    assert keys == sorted(keys)


def test_empty_and_unknown_kind_sets():
    g = build(AND2)
    with pytest.raises(FaultModelError, match="empty"):
        generate_fault_list(g, ())
    with pytest.raises(FaultModelError, match="unknown fault kind"):
        generate_fault_list(g, ("sa2",))


def test_wire_fault_resolves_to_driver(and2_graph):
    g = and2_graph
    site = resolve_injection_site(g, fd(0, "wire", "y", 0, "sa0"))
    assert site == g.name_to_id["y"]


def test_reg_fault_resolves_to_reg(regloop_graph):
    g = regloop_graph
    site = resolve_injection_site(g, fd(0, "reg", "r", 1, "sa1"))
    assert site == g.name_to_id["r"]
    with pytest.raises(FaultModelError, match="not a reg"):
        resolve_injection_site(g, fd(1, "reg", "d", 0, "sa1"))


def test_port_fault_splices_virtual_carrier():
    text = """
module m
input a 1
assign x 1 = NOT a
assign y 1 = AND a x
assign z 1 = OR a y
output o 1 = z
end
"""
    g = build(text)
    a = g.name_to_id["a"]
    old_consumers = list(g.nodes[a].fanout)
    site = resolve_injection_site(g, fd(0, "port", "a", 0, "sa1"))
    carrier = g.nodes[site]
    assert carrier.kind == "virtual"
    assert g.nodes[a].fanout == [carrier.id]
    assert carrier.fanout == old_consumers
    for cid in old_consumers:
        assert a not in g.nodes[cid].fanin
        assert carrier.id in g.nodes[cid].fanin
    # Second port fault on the same input reuses the carrier.
    assert resolve_injection_site(g, fd(1, "port", "a", 0, "sa0")) == site


def test_output_port_fault_uses_wire_rule(and2_graph):
    g = and2_graph
    site = resolve_injection_site(g, fd(0, "port", "o", 0, "sa0"))
    assert site == g.name_to_id["y"]


def test_wire_fault_on_input_gets_carrier(and2_graph):
    g = and2_graph
    site = resolve_injection_site(g, fd(0, "wire", "a", 0, "sa0"))
    assert g.nodes[site].kind == "virtual"


def test_dangling_location():
    g = build(AND2)
    with pytest.raises(FaultModelError, match="unknown location"):
        resolve_injection_site(g, fd(0, "wire", "nope", 0, "sa0"))
    with pytest.raises(FaultModelError, match="bit 3 out of range"):
        resolve_injection_site(g, fd(0, "wire", "y", 3, "sa0"))


def test_negative_bit_rejected():
    g = build(AND2)
    for kind in ("wire", "port"):
        with pytest.raises(FaultModelError, match="bit -1 out of range"):
            resolve_injection_site(g, fd(0, kind, "y" if kind == "wire" else "a", -1, "sa0"))
    with pytest.raises(FaultModelError, match="bit -1 out of range"):
        inject(g, [fd(0, "wire", "y", -1, "sa0")])


def test_negative_fid_rejected():
    g = build(AND2)
    with pytest.raises(FaultModelError, match="fid must be >= 0"):
        resolve_injection_site(g, fd(-3, "wire", "y", 0, "sa0"))
    with pytest.raises(FaultModelError, match="fid must be >= 0"):
        inject(g, [fd(0, "wire", "y", 0, "sa0"), fd(-1, "port", "a", 0, "sa1")])
    # Negative fids would be cut points below the first slave's bound of 0,
    # and that slave would drop every fid under the first cut.
    text = "module m\ninput a 8\ninput b 8\nassign n 8 = AND a b\noutput o 8 = n\nend"
    faults = [fd(-100 + 2 * bit + k, "wire", "n", bit, kind)
              for bit in range(8) for k, kind in enumerate(("sa0", "sa1"))]
    with pytest.raises(FaultModelError, match="fault -100: fid must be >= 0"):
        run_simulation(build(text), faults, [[0xF0, 0xFF]],
                       SimConfig(workers=4, mode="full"))


MULTI_PORT = """
module m
input a 2
input b 2
input c 1
reg r 2 = 1
assign x 2 = AND a b
assign y 2 = MUX c x r
assign z 2 = XOR y #3:2
output o 2 = z
output p 2 = x
next r = a
end
"""


def test_inject_sorts_topo_once(monkeypatch):
    """inject splices every carrier (port faults and a wire fault on an
    input) and then sorts once; the order equals the one that
    sorting after each splice, fault by fault, leaves behind."""

    faults = [
        fd(0, "port", "a", 1, "sa0"), fd(1, "wire", "y", 0, "sa1"),
        fd(2, "port", "b", 0, "sa1"), fd(3, "wire", "c", 0, "sa0"),
        fd(4, "port", "a", 0, "sa1"), fd(5, "reg", "r", 0, "sa0"),
    ]
    sorts = []
    topo_sort = rtl._topo_sort
    monkeypatch.setattr(rtl, "_topo_sort", lambda nodes: sorts.append(1) or topo_sort(nodes))
    stepwise = build(MULTI_PORT)
    sorts.clear()
    for f in faults:
        resolve_injection_site(stepwise, f)
    assert len(sorts) == 3  # the public resolver sorts once per new carrier

    g = build(MULTI_PORT)
    sorts.clear()
    table = FaultTable(inject(g, faults))
    assert len(sorts) == 1
    assert len(g.port_carriers) == 3
    assert g.topo == stepwise.topo
    assert [table.site_of[f.fid] for f in faults] == [
        resolve_injection_site(stepwise, f) for f in faults
    ]
    g = build(MULTI_PORT)
    sorts.clear()
    inject(g, [fd(0, "wire", "y", 0, "sa1")])
    assert sorts == []


def test_inject_rejection_leaves_topo_sorted():
    g = build(MULTI_PORT)
    with pytest.raises(FaultModelError):
        inject(g, [fd(0, "port", "a", 0, "sa0"), fd(1, "wire", "nope", 0, "sa0")])
    carrier = g.port_carriers[g.name_to_id["a"]]
    assert carrier in g.topo
    assert g.topo.index(g.name_to_id["a"]) < g.topo.index(carrier)


def test_inject_empty_list(and2_graph):
    table = FaultTable(inject(and2_graph, []))
    assert table.site_of == {}


def test_inject_sorts_entries_by_fid(and2_graph):
    """A site files the caller's descriptors themselves, sorted by fid,
    and leaves the caller's list as it was."""

    g = and2_graph
    faults = [fd(7, "wire", "y", 0, "sa1"), fd(2, "wire", "y", 0, "transient", 1, 2)]
    table = FaultTable(inject(g, faults))
    site = table.node_faults(g.name_to_id["y"])
    assert list(site.fid_map) == site.fids == [2, 7]
    assert site.fid_map[7] is faults[0] and site.fid_map[2] is faults[1]
    assert len(site.transients) == 1 and site.transients[0] is faults[1]
    assert [f.fid for f in faults] == [7, 2]


def test_inject_wire_reg_port_distinct_sites(regloop_graph):
    g = regloop_graph
    faults = [
        fd(0, "wire", "d", 0, "sa0"),
        fd(1, "reg", "r", 0, "sa1"),
        fd(2, "port", "x", 0, "sa0"),
    ]
    table = FaultTable(inject(g, faults))
    sites = {table.site_of[f.fid] for f in faults}
    assert len(sites) == 3
    assert {resolve_injection_site(g, f) for f in faults} == sites
    assert sum(1 for n in g.nodes if n.kind == "virtual") == 1


def test_duplicate_fid_rejected(and2_graph):
    with pytest.raises(FaultModelError, match="duplicate fid"):
        inject(and2_graph, [fd(0, "wire", "y", 0, "sa0"),
                            fd(0, "wire", "y", 0, "sa1")])


def test_faulty_val_semantics():
    sa0 = fd(0, "wire", "y", 0, "sa0")
    sa1 = fd(1, "wire", "y", 2, "sa1")
    tr = fd(2, "wire", "y", 0, "transient", 3, 5)
    assert faulty_val(sa0, 0b1, 0) == 0b0
    assert faulty_val(sa1, 0b000, 0) == 0b100
    assert faulty_val(tr, 0b1, 4) == 0b0
    assert faulty_val(tr, 0b1, 6) == 0b1


@given(value=st.integers(0, 2**16 - 1), bit=st.integers(0, 15),
       kind=st.sampled_from(["sa0", "sa1"]), cycle=st.integers(0, 20))
def test_stuck_at_rules_are_absorbing(value, bit, kind, cycle):
    rule = fd(0, "wire", "y", bit, kind)
    once = faulty_val(rule, value, cycle)
    assert faulty_val(rule, once, cycle) == once


@given(value=st.integers(0, 2**16 - 1), bit=st.integers(0, 15))
def test_transient_flip_is_involution_inside_window(value, bit):
    rule = fd(0, "wire", "y", bit, "transient", 2, 4)
    assert faulty_val(rule, faulty_val(rule, value, 3), 3) == value


def test_injection_transparent_when_no_faults(regloop_graph):
    import random
    from conftest import rand_rows

    rows = rand_rows(random.Random(5), regloop_graph, 8)
    cfg = SimConfig(workers=3, mode="full")
    report, trace = run_with_outputs(regloop_graph, [], rows, cfg)
    g2 = build(REG_LOOP)
    assert trace == run_good_trace(g2, rows)
    assert report.results == []


def test_virtual_carrier_preserves_good_values():
    import random
    from conftest import rand_rows

    g_plain = build(REG_LOOP)
    g_spliced = build(REG_LOOP)
    resolve_injection_site(g_spliced, fd(0, "port", "x", 0, "sa0"))
    rng = random.Random(11)
    for _ in range(5):
        rows = rand_rows(rng, g_plain, 6)
        assert run_good_trace(g_plain, rows) == run_good_trace(g_spliced, rows)


def test_fault_csv_round_trip():
    faults = [
        fd(0, "wire", "y", 3, "sa0"),
        fd(1, "reg", "r", 0, "sa1"),
        fd(2, "port", "a", 1, "transient", 2, 5),
    ]
    assert parse_fault_csv(emit_fault_csv(faults)) == faults
    bench = gen_bench("pipeline", 1500, 42, cycles=10, fault_count=15000)
    faults = parse_fault_csv(bench.faults_csv)
    assert len(faults) == 15000
    assert emit_fault_csv(faults) == bench.faults_csv
    assert parse_fault_csv(emit_fault_csv(faults)) == faults


FAULT_CSV_ERRORS = [
    ("0,net,y,0,sa0\n", "bad location kind 'net'"),
    ("0, NET ,y,0,sa0\n", "bad location kind 'net'"),
    ("0,wire,y,0,stuck\n", "bad fault kind 'stuck'"),
    ("0,wire,y,0, Stuck\n", "bad fault kind 'stuck'"),
    ("0,wire,y,0,sa0\n0,wire,y,0,sa1\n", "duplicate fid 0"),
    ("0,wire,y,0,transient,5,2\n", "fault 0: window 5..2 is empty"),
    ("0,Wire,y,0,TRANSIENT,5,2\n", "fault 0: window 5..2 is empty"),
    ("x,wire,y,0,sa0\n", "bad fault row"),
    ("0,wire,y\n", "bad fault row"),
    ("0,wire,y,z,sa0\n", "bad fault row"),
    ("0,net,y,z,sa0\n", "bad fault row"),
    ("0,wire,y,0,transient,5\n", "bad fault row"),
]


def test_fault_csv_errors():
    for text, message in FAULT_CSV_ERRORS:
        with pytest.raises(FaultModelError) as info:
            parse_fault_csv(text)
        assert str(info.value).startswith(message), text


def test_fault_csv_tokens_are_case_insensitive_and_trimmed():
    canonical = parse_fault_csv(
        "0,wire,y,0,sa1\n1,reg,r,2,transient,1,3\n2,port,a,1,sa0\n"
    )
    # Any spelling, any fid order: the records come back canonical, by fid.
    spelled = parse_fault_csv(
        "fid,location_kind,location_name,bit,kind\n"
        "2,PORT , a ,1,Sa0\n0, WIRE ,y,0,SA1\n1,Reg,r,2, Transient ,1,3\n"
    )
    assert spelled == canonical
    assert [f.location_kind for f in spelled] == ["wire", "reg", "port"]
    assert [f.kind for f in spelled] == ["sa1", "transient", "sa0"]


def test_parsed_tokens_are_the_module_constants():
    """Every spelling of a token parses to the module's constant object,
    not to an equal string of the row's own."""

    faults = parse_fault_csv(
        "0,wire,y,0,sa0\n1,Wire,y,1, SA0 \n2, PORT ,a,0,Sa1\n"
        "3,reg,r,2,TRANSIENT,1,3\n4,Reg,r,0,transient ,0,0\n"
    )
    location_kinds = [faults_module.WIRE] * 2 + [faults_module.PORT] + [faults_module.REG] * 2
    kinds = ([faults_module.SA0] * 2 + [faults_module.SA1]
             + [faults_module.TRANSIENT] * 2)
    for fault, location_kind, kind in zip(faults, location_kinds, kinds, strict=True):
        assert fault.location_kind is location_kind, fault
        assert fault.kind is kind, fault


def test_rows_naming_one_location_share_its_name():
    faults = parse_fault_csv(
        "0,wire, long_name ,0,sa0\n1,wire, long_name ,1,sa1\n"
        "2,reg,long_name,0,sa0\n3,wire,other,0,sa0\n4,wire, long_name ,2,sa0\n"
    )
    assert [f.location_name for f in faults] == ["long_name"] * 3 + ["other", "long_name"]
    spaced = [faults[i].location_name for i in (0, 1, 4)]
    assert all(name is spaced[0] for name in spaced)
    bench = gen_bench("pipeline", 200, 3, cycles=2, fault_count=400)
    parsed = parse_fault_csv(bench.faults_csv)
    names = {f.location_name for f in parsed}
    assert len({id(f.location_name) for f in parsed}) == len(names) < len(parsed)


@pytest.mark.parametrize("record", [
    FaultDescriptor(3, "wire", "y", 0, "transient", 1, 2),
    FaultResult(3, "wire", "y", 0, "sa0", True, 4, "o"),
])
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_compare_by_fields():
    assert fd(3, "wire", "y", 0, "sa1") == FaultDescriptor(3, "wire", "y", 0, "sa1", 0, 0)
    assert fd(3, "wire", "y", 0, "sa1") != fd(3, "wire", "y", 1, "sa1")
    assert fd(3, "wire", "y", 0, "sa1") != fd(4, "wire", "y", 0, "sa1")
    row = ("y", 0, "sa0", True, 4, "o")
    assert FaultResult(1, "wire", *row) == FaultResult(1, "wire", *row)
    assert FaultResult(1, "wire", *row) != FaultResult(1, "port", *row)


AND8 = "module m\ninput a 8\ninput b 8\nassign n 8 = AND a b\noutput o 8 = n\nend"
GOOD_AT_N_AND_A = [fd(i, ("wire", "port")[i % 2], ("n", "a")[i % 2], i % 8, "sa0")
                   for i in range(200)]


@pytest.mark.parametrize("bad, message", [
    (fd(500, "wire", "n", 8, "sa0"), "fault 500: bit 8 out of range for 8-bit 'n'"),
    (fd(500, "wire", "n", -1, "sa0"), "fault 500: bit -1 out of range for 8-bit 'n'"),
    (fd(-5, "wire", "n", 0, "sa0"), "fault -5: fid must be >= 0"),
    (fd(500, "port", "a", 8, "sa1"), "fault 500: bit 8 out of range for 8-bit 'a'"),
    (fd(7, "wire", "n", 0, "sa0"), "duplicate fid 7"),
])
def test_inject_checks_each_fault_at_a_resolved_location(bad, message):
    """A location is resolved once; a bad fault behind many good ones there
    still fails with its own fid and message."""

    with pytest.raises(FaultModelError) as info:
        inject(build(AND8), GOOD_AT_N_AND_A + [bad])
    assert str(info.value) == message


@pytest.mark.parametrize("bad, message", [
    (fd(1, "wire", "y", 0, "SA0"), "fault 1: unknown fault kind 'SA0'"),
    (fd(1, "wire", "y", 0, "stuck"), "fault 1: unknown fault kind 'stuck'"),
    (fd(1, "wire", "y", 0, "transient", 3, 1), "fault 1: window 3..1 is empty"),
])
def test_unknown_kind_and_empty_window_are_rejected(bad, message):
    """``faulty_val`` reads any kind but sa0 and sa1 as a transient, so a
    programmatic ``SA0`` would be simulated as a flip at cycle 0.  Such a
    fault is rejected on a direct resolution and behind another fault at
    an already-resolved location."""

    with pytest.raises(FaultModelError) as info:
        resolve_injection_site(build(AND2), bad)
    assert str(info.value) == message
    with pytest.raises(FaultModelError) as info:
        inject(build(AND2), [fd(0, "wire", "y", 0, "sa1"), bad])
    assert str(info.value) == message
    # A stuck-at fault ignores its window, so any bounds are accepted.
    assert inject(build(AND2), [fd(0, "wire", "y", 0, "sa0", 3, 1)])


def test_inject_resolves_each_location_once(monkeypatch):
    """208 faults at three locations: three resolutions; the wire and the
    output port land at one site and share its sorted entry list."""

    resolved = []
    resolve = faults_module._resolve_site
    monkeypatch.setattr(faults_module, "_resolve_site",
                        lambda g, f: resolved.append(f.location_name) or resolve(g, f))
    g = build(AND8)
    good = GOOD_AT_N_AND_A
    on_output = [fd(1000 - i, "port", "o", i, "sa1") for i in range(8)]
    table = FaultTable(inject(g, good + on_output))
    assert resolved == ["n", "a", "o"]
    n = g.name_to_id["n"]
    assert table.node_faults(n).fids == sorted(
        [f.fid for f in good if f.location_name == "n"] + [f.fid for f in on_output]
    )
    assert {table.site_of[f.fid] for f in on_output} == {n}


WIDE_OUT = """
module m
input a 8
assign n 8 = NOT a
output o 16 = n
output o4 4 = n
output oo 16 = o4
assign x 8 = SHR n #8:8
output ox 8 = x
end
"""


@pytest.mark.parametrize("kind", ["wire", "port"])
def test_fault_on_an_output_bit_its_driver_does_not_reach_is_rejected(kind):
    """Bits 8..15 of a 16-bit output of an 8-bit node carry no value.  A
    stuck-at-1 there used to land at the driver as bit 10 of an 8-bit
    node, so ``SHR n #8:8`` read 4 instead of 0."""

    with pytest.raises(FaultModelError) as info:
        inject(build(WIDE_OUT), [fd(0, kind, "o", 10, "sa1")])
    assert str(info.value) == \
        "fault 0: bit 10 of 'o' is undriven: only its low 8 bits come from 'n'"
    # Behind a good fault at the same location, and through a 4-bit output.
    with pytest.raises(FaultModelError, match="fault 1: bit 8 of 'o' is undriven"):
        inject(build(WIDE_OUT), [fd(0, kind, "o", 7, "sa1"), fd(1, kind, "o", 8, "sa1")])
    with pytest.raises(FaultModelError, match="bit 4 of 'oo' is undriven: only its low 4"):
        inject(build(WIDE_OUT), [fd(0, kind, "oo", 4, "sa0")])
    g = build(WIDE_OUT)
    table = FaultTable(inject(g, [fd(0, kind, "o", 7, "sa1"), fd(1, kind, "oo", 3, "sa0")]))
    assert table.site_of == {0: g.name_to_id["n"], 1: g.name_to_id["n"]}
