import random

import pytest

from faultsim.faults import FaultDescriptor, inject
from faultsim.genbench import gen_bench
from faultsim.netlist import parse_netlist
from faultsim.rtl import (
    ElaborationError, REG, elaborate, elaborate_text, observable,
    observe_outputs, split_register_reads,
)

from conftest import build, comb_edges, graph_to_netlist, topo_positions


def positions_respect_edges(graph):
    pos = topo_positions(graph)
    return all(pos[u] < pos[v] for u, v in comb_edges(graph))


def test_and_graph_shape(and2_graph):
    g = and2_graph
    kinds = [n.kind for n in g.nodes]
    assert kinds == ["input", "input", "comb", "output"]
    y = g.nodes[g.name_to_id["y"]]
    assert y.fanin == [0, 1]
    assert topo_positions(g)[y.id] > max(topo_positions(g)[:2])


def test_self_loop_combinational_cycle():
    with pytest.raises(ElaborationError, match="combinational cycle.*w"):
        build("module m\ninput b 1\nassign w 1 = AND w b\nend")


def test_longer_cycle_reports_member_names():
    text = """
module m
input b 1
assign p 1 = AND q b
assign q 1 = OR p b
output o 1 = q
end
"""
    with pytest.raises(ElaborationError) as err:
        build(text)
    msg = str(err.value)
    assert "p" in msg and "q" in msg


def test_cycle_through_register_is_legal(regloop_graph):
    g = regloop_graph
    assert g.regs and positions_respect_edges(g)


def test_two_stage_pipeline_topology():
    text = """
module m
input x 4
reg r1 4 = 0
reg r2 4 = 0
assign a 4 = ADD x #1:4
assign b 4 = ADD r1 #1:4
output o 4 = r2
next r1 = a
next r2 = b
end
"""
    g = build(text)
    # Brute-force check: every combinational edge goes forward in topo.
    assert positions_respect_edges(g)
    pos = topo_positions(g)
    # Register current values act as sources, their next producers as sinks.
    assert pos[g.name_to_id["r1"]] < pos[g.name_to_id["b"]]


def test_diamond_tie_break_by_id():
    text = """
module m
input a 1
assign b 1 = NOT a
assign c 1 = NOT a
assign d 1 = AND b c
end
"""
    g = build(text)
    pos = topo_positions(g)
    b, c, d = (g.name_to_id[n] for n in "bcd")
    assert pos[b] < pos[c] < pos[d]


def test_topo_positions_bijection():
    text = "module m\ninput a 1\nassign b 1 = NOT a\nassign c 1 = NOT b\nend"
    g = build(text)
    pos = topo_positions(g)
    assert sorted(pos) == list(range(len(g.nodes)))
    assert [pos[g.name_to_id[n]] for n in "abc"] == [0, 1, 2]


def test_undeclared_identifier():
    with pytest.raises(ElaborationError, match="undeclared identifier 'zz'"):
        build("module m\ninput a 1\nassign y 1 = AND a zz\nend")


def test_reg_without_next():
    with pytest.raises(ElaborationError, match="no 'next'"):
        build("module m\nreg r 1 = 0\nend")


def test_duplicate_next():
    with pytest.raises(ElaborationError, match="duplicate 'next'"):
        build("module m\ninput a 1\nreg r 1 = 0\nnext r = a\nnext r = a\nend")


def test_next_must_target_reg():
    with pytest.raises(ElaborationError, match="does not target a declared reg"):
        build("module m\ninput a 1\nassign y 1 = NOT a\nnext y = a\nend")


def test_slice_bounds_and_width():
    with pytest.raises(ElaborationError, match="out of bounds"):
        build("module m\ninput a 4\nassign y 4 = SLICE 4 1 a\nend")
    with pytest.raises(ElaborationError, match="yields"):
        build("module m\ninput a 8\nassign y 3 = SLICE 7 4 a\nend")


def test_concat_width_rule():
    with pytest.raises(ElaborationError, match="CONCAT"):
        build("module m\ninput a 4\ninput b 4\nassign y 9 = CONCAT a b\nend")


def test_mux_select_width():
    with pytest.raises(ElaborationError, match="select must be 1 bit"):
        build("module m\ninput s 2\ninput a 4\nassign y 4 = MUX s a a\nend")


def test_forward_references_resolve():
    text = """
module m
input a 4
assign y 4 = ADD z z
assign z 4 = NOT a
output o 4 = y
end
"""
    g = build(text)
    assert positions_respect_edges(g)


def test_const_literals_deduplicated():
    text = "module m\ninput a 4\nassign x 4 = ADD a #3:4\nassign y 4 = SUB a #3:4\nend"
    g = build(text)
    consts = [n for n in g.nodes if n.kind == "const"]
    assert len(consts) == 1


def _isomorphic(g1, g2):
    if len(g1.nodes) != len(g2.nodes):
        return False
    for n1 in g1.nodes:
        if n1.kind == "const":
            continue
        n2 = g2.nodes[g2.name_to_id[n1.name]]
        if (n1.kind, n1.width, n1.op) != (n2.kind, n2.width, n2.op):
            return False
        fan1 = [g1.nodes[f].name if g1.nodes[f].kind != "const"
                else ("#", g1.nodes[f].init, g1.nodes[f].width) for f in n1.fanin]
        fan2 = [g2.nodes[f].name if g2.nodes[f].kind != "const"
                else ("#", g2.nodes[f].init, g2.nodes[f].width) for f in n2.fanin]
        if fan1 != fan2:
            return False
        if n1.kind == REG:
            if n1.init != n2.init:
                return False
            s1, s2 = g1.nodes[n1.next_src], g2.nodes[n2.next_src]
            if (s1.kind == "const") != (s2.kind == "const"):
                return False
            if s1.kind != "const" and s1.name != s2.name:
                return False
    return True


def test_print_parse_round_trip_fuzz():
    for seed in range(25):
        bench = gen_bench("uniform", random.Random(seed).randint(12, 90), seed)
        g = elaborate_text(bench.netlist)
        text = graph_to_netlist(g)
        g2 = elaborate_text(text)
        assert _isomorphic(g, g2), f"seed {seed} round trip not isomorphic"


def _comb_closure(decls):
    assign_of = {d.name: d for d in decls if d.kind == "assign"}

    def closure(name, seen):
        out = set()
        stack = [name]
        while stack:
            cur = stack.pop()
            d = assign_of.get(cur)
            if d is None:
                continue
            for op in d.operands:
                if isinstance(op, str) and op not in out:
                    out.add(op)
                    stack.append(op)
        return out

    return assign_of, closure


def test_random_dags_elaborate_and_back_edges_always_rejected():
    for seed in range(20):
        bench = gen_bench("uniform", 40 + seed, 1000 + seed)
        decls = parse_netlist(bench.netlist)
        elaborate(decls)  # must succeed

        assign_of, closure = _comb_closure(decls)
        # The rewritten operand slot must be width-insensitive so the only
        # possible elaboration failure is the cycle itself.
        loose = [d for d in decls if d.kind == "assign"
                 and d.op not in ("SLICE", "CONCAT", "MUX")]
        assigns = [d for d in decls if d.kind == "assign"]
        victim = None
        for d in loose:
            downstream = [
                e for e in assigns
                if d.name in closure(e.name, set()) and e.name != d.name
            ]
            if downstream:
                victim = (d, downstream[0])
                break
        if victim is None:
            d = loose[0]
            d.operands[-1] = d.name  # self-loop fallback
        else:
            upstream, consumer = victim
            upstream.operands[-1] = consumer.name
        with pytest.raises(ElaborationError, match="combinational cycle"):
            elaborate(decls)


def test_print_rejects_injected_graphs(and2_graph):
    from faultsim.faults import FaultDescriptor, resolve_injection_site

    resolve_injection_site(and2_graph, FaultDescriptor(0, "port", "a", 0, "sa0"))
    with pytest.raises(ValueError, match="virtual"):
        graph_to_netlist(and2_graph)


def cone(text, faults=()):
    """Names of the nodes ``observable`` marks, on the graph as the engine
    sets it up: faults injected, register reads split, outputs observed."""

    g = build(text)
    inject(g, list(faults))
    split_register_reads(g)
    observe_outputs(g)
    seen = observable(g)
    return {n.name for n in g.nodes if seen[n.id]}, g


def test_write_only_register_bank_is_unobservable():
    """Registers whose only reader is their own ``next`` logic feed no
    output, and neither does that logic."""

    live, _ = cone("""
module m
input a 4
reg r0 4 = 0
reg r1 4 = 0
assign w0 4 = ADD r0 a
assign w1 4 = XOR r1 w0
assign y 4 = NOT a
output o 4 = y
next r0 = w0
next r1 = w1
end
""")
    assert live == {"a", "y", "o"}


def test_register_seen_through_next_source_is_observable():
    """``d`` reaches the output only as ``r``'s next value, and ``r`` only
    through the comb node reading it."""

    live, _ = cone("""
module m
input x 4
input unused 4
reg r 4 = 0
assign d 4 = ADD x #1:4
assign e 4 = NOT r
output o 4 = e
next r = d
end
""")
    assert live == {"x", "#1:4", "d", "r", "e", "o"}


def test_register_driving_an_output_is_seen_through_its_copy():
    live, g = cone("""
module m
input x 4
reg r 4 = 0
reg s 4 = 0
output o 4 = r
output p 2 = s
next r = s
next s = x
end
""")
    assert {"r$cpy", "s$cpy", "s$cpy2"} <= live
    assert live == {n.name for n in g.nodes}


def test_input_carrier_feeding_only_dead_logic_is_unobservable():
    live, g = cone("""
module m
input a 1
input b 1
reg r 1 = 0
assign w 1 = AND r b
assign y 1 = NOT a
output o 1 = y
next r = w
end
""", [FaultDescriptor(0, "port", "b", 0, "sa0"),
      FaultDescriptor(1, "port", "a", 0, "sa1")])
    assert {"b$flt", "a$flt"} <= {n.name for n in g.nodes}
    assert live == {"a", "a$flt", "y", "o"}


def test_chain_of_outputs_is_observable_to_its_first_driver():
    live, g = cone("""
module m
input a 8
input b 8
assign n 8 = ADD a b
assign dead 8 = SUB a b
output o1 8 = n
output o2 4 = o1
output o3 2 = o2
end
""")
    assert live == {n.name for n in g.nodes} - {"dead"}
