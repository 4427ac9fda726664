import random

import pytest
from hypothesis import given, settings, strategies as st

from faultsim.faults import (
    NO_FAULTS, FaultDescriptor, FaultTable, NodeFaults, faulty_val, inject,
)
from faultsim.kernels import (
    NodeState, SimulationError, check_dependence_changed, eval_bad_gates,
    eval_good, initial_states, sync_check_needed, sync_register,
)
from faultsim.netlist import OPERATOR_ARITY
from faultsim.oracles import _ref_op, run_single_fault
from faultsim.rtl import RtlNode
from faultsim.scheduler import run_simulation
from faultsim.config import SimConfig

from conftest import build, run_with_outputs


def comb(op, width, nfanin, **kw):
    return RtlNode(0, "comb", "n", width, op=op,
                   fanin=list(range(nfanin)), **kw)


def rule(fid, bit, kind, start=0, end=0, name="y"):
    return FaultDescriptor(fid, "wire", name, bit, kind, start, end)


def nf(*faults):
    return NodeFaults(list(faults))


def discard_some(faults, rng, p):
    """Drop each injected fault with probability p, as a detection would;
    returns the dropped fids."""

    dropped = {f for f in faults.fids if rng.random() < p}
    for f in dropped:
        faults.discard(f)
    return dropped


class TestEvalGood:
    def test_basic_truths(self):
        assert eval_good(comb("AND", 1, 2), [1, 1]) == 1
        assert eval_good(comb("AND", 1, 2), [1, 0]) == 0
        assert eval_good(comb("ADD", 8, 2), [0xFF, 0x01]) == 0x00
        assert eval_good(comb("SUB", 4, 2), [0x0, 0x1]) == 0xF
        assert eval_good(comb("MUL", 4, 2), [0x7, 0x3]) == 0x5
        assert eval_good(comb("MUX", 4, 3), [1, 0xA, 0xB]) == 0xA
        assert eval_good(comb("MUX", 4, 3), [0, 0xA, 0xB]) == 0xB
        assert eval_good(comb("EQ", 1, 2), [5, 5]) == 1
        assert eval_good(comb("LT", 1, 2), [3, 5]) == 1
        assert eval_good(comb("NOT", 4, 1), [0b1010]) == 0b0101
        assert eval_good(comb("SHL", 8, 2), [0x81, 1]) == 0x02
        assert eval_good(comb("SHR", 8, 2), [0x81, 4]) == 0x08
        assert eval_good(comb("SHR", 8, 2), [0x81, 200]) == 0
        assert eval_good(comb("XOR", 2, 2), [0b01, 0b11]) == 0b10
        assert eval_good(comb("OR", 2, 2), [0b01, 0b10]) == 0b11

    def test_slice_and_concat(self):
        assert eval_good(comb("SLICE", 4, 1, slice_hi=7, slice_lo=4), [0xA5]) == 0xA
        assert eval_good(comb("CONCAT", 8, 2, concat_lo_width=4), [0xA, 0x5]) == 0xA5

    def test_zero_extension_of_narrow_operands(self):
        # 4-bit values into an 8-bit ADD behave as zero-extended.
        assert eval_good(comb("ADD", 8, 2), [0xF, 0x1]) == 0x10

    def test_truncation_to_result_width(self):
        assert eval_good(comb("XOR", 4, 2), [0xFF, 0x0F]) == 0x0
        assert eval_good(comb("MUX", 2, 3), [1, 0xFF, 0x00]) == 0x3

    def test_pass_through_kinds(self):
        virt = RtlNode(0, "virtual", "v", 4, fanin=[1])
        assert eval_good(virt, [0x1F]) == 0xF
        # An output shares its driver's state and is never evaluated.
        out = RtlNode(0, "output", "o", 8, fanin=[1])
        with pytest.raises(SimulationError, match="cannot evaluate node kind 'output'"):
            eval_good(out, [0x12])


wide_vals = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(["AND", "OR", "XOR", "NOT", "ADD", "SUB", "MUL",
                           "EQ", "LT", "MUX", "SHL", "SHR"]),
       a=wide_vals, b=wide_vals, s=st.integers(0, 1),
       width=st.integers(1, 64), wa=st.integers(1, 64), wb=st.integers(1, 64))
def test_kernel_and_reference_operator_semantics_agree(op, a, b, s, width, wa, wb):
    """The engine kernel and the independently written reference evaluator
    must implement identical operator semantics, also for operands wider or
    narrower than the result, which the elaborator accepts."""

    a &= (1 << wa) - 1
    b &= (1 << wb) - 1
    if op == "NOT":
        node, vals = comb(op, width, 1), [a]
    elif op == "MUX":
        node, vals = comb(op, width, 3), [s, a, b]
    elif op in ("SHL", "SHR"):
        node, vals = comb(op, width, 2), [a, b & 0x7F]
    else:
        node, vals = comb(op, width, 2), [a, b]
    assert eval_good(node, vals) == _ref_op(node, vals)


@settings(max_examples=120, deadline=None)
@given(a=wide_vals, hi=st.integers(0, 63), lo=st.integers(0, 63),
       wlo=st.integers(1, 32), whi=st.integers(1, 32))
def test_slice_concat_semantics_agree(a, hi, lo, wlo, whi):
    hi, lo = max(hi, lo), min(hi, lo)
    node = comb("SLICE", hi - lo + 1, 1, slice_hi=hi, slice_lo=lo)
    vals = [a]
    assert eval_good(node, vals) == _ref_op(node, vals)
    node2 = comb("CONCAT", min(64, wlo + whi), 2, concat_lo_width=wlo)
    vals2 = [a & ((1 << whi) - 1), a & ((1 << wlo) - 1)]
    assert eval_good(node2, vals2) == _ref_op(node2, vals2)


def reference_bad_gates(node, fan, injected, new_good, cycle, fids):
    """Each fid's bad gate on its own: the operator over the fanins' values
    for that fid, then the forcing rule of a fault ``injected`` here;
    only values other than ``new_good`` are kept."""

    out = []
    for f in fids:
        raw = eval_good(node, [dict(fs.bads).get(f, fs.good) for fs in fan])
        if f in injected:
            raw = faulty_val(injected[f], raw, cycle)
        if raw != new_good:
            out.append((f, raw))
    return out


def candidates(fan, faults, cycle):
    """The fids a node's bad gates are evaluated for: divergent at a fanin,
    or injected here with an open window."""

    fids = {f for fs in fan for f, _ in fs.bads}
    fids.update(f.fid for f in faults.fid_map.values()
                if f.kind != "transient" or f.start <= cycle <= f.end)
    return sorted(fids)


class TestAffectedFids:
    """Which fids ``eval_bad_gates`` evaluates: its returned count."""

    def test_empty(self):
        node = comb("AND", 1, 2)
        states = [NodeState(1), NodeState(1)]
        assert eval_bad_gates(node, states, NO_FAULTS, 1, 0) == ([], 0)

    def test_union_of_sources(self):
        node = comb("AND", 1, 2)
        fan = [NodeState(1, [(3, 0), (7, 0)]), NodeState(1, [(7, 0)])]
        faults = nf(rule(7, 0, "sa1"), rule(9, 0, "sa0"))
        # 3 diverges upstream; 7 diverges upstream and its stuck-at-1 forces
        # the good value back; 9 is injected only.
        assert eval_bad_gates(node, fan, faults, 1, 0) == ([(3, 0), (9, 0)], 3)

    def test_inactive_window_excluded(self):
        node = comb("AND", 1, 2)
        faults = nf(rule(4, 0, "transient", 3, 5))
        fan = [NodeState(1), NodeState(1)]
        for cycle, want in [(0, ([], 0)), (2, ([], 0)), (3, ([(4, 0)], 1)),
                            (4, ([(4, 0)], 1)), (5, ([(4, 0)], 1)), (6, ([], 0))]:
            assert eval_bad_gates(node, fan, faults, 1, cycle) == want
        faults.discard(4)
        assert (faults.fids, faults.fid_map, faults.stuck,
                faults.transients) == ([], {}, [], [])
        assert eval_bad_gates(node, fan, faults, 1, 4) == ([], 0)
        assert not check_dependence_changed(node, fan, faults, 3)

    def test_discard_keeps_stuck_list(self):
        faults = nf(rule(2, 0, "sa0"), rule(5, 0, "transient", 1, 2),
                    rule(8, 0, "sa1"), rule(11, 0, "sa0"))
        assert faults.stuck == [2, 8, 11]
        faults.discard(8)
        faults.discard(5)
        assert faults.stuck == [2, 11] and faults.fids == [2, 11]
        node = comb("OR", 1, 2)
        fan = [NodeState(1, [(8, 0)]), NodeState(0)]
        # 8 now diverges only upstream; the stuck-at-0 fids 2 and 11 stay.
        assert eval_bad_gates(node, fan, faults, 1, 1) == ([(2, 0), (8, 0), (11, 0)], 3)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_own_only_fids_converge(self, data):
        """The candidates leave out fids divergent only at the node itself.
        Such a fid reads the good value at every fanin and is not live-
        injected here, so it evaluates to the good value: adding it back
        would change no result."""

        rng = random.Random(data.draw(st.integers(0, 10**6)))
        op = rng.choice(sorted(OPERATOR_ARITY))
        width = rng.randint(1, 64)
        if op == "SLICE":
            lo = rng.randint(0, 63)
            hi = rng.randint(lo, 63)
            width = hi - lo + 1
            node = comb(op, width, 1, slice_hi=hi, slice_lo=lo)
        elif op == "CONCAT":
            node = comb(op, width, 2, concat_lo_width=rng.randint(1, width))
        else:
            node = comb(op, width, OPERATOR_ARITY[op])
        cycle = rng.randint(0, 6)

        def rand_state(w):
            good = rng.getrandbits(w)
            fids = sorted(rng.sample(range(60), rng.randint(0, 12)))
            return NodeState(good, [(f, v) for f in fids
                                    if (v := rng.getrandbits(w)) != good])

        fan = [rand_state(rng.randint(1, 64)) for _ in node.fanin]
        own = rand_state(width)
        faults = NodeFaults([
            rule(f, rng.randrange(width), rng.choice(["sa0", "sa1", "transient"]),
                 *sorted(rng.sample(range(7), 2)))
            for f in rng.sample(range(60), rng.randint(0, 6))
        ])
        discard_some(faults, rng, 0.3)
        new_good = eval_good(node, [fs.good for fs in fan])
        affected = candidates(fan, faults, cycle)
        kept, evaluated = eval_bad_gates(node, fan, faults, new_good, cycle)
        assert evaluated == len(affected)
        assert kept == reference_bad_gates(node, fan, faults.fid_map, new_good,
                                           cycle, affected)
        own_only = [f for f, _ in own.bads if f not in affected]
        assert reference_bad_gates(node, fan, faults.fid_map, new_good,
                                   cycle, own_only) == []


def random_site(rng, width, fid_range, max_faults):
    """Faults injected at a node, stuck-at and transient, some discarded
    as a detection would."""

    faults = NodeFaults([
        rule(f, rng.randrange(width), rng.choice(["sa0", "sa1", "transient"]),
             *sorted(rng.sample(range(5), 2)))
        for f in rng.sample(range(fid_range), rng.randint(0, max_faults))
    ])
    discard_some(faults, rng, 0.25)
    return faults


class TestEvalBadSet:
    def test_divergence_kept(self):
        node = comb("AND", 1, 2)
        fan = [NodeState(1, [(4, 0)]), NodeState(1)]
        assert eval_bad_gates(node, fan, NO_FAULTS, 1, 0) == ([(4, 0)], 1)

    def test_masking_drops_entry(self):
        node = comb("OR", 1, 2)
        fan = [NodeState(1), NodeState(0, [(4, 1)])]
        assert eval_bad_gates(node, fan, NO_FAULTS, 1, 0) == ([], 1)

    def test_forced_value_equal_to_good_not_stored(self):
        # Stuck-at-0 on an AND whose good output is already 0.
        node = comb("AND", 1, 2)
        fan = [NodeState(0), NodeState(1)]
        faults = nf(rule(9, 0, "sa0"))
        assert eval_bad_gates(node, fan, faults, 0, 0) == ([], 1)

    def test_inactive_stuck_fault_produces_no_divergence_anywhere(self):
        text = """
module m
input a 1
assign n1 1 = NOT a
assign n2 1 = NOT n1
output o 1 = n2
end
"""
        g = build(text)
        fault = FaultDescriptor(0, "port", "a", 0, "sa1")
        rows = [[1], [1], [1]]
        oracle = run_single_fault(build(text), fault, rows)
        assert not oracle.detected
        report, trace = run_with_outputs(g, [fault], rows, SimConfig(workers=2))
        assert not report.results[0].detected
        g2 = build(text)
        from faultsim.oracles import run_good_trace
        assert trace == run_good_trace(g2, rows)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_range_decomposition(self, data):
        """Cut the fid range at candidate fids, as a master cuts at the
        quantiles of a list: the pieces' kept pairs and counts add up to the
        whole; fault-level splitting relies on this exactly."""

        rng = random.Random(data.draw(st.integers(0, 10**6)))
        width = rng.randint(1, 8)
        node = comb(rng.choice(["AND", "OR", "XOR", "ADD"]), width, 2)
        def rand_bads():
            fids = sorted(rng.sample(range(40), rng.randint(0, 10)))
            return [(f, rng.randrange(1 << width)) for f in fids]
        fan = [NodeState(rng.randrange(1 << width), rand_bads()) for _ in range(2)]
        faults = random_site(rng, width, 40, 4)
        cycle = rng.randint(0, 5)
        new_good = eval_good(node, [fan[0].good, fan[1].good])
        whole, evaluated = eval_bad_gates(node, fan, faults, new_good, cycle)
        affected = candidates(fan, faults, cycle)
        assert evaluated == len(affected)
        assert whole == reference_bad_gates(node, fan, faults.fid_map, new_good,
                                            cycle, affected)
        cuts = sorted(rng.choices(affected, k=rng.randint(0, 3))) if affected else []
        pieces, counted = [], 0
        for lo, hi in zip([0] + cuts, cuts + [None]):
            kept, n = eval_bad_gates(node, fan, faults, new_good, cycle, lo, hi)
            pieces.extend(kept)
            counted += n
        assert (pieces, counted) == (whole, evaluated)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fid_cut_partials_concatenate(self, data):
        """A slave evaluates the candidates in its [lo, hi) fid range; over
        any fid cut points the slaves' partials concatenate to the unsplit
        result, for every operator arity, and so do one-fid ranges.  Each
        fid's value is the operator applied to its own fanin values, then
        its forcing rule."""

        rng = random.Random(data.draw(st.integers(0, 10**6)))
        width = rng.randint(1, 8)
        op, arity = rng.choice([("AND", 2), ("SUB", 2), ("LT", 2), ("NOT", 1),
                                ("MUX", 3)])
        node = comb(op, width, arity)
        cycle = rng.randint(0, 4)

        def rand_bads(w):
            fids = sorted(rng.sample(range(40), rng.randint(0, 10)))
            return [(f, v) for f in fids if (v := rng.randrange(1 << w))]

        fan = []
        for i in range(arity):
            w = 1 if op == "MUX" and i == 0 else width
            good = rng.randrange(1 << w)
            fan.append(NodeState(good, [(f, v) for f, v in rand_bads(w) if v != good]))
        faults = random_site(rng, width, 40, 4)
        new_good = eval_good(node, [fs.good for fs in fan])
        whole, evaluated = eval_bad_gates(node, fan, faults, new_good, cycle)
        affected = candidates(fan, faults, cycle)
        assert evaluated == len(affected)
        assert whole == reference_bad_gates(node, fan, faults.fid_map, new_good,
                                            cycle, affected)
        cuts = sorted(data.draw(st.lists(st.integers(0, 41), max_size=7)))
        pieces = []
        for lo, hi in zip([0] + cuts, cuts + [None]):
            kept, n = eval_bad_gates(node, fan, faults, new_good, cycle, lo, hi)
            assert n == sum(1 for f in affected if lo <= f and (hi is None or f < hi))
            pieces.extend(kept)
        assert pieces == whole
        singles = []
        for f in affected:
            kept, n = eval_bad_gates(node, fan, faults, new_good, cycle, f, f + 1)
            assert n == 1
            singles.extend(kept)
        assert singles == whole


class TestDependenceCheck:
    def test_first_cycle_always_true(self):
        node = comb("AND", 1, 2)
        assert check_dependence_changed(node, [NodeState(), NodeState()], NO_FAULTS, 0)

    def test_stable_fanins_skip(self):
        node = comb("AND", 1, 2)
        assert not check_dependence_changed(node, [NodeState(), NodeState()], NO_FAULTS, 3)

    def test_changed_fanin_triggers(self):
        node = comb("AND", 1, 2)
        changed = NodeState()
        changed.bads_stamp = 3
        assert check_dependence_changed(node, [NodeState(), changed], NO_FAULTS, 3)
        assert not check_dependence_changed(node, [NodeState(), changed], NO_FAULTS, 4)

    def test_window_toggle_triggers(self):
        node = comb("AND", 1, 2)
        faults = nf(rule(0, 0, "transient", 3, 5))
        quiet = [NodeState(), NodeState()]
        assert check_dependence_changed(node, quiet, faults, 3)
        assert not check_dependence_changed(node, quiet, faults, 4)
        assert check_dependence_changed(node, quiet, faults, 6)
        assert not check_dependence_changed(node, quiet, faults, 7)


def reg_node(width=1, init=0):
    return RtlNode(0, "reg", "r", width, init=init)


class TestSyncRegister:
    def test_plain_copy(self):
        reg = reg_node(4)
        good, bads = sync_register(reg, NodeState(5, []), NO_FAULTS, 1)
        assert (good, bads) == (5, [])

    def test_incoming_bads_filtered_against_new_good(self):
        reg = reg_node(4)
        nxt = NodeState(5, [(2, 5), (7, 9)])
        good, bads = sync_register(reg, nxt, NO_FAULTS, 1)
        assert (good, bads) == (5, [(7, 9)])

    def test_one_bit_brute_force_against_enumeration(self):
        """Exhaustive 1-bit check: every (good, incoming bad, rule) case
        matches independently enumerated stuck-at semantics."""

        for incoming_good in (0, 1):
            for incoming_bad in (None, 0, 1):
                for kind in ("sa0", "sa1"):
                    reg = reg_node(1)
                    faults = nf(rule(9, 0, kind))
                    nxt = NodeState(incoming_good)
                    if incoming_bad is not None:
                        nxt.bads = [(9, incoming_bad)] if incoming_bad != incoming_good else []
                    good, bads = sync_register(reg, nxt, faults, 1)
                    base = incoming_bad if incoming_bad is not None else incoming_good
                    forced = 0 if kind == "sa0" else 1
                    expect = [(9, forced)] if forced != incoming_good else []
                    assert good == incoming_good
                    assert bads == expect, (incoming_good, incoming_bad, kind)

    def test_transient_state_persists_after_window(self):
        """A transient flip on a counter register lingers through state even
        after the window closes; truth from the one-fault resimulator."""

        text = """
module m
input en 1
reg cnt 4 = 0
assign inc 4 = ADD cnt #1:4
output o 4 = cnt
next cnt = inc
end
"""
        fault = FaultDescriptor(0, "reg", "cnt", 0, "transient", 1, 2)
        rows = [[1]] * 6
        oracle = run_single_fault(build(text), fault, rows)
        report = run_simulation(build(text), [fault], rows, SimConfig(workers=2))
        assert oracle.output_trace != [(r[0],) for r in rows]  # fault did act
        assert report.results[0].detected == oracle.detected
        assert report.results[0].detect_cycle == oracle.detect_cycle
        # Divergence remains observable after the window [1, 2] closes.
        g_check = build(text)
        from faultsim.oracles import run_good_trace
        good = run_good_trace(g_check, rows)
        assert oracle.output_trace[4] != good[4]

    def test_sync_skip_check_cold_start(self):
        assert sync_check_needed(NodeState(), NodeState(), NO_FAULTS, 1)
        assert not sync_check_needed(NodeState(), NodeState(), NO_FAULTS, 3)


def test_initial_states_apply_reg_rules():
    text = "module m\ninput a 4\nreg r 4 = 6\nnext r = a\nend"
    g = build(text)
    table = FaultTable(inject(g, [FaultDescriptor(0, "reg", "r", 0, "sa1")]))
    states = initial_states(g, table)
    rid = g.name_to_id["r"]
    assert states[rid].good == 6
    assert states[rid].bads == [(0, 7)]
