"""Exactness over everything the parser accepts: random small netlists over
all 14 operators, with result and operand widths 1..64 drawn independently,
must give the fault-free output trace of the reference interpreter and the
same verdicts in the serial concurrent engine, in single-fault
resimulation, in ``full`` mode at P=1 and P=4 and in ``structural+fault``
at P=4 (the barrier commit phase), each with one drawn node expanded
first, into one slave per worker (so the fid-cut slave path runs), the
steady-state re-sweep on, and the drop of detected faults drawn on or
off.  Up to three registers whose next values may be registers give swaps
and 3-rings.
Outputs may be driven by any earlier signal or a literal, at the driver's
width or another one, and later nodes and register ``next`` values may
read them; faults are also named on output bits.  Nodes and registers
that no output reads are drawn too, so faults outside every output's cone,
which the engine never simulates, must also agree with resimulation."""

from hypothesis import HealthCheck, event, given, settings, strategies as st

from faultsim.config import SimConfig
from faultsim.faults import generate_fault_list
from faultsim.netlist import OPERATOR_ARITY
from faultsim.oracles import run_good_trace, run_serial_concurrent, run_single_fault
from faultsim.rtl import TASK_KINDS, elaborate_text
from faultsim.scheduler import SimulationEngine

from conftest import expanding_first, output_faults

OPS = sorted(OPERATOR_ARITY)
# Any width 1..64, with the word boundaries drawn often.
widths = st.one_of(st.sampled_from([1, 63, 64]), st.integers(1, 64))


@st.composite
def netlists(draw):
    """(netlist text, stimulus rows).  Signals are (name, width) pairs; an
    operand is an earlier signal or a literal.  Shift amounts favour values
    at and beyond the result width and 64; one input is 1 bit so MUX always
    has a select."""

    lines = ["module fz"]
    signals: list[tuple[str, int]] = []
    in_widths = [1] + draw(st.lists(widths, min_size=1, max_size=3))
    for i, w in enumerate(in_widths):
        lines.append(f"input i{i} {w}")
        signals.append((f"i{i}", w))
    regs = []
    for r in range(draw(st.integers(0, 3))):
        w = draw(widths)
        lines.append(f"reg r{r} {w} = {draw(st.integers(0, (1 << w) - 1)):x}")
        signals.append((f"r{r}", w))
        regs.append(f"r{r}")

    def literal(w):
        return f"#{draw(st.integers(0, (1 << w) - 1)):x}:{w}", w

    def operand(max_width=64):
        fit = [s for s in signals if s[1] <= max_width]
        if fit and draw(st.integers(0, 4)):
            return draw(st.sampled_from(fit))
        return literal(draw(st.integers(1, max_width)))

    for n in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(OPS))
        name = f"n{n}"
        if op == "SLICE":
            a, wa = operand()
            lo = draw(st.integers(0, wa - 1))
            hi = draw(st.integers(lo, wa - 1))
            width, args = hi - lo + 1, f"{hi} {lo} {a}"
        elif op == "CONCAT":
            a, wa = operand(63)
            b, wb = operand(64 - wa)
            width, args = wa + wb, f"{a} {b}"
        elif op == "MUX":
            sel = draw(st.sampled_from([s for s in signals if s[1] == 1]))[0]
            width = draw(widths)
            args = f"{sel} {operand()[0]} {operand()[0]}"
        else:
            width = draw(widths)
            ops = [operand()[0] for _ in range(OPERATOR_ARITY[op])]
            if op in ("SHL", "SHR") and draw(st.booleans()):
                amount = draw(st.sampled_from(
                    [0, 1, width - 1, width, width + 1, 63, 64, 65, 127]))
                ops[1] = f"#{amount:x}:8"
            args = " ".join(ops)
        lines.append(f"assign {name} {width} = {op} {args}")
        signals.append((name, width))
        if n == 0 or draw(st.booleans()):
            # Half the time the new node, else any earlier signal (an input, a
            # register, another output) or a literal.
            src, w = (name, width) if draw(st.booleans()) else operand()
            if draw(st.booleans()):
                w = draw(widths)
            lines.append(f"output o{n} {w} = {src}")
            signals.append((f"o{n}", w))
    for r in regs:
        lines.append(f"next {r} = {draw(st.sampled_from(signals))[0]}")
    lines.append("end")
    cycles = draw(st.integers(1, 6))
    rows = [[draw(st.integers(0, (1 << w) - 1)) for w in in_widths]
            for _ in range(cycles)]
    return "\n".join(lines) + "\n", rows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=netlists(), data=st.data())
def test_concurrent_engines_match_single_fault_resimulation(case, data):
    text, rows = case
    graph = elaborate_text(text)
    universe = generate_fault_list(
        graph, ("sa0", "sa1", "transient"),
        transient_window=(0, max(0, len(rows) - 2)))
    universe += output_faults(graph, len(universe))
    picks = data.draw(st.lists(st.integers(0, len(universe) - 1),
                               min_size=1, max_size=40, unique=True))
    faults = [universe[i] for i in sorted(picks)]

    good = run_good_trace(graph, rows)
    report = run_serial_concurrent(elaborate_text(text), faults, rows,
                                   SimConfig(mode="serial", record_outputs=True,
                                             steady_state_check=True,
                                             drop_on_detect=data.draw(st.booleans())))
    assert report.output_trace == good, text
    serial = report.verdicts()
    truth = []
    for fault in faults:
        r = run_single_fault(graph, fault, rows, good=good)
        truth.append((fault.fid, r.detected, r.detect_cycle, r.observing_output))
    assert serial == truth, text

    for workers, mode in ((1, "full"), (4, "full"), (4, "structural+fault")):
        cfg = SimConfig(workers=workers, mode=mode, threshold=0.02,
                        record_outputs=True, steady_state_check=True,
                        drop_on_detect=data.draw(st.booleans()))

        def pick(graph):
            return [data.draw(st.sampled_from(
                [n.id for n in graph.nodes if n.kind in TASK_KINDS]))]

        with expanding_first(pick):
            eng = SimulationEngine(elaborate_text(text), faults, rows, cfg)
        # How often examples hold pruned faults: --hypothesis-show-statistics.
        event("some faults unobservable" if eng.totals.unobservable
              else "every fault observable")
        report = eng.run()
        assert report.output_trace == good, (text, workers, mode)
        assert report.verdicts() == truth, (text, workers, mode)
