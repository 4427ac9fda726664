"""Deterministic synthetic benchmark generation.

Three profiles:

* ``uniform``   - a flat mix of small operators; per-node load is even.
* ``skewed``    - a few wide registers funnel through one wide reduction
  hub that collects the large majority of fault divergences, so a handful
  of tasks dominate the cycle while hundreds of small clusters stay cheap.
* ``pipeline``  - register banks between combinational stages, including a
  few deep fault-dense chains, so register-commit work is plentiful and
  the compute phase has a thin tail worth filling.

Every profile is a pure function of (profile, size, seed): identical files
on every invocation.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass

from .faults import (
    FaultDescriptor, TRANSIENT, emit_fault_csv, generate_fault_list, parse_fault_csv,
)
from .rtl import elaborate_text
from .stimulus import StimulusFile, emit_stimulus, parse_stimulus

PROFILES = ("uniform", "skewed", "pipeline")
MIN_SIZE = 10

_LIGHT_OPS = ("AND", "OR", "XOR", "ADD", "SUB")

# Pipeline profile shape: fold-chain length as a fraction of a register
# bank, and the fault-budget split across status regs / data regs / wires.
_PIPE_FOLD_FRAC = 0.3
_PIPE_STATUS_SHARE = 0.75
_PIPE_REG_SHARE = 0.1


@dataclass
class GeneratedBench:
    name: str
    netlist: str
    stimulus: str
    faults_csv: str

    def build(self):
        """Fresh (graph, stimulus, faults) triple; the graph is new every
        call because injection splices carrier nodes into it."""

        graph = elaborate_text(self.netlist)
        stim = parse_stimulus(self.stimulus)
        faults = parse_fault_csv(self.faults_csv)
        return graph, stim, faults

    def write(self, directory, basename=None):
        base = basename or self.name
        root = pathlib.Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        paths = []
        for suffix, text in (
            (".nl", self.netlist), (".stim", self.stimulus), (".flt", self.faults_csv),
        ):
            p = root / f"{base}{suffix}"
            p.write_text(text)
            paths.append(p)
        return paths


def gen_bench(
    profile: str,
    size: int,
    seed: int,
    cycles: int | None = None,
    fault_count: int | None = None,
    quiescent: bool = False,
) -> GeneratedBench:
    if size < MIN_SIZE:
        raise ValueError(f"benchmark size must be >= {MIN_SIZE}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile '{profile}' (want one of {PROFILES})")
    rng = random.Random(f"{profile}:{size}:{seed}")
    if profile == "uniform":
        reg_fraction = 0.0 if quiescent else 0.1
        netlist, input_widths = _uniform_netlist(rng, size, reg_fraction)
        default_faults = max(8, size // 2)
        # Transient windows toggle activity by design, so a benchmark meant
        # to go quiet holds stuck-at faults only.
        transient_frac = 0.0 if quiescent else 0.15
        sample_faults = _sample_faults
    elif profile == "skewed":
        netlist, input_widths = _skewed_netlist(rng, size)
        default_faults = None  # decided inside the fault sampler
        transient_frac = 0.05
        sample_faults = _skewed_faults
    else:
        netlist, input_widths = _pipeline_netlist(rng, size)
        default_faults = max(8, size)
        transient_frac = 0.05
        sample_faults = _pipeline_faults
    cycles = cycles or 12

    stimulus = _gen_stimulus(rng, input_widths, cycles, quiescent)
    graph = elaborate_text(netlist)
    faults = sample_faults(rng, graph, fault_count or default_faults,
                           cycles, transient_frac)
    return GeneratedBench(
        name=f"{profile}_{size}_{seed}",
        netlist=netlist,
        stimulus=stimulus,
        faults_csv=emit_fault_csv(faults),
    )


def _gen_stimulus(rng, input_widths, cycles, quiescent) -> str:
    names = [nm for nm, _ in input_widths]
    rows = []
    hold = None
    for t in range(cycles):
        if quiescent and t >= 1:
            if hold is None:
                hold = [rng.randrange(1 << w) for _, w in input_widths]
            rows.append(list(hold))
        else:
            rows.append([rng.randrange(1 << w) for _, w in input_widths])
    return emit_stimulus(StimulusFile(names, rows))


def _sample_faults(rng, graph, count, cycles, transient_frac) -> list[FaultDescriptor]:
    universe = generate_fault_list(graph, ("sa0", "sa1"))
    picked = sorted(rng.sample(range(len(universe)), min(count, len(universe))))
    return _transient_or_stuck(rng, [universe[i] for i in picked], 0,
                               cycles, transient_frac)


def _transient_or_stuck(rng, sites, first_fid, cycles, transient_frac):
    """One record per sampled stuck-at fault, fids counting up from
    ``first_fid``: with probability ``transient_frac`` its site instead
    gets a transient flip over a window of at most three cycles."""

    faults = []
    for fid, f in enumerate(sites, first_fid):
        if transient_frac and rng.random() < transient_frac and cycles > 1:
            start = rng.randrange(cycles - 1)
            end = min(cycles - 1, start + rng.randrange(3))
            faults.append(FaultDescriptor(
                fid, f.location_kind, f.location_name, f.bit, TRANSIENT, start, end))
        else:
            faults.append(FaultDescriptor(
                fid, f.location_kind, f.location_name, f.bit, f.kind))
    return faults


# ---------------------------------------------------------------------------
# uniform

def _uniform_netlist(rng, size, reg_fraction):
    lines = ["module uniform"]
    n_inputs = max(2, size // 12)
    n_outputs = max(1, size // 15)
    pool: list[tuple[str, int]] = []
    for i in range(n_inputs):
        w = 1 if i == 0 else rng.choice((1, 2, 4, 8, 16))
        lines.append(f"input i{i} {w}")
        pool.append((f"i{i}", w))
    input_widths = pool.copy()

    regs: list[tuple[str, int]] = []
    body = max(4, size - n_inputs - n_outputs)
    for k in range(body):
        name = f"n{k}"
        if rng.random() < reg_fraction:
            w = rng.choice((1, 2, 4, 8))
            lines.append(f"reg {name} {w} = {rng.randrange(1 << w):x}")
            regs.append((name, w))
        else:
            stmt, w = _random_assign(rng, name, pool)
            lines.append(stmt)
        pool.append((name, w))

    tail = pool[len(pool) // 3:]
    for j in range(n_outputs):
        src, w = rng.choice(tail)
        lines.append(f"output o{j} {w} = {src}")
    for name, _ in regs:
        src, _ = rng.choice(pool)
        lines.append(f"next {name} = {src}")
    lines.append("end")
    return "\n".join(lines) + "\n", input_widths


def _random_assign(rng, name, pool):
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(_LIGHT_OPS)
        (a, wa), (b, wb) = rng.choice(pool), rng.choice(pool)
        w = min(64, max(wa, wb))
        return f"assign {name} {w} = {op} {a} {b}", w
    if roll < 0.65:
        a, wa = rng.choice(pool)
        return f"assign {name} {wa} = NOT {a}", wa
    if roll < 0.75:
        op = rng.choice(("EQ", "LT"))
        (a, _), (b, _) = rng.choice(pool), rng.choice(pool)
        return f"assign {name} 1 = {op} {a} {b}", 1
    if roll < 0.85:
        selects = [p for p in pool if p[1] == 1]
        s, _ = rng.choice(selects)
        (a, wa), (b, wb) = rng.choice(pool), rng.choice(pool)
        w = max(wa, wb)
        return f"assign {name} {w} = MUX {s} {a} {b}", w
    if roll < 0.92:
        wide = [p for p in pool if p[1] >= 2]
        if wide:
            a, wa = rng.choice(wide)
            hi = rng.randrange(1, wa)
            lo = rng.randrange(0, hi + 1)
            return f"assign {name} {hi - lo + 1} = SLICE {hi} {lo} {a}", hi - lo + 1
    if roll < 0.97:
        small = [p for p in pool if p[1] <= 32]
        if len(small) >= 2:
            a, wa = rng.choice(small)
            b, wb = rng.choice(small)
            if wa + wb <= 64:
                return f"assign {name} {wa + wb} = CONCAT {a} {b}", wa + wb
    a, wa = rng.choice(pool)
    lit = rng.randrange(1 << wa)
    return f"assign {name} {wa} = XOR {a} #{lit:x}:{wa}", wa


# ---------------------------------------------------------------------------
# skewed

def _skewed_netlist(rng, size):
    lines = ["module skewed"]
    decls = 0

    def emit(stmt):
        nonlocal decls
        lines.append(stmt)
        decls += 1

    n_cluster_in = max(2, size // 60)
    emit("input stir 16")
    input_widths = [("stir", 16)]
    cluster_in = []
    for i in range(n_cluster_in):
        w = rng.choice((1, 2, 4, 8))
        emit(f"input ci{i} {w}")
        input_widths.append((f"ci{i}", w))
        cluster_in.append((f"ci{i}", w))

    wide = max(2, size // 375)
    for k in range(wide):
        emit(f"reg h{k} 64 = {rng.randrange(1 << 64):x}")

    # Serial reduction chain over the wide registers: each link collects the
    # divergences of everything above it, so the heavy work cannot be spread
    # by structural parallelism alone.
    prev = "h0"
    for i in range(1, wide):
        emit(f"assign f{i - 1} 64 = XOR {prev} h{i}")
        prev = f"f{i - 1}"
    hub = prev

    # Register values churn from the input every cycle so the heavy region
    # keeps re-evaluating; the next values themselves carry no faults.
    for k in range(wide):
        emit(f"assign p{k} 16 = ADD stir #{k % 65536:x}:16")
        emit(f"assign q{k} 32 = CONCAT p{k} p{k}")
        emit(f"assign w{k} 64 = CONCAT q{k} q{k}")
        lines.append(f"next h{k} = w{k}")

    emit(f"assign cmp 1 = LT {hub} #{1 << 63:x}:64")
    emit("output o_hub 1 = cmp")

    cl = 0
    while decls < size:
        depth = rng.randint(2, 5)
        prev, pw = rng.choice(cluster_in)
        for d in range(depth):
            op = rng.choice(_LIGHT_OPS)
            other, ow = rng.choice(cluster_in)
            w = min(8, max(pw, ow))
            emit(f"assign L{cl}_{d} {w} = {op} {prev} {other}")
            prev, pw = f"L{cl}_{d}", w
        emit(f"output oL{cl} {pw} = {prev}")
        cl += 1

    lines.append("end")
    return "\n".join(lines) + "\n", input_widths


def _skewed_faults(rng, graph, fault_count, cycles, transient_frac):
    """All-bit stuck-at faults on the wide core, light sprinkling elsewhere."""

    heavy_nodes = [
        n for n in graph.nodes
        if n.name.startswith(("h", "f")) and n.width == 64
        and n.kind in ("reg", "comb")
    ]
    faults: list[FaultDescriptor] = []
    for node in sorted(heavy_nodes, key=lambda n: n.id):
        kind_loc = "reg" if node.kind == "reg" else "wire"
        for bit in range(node.width):
            for k in ("sa0", "sa1"):
                faults.append(FaultDescriptor(
                    len(faults), kind_loc, node.name, bit, k))
    heavy_count = len(faults)
    target = fault_count or heavy_count + max(8, heavy_count // 5)
    light_universe = [
        f for f in generate_fault_list(graph, ("sa0", "sa1"))
        if f.location_name.startswith(("L", "ci"))
    ]
    need = max(0, target - heavy_count)
    picked = sorted(rng.sample(range(len(light_universe)), min(need, len(light_universe))))
    return faults + _transient_or_stuck(
        rng, [light_universe[i] for i in picked], heavy_count, cycles, transient_frac)


def _pipeline_faults(rng, graph, count, cycles, transient_frac):
    """Register-heavy fault mix: commits do real merge work every cycle,
    with the write-only status bank carrying the densest share."""

    universe = generate_fault_list(graph, ("sa0", "sa1"))
    status_pool = [i for i, f in enumerate(universe)
                   if f.location_kind == "reg" and f.location_name.startswith("st")]
    reg_pool = [i for i, f in enumerate(universe)
                if f.location_kind == "reg" and not f.location_name.startswith("st")]
    other_pool = [i for i, f in enumerate(universe) if f.location_kind != "reg"]
    n_status = min(len(status_pool), int(count * _PIPE_STATUS_SHARE))
    n_reg = min(len(reg_pool), int(count * _PIPE_REG_SHARE))
    n_other = min(len(other_pool), count - n_status - n_reg)
    picked = sorted(
        rng.sample(status_pool, n_status)
        + rng.sample(reg_pool, n_reg)
        + rng.sample(other_pool, n_other)
    )
    return _transient_or_stuck(rng, [universe[i] for i in picked], 0,
                               cycles, transient_frac)


# ---------------------------------------------------------------------------
# pipeline

def _pipeline_netlist(rng, size):
    lines = ["module pipeline"]
    stages = 5
    per_stage = -(-(size // 3) // stages)  # data bank; status bank matches it
    n_inputs = 4
    input_widths = []
    for i in range(n_inputs):
        w = rng.choice((8, 16))
        lines.append(f"input i{i} {w}")
        input_widths.append((f"i{i}", w))

    decls = n_inputs
    reg_names: list[list[tuple[str, int]]] = []
    for s in range(stages):
        bank = []
        for j in range(per_stage):
            w = rng.choice((8, 16))
            lines.append(f"reg s{s}r{j} {w} = {rng.randrange(1 << w):x}")
            decls += 1
            bank.append((f"s{s}r{j}", w))
        reg_names.append(bank)

    nexts = []
    chain_tails = []
    chain_stage = stages // 2
    fold_count = min(per_stage, max(12, int(per_stage * _PIPE_FOLD_FRAC)))
    for s in range(stages):
        sources = reg_names[s - 1] if s > 0 else input_widths
        if s == chain_stage:
            # One accumulating fold across part of the previous bank: a
            # serial chain whose links collect divergences register by
            # register, leaving a thin tail after the flat work drains.
            prev, pw = sources[0]
            for j, (nm, w) in enumerate(sources[1:fold_count]):
                cw = max(pw, w)
                lines.append(f"assign k{s}_{j} {cw} = XOR {prev} {nm}")
                decls += 1
                prev, pw = f"k{s}_{j}", cw
            chain_tails.append((prev, pw))
        for j, (reg, w) in enumerate(reg_names[s]):
            if s == chain_stage and j == 0:
                nexts.append((reg, prev))
                continue
            a, _ = rng.choice(sources)
            b, _ = rng.choice(sources)
            op = rng.choice(_LIGHT_OPS)
            lines.append(f"assign c{s}_{j} {w} = {op} {a} {b}")
            decls += 1
            nexts.append((reg, f"c{s}_{j}"))

    # Status bank: write-only registers latching existing stage logic.
    # They add commit work (their fault lists merge every cycle) without
    # adding any compute work, the way rarely-read state does in practice.
    shallow = [f"c{s}_{j}" for s in range(stages)
               for j in range(1, per_stage)]
    if not shallow:
        shallow = [name for name, _ in input_widths]
    status_count = stages * per_stage
    status_regs = []
    for i in range(status_count):
        lines.append(f"reg st{i} 16 = {rng.randrange(1 << 16):x}")
        decls += 1
        status_regs.append(f"st{i}")
        nexts.append((f"st{i}", shallow[i % len(shallow)]))

    # Filler taps keep node count near the requested size; they read only
    # inputs, so they are plentiful but carry no fault divergences.
    taps: list[tuple[str, int]] = []
    while decls < size:
        (a, wa), (b, _) = rng.choice(input_widths), rng.choice(input_widths)
        op = rng.choice(_LIGHT_OPS)
        name = f"t{len(taps)}"
        lines.append(f"assign {name} {wa} = {op} {a} {b}")
        decls += 1
        taps.append((name, wa))

    for j, (reg, w) in enumerate(reg_names[-1][:per_stage // 2 + 1]):
        lines.append(f"output o{j} {w} = {reg}")
    for s, (tail, tw) in enumerate(chain_tails):
        lines.append(f"output oc{s} {tw} = {tail}")
    for name, w in taps[::7]:
        lines.append(f"output o{name} {w} = {name}")
    for reg, src in nexts:
        lines.append(f"next {reg} = {src}")
    lines.append("end")
    return "\n".join(lines) + "\n", input_widths
