"""Elaboration of parsed declarations into a validated RTL graph.

The graph is the simulator's circuit model: one node per declared net plus
one node per use of a literal constant, so that a fault spliced in front of
one use reaches no other reader of the same literal.  Register nodes hold
their current value and point at the node producing their next value
(``next_src``); the combinational view therefore treats registers, inputs
and constants as sources, which is what makes per-cycle evaluation a DAG
traversal.

Two passes run after fault injection.  ``split_register_reads`` routes
every register-to-register ``next`` edge through a virtual copy node, and
``observe_outputs`` turns every output into an observation point: a sink
reading a node that is not a register and is no wider than the output,
whose state the output shares.  Only comb and virtual nodes are evaluated
(``TASK_KINDS``).  ``observable`` then marks the nodes some output can
see: a fault anywhere else is never simulated.

Value semantics are two-state and unsigned.  Every node value is kept
masked to the node's width; operands narrower than the computation are
zero-extended (which is a no-op on masked ints) and results are truncated
by masking.  EQ/LT compare their operands at full operand width and
produce 0/1.  CONCAT places its first operand in the high bits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .netlist import Literal, NetlistDecl, parse_module

INPUT = "input"
CONST = "const"
COMB = "comb"
REG = "reg"
OUTPUT = "output"
VIRTUAL = "virtual"

# Node kinds that are evaluated during a cycle (and therefore carry a
# compute task).  Inputs, consts and regs are value sources sealed at cycle
# start, and outputs are observation points that share their driver's
# state (see ``observe_outputs``).
TASK_KINDS = (COMB, VIRTUAL)


class ElaborationError(ValueError):
    pass


@dataclass(slots=True)
class RtlNode:
    id: int
    kind: str
    name: str
    width: int
    op: str | None = None
    fanin: list[int] = field(default_factory=list)
    fanout: list[int] = field(default_factory=list)
    next_src: int | None = None
    init: int = 0  # reset value for regs, constant value for consts
    slice_hi: int = 0
    slice_lo: int = 0
    concat_lo_width: int = 0
    mask: int = field(init=False, repr=False)
    # Operator as a function of the operand values, filled in by the
    # kernels on the node's first evaluation.
    fn: object = field(default=None, init=False, repr=False, compare=False)
    # Set by the kernels before the first cycle: a virtual copy whose bad
    # list is always its fanin's list itself.
    pass_through: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mask = (1 << self.width) - 1


@dataclass
class RtlGraph:
    name: str
    nodes: list[RtlNode]
    topo: list[int]
    inputs: list[int]
    outputs: list[int]
    regs: list[int]
    name_to_id: dict[str, int]
    port_carriers: dict[int, int] = field(default_factory=dict)
    # (source id, width) -> the virtual copy of the source cut to that width
    copies: dict[tuple[int, int], int] = field(default_factory=dict)

    def recompute_topo(self) -> None:
        self.topo = _topo_sort(self.nodes)


def _topo_sort(nodes: list[RtlNode]) -> list[int]:
    indeg = [len(node.fanin) for node in nodes]
    ready = [n.id for n in nodes if indeg[n.id] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for succ in nodes[nid].fanout:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(nodes):
        cycle = _find_cycle(nodes, [i for i, d in enumerate(indeg) if d > 0])
        names = " -> ".join(nodes[nid].name for nid in cycle)
        raise ElaborationError(f"combinational cycle: {names}")
    return order


def _find_cycle(nodes: list[RtlNode], remaining: list[int]) -> list[int]:
    pending = set(remaining)
    start = remaining[0]
    seen: dict[int, int] = {}
    path: list[int] = []
    nid = start
    while nid not in seen:
        seen[nid] = len(path)
        path.append(nid)
        nid = next(src for src in nodes[nid].fanin if src in pending)
    loop = path[seen[nid]:] + [nid]
    loop.reverse()
    return loop


def elaborate(decls: list[NetlistDecl], name: str = "main") -> RtlGraph:
    """Resolve names, validate widths, and build the topologically ordered graph."""

    nodes: list[RtlNode] = []
    name_to_id: dict[str, int] = {}

    def add(kind: str, nm: str, width: int, **kw) -> RtlNode:
        node = RtlNode(len(nodes), kind, nm, width, **kw)
        nodes.append(node)
        return node

    decl_of: dict[str, NetlistDecl] = {}
    for d in decls:
        if d.kind == "next":
            continue
        if d.name in decl_of:
            raise ElaborationError(f"duplicate declaration '{d.name}'")
        decl_of[d.name] = d
        kind = {"input": INPUT, "output": OUTPUT, "reg": REG, "assign": COMB}[d.kind]
        node = add(kind, d.name, d.width, op=d.op, init=d.init,
                   slice_hi=d.slice_hi, slice_lo=d.slice_lo)
        name_to_id[d.name] = node.id

    def resolve(operand) -> int:
        if isinstance(operand, Literal):
            return add(CONST, str(operand), operand.width, init=operand.value).id
        nid = name_to_id.get(operand)
        if nid is None:
            raise ElaborationError(f"undeclared identifier '{operand}'")
        return nid

    next_of: dict[str, NetlistDecl] = {}
    for d in decls:
        if d.kind != "next":
            continue
        if d.name in next_of:
            raise ElaborationError(f"duplicate 'next' for reg '{d.name}'")
        target = decl_of.get(d.name)
        if target is None or target.kind != "reg":
            raise ElaborationError(f"'next {d.name}' does not target a declared reg")
        next_of[d.name] = d

    for d in decls:
        if d.kind in ("assign", "output"):
            node = nodes[name_to_id[d.name]]
            node.fanin = [resolve(op) for op in d.operands]
            for src in node.fanin:
                nodes[src].fanout.append(node.id)
        elif d.kind == "reg":
            if d.name not in next_of:
                raise ElaborationError(f"reg '{d.name}' has no 'next' declaration")

    for d in next_of.values():
        reg = nodes[name_to_id[d.name]]
        reg.next_src = resolve(d.operands[0])

    for node in nodes:
        if node.kind != COMB:
            continue
        widths = [nodes[src].width for src in node.fanin]
        if node.op == "SLICE":
            hi, lo = node.slice_hi, node.slice_lo
            if not (0 <= lo <= hi < widths[0]):
                raise ElaborationError(
                    f"'{node.name}': SLICE [{hi}:{lo}] out of bounds for "
                    f"{widths[0]}-bit operand"
                )
            if node.width != hi - lo + 1:
                raise ElaborationError(
                    f"'{node.name}': SLICE [{hi}:{lo}] yields {hi - lo + 1} bits, "
                    f"declared {node.width}"
                )
        elif node.op == "CONCAT":
            if node.width != widths[0] + widths[1]:
                raise ElaborationError(
                    f"'{node.name}': CONCAT of {widths[0]}+{widths[1]} bits, "
                    f"declared {node.width}"
                )
            node.concat_lo_width = widths[1]
        elif node.op == "MUX":
            if widths[0] != 1:
                raise ElaborationError(
                    f"'{node.name}': MUX select must be 1 bit, got {widths[0]}"
                )

    topo = _topo_sort(nodes)
    return RtlGraph(
        name=name,
        nodes=nodes,
        topo=topo,
        inputs=[n.id for n in nodes if n.kind == INPUT],
        outputs=[n.id for n in nodes if n.kind == OUTPUT],
        regs=[n.id for n in nodes if n.kind == REG],
        name_to_id=name_to_id,
    )


def elaborate_text(text: str) -> RtlGraph:
    name, decls = parse_module(text)
    return elaborate(decls, name)


def _copy_of(graph: RtlGraph, src_id: int, width: int) -> int:
    """The virtual copy of a node cut to ``width`` bits, made on first use
    and appended to ``graph.topo``, which stays sorted as long as the copy
    has no evaluated reader."""

    key = (src_id, width)
    cid = graph.copies.get(key)
    if cid is None:
        src = graph.nodes[src_id]
        name = f"{src.name}$cpy" if width == src.width else f"{src.name}$cpy{width}"
        cid = graph.copies[key] = len(graph.nodes)
        graph.nodes.append(RtlNode(cid, VIRTUAL, name, width, fanin=[src_id]))
        src.fanout.append(cid)
        graph.topo.append(cid)
    return cid


def split_register_reads(graph: RtlGraph) -> None:
    """Route every register-to-register ``next`` edge through a virtual
    copy of the source register, one copy per source, shared by every
    register it feeds.  The copy is an ordinary reader of the source, so
    the source's commit waits for it and no register commit reads another
    register."""

    for rid in graph.regs:
        reg = graph.nodes[rid]
        src = graph.nodes[reg.next_src]
        if src.kind == REG:
            reg.next_src = _copy_of(graph, src.id, src.width)


def observe_outputs(graph: RtlGraph) -> None:
    """Make every output an observation point: a sink whose one fanin is a
    non-register node no wider than the output, so that the output can
    share that node's state and is never evaluated.

    A chain of outputs resolves to the first node that is not an output.
    An output driven by a register, or narrower than its driver, reads a
    virtual copy of the driver cut to the output's width (a register's
    full-width copy is the one ``split_register_reads`` shares).  Every
    reader of an output (an evaluated node, another output, a register's
    ``next``) is then re-pointed to the output's new driver, which holds
    the value it read before."""

    nodes = graph.nodes
    driver: dict[int, int] = {}
    copies: set[int] = set()
    for oid in graph.outputs:
        src, width = nodes[oid].fanin[0], nodes[oid].width
        while nodes[src].kind == OUTPUT:
            width = min(width, nodes[src].width)
            src = nodes[src].fanin[0]
        if nodes[src].kind == REG or width < nodes[src].width:
            src = _copy_of(graph, src, min(width, nodes[src].width))
            copies.add(src)
        driver[oid] = src
    for oid, new in driver.items():
        out = nodes[oid]
        for rid in out.fanout:  # an evaluated node or another output
            reader = nodes[rid]
            reader.fanin = [new if f == oid else f for f in reader.fanin]
            nodes[new].fanout.append(rid)
        out.fanout = []
        if out.fanin[0] != new:
            nodes[out.fanin[0]].fanout.remove(oid)
            out.fanin = [new]
            nodes[new].fanout.append(oid)
    for rid in graph.regs:
        reg = nodes[rid]
        reg.next_src = driver.get(reg.next_src, reg.next_src)
    if any(nodes[r].kind in TASK_KINDS for c in copies for r in nodes[c].fanout):
        graph.recompute_topo()
    elif copies:
        # The copies sit at the end of the order; their outputs follow.
        graph.topo = [n for n in graph.topo if nodes[n].kind != OUTPUT] + graph.outputs


def observable(graph: RtlGraph) -> list[bool]:
    """Per node id: whether the node lies in some output's cone of
    influence, found by walking backward from the outputs through fanin
    edges and through each reached register's ``next`` source.  A value
    outside every cone reaches no output on any cycle, so a fault whose
    site lies there can never be detected."""

    nodes = graph.nodes
    seen = [False] * len(nodes)
    stack = list(graph.outputs)
    for oid in stack:
        seen[oid] = True
    while stack:
        node = nodes[stack.pop()]
        for src in (node.next_src,) if node.kind == REG else node.fanin:
            if not seen[src]:
                seen[src] = True
                stack.append(src)
    return seen
