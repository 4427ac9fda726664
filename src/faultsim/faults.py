"""Fault descriptors, batch injection, and forced-value rules.

Every fault, regardless of where it sits, ends up as an entry in the table
of exactly one evaluated node: a fault on a wire lands at the node driving
the wire, a fault on a reg lands at the reg itself (applied when the reg
commits), and a fault on an input port lands at a virtual pass-through
node spliced between the port and its consumers.  Faults on output ports
fall back to the wire rule on the output's driver, and a fault on an output
bit the driver does not reach is rejected.

``inject`` resolves every fault's site and groups the faults by site;
``FaultTable`` files them.  The engine files only the sites that some
output can see (``rtl.observable``): a fault anywhere else can never be
detected, so it is never filed, never simulated, and reported undetected
(ISO 26262 calls it a safe fault).

A site files the caller's ``FaultDescriptor`` objects themselves.  Dropping
a detected fault removes it from its site (``NodeFaults.discard``) and never
mutates a descriptor, so one fault list can be simulated again and again.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from . import rtl
from .rtl import RtlGraph

SA0 = "sa0"
SA1 = "sa1"
TRANSIENT = "transient"
KIND_ORDER = (SA0, SA1, TRANSIENT)

WIRE = "wire"
REG = "reg"
PORT = "port"


class FaultModelError(ValueError):
    pass


@dataclass(slots=True)
class FaultDescriptor:
    """One fault: a location, a bit lane, and a forcing rule.

    ``start``/``end`` bound the active cycle window of a transient fault
    (inclusive); stuck-at faults are active on every cycle.

    Slotted rather than frozen: a frozen dataclass sets every field through
    ``object.__setattr__``, which made building one about five times as
    slow, and a fault list holds one record per fault.  Nothing mutates a
    descriptor after it is built, and it is not hashable.
    """

    fid: int
    location_kind: str
    location_name: str
    bit: int
    kind: str
    start: int = 0
    end: int = 0


class NodeFaults:
    """The faults injected at one node, in the forms the evaluation kernels
    index every cycle: ``fid_map`` maps each fid to its descriptor and
    ``fids`` lists the fids, both ascending.  ``toggles`` holds the cycles
    at which some transient's window opens (its ``start``) or closes (its
    ``end + 1``), the only cycles at which a fault here can change the
    node's value without a fanin changing; a site with no transient holds
    the shared empty set.  Only ``kernels.drop_detected`` changes a site,
    through ``discard``, at a cycle's strobe."""

    __slots__ = ("fid_map", "fids", "toggles")

    def __init__(self, entries: list[FaultDescriptor]):
        self.fid_map = {f.fid: f for f in sorted(entries, key=attrgetter("fid"))}
        self.fids = list(self.fid_map)
        self._find_toggles()

    def _find_toggles(self) -> None:
        self.toggles = frozenset(
            c for f in self.fid_map.values() if f.kind == TRANSIENT
            for c in (f.start, f.end + 1)) or _NO_TOGGLES

    def discard(self, fid: int) -> None:
        """Stop injecting fault ``fid`` here; its descriptor is left as is."""

        fault = self.fid_map.pop(fid)
        del self.fids[bisect_left(self.fids, fid)]
        if fault.kind == TRANSIENT:
            self._find_toggles()


_NO_TOGGLES: frozenset[int] = frozenset()
NO_FAULTS = NodeFaults([])


class FaultTable:
    """The filed faults: each site's ``NodeFaults`` plus a fid -> site map,
    built from ``inject``'s grouping.  The engine passes only the sites
    inside some output's cone, so an unobservable fault has no site here
    and no fid in ``site_of``."""

    def __init__(self, by_site: dict[int, list[FaultDescriptor]]):
        self._node_faults = {nid: NodeFaults(entries) for nid, entries in by_site.items()}
        self.site_of = {fid: nid for nid, site in self._node_faults.items()
                        for fid in site.fid_map}

    def node_faults(self, nid: int) -> NodeFaults:
        return self._node_faults.get(nid, NO_FAULTS)


def faulty_val(rule: FaultDescriptor, computed: int, cycle: int) -> int:
    """Apply the forcing rule to a computed value for the given cycle.  A
    transient leaves the value alone outside its window; a stuck-at rule
    always applies."""

    lane = 1 << rule.bit
    if rule.kind == SA0:
        return computed & ~lane
    if rule.kind == SA1:
        return computed | lane
    if rule.start <= cycle <= rule.end:
        return computed ^ lane
    return computed


def generate_fault_list(
    graph: RtlGraph,
    kinds,
    transient_window: tuple[int, int] = (0, 0),
) -> list[FaultDescriptor]:
    """Enumerate faults over every wire bit, reg bit, and input-port bit.

    fids are assigned in (node id, bit, kind) order starting at 0, with
    kinds ordered sa0 < sa1 < transient.
    """

    kinds = [k.lower() for k in kinds]
    if not kinds:
        raise FaultModelError("empty fault kind set")
    for k in kinds:
        if k not in KIND_ORDER:
            raise FaultModelError(f"unknown fault kind '{k}'")
    ordered_kinds = [k for k in KIND_ORDER if k in kinds]
    if TRANSIENT in kinds and transient_window[0] > transient_window[1]:
        raise FaultModelError(
            f"transient window {transient_window[0]}..{transient_window[1]} is empty"
        )

    faults: list[FaultDescriptor] = []
    for node in graph.nodes:
        if node.kind == rtl.COMB:
            location = (WIRE, node.name)
        elif node.kind == rtl.REG:
            location = (REG, node.name)
        elif node.kind == rtl.INPUT:
            location = (PORT, node.name)
        else:
            continue
        for bit in range(node.width):
            for kind in ordered_kinds:
                start, end = transient_window if kind == TRANSIENT else (0, 0)
                faults.append(
                    FaultDescriptor(
                        len(faults), location[0], location[1], bit, kind, start, end
                    )
                )
    return faults


def _insert_port_carrier(graph: RtlGraph, port_id: int) -> int:
    """Splice a virtual node between an input/const and all its consumers;
    the caller re-sorts ``graph.topo``."""

    existing = graph.port_carriers.get(port_id)
    if existing is not None:
        return existing
    src = graph.nodes[port_id]
    carrier = rtl.RtlNode(
        len(graph.nodes), rtl.VIRTUAL, f"{src.name}$flt", src.width, fanin=[port_id]
    )
    graph.nodes.append(carrier)
    carrier.fanout = src.fanout
    src.fanout = [carrier.id]
    for consumer_id in carrier.fanout:
        consumer = graph.nodes[consumer_id]
        consumer.fanin = [carrier.id if f == port_id else f for f in consumer.fanin]
    for reg_id in graph.regs:
        reg = graph.nodes[reg_id]
        if reg.next_src == port_id:
            reg.next_src = carrier.id
    graph.port_carriers[port_id] = carrier.id
    return carrier.id


def resolve_injection_site(graph: RtlGraph, fault: FaultDescriptor) -> int:
    """Return the node id holding this fault's entry, inserting a virtual
    carrier for port faults on first use (and re-sorting ``graph.topo``
    when it does)."""

    count = len(graph.nodes)
    site = _resolve_site(graph, fault)[0]
    if len(graph.nodes) != count:
        graph.recompute_topo()
    return site


def _resolve_site(graph: RtlGraph, fault: FaultDescriptor) -> tuple[int, int]:
    """``resolve_injection_site`` without the sort (a spliced carrier
    leaves ``graph.topo`` stale until the caller re-sorts it), plus how
    many low bits of the named node the site carries."""

    nid = graph.name_to_id.get(fault.location_name)
    if nid is None:
        raise FaultModelError(f"fault {fault.fid}: unknown location '{fault.location_name}'")
    node = graph.nodes[nid]
    _check_fault(fault, node.width)

    if fault.location_kind == REG:
        if node.kind != rtl.REG:
            raise FaultModelError(
                f"fault {fault.fid}: '{node.name}' is not a reg"
            )
        return nid, node.width
    if fault.location_kind == PORT:
        if node.kind == rtl.INPUT:
            return _insert_port_carrier(graph, nid), node.width
        if node.kind != rtl.OUTPUT:
            raise FaultModelError(f"fault {fault.fid}: '{node.name}' is not a port")
    elif fault.location_kind != WIRE:
        raise FaultModelError(
            f"fault {fault.fid}: unknown location kind '{fault.location_kind}'"
        )
    return _resolve_wire_site(graph, fault, nid)


def _check_fault(fault: FaultDescriptor, width: int) -> None:
    """The checks that depend on the fault and not only on its location;
    ``width`` is that of the node the fault names.  ``faulty_val`` treats
    any kind but sa0 and sa1 as a transient, so an unknown kind is
    rejected here rather than simulated as one."""

    if fault.fid < 0:
        # Fids are cut points of the fault-level split, whose lowest
        # bound is 0.
        raise FaultModelError(f"fault {fault.fid}: fid must be >= 0")
    if not 0 <= fault.bit < width:
        raise FaultModelError(
            f"fault {fault.fid}: bit {fault.bit} out of range for "
            f"{width}-bit '{fault.location_name}'"
        )
    if fault.kind not in KIND_ORDER:
        raise FaultModelError(f"fault {fault.fid}: unknown fault kind '{fault.kind}'")
    if fault.kind == TRANSIENT and fault.start > fault.end:
        raise FaultModelError(
            f"fault {fault.fid}: window {fault.start}..{fault.end} is empty"
        )


def _resolve_wire_site(graph: RtlGraph, fault: FaultDescriptor, nid: int) -> tuple[int, int]:
    """An output passes a wire fault on to its driver, and so does a
    carrier or copy spliced in front of that driver.  The walk ends on a
    comb node or a register, which holds the fault itself, or on an input
    or a constant, which gets a carrier.  A bit of the named node that the
    driver does not reach (an output wider than its driver) carries no
    value, so a fault there is rejected."""

    node = graph.nodes[nid]
    lanes = node.width
    while node.kind in (rtl.OUTPUT, rtl.VIRTUAL):
        node = graph.nodes[node.fanin[0]]
        lanes = min(lanes, node.width)
    if fault.bit >= lanes:
        raise FaultModelError(
            f"fault {fault.fid}: bit {fault.bit} of '{fault.location_name}' is "
            f"undriven: only its low {lanes} bits come from '{node.name}'"
        )
    if node.kind in (rtl.INPUT, rtl.CONST):
        # Source nodes are never evaluated; give the fault a carrier.
        return _insert_port_carrier(graph, node.id), lanes
    return node.id, lanes


def inject(graph: RtlGraph,
           faults: list[FaultDescriptor]) -> dict[int, list[FaultDescriptor]]:
    """Resolve every fault's site and group the faults by site id, in list
    order; the graph gains any needed carriers.  Each distinct location is
    resolved once; later faults there only pay the per-fault checks.
    ``graph.topo`` is sorted once, after the last carrier is spliced (also
    when a fault is rejected), rather than once per carrier.
    ``FaultTable`` files the groups."""

    by_site: dict[int, list[FaultDescriptor]] = {}
    fids: set[int] = set()
    # (location_kind, location_name) -> (site, its faults, bits it carries)
    sites: dict[tuple[str, str], tuple[int, list[FaultDescriptor], int]] = {}
    count = len(graph.nodes)
    try:
        for fault in faults:
            key = (fault.location_kind, fault.location_name)
            hit = sites.get(key)
            if hit is None:
                site, lanes = _resolve_site(graph, fault)
                hit = sites[key] = (site, by_site.setdefault(site, []), lanes)
            elif (fault.fid < 0 or not 0 <= fault.bit < hit[2]
                  or fault.kind not in KIND_ORDER
                  or fault.kind == TRANSIENT and fault.start > fault.end):
                _resolve_site(graph, fault)  # raises
            fid = fault.fid
            if fid in fids:
                raise FaultModelError(f"duplicate fid {fid}")
            fids.add(fid)
            hit[1].append(fault)
    finally:
        if len(graph.nodes) != count:
            graph.recompute_topo()
    return by_site


# ---------------------------------------------------------------------------
# Fault list files: fid,location_kind,location_name,bit,kind[,start,end]

# Each token's canonical spelling, keyed by that spelling.
_LOCATION_KINDS = {k: k for k in (WIRE, REG, PORT)}
_FAULT_KINDS = {k: k for k in KIND_ORDER}


def emit_fault_csv(faults: list[FaultDescriptor]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fid", "location_kind", "location_name", "bit", "kind"])
    for f in faults:
        row = [f.fid, f.location_kind, f.location_name, f.bit, f.kind]
        if f.kind == TRANSIENT:
            row += [f.start, f.end]
        writer.writerow(row)
    return buf.getvalue()


def parse_fault_csv(text: str) -> list[FaultDescriptor]:
    """Fault records in fid order.  ``location_kind`` and ``kind`` are
    case-insensitive and may carry spaces; each becomes the module's
    constant (``WIRE``, ``SA0``, ...).  Rows that spell a location the same
    way share one stripped ``location_name`` string, so a long fault list
    holds one string per distinct field, not three per fault."""

    faults: list[FaultDescriptor] = []
    seen: set[int] = set()
    # Raw field -> its canonical token or stripped name, per spelling seen.
    location_kinds = dict(_LOCATION_KINDS)
    kinds = dict(_FAULT_KINDS)
    names: dict[str, str] = {}
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            if not row or row[0].strip() == "fid":
                continue
            try:
                fid = int(row[0])
                raw_location_kind, raw_name, raw_kind = row[1], row[2], row[4]
                bit = int(row[3])
                start, end = (int(row[5]), int(row[6])) if len(row) > 5 else (0, 0)
            except (ValueError, IndexError) as exc:
                raise FaultModelError(f"bad fault row {row!r}: {exc}") from None
            location_kind = location_kinds.get(raw_location_kind)
            if location_kind is None:
                token = raw_location_kind.strip().lower()
                location_kind = _LOCATION_KINDS.get(token)
                if location_kind is None:
                    raise FaultModelError(f"bad location kind '{token}'")
                location_kinds[raw_location_kind] = location_kind
            kind = kinds.get(raw_kind)
            if kind is None:
                token = raw_kind.strip().lower()
                kind = _FAULT_KINDS.get(token)
                if kind is None:
                    raise FaultModelError(f"bad fault kind '{token}'")
                kinds[raw_kind] = kind
            location_name = names.get(raw_name)
            if location_name is None:
                location_name = names[raw_name] = raw_name.strip()
            if kind == TRANSIENT and start > end:
                raise FaultModelError(f"fault {fid}: window {start}..{end} is empty")
            if fid in seen:
                raise FaultModelError(f"duplicate fid {fid}")
            seen.add(fid)
            faults.append(FaultDescriptor(fid, location_kind, location_name, bit, kind,
                                          start, end))
    except csv.Error as exc:
        # An unreadable row, such as a field over csv.field_size_limit().
        raise FaultModelError(f"fault CSV line {reader.line_num}: {exc}") from None
    faults.sort(key=attrgetter("fid"))
    return faults
