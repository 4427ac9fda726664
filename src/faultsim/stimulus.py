"""Stimulus files: one header line naming the inputs, then one row of hex
values per cycle.

    cycle a b sel
    0 3 ff 1
    1 0 2a 0
"""

from __future__ import annotations

from dataclasses import dataclass

from .rtl import RtlGraph


class StimulusError(ValueError):
    pass


@dataclass
class StimulusFile:
    inputs: list[str]
    rows: list[list[int]]


def parse_stimulus(text: str) -> StimulusFile:
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise StimulusError("empty stimulus file")
    header = lines[0]
    if header[0] != "cycle":
        raise StimulusError("stimulus header must start with 'cycle'")
    inputs = header[1:]
    rows: list[list[int]] = []
    for ln in lines[1:]:
        if len(ln) != len(inputs) + 1:
            raise StimulusError(
                f"row {len(rows)}: expected {len(inputs) + 1} columns, got {len(ln)}"
            )
        try:
            t = int(ln[0])
            values = [int(tok, 16) for tok in ln[1:]]
        except ValueError as exc:
            raise StimulusError(f"row {len(rows)}: {exc}") from None
        if t != len(rows):
            raise StimulusError(f"row {len(rows)}: cycle column reads {t}")
        if any(v < 0 for v in values):
            raise StimulusError(f"row {t}: negative value; values are unsigned hex")
        rows.append(values)
    return StimulusFile(inputs, rows)


def emit_stimulus(stim: StimulusFile) -> str:
    lines = ["cycle " + " ".join(stim.inputs)]
    for t, row in enumerate(stim.rows):
        lines.append(f"{t} " + " ".join(f"{v:x}" for v in row))
    return "\n".join(lines) + "\n"


def as_rows(graph: RtlGraph, stimulus) -> list[list[int]]:
    """Accept a StimulusFile or raw per-cycle value rows in graph input
    order; return validated rows in graph input order."""

    if isinstance(stimulus, StimulusFile):
        return bind_stimulus(graph, stimulus)
    rows = [list(row) for row in stimulus]
    for t, row in enumerate(rows):
        if len(row) != len(graph.inputs):
            raise StimulusError(
                f"row {t}: expected {len(graph.inputs)} values, got {len(row)}"
            )
    return rows


def bind_stimulus(graph: RtlGraph, stim: StimulusFile) -> list[list[int]]:
    """Reorder stimulus columns to the graph's input order and check widths."""

    graph_inputs = [graph.nodes[nid].name for nid in graph.inputs]
    if sorted(graph_inputs) != sorted(stim.inputs):
        raise StimulusError(
            f"stimulus inputs {sorted(stim.inputs)} do not match "
            f"circuit inputs {sorted(graph_inputs)}"
        )
    order = [stim.inputs.index(name) for name in graph_inputs]
    bound: list[list[int]] = []
    for t, row in enumerate(stim.rows):
        values = [row[i] for i in order]
        for nid, value in zip(graph.inputs, values):
            node = graph.nodes[nid]
            if value >= 1 << node.width:
                raise StimulusError(
                    f"row {t}: value {value:#x} exceeds {node.width}-bit "
                    f"input '{node.name}'"
                )
        bound.append(values)
    return bound
