"""Parser for the line-oriented netlist format.

One statement per line, ``#`` starts a comment running to end of line
(a ``#`` token is treated as a value literal instead when it matches
``#<hex>:<width>`` exactly).  A file describes a single module:

    module <name>
    input <name> <width>
    output <name> <width> = <operand>
    reg <name> <width> = <hex-init>
    assign <name> <width> = <OP> <operand>{1,3}
    next <regname> = <operand>
    end

``operand`` is an identifier or a literal ``#<hex>:<width>``.  SLICE takes
its bit bounds as part of the operator: ``assign y 4 = SLICE 7 4 x``.
Identifiers may be referenced before their declaring line; resolution
happens at elaboration.  Widths are limited to 64 bits so every net value
fits in one machine word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

MAX_WIDTH = 64

# Operator name -> operand count.  SLICE additionally consumes two bit
# bounds before its single operand; MUX's first operand is a 1-bit select.
OPERATOR_ARITY = {
    "NOT": 1,
    "AND": 2,
    "OR": 2,
    "XOR": 2,
    "ADD": 2,
    "SUB": 2,
    "MUL": 2,
    "EQ": 2,
    "LT": 2,
    "SHL": 2,
    "SHR": 2,
    "CONCAT": 2,
    "SLICE": 1,
    "MUX": 3,
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LITERAL_RE = re.compile(r"#([0-9a-fA-F]+):([0-9]+)\Z")


class NetlistError(ValueError):
    """Malformed netlist text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Literal:
    """An inline constant operand."""

    value: int
    width: int

    def __str__(self) -> str:
        return f"#{self.value:x}:{self.width}"


@dataclass
class NetlistDecl:
    """One parsed statement (input/output/reg/assign/next)."""

    kind: str
    name: str
    width: int = 1
    op: str | None = None
    operands: list = field(default_factory=list)
    init: int = 0
    slice_hi: int = 0
    slice_lo: int = 0


def _strip_comment(tokens: list[str]) -> list[str]:
    out = []
    for tok in tokens:
        if tok.startswith("#") and not _LITERAL_RE.match(tok):
            break
        out.append(tok)
    return out


def _check_ident(line_no: int, tok: str, what: str) -> str:
    if not _IDENT_RE.match(tok):
        raise NetlistError(line_no, f"invalid {what} '{tok}'")
    return tok


def _check_width(line_no: int, tok: str) -> int:
    try:
        width = int(tok)
    except ValueError:
        raise NetlistError(line_no, f"invalid width '{tok}'") from None
    if not 1 <= width <= MAX_WIDTH:
        raise NetlistError(line_no, f"width {width} out of range [1, {MAX_WIDTH}]")
    return width


def _parse_operand(line_no: int, tok: str):
    m = _LITERAL_RE.match(tok)
    if m:
        value = int(m.group(1), 16)
        width = int(m.group(2))
        if not 1 <= width <= MAX_WIDTH:
            raise NetlistError(line_no, f"literal width {width} out of range")
        if value >= 1 << width:
            raise NetlistError(line_no, f"literal value {value:#x} exceeds {width} bits")
        return Literal(value, width)
    return _check_ident(line_no, tok, "identifier")


def parse_module(text: str) -> tuple[str, list[NetlistDecl]]:
    """Parse a whole module, returning its name and declaration list."""

    decls: list[NetlistDecl] = []
    declared: dict[str, int] = {}
    module_name = None
    ended = False
    last_line = 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        tokens = raw.split()
        if "#" in raw:
            tokens = _strip_comment(tokens)
        if not tokens:
            continue
        if ended:
            raise NetlistError(line_no, "statement after 'end'")
        head = tokens[0]

        if module_name is None:
            if head != "module" or len(tokens) != 2:
                raise NetlistError(line_no, "expected 'module <name>'")
            module_name = _check_ident(line_no, tokens[1], "module name")
            continue

        if head == "end":
            if len(tokens) != 1:
                raise NetlistError(line_no, "unexpected tokens after 'end'")
            ended = True
            continue

        if head == "input":
            if len(tokens) != 3:
                raise NetlistError(line_no, "expected 'input <name> <width>'")
            name = _check_ident(line_no, tokens[1], "input name")
            width = _check_width(line_no, tokens[2])
            decl = NetlistDecl("input", name, width)

        elif head == "output":
            if len(tokens) != 5 or tokens[3] != "=":
                raise NetlistError(line_no, "expected 'output <name> <width> = <operand>'")
            name = _check_ident(line_no, tokens[1], "output name")
            width = _check_width(line_no, tokens[2])
            operand = _parse_operand(line_no, tokens[4])
            decl = NetlistDecl("output", name, width, operands=[operand])

        elif head == "reg":
            if len(tokens) != 5 or tokens[3] != "=":
                raise NetlistError(line_no, "expected 'reg <name> <width> = <hex-init>'")
            name = _check_ident(line_no, tokens[1], "reg name")
            width = _check_width(line_no, tokens[2])
            try:
                init = int(tokens[4], 16)
            except ValueError:
                raise NetlistError(line_no, f"invalid hex initial value '{tokens[4]}'") from None
            if init >= 1 << width:
                raise NetlistError(line_no, f"initial value {init:#x} exceeds {width} bits")
            decl = NetlistDecl("reg", name, width, init=init)

        elif head == "assign":
            if len(tokens) < 5 or tokens[3] != "=":
                raise NetlistError(line_no, "expected 'assign <name> <width> = <OP> ...'")
            name = _check_ident(line_no, tokens[1], "assign name")
            width = _check_width(line_no, tokens[2])
            op = tokens[4]
            if op not in OPERATOR_ARITY:
                raise NetlistError(line_no, f"unknown operator '{op}'")
            rest = tokens[5:]
            slice_hi = slice_lo = 0
            if op == "SLICE":
                if len(rest) < 2:
                    raise NetlistError(line_no, "SLICE requires '<hi> <lo> <operand>'")
                try:
                    slice_hi, slice_lo = int(rest[0]), int(rest[1])
                except ValueError:
                    raise NetlistError(line_no, "SLICE bounds must be integers") from None
                rest = rest[2:]
            arity = OPERATOR_ARITY[op]
            if len(rest) != arity:
                raise NetlistError(
                    line_no, f"{op} takes {arity} operand(s), got {len(rest)}"
                )
            operands = [_parse_operand(line_no, tok) for tok in rest]
            decl = NetlistDecl("assign", name, width, op=op, operands=operands,
                               slice_hi=slice_hi, slice_lo=slice_lo)

        elif head == "next":
            if len(tokens) != 4 or tokens[2] != "=":
                raise NetlistError(line_no, "expected 'next <regname> = <operand>'")
            name = _check_ident(line_no, tokens[1], "reg name")
            operand = _parse_operand(line_no, tokens[3])
            decl = NetlistDecl("next", name, operands=[operand])

        else:
            raise NetlistError(line_no, f"unknown statement '{head}'")

        if decl.kind != "next":
            if decl.name in declared:
                raise NetlistError(
                    line_no,
                    f"duplicate declaration '{decl.name}' (first at line {declared[decl.name]})",
                )
            declared[decl.name] = line_no
        decls.append(decl)

    if module_name is None:
        raise NetlistError(last_line, "missing 'module' header")
    if not ended:
        raise NetlistError(last_line, "missing 'end'")
    return module_name, decls


def parse_netlist(text: str) -> list[NetlistDecl]:
    """Parse netlist text into declarations (module wrapper discarded)."""

    return parse_module(text)[1]
