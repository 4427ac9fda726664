import pytest

from faultsim.netlist import Literal, NetlistError, parse_module


def wrap(*stmts):
    return "module m\n" + "\n".join(stmts) + "\nend\n"


def test_single_input_declaration():
    _, decls = parse_module(wrap("input a 1"))
    assert len(decls) == 1
    d = decls[0]
    assert (d.kind, d.name, d.width) == ("input", "a", 1)


def test_assign_maps_grammar_directly():
    _, decls = parse_module(wrap("input a 1", "input b 1", "assign y 1 = AND a b"))
    d = decls[-1]
    assert (d.kind, d.name, d.width, d.op, d.operands) == (
        "assign", "y", 1, "AND", ["a", "b"])


def test_arity_error_reports_line():
    with pytest.raises(NetlistError) as err:
        parse_module(wrap("input a 1", "assign y 1 = AND a"))
    assert "AND takes 2" in str(err.value)
    assert err.value.line_no == 3


def test_width_out_of_range():
    with pytest.raises(NetlistError, match="out of range"):
        parse_module(wrap("input a 65"))
    with pytest.raises(NetlistError, match="out of range"):
        parse_module(wrap("input a 0"))


def test_unknown_operator():
    with pytest.raises(NetlistError, match="unknown operator"):
        parse_module(wrap("input a 1", "assign y 1 = NAND a a"))


def test_duplicate_declaration():
    with pytest.raises(NetlistError, match="duplicate"):
        parse_module(wrap("input a 1", "input a 2"))


def test_module_wrapper_required():
    with pytest.raises(NetlistError, match="module"):
        parse_module("input a 1\nend\n")
    with pytest.raises(NetlistError, match="missing 'end'"):
        parse_module("module m\ninput a 1\n")
    with pytest.raises(NetlistError, match="after 'end'"):
        parse_module("module m\nend\ninput a 1\n")


def test_literal_operand_and_bounds():
    _, decls = parse_module(wrap("input a 8", "assign y 8 = ADD a #ff:8"))
    assert decls[-1].operands[1] == Literal(0xFF, 8)
    with pytest.raises(NetlistError, match="exceeds"):
        parse_module(wrap("input a 4", "assign y 4 = ADD a #ff:4"))


def test_reg_init_validation():
    _, decls = parse_module(wrap("input a 4", "reg r 4 = c", "next r = a"))
    assert decls[1].init == 0xC
    with pytest.raises(NetlistError, match="exceeds"):
        parse_module(wrap("reg r 2 = f", "next r = r"))


def test_slice_grammar():
    _, decls = parse_module(wrap("input a 8", "assign y 4 = SLICE 7 4 a"))
    d = decls[-1]
    assert (d.op, d.slice_hi, d.slice_lo, d.operands) == ("SLICE", 7, 4, ["a"])
    with pytest.raises(NetlistError, match="SLICE requires"):
        parse_module(wrap("input a 8", "assign y 4 = SLICE a"))


def test_comments_and_blank_lines():
    text = (
        "module m\n"
        "\n"
        "# a full-line comment\n"
        "input a 8   # trailing comment\n"
        "assign y 8 = ADD a #1:8  # literal then comment\n"
        "end\n"
    )
    _, decls = parse_module(text)
    assert [d.kind for d in decls] == ["input", "assign"]
    assert decls[1].operands[1] == Literal(1, 8)


def test_module_name_preserved():
    name, _ = parse_module(wrap("input a 1"))
    assert name == "m"


def test_next_statement_shape():
    with pytest.raises(NetlistError, match="expected 'next"):
        parse_module(wrap("reg r 1 = 0", "next r a"))
