"""Unit tests for the Verilog parser and AST."""

import pytest

from repro.hdl.ast_nodes import (
    BinaryOp,
    BitSelect,
    Concat,
    Identifier,
    IfStatement,
    Number,
    PartSelect,
    Repeat,
    Ternary,
    UnaryOp,
)
from repro.core.dataset import build_design_record
from repro.hdl.parser import MAX_EXPRESSION_DEPTH, ParseError, Parser, parse_source
from repro.hdl.writer import write_verilog


def parse_expr(text):
    return Parser(text).parse_expression()


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("a + b * c")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_precedence_and_over_or(self):
        expr = parse_expr("a | b & c")
        assert expr.op == "|"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "&"

    def test_ternary(self):
        expr = parse_expr("s ? a : b")
        assert isinstance(expr, Ternary)
        assert isinstance(expr.cond, Identifier)

    def test_nested_ternary_right_associative(self):
        expr = parse_expr("s ? a : t ? b : c")
        assert isinstance(expr, Ternary)
        assert isinstance(expr.if_false, Ternary)

    def test_unary_reduction(self):
        expr = parse_expr("^a")
        assert isinstance(expr, UnaryOp) and expr.op == "^"

    def test_bit_select_and_part_select(self):
        assert parse_expr("a[3]") == BitSelect("a", 3)
        assert parse_expr("a[7:4]") == PartSelect("a", 7, 4)

    def test_concat_and_repeat(self):
        expr = parse_expr("{a, b[1], 2'b01}")
        assert isinstance(expr, Concat) and len(expr.parts) == 3
        rep = parse_expr("{4{a}}")
        assert isinstance(rep, Repeat) and rep.count == 4

    def test_sized_number(self):
        expr = parse_expr("8'hA5")
        assert isinstance(expr, Number) and expr.value == 0xA5 and expr.width == 8

    def test_parentheses_override_precedence(self):
        expr = parse_expr("(a + b) * c")
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryOp) and expr.left.op == "+"


def _nested(shape, depth):
    """An expression of the given shape that is ``depth`` levels deep."""
    if shape == "parentheses":
        return "(" * (depth - 1) + "a" + ")" * (depth - 1)
    if shape == "unary":
        return "~" * (depth - 1) + "a"
    return " ^ ".join(["a"] * depth)  # left-nested chain, one level per operand


def _deep_module(expr):
    return f"module deep (a, y); input a; output y; assign y = {expr}; endmodule"


class TestNestingLimit:
    SHAPES = ("parentheses", "unary", "xor_chain")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_hostile_nesting_is_a_parse_error(self, shape):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_EXPRESSION_DEPTH}"):
            parse_source(_deep_module(_nested(shape, 3000)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_limit_is_exact_and_accepted_depth_builds(self, shape):
        with pytest.raises(ParseError):
            parse_expr(_nested(shape, MAX_EXPRESSION_DEPTH + 1))
        record = build_design_record(_deep_module(_nested(shape, MAX_EXPRESSION_DEPTH)), name="deep")
        assert record.name == "deep"

    def test_writer_output_of_a_deep_chain_parses_back(self):
        """The writer parenthesizes every operator; parentheses add no tree level."""
        module = parse_source(_deep_module(_nested("xor_chain", MAX_EXPRESSION_DEPTH - 1)))
        assert parse_source(write_verilog(module)).assigns == module.assigns

    def test_ternary_and_concat_levels_count(self):
        ternary = "s ? " * MAX_EXPRESSION_DEPTH + "a" + " : b" * MAX_EXPRESSION_DEPTH
        with pytest.raises(ParseError):
            parse_expr(ternary)
        concat = "{" * MAX_EXPRESSION_DEPTH + "a" + "}" * MAX_EXPRESSION_DEPTH
        with pytest.raises(ParseError):
            parse_expr(concat)
        assert isinstance(parse_expr("{" * (MAX_EXPRESSION_DEPTH - 1) + "a" + "}" * (MAX_EXPRESSION_DEPTH - 1)), Concat)


class TestModules:
    def test_parse_simple_module(self, simple_source):
        module = parse_source(simple_source)
        assert module.name == "simple"
        assert {p.name for p in module.ports} >= {"clk", "a", "b", "sel", "y", "q"}
        assert len(module.always_blocks) == 1
        assert module.always_blocks[0].clock == "clk"

    def test_port_widths(self, simple_module):
        assert simple_module.port("a").width == 4
        assert simple_module.port("sel").width == 1

    def test_if_else_becomes_if_statement(self, simple_module):
        body = simple_module.always_blocks[0].body
        assert any(isinstance(statement, IfStatement) for statement in body)

    def test_roundtrip_through_writer(self, simple_module):
        regenerated = parse_source(write_verilog(simple_module))
        assert regenerated.name == simple_module.name
        assert len(regenerated.ports) == len(simple_module.ports)
        assert len(regenerated.assigns) == len(simple_module.assigns)

    def test_ansi_style_header(self):
        source = """
        module ansi (input clk, input [3:0] d, output [3:0] q);
          reg [3:0] q;
          always @(posedge clk) q <= d;
        endmodule
        """
        module = parse_source(source)
        assert module.port("d").width == 4
        assert module.port("q").direction == "output"

    def test_unsupported_construct_raises(self):
        with pytest.raises(ParseError):
            parse_source("module m; initial begin end endmodule")

    def test_negedge_clock_rejected(self):
        with pytest.raises(ParseError):
            parse_source(
                "module m (clk); input clk; reg r; always @(negedge clk) r <= 1'b1; endmodule"
            )

    def test_missing_semicolon_is_error(self):
        with pytest.raises(ParseError):
            parse_source("module m (a); input a endmodule")

    def test_parameters_are_skipped(self):
        source = """
        module p (clk, d, q);
          parameter WIDTH = 8;
          input clk; input d; output q;
          reg q;
          always @(posedge clk) q <= d;
        endmodule
        """
        module = parse_source(source)
        assert module.name == "p"
