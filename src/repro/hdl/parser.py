"""Recursive-descent parser for the supported Verilog subset.

The grammar is deliberately small (see :mod:`repro.hdl`); it covers the
constructs produced by :mod:`repro.hdl.generate` and typical hand-written
synthesizable RTL of the same flavour.  Unsupported constructs raise
:class:`ParseError` with a source position so users know what to rewrite.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hdl.ast_nodes import (
    AlwaysFF,
    Assign,
    BinaryOp,
    BitSelect,
    Concat,
    Expression,
    Identifier,
    IfStatement,
    Module,
    NetDecl,
    NonBlocking,
    Number,
    PartSelect,
    PortDecl,
    Repeat,
    Statement,
    Ternary,
    UnaryOp,
)
from repro.hdl.lexer import Lexer, Token, TokenKind


class ParseError(ValueError):
    """Raised when the source does not conform to the supported subset."""

    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{message} at line {token.line}, column {token.column} (near {token.text!r})"
        super().__init__(message)
        self.token = token


# Binary operator precedence (higher binds tighter), mirroring Verilog.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_UNARY_OPS = {"~", "!", "-", "&", "|", "^", "~&", "~|", "~^", "^~"}

#: Deepest expression accepted.  It bounds both the parser's nesting (each
#: parenthesis pair, operator, ternary, concatenation and replication opens
#: a level) and the height of the expression tree it returns (a left-nested
#: chain such as ``a ^ b ^ c`` is one level per operator).  Deeper input
#: fails with :class:`ParseError` before the parser, or the elaborator
#: walking the tree later, recurses that far.
MAX_EXPRESSION_DEPTH = 64


class Parser:
    """Parses a token stream into a :class:`Module` AST."""

    def __init__(self, source: str):
        self.source = source
        self._tokens = Lexer(source).tokens()
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._current
        if not token.is_keyword(word):
            raise ParseError(f"expected keyword {word!r}", token)
        return self._advance()

    def _expect_punct(self, punct: str) -> Token:
        token = self._current
        if not token.is_punct(punct):
            raise ParseError(f"expected {punct!r}", token)
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        token = self._current
        if not token.is_op(op):
            raise ParseError(f"expected operator {op!r}", token)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", token)
        return self._advance()

    def _expect_integer(self) -> int:
        token = self._current
        if token.kind not in (TokenKind.NUMBER, TokenKind.SIZED_NUMBER):
            raise ParseError("expected integer literal", token)
        self._advance()
        assert token.value is not None
        return token.value

    # -- top level ----------------------------------------------------------

    def parse_module(self) -> Module:
        """Parse a single module (the first one in the file)."""
        self._expect_keyword("module")
        name_token = self._expect_ident()

        port_order: List[str] = []
        ports: List[PortDecl] = []
        if self._current.is_punct("("):
            port_order, ansi_ports = self._parse_port_list()
            ports.extend(ansi_ports)
        self._expect_punct(";")

        nets: List[NetDecl] = []
        assigns: List[Assign] = []
        always_blocks: List[AlwaysFF] = []

        while not self._current.is_keyword("endmodule"):
            token = self._current
            if token.kind is TokenKind.EOF:
                raise ParseError("unexpected end of file inside module", token)
            if token.is_keyword("input") or token.is_keyword("output"):
                ports.extend(self._parse_port_decl())
            elif token.is_keyword("wire") or token.is_keyword("reg"):
                nets.extend(self._parse_net_decl())
            elif token.is_keyword("assign"):
                assigns.append(self._parse_assign())
            elif token.is_keyword("always"):
                always_blocks.append(self._parse_always())
            elif token.is_keyword("parameter") or token.is_keyword("localparam"):
                self._skip_to_semicolon()
            else:
                raise ParseError("unsupported module item", token)

        self._expect_keyword("endmodule")

        ports = self._order_ports(ports, port_order)
        return Module(
            name=name_token.text,
            ports=tuple(ports),
            nets=tuple(nets),
            assigns=tuple(assigns),
            always_blocks=tuple(always_blocks),
            source_lines=tuple(self.source.splitlines()),
        )

    def _parse_port_list(self) -> Tuple[List[str], List[PortDecl]]:
        """Parse ``(a, b, c)`` style or ANSI-style header port lists."""
        self._expect_punct("(")
        names: List[str] = []
        ansi_ports: List[PortDecl] = []
        while not self._current.is_punct(")"):
            token = self._current
            if token.is_keyword("input") or token.is_keyword("output"):
                # ANSI-style header declarations are treated like body decls.
                break
            if token.kind is TokenKind.IDENT:
                names.append(token.text)
                self._advance()
            elif token.is_punct(","):
                self._advance()
            else:
                raise ParseError("unsupported token in port list", token)
        # ANSI-style: consume full declarations until the closing paren.
        if not self._current.is_punct(")"):
            ansi_ports = self._parse_ansi_header()
            names = [port.name for port in ansi_ports]
        self._expect_punct(")")
        return names, ansi_ports

    def _parse_ansi_header(self) -> List[PortDecl]:
        decls: List[PortDecl] = []
        while not self._current.is_punct(")"):
            token = self._current
            if token.is_punct(","):
                self._advance()
                continue
            if not (token.is_keyword("input") or token.is_keyword("output")):
                raise ParseError("unsupported token in ANSI port header", token)
            direction = self._advance().text
            is_reg = False
            if self._current.is_keyword("reg") or self._current.is_keyword("wire"):
                is_reg = self._current.text == "reg"
                self._advance()
            msb, lsb = self._parse_optional_range()
            name = self._expect_ident().text
            decls.append(PortDecl(direction, name, msb, lsb, is_reg))
        return decls

    @staticmethod
    def _order_ports(ports: List[PortDecl], order: List[str]) -> List[PortDecl]:
        if not order:
            return ports
        by_name = {port.name: port for port in ports}
        ordered = [by_name[name] for name in order if name in by_name]
        remaining = [port for port in ports if port.name not in order]
        return ordered + remaining

    # -- declarations -------------------------------------------------------

    def _parse_optional_range(self) -> Tuple[int, int]:
        if not self._current.is_punct("["):
            return 0, 0
        self._expect_punct("[")
        msb = self._expect_integer()
        self._expect_punct(":")
        lsb = self._expect_integer()
        self._expect_punct("]")
        return msb, lsb

    def _parse_port_decl(self) -> List[PortDecl]:
        direction = self._advance().text
        is_reg = False
        if self._current.is_keyword("reg") or self._current.is_keyword("wire"):
            is_reg = self._current.text == "reg"
            self._advance()
        msb, lsb = self._parse_optional_range()
        decls = []
        while True:
            name = self._expect_ident().text
            decls.append(PortDecl(direction, name, msb, lsb, is_reg))
            if self._current.is_punct(","):
                self._advance()
                continue
            break
        self._expect_punct(";")
        return decls

    def _parse_net_decl(self) -> List[NetDecl]:
        kind = self._advance().text
        msb, lsb = self._parse_optional_range()
        decls = []
        while True:
            name = self._expect_ident().text
            decls.append(NetDecl(kind, name, msb, lsb))
            if self._current.is_punct(","):
                self._advance()
                continue
            break
        self._expect_punct(";")
        return decls

    def _skip_to_semicolon(self) -> None:
        while not self._current.is_punct(";"):
            if self._current.kind is TokenKind.EOF:
                raise ParseError("unexpected end of file", self._current)
            self._advance()
        self._advance()

    # -- behavioural items --------------------------------------------------

    def _parse_assign(self) -> Assign:
        self._expect_keyword("assign")
        target = self._parse_lvalue()
        self._expect_op("=")
        value = self.parse_expression()
        self._expect_punct(";")
        return Assign(target=target, value=value)

    def _parse_always(self) -> AlwaysFF:
        self._expect_keyword("always")
        self._expect_punct("@")
        self._expect_punct("(")
        self._expect_keyword("posedge")
        clock = self._expect_ident().text
        if self._current.is_punct(",") or self._current.is_keyword("negedge"):
            raise ParseError(
                "multiple clocks / async resets are not supported", self._current
            )
        self._expect_punct(")")
        body = self._parse_statement_block()
        return AlwaysFF(clock=clock, body=tuple(body))

    def _parse_statement_block(self) -> List[Statement]:
        if self._current.is_keyword("begin"):
            self._advance()
            statements: List[Statement] = []
            while not self._current.is_keyword("end"):
                if self._current.kind is TokenKind.EOF:
                    raise ParseError("unterminated begin/end block", self._current)
                statements.append(self._parse_statement())
            self._expect_keyword("end")
            return statements
        return [self._parse_statement()]

    def _parse_statement(self) -> Statement:
        token = self._current
        if token.is_keyword("if"):
            return self._parse_if()
        return self._parse_nonblocking()

    def _parse_if(self) -> IfStatement:
        self._expect_keyword("if")
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then_body = self._parse_statement_block()
        else_body: List[Statement] = []
        if self._current.is_keyword("else"):
            self._advance()
            else_body = self._parse_statement_block()
        return IfStatement(cond=cond, then_body=tuple(then_body), else_body=tuple(else_body))

    def _parse_nonblocking(self) -> NonBlocking:
        target = self._parse_lvalue()
        self._expect_op("<=")
        value = self.parse_expression()
        self._expect_punct(";")
        return NonBlocking(target=target, value=value)

    def _parse_lvalue(self) -> Expression:
        token = self._expect_ident()
        if self._current.is_punct("["):
            return self._parse_select(token.text)
        return Identifier(token.text)

    # -- expressions --------------------------------------------------------
    #
    # Every expression method takes the ``depth`` of the sub-expression it
    # parses (the levels open above it) and returns the expression with its
    # tree height, and ``depth + height`` never exceeds MAX_EXPRESSION_DEPTH.

    def parse_expression(self) -> Expression:
        """Parse a full expression (including the ternary operator)."""
        return self._parse_ternary(0)[0]

    def _fits(self, depth: int, height: int) -> int:
        """``height`` if a node that tall fits at ``depth``, else ParseError."""
        if depth + height > MAX_EXPRESSION_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels", self._current
            )
        return height

    def _parse_ternary(self, depth: int) -> Tuple[Expression, int]:
        cond, height = self._parse_binary(0, depth)
        if not self._current.is_op("?"):
            return cond, height
        self._advance()
        if_true, true_height = self._parse_ternary(depth + 1)
        self._expect_punct(":")
        if_false, false_height = self._parse_ternary(depth + 1)
        height = self._fits(depth, 1 + max(height, true_height, false_height))
        return Ternary(cond=cond, if_true=if_true, if_false=if_false), height

    def _parse_binary(self, min_precedence: int, depth: int) -> Tuple[Expression, int]:
        left, height = self._parse_unary(depth)
        while True:
            token = self._current
            if token.kind is not TokenKind.OPERATOR:
                break
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            right, right_height = self._parse_binary(precedence + 1, depth + 1)
            left = BinaryOp(op=token.text, left=left, right=right)
            # A left-nested chain (a ^ b ^ c) deepens by one level per operator.
            height = self._fits(depth, 1 + max(height, right_height))
        return left, height

    def _parse_unary(self, depth: int) -> Tuple[Expression, int]:
        # Every nested sub-expression passes through here one level deeper,
        # so this check bounds the parser's own recursion.
        self._fits(depth, 1)
        token = self._current
        if token.kind is TokenKind.OPERATOR and token.text in _UNARY_OPS:
            self._advance()
            operand, height = self._parse_unary(depth + 1)
            return UnaryOp(op=token.text, operand=operand), height + 1
        return self._parse_primary(depth)

    def _parse_primary(self, depth: int) -> Tuple[Expression, int]:
        token = self._current
        if token.is_punct("("):
            self._advance()
            # Parentheses nest the parse but add no level to the tree, so a
            # left-nested chain the writer parenthesizes parses back.
            expr, height = self._parse_ternary(depth + 1)
            self._expect_punct(")")
            return expr, height
        if token.is_punct("{"):
            return self._parse_concat(depth)
        if token.kind is TokenKind.SIZED_NUMBER:
            self._advance()
            assert token.value is not None
            return Number(value=token.value, width=token.width), 1
        if token.kind is TokenKind.NUMBER:
            self._advance()
            assert token.value is not None
            return Number(value=token.value, width=None), 1
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._current.is_punct("["):
                return self._parse_select(token.text), 1
            return Identifier(token.text), 1
        raise ParseError("unsupported primary expression", token)

    def _parse_select(self, name: str) -> Expression:
        self._expect_punct("[")
        first = self._expect_integer()
        if self._current.is_punct(":"):
            self._advance()
            lsb = self._expect_integer()
            self._expect_punct("]")
            return PartSelect(name=name, msb=first, lsb=lsb)
        self._expect_punct("]")
        return BitSelect(name=name, index=first)

    def _parse_concat(self, depth: int) -> Tuple[Expression, int]:
        self._expect_punct("{")
        # Replication: {N{expr}}
        if self._current.kind in (TokenKind.NUMBER, TokenKind.SIZED_NUMBER) and self._peek(
            1
        ).is_punct("{"):
            count = self._expect_integer()
            self._expect_punct("{")
            expr, height = self._parse_ternary(depth + 1)
            self._expect_punct("}")
            self._expect_punct("}")
            return Repeat(count=count, expr=expr), height + 1
        part, height = self._parse_ternary(depth + 1)
        parts: List[Expression] = [part]
        while self._current.is_punct(","):
            self._advance()
            part, part_height = self._parse_ternary(depth + 1)
            parts.append(part)
            height = max(height, part_height)
        self._expect_punct("}")
        return Concat(parts=tuple(parts)), height + 1


def parse_source(source: str) -> Module:
    """Parse Verilog ``source`` text and return the module AST."""
    return Parser(source).parse_module()
