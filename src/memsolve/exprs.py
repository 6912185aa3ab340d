"""Scalar expression language for coefficient functions.

Memductances, state dynamics, kernels, source signals and output
transforms are all written in one small expression language over a
caller-declared set of variables (typically drawn from ``t``, ``s``,
``v``, ``omega``).  The grammar is deliberately closed: the only
functions are ``exp``, ``ln``, ``sin``, ``cos``, ``sqrt`` and ``abs``,
and numeric literals are plain decimals with an optional exponent.

Precedence, loosest to tightest: ``+``/``-``, ``*``/``/``, unary
minus, ``^``.  All binary operators of equal precedence associate to
the left (including ``^``).  ASTs are immutable and safe to share
across threads.

Evaluation lives in :mod:`memsolve.engine`, generated from its opcode
table: strict over floats (``eval_expr``) and arrays (``eval_expr_array``)
with only the result checked for finiteness (``1/exp(1000)`` is 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "DomainError",
    "parse_expr",
    "pretty",
    "variables",
    "substitute",
    "map_constants",
    "format_number",
    "FUNCTIONS",
]

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")

BINARY_OPS = ("add", "sub", "mul", "div", "pow")


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "neg" or a FUNCTIONS member
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # BINARY_OPS member
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Const, Var, Unary, Binary]


class ExprError(ValueError):
    """Base class for parse-time expression errors."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable '{name}'", offset)
        self.name = name


class DomainError(ArithmeticError):
    """Raised when strict evaluation leaves the real domain."""


# ---------------------------------------------------------------------------
# Tokenizer


_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_EOF = "eof"


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^":
            tokens.append((_TOK_OP, c, i))
            i += 1
            continue
        if c == "(":
            tokens.append((_TOK_LPAREN, c, i))
            i += 1
            continue
        if c == ")":
            tokens.append((_TOK_RPAREN, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            text = source[start:i]
            if text == ".":
                raise ExprSyntaxError("malformed number", start)
            tokens.append((_TOK_NUM, text, start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append((_TOK_IDENT, source[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append((_TOK_EOF, "", n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], allowed: frozenset[str]):
        self.tokens = tokens
        self.allowed = allowed
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.sum()
        tok = self.peek()
        if tok[0] != _TOK_EOF:
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "+-":
                self.advance()
                rhs = self.term()
                e = Binary("add" if text == "+" else "sub", e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "*/":
                self.advance()
                rhs = self.unary()
                e = Binary("mul" if text == "*" else "div", e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text == "^":
                self.advance()
                rhs = self.pow_arg()
                e = Binary("pow", e, rhs)
            else:
                return e

    def pow_arg(self) -> Expr:
        # Exponent may carry its own sign: t^-2.
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.advance()
            return Unary("neg", self.pow_arg())
        return self.atom()

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == _TOK_NUM:
            try:
                return Const(float(text))
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", offset) from None
        if kind == _TOK_LPAREN:
            e = self.sum()
            self.expect(_TOK_RPAREN, "')'")
            return e
        if kind == _TOK_IDENT:
            if text in FUNCTIONS:
                self.expect(_TOK_LPAREN, f"'(' after function {text!r}")
                arg = self.sum()
                self.expect(_TOK_RPAREN, "')'")
                return Unary(text, arg)
            if text not in self.allowed:
                raise UnknownVariableError(text, offset)
            return Var(text)
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", offset)


def parse_expr(source: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse ``source`` into an AST, rejecting variables outside ``allowed_vars``."""
    return _Parser(_tokenize(source), frozenset(allowed_vars)).parse()


# ---------------------------------------------------------------------------
# Pretty printer (minimal parentheses; pretty∘parse round-trips)


def format_number(x: float) -> str:
    if float(x).is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


_LEVEL_SUM = 1
_LEVEL_TERM = 2
_LEVEL_UNARY = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _level(e: Expr) -> int:
    if isinstance(e, (Const, Var)):
        if isinstance(e, Const) and e.value < 0:
            return _LEVEL_UNARY
        return _LEVEL_ATOM
    if isinstance(e, Unary):
        return _LEVEL_UNARY if e.op == "neg" else _LEVEL_ATOM
    return {"add": _LEVEL_SUM, "sub": _LEVEL_SUM, "mul": _LEVEL_TERM, "div": _LEVEL_TERM, "pow": _LEVEL_POW}[e.op]


def pretty(e: Expr) -> str:
    """Render ``e`` as source text; reparsing yields a structurally equal AST."""
    return _pp(e, 0)


def _pp(e: Expr, min_level: int) -> str:
    lvl = _level(e)
    if isinstance(e, Const):
        s = format_number(abs(e.value)) if e.value < 0 else format_number(e.value)
        if e.value < 0:
            s = "-" + s
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Unary):
        if e.op == "neg":
            s = "-" + _pp(e.arg, _LEVEL_UNARY)
        else:
            s = f"{e.op}({_pp(e.arg, 0)})"
    else:
        op = e.op
        if op in ("add", "sub"):
            s = f"{_pp(e.lhs, _LEVEL_SUM)} {'+' if op == 'add' else '-'} {_pp(e.rhs, _LEVEL_TERM)}"
        elif op in ("mul", "div"):
            s = f"{_pp(e.lhs, _LEVEL_TERM)}{'*' if op == 'mul' else '/'}{_pp(e.rhs, _LEVEL_UNARY)}"
        else:  # pow; exponent may be a bare sign chain, anything else needs parens
            rhs = e.rhs
            if isinstance(rhs, Unary) and rhs.op == "neg":
                rhs_s = "-" + _pp(rhs.arg, _LEVEL_ATOM)
            else:
                rhs_s = _pp(rhs, _LEVEL_ATOM)
            s = f"{_pp(e.lhs, _LEVEL_POW)}^{rhs_s}"
    if lvl < min_level:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# Tree utilities


def variables(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.arg)
    if isinstance(e, Binary):
        return variables(e.lhs) | variables(e.rhs)
    return frozenset()


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (capture is not a concern: no binders)."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.arg, mapping))
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.lhs, mapping), substitute(e.rhs, mapping))
    return e


def map_constants(e: Expr, fn: Callable[[int, float], float]) -> Expr:
    """Rebuild ``e`` applying ``fn(index, value)`` to each literal in pre-order."""
    counter = [0]

    def go(node: Expr) -> Expr:
        if isinstance(node, Const):
            i = counter[0]
            counter[0] += 1
            return Const(fn(i, node.value))
        if isinstance(node, Unary):
            return Unary(node.op, go(node.arg))
        if isinstance(node, Binary):
            return Binary(node.op, go(node.lhs), go(node.rhs))
        return node

    return go(e)
