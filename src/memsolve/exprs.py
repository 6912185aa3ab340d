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

Evaluation lives in :mod:`memsolve.engine`, run row by row from its opcode
table: strict over floats (``eval_expr``) and arrays (``eval_expr_array``)
with only the result checked for finiteness (``1/exp(1000)`` is 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Union

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
    "operands",
    "walk",
    "fold",
    "format_number",
    "FUNCTIONS",
]

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")

# The binary operators, each stated once: symbol -> (precedence, node op).  All
# associate to the left.  The tokenizer, the parser and the printer read it.
_BINARY = {"+": (1, "add"), "-": (1, "sub"), "*": (2, "mul"), "/": (2, "div"), "^": (4, "pow")}
_UNARY = 3  # a sign binds looser than ^: -t^2 is -(t^2)
_ATOM = 5  # an exponent is a signed atom: t^-2


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
    op: str  # a node op of _BINARY
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
        if c in _BINARY:
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
# Precedence-climbing parser


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
        e = self.expr(1)
        tok = self.peek()
        if tok[0] != _TOK_EOF:
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return e

    def expr(self, level: int) -> Expr:
        """Operands joined by the binary operators that bind at ``level`` or tighter."""
        e = self.operand(level)
        while (op := _BINARY.get(self.peek()[1])) and op[0] >= level:
            self.advance()
            e = Binary(op[1], e, self.expr(op[0] + 1))  # left association
        return e

    def operand(self, level: int) -> Expr:
        """An atom, or the signs before the operand they negate."""
        signs = 0
        while self.peek()[1] == "-":
            self.advance()
            signs += 1
        if not signs:
            return self.atom()
        # -t^2 is -(t^2); an exponent's signs take a signed atom, so t^-2^3 is (t^-2)^3
        e = self.expr(max(level, _UNARY))
        for _ in range(signs):
            e = Unary("neg", e)
        return e

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == _TOK_NUM:
            try:
                return Const(float(text))
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", offset) from None
        if kind == _TOK_LPAREN:
            e = self.expr(1)
            self.expect(_TOK_RPAREN, "')'")
            return e
        if kind == _TOK_IDENT:
            if text in FUNCTIONS:
                self.expect(_TOK_LPAREN, f"'(' after function {text!r}")
                arg = self.expr(1)
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


# node op -> (spelling, precedence); sums print spaced
_SPELLING = {op: (f" {symbol} " if prec == 1 else symbol, prec) for symbol, (prec, op) in _BINARY.items()}


def pretty(e: Expr) -> str:
    """Render ``e`` as source text; reparsing yields a structurally equal AST."""
    return "".join(x for x, _ in walk((e, 0), _pieces) if isinstance(x, str))


def _pieces(item) -> tuple:
    """The pieces of ``item``, an (expression, level) operand: strings and operands in order."""
    if isinstance(item, str):
        return ()
    e, level = item
    if isinstance(e, Var):
        return (e.name,)
    if isinstance(e, Unary) and e.op != "neg":
        return f"{e.op}(", (e.arg, 0), ")"
    if isinstance(e, Const):
        text, prec = (format_number(e.value),), _UNARY if e.value < 0 else _ATOM
    elif isinstance(e, Unary):
        text, prec = ("-", (e.arg, _UNARY)), _UNARY
    else:
        spelling, prec = _SPELLING[e.op]
        if e.op == "pow" and isinstance(e.rhs, Unary) and e.rhs.op == "neg":
            text = (e.lhs, prec), spelling, "-", (e.rhs.arg, _ATOM)  # an exponent carries its own sign: t^-2
        else:
            text = (e.lhs, prec), spelling, (e.rhs, prec + 1)  # left association
    return ("(", *text, ")") if prec < level else text


# ---------------------------------------------------------------------------
# Tree utilities: one explicit-stack walk, so no input nests too deeply for them


def operands(e: Expr) -> tuple:
    return (e.arg,) if isinstance(e, Unary) else (e.lhs, e.rhs) if isinstance(e, Binary) else ()


def walk(root, children: Callable = operands) -> Iterator[tuple]:
    """``(node, its children)`` for every node under ``root``, in post-order."""
    order, todo = [], [root]
    while todo:  # children pushed in order come out last first: the reverse of post-order
        node = todo.pop()
        kids = children(node)
        order.append((node, kids))
        todo.extend(kids)
    return reversed(order)


def fold(e: Expr, visit: Callable[[Expr, list], object], children: Callable = operands):
    """``visit(node, the values of its children)`` over ``e`` in post-order; the root's value."""
    values: list = []
    for node, kids in walk(e, children):
        k = len(values) - len(kids)
        values[k:] = [visit(node, values[k:])]
    return values[0]


def _rebuild(e: Expr, args: list) -> Expr:
    return type(e)(e.op, *args) if args else e


def variables(e: Expr) -> frozenset[str]:
    return frozenset(x.name for x, _ in walk(e) if isinstance(x, Var))


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (capture is not a concern: no binders)."""
    return fold(e, lambda x, args: mapping.get(x.name, x) if isinstance(x, Var) else _rebuild(x, args))


def map_constants(e: Expr, fn: Callable[[int, float], float]) -> Expr:
    """Rebuild ``e`` applying ``fn(index, value)`` to each literal in pre-order
    (literals are leaves: post-order meets them in the same order)."""
    index = itertools.count()
    return fold(e, lambda x, args: Const(fn(next(index), x.value)) if isinstance(x, Const) else _rebuild(x, args))
