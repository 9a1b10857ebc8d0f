"""Surface definition language.

A mirror surface is written as three coordinate expressions in the chart
parameters u and v, e.g. ``[cos(u)*cos(v), cos(u)*sin(v), sin(u)]``.  The
text is parsed into an immutable expression tree and evaluated as a
second-order jet, so downstream geometry gets machine-precision derivatives.

Grammar (whitespace insignificant, numbers are decimal literals with an
optional exponent)::

    surface := "[" expr "," expr "," expr "]"
    expr    := term {("+"|"-") term}
    term    := factor {("*"|"/") factor}
    factor  := ["-"] power
    power   := atom ["^" factor]
    atom    := number | "u" | "v" | ident | ident "(" expr ")" | "(" expr ")"

An optional domain declaration may follow the surface:
``u in [a, b]; v in [c, d]``.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import jets
from .jets import Jet2, Jet2Vec3, JetDomainError

__all__ = [
    "Const", "Var", "Param", "Call", "Neg", "BinOp", "Node",
    "SurfaceAST", "SurfaceDefinition",
    "SurfaceLangError", "SurfaceSyntaxError", "UnknownIdentifierError",
    "ArityError", "EvalDomainError",
    "parse_surface", "parse_surface_definition", "eval_surface",
    "format_expr", "to_text",
]


# --------------------------------------------------------------------------
# errors
# --------------------------------------------------------------------------

class SurfaceLangError(ValueError):
    """Base class for surface-language failures."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class SurfaceSyntaxError(SurfaceLangError):
    """The text does not conform to the grammar."""


class UnknownIdentifierError(SurfaceLangError):
    """An identifier is neither u, v, a known function, nor a parameter."""


class ArityError(SurfaceLangError):
    """A function used without arguments, or a non-function called."""


class EvalDomainError(ArithmeticError):
    """An undefined real operation; carries the node and eval_surface's jet and outside."""

    def __init__(self, node, message: str, jet=None, outside=None):
        self.node = node
        self.jet = jet
        self.outside = outside
        super().__init__(f"{message} in '{format_expr(node)}'")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "u" or "v"


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Param, Call, Neg, BinOp]

_FUNC_TABLE = {
    "sin": jets.sin, "cos": jets.cos, "tan": jets.tan,
    "sinh": jets.sinh, "cosh": jets.cosh,
    "exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt, "abs": jets.absolute,
}


@dataclass
class SurfaceAST:
    """Three coordinate expression trees plus the parameter table."""

    x: Node
    y: Node
    z: Node
    params: dict = field(default_factory=dict)

    def components(self):
        return (self.x, self.y, self.z)


@dataclass
class SurfaceDefinition:
    """A parsed surface file: the AST and the declared (u, v) rectangle."""

    ast: SurfaceAST
    domain: Optional[tuple] = None  # (u0, u1, v0, v1)


# --------------------------------------------------------------------------
# scanner
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "[](),+-*/^;"


@dataclass(frozen=True)
class _Tok:
    kind: str  # NUMBER | IDENT | OP | EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch == "."):
            toks.append(_Tok("NUMBER", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(_Tok("IDENT", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in _OPS:
            toks.append(_Tok("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise SurfaceSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks, params):
        self.toks = toks
        self.pos = 0
        self.params = params
        self.read = set()  # the parameters the text reads

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str) -> _Tok:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            got = t.text or "end of input"
            raise SurfaceSyntaxError(f"expected '{op}', got {got!r}", t.line, t.col)
        return self.next()

    def at_op(self, *ops) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.text in ops

    def surface(self) -> tuple:
        self.expect_op("[")
        x = self.expr()
        self.expect_op(",")
        y = self.expr()
        self.expect_op(",")
        z = self.expr()
        self.expect_op("]")
        return x, y, z

    def expr(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.next().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.at_op("-"):
            self.next()
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.at_op("^"):
            self.next()
            # right-associative: exponent is a full factor
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> Node:
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            return Const(float(t.text))
        if t.kind == "IDENT":
            self.next()
            name = t.text
            if self.at_op("("):
                self.next()
                arg = self.expr()
                self.expect_op(")")
                if name == "neg":
                    return Neg(arg)
                if name in _FUNC_TABLE:
                    return Call(name, arg)
                if name in self.params:
                    raise ArityError(f"'{name}' is a parameter, not a function", t.line, t.col)
                raise UnknownIdentifierError(f"unknown function '{name}'", t.line, t.col)
            if name in ("u", "v"):
                return Var(name)
            if name in self.params:
                self.read.add(name)
                return Param(name)
            if name in _FUNC_TABLE or name == "neg":
                raise ArityError(f"function '{name}' used without an argument", t.line, t.col)
            raise UnknownIdentifierError(f"unknown identifier '{name}'", t.line, t.col)
        if self.at_op("("):
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        got = t.text or "end of input"
        raise SurfaceSyntaxError(f"expected a number, identifier or '(', got {got!r}",
                                 t.line, t.col)

    def signed_number(self) -> float:
        sign = 1.0
        if self.at_op("-"):
            self.next()
            sign = -1.0
        t = self.peek()
        if t.kind != "NUMBER":
            raise SurfaceSyntaxError(f"expected a number, got {t.text!r}", t.line, t.col)
        self.next()
        return sign * float(t.text)

    def domain_clause(self) -> tuple:
        # "u in [a, b]; v in [c, d]"
        bounds = {}
        for want in ("u", "v"):
            t = self.next()
            if t.kind != "IDENT" or t.text != want:
                raise SurfaceSyntaxError(f"expected '{want}' in domain declaration", t.line, t.col)
            t = self.next()
            if t.kind != "IDENT" or t.text != "in":
                raise SurfaceSyntaxError("expected 'in' in domain declaration", t.line, t.col)
            self.expect_op("[")
            lo = self.signed_number()
            self.expect_op(",")
            hi = self.signed_number()
            self.expect_op("]")
            if hi <= lo:
                raise SurfaceSyntaxError(f"empty {want}-interval in domain", t.line, t.col)
            bounds[want] = (lo, hi)
            if want == "u":
                self.expect_op(";")
        return (*bounds["u"], *bounds["v"])

    def expect_eof(self):
        t = self.peek()
        if t.kind != "EOF":
            raise SurfaceSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)


def _clean_params(params) -> dict:
    table = {}
    for name, value in (params or {}).items():
        try:
            table[str(name)] = float(value)
        except (TypeError, ValueError):
            raise SurfaceLangError(f"parameter '{name}' must be a real number, got {value!r}")
    return table


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_surface(text: str, params=None) -> SurfaceAST:
    """Parse a bracketed surface expression into a SurfaceAST."""
    table = _clean_params(params)
    p = _Parser(_tokenize(text), table)
    x, y, z = p.surface()
    p.expect_eof()
    return SurfaceAST(x, y, z, table)


def parse_surface_definition(text: str, params=None) -> SurfaceDefinition:
    """Parse a surface file: expression plus optional domain declaration.

    Lines may carry ``#`` comments.  A parameter the expression does not
    read is an error, like an unknown parameter of a built-in; so is one
    named u or v, which the chart variable shadows.
    """
    table = _clean_params(params)
    p = _Parser(_tokenize(_strip_comments(text)), table)
    x, y, z = p.surface()
    domain = None
    if p.peek().kind != "EOF":
        domain = p.domain_clause()
    p.expect_eof()
    unread = [name for name in table if name not in p.read]
    if unread:
        takes = ", ".join(name for name in table if name in p.read) or "none"
        raise SurfaceLangError(
            f"unknown parameter '{unread[0]}' for the surface file (takes: {takes})")
    return SurfaceDefinition(SurfaceAST(x, y, z, table), domain)


# --------------------------------------------------------------------------
# printer
# --------------------------------------------------------------------------

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_SUM
        if node.op in "*/":
            return _PREC_TERM
        return _PREC_POWER
    if isinstance(node, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def _fmt(node: Node, min_prec: int) -> str:
    if isinstance(node, Const):
        s = repr(float(node.value))
    elif isinstance(node, (Var, Param)):
        s = node.name
    elif isinstance(node, Call):
        s = f"{node.func}({_fmt(node.arg, _PREC_SUM)})"
    elif isinstance(node, Neg):
        s = "-" + _fmt(node.operand, _PREC_POWER)
    elif isinstance(node, BinOp):
        if node.op in "+-":
            s = f"{_fmt(node.left, _PREC_SUM)} {node.op} {_fmt(node.right, _PREC_TERM)}"
        elif node.op in "*/":
            s = f"{_fmt(node.left, _PREC_TERM)}{node.op}{_fmt(node.right, _PREC_UNARY)}"
        else:  # ^ : left operand must be an atom, exponent is a factor
            s = f"{_fmt(node.left, _PREC_ATOM)}^{_fmt(node.right, _PREC_UNARY)}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _prec(node) < min_prec:
        return f"({s})"
    return s


def format_expr(node: Node) -> str:
    """Render one expression tree back to surface-language text."""
    return _fmt(node, _PREC_SUM)


def to_text(ast: SurfaceAST) -> str:
    """Render a SurfaceAST so that re-parsing yields a structurally equal AST."""
    return "[" + ", ".join(format_expr(c) for c in ast.components()) + "]"


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": jets.power}


def _eval_node(node: Node, uv: tuple, full: tuple, params: dict, failed: list) -> Jet2:
    """The jet of node; domain errors go to failed as (node, message, bad points).

    Exponents of ^ take the order-2 variables full, the rest uv: jets.power
    picks its branch from every slot of the exponent, at either order alike.
    """
    if isinstance(node, Const):
        return Jet2(node.value)
    if isinstance(node, Var):
        return uv[0] if node.name == "u" else uv[1]
    if isinstance(node, Param):
        return Jet2(params[node.name])
    if isinstance(node, Neg):
        return -_eval_node(node.operand, uv, full, params, failed)
    if isinstance(node, Call):
        op, operands = _FUNC_TABLE[node.func], ((node.arg, uv),)
    elif isinstance(node, BinOp):
        op = _BINOPS[node.op]
        operands = ((node.left, uv), (node.right, full if node.op == "^" else uv))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    args = [_eval_node(x, x_uv, full, params, failed) for x, x_uv in operands]
    try:
        return op(*args)
    except JetDomainError as e:
        failed.append((node, str(e), e.bad))
        return e.jet


def eval_surface(ast: SurfaceAST, u, v, order: int = 2) -> Jet2Vec3:
    """Evaluate a surface at (u, v) as a jet of position and partials.

    u and v may be scalars or broadcastable numpy arrays; results carry the
    broadcast shape.  order 1 computes only r, r_u and r_v, bit for bit those
    of order 2.  All points are evaluated in one pass; a bad one does not
    stop it.  Raises EvalDomainError at an undefined real operation or a
    non-finite slot, naming the first failing node in evaluation order (a
    component's non-finite check after its operations), with the jet and
    the mask outside: True exactly where evaluating that point alone raises,
    and elsewhere the jet is bit for bit that point's evaluation.  At order 1
    it lacks the points where only a second partial is non-finite.
    """
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    full = (Jet2.var_u(u), Jet2.var_v(v))
    uv = full if order == 2 else (Jet2.var_u(u, order), Jet2.var_v(v, order))
    failed = []
    out = []
    with np.errstate(all="ignore"):
        for label, tree in zip("xyz", ast.components()):
            j = _eval_node(tree, uv, full, ast.params, failed)
            finite = functools.reduce(np.logical_and, map(np.isfinite, j.slots()))
            if not np.all(finite):
                failed.append((tree, f"non-finite value in {label}-component", ~finite))
            out.append(j)
    jet = Jet2Vec3(*out)
    if failed:
        outside = functools.reduce(np.logical_or, [bad for *_, bad in failed],
                                   np.zeros(shape, dtype=bool))
        raise EvalDomainError(*failed[0][:2], jet, outside)
    return jet
