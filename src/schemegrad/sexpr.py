"""Tokenizer and recursive-descent parser for the S-expression source
language, including bracket vector literals ([1 2 3] reads as (vec 1 2 3))."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import LexError, ParseError, ScopeError, UnboundVariable
from .ops import PRIM_NAMES, REGISTRY, RESERVED_NAMES

# ---------------------------------------------------------------------------
# tokens

_PUNCT = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket"}
_SYMBOL_EXTRA = set("+-*/<>=!?_.$%&^~")


@dataclass(frozen=True)
class Token:
    kind: str  # lparen | rparen | lbracket | rbracket | symbol | number
    text: str
    pos: tuple[int, int]  # 1-based (line, column)


def _is_symbol_char(c: str) -> bool:
    return c.isalnum() or c in _SYMBOL_EXTRA


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c == ";":
            while i < n and source[i] != "\n":
                i += 1
            continue
        pos = (line, col)
        if c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, pos))
            i += 1
            col += 1
            continue
        starts_number = c.isdecimal() or (
            c in "+-." and i + 1 < n and (source[i + 1].isdecimal() or source[i + 1] == ".")
        ) or (c == "." and i + 1 < n and source[i + 1].isdecimal())
        if starts_number:
            j = i
            if source[j] in "+-":
                j += 1
            digits = False
            while j < n and source[j].isdecimal():
                j += 1
                digits = True
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
                    digits = True
            if not digits:
                raise LexError(f"malformed number starting at {source[i:j + 1]!r}", pos)
            if j < n and source[j] in "eE":
                j += 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or not source[j].isdecimal():
                    raise LexError("unterminated number: exponent has no digits", pos)
                while j < n and source[j].isdecimal():
                    j += 1
            if j < n and _is_symbol_char(source[j]):
                raise LexError(f"unterminated number before {source[j]!r}", pos)
            text = source[i:j]
            tokens.append(Token("number", text, pos))
            col += j - i
            i = j
            continue
        if _is_symbol_char(c):
            j = i
            while j < n and _is_symbol_char(source[j]):
                j += 1
            tokens.append(Token("symbol", source[i:j], pos))
            col += j - i
            i = j
            continue
        raise LexError(f"illegal character {c!r}", pos)
    return tokens


# ---------------------------------------------------------------------------
# AST

Pos = Union[tuple, None]


@dataclass(frozen=True)
class Const:
    value: float
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Let:
    bindings: tuple  # of (name, node)
    body: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class If:
    cond: "Node"
    then: "Node"
    orelse: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Prim:
    op: str
    args: tuple
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Loop:
    vars: tuple  # of (name, init node)
    body: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Recur:
    args: tuple
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Letrec:
    name: str
    params: tuple
    fnbody: "Node"
    body: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: Pos = field(default=None, compare=False, repr=False)


Node = Union[Const, Var, Let, If, Prim, Loop, Recur, Letrec, Call]


# ---------------------------------------------------------------------------
# parser


# The deepest nesting of open parens and brackets a source may have.  Every
# compile phase and the reference interpreter recurse on the parse tree, a
# few Python frames per level, so this keeps them all inside Python's
# default recursion limit.
MAX_NESTING = 200


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # parens and brackets open at the read position

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].pos if self.tokens else (1, 1)
            raise ParseError("unexpected end of input", last)
        self.i += 1
        kind = tok.kind
        if kind == "lparen" or kind == "lbracket":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        elif kind == "rparen" or kind == "rbracket":
            self.depth -= 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, got {tok.text!r}", tok.pos)
        return tok


def _check_name(tok: Token) -> str:
    if tok.kind != "symbol":
        raise ParseError(f"expected a name, got {tok.text!r}", tok.pos)
    if tok.text in RESERVED_NAMES or tok.text == "if":
        raise ParseError(f"{tok.text!r} is a reserved primitive name", tok.pos)
    if tok.text.startswith("__"):
        raise ParseError("names starting with '__' are reserved for temporaries", tok.pos)
    return tok.text


def _parse_bindings(ts: _TokenStream) -> tuple:
    ts.expect("lparen")
    bindings = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise ParseError("unbalanced parens in binding list", ts.tokens[-1].pos)
        if tok.kind == "rparen":
            ts.next()
            break
        ts.expect("lparen")
        name = _check_name(ts.next())
        value = _parse_expr(ts, in_loop=None, tail=False)
        ts.expect("rparen")
        bindings.append((name, value))
    return tuple(bindings)


def _check_arity(op: str, nargs: int, pos) -> None:
    entry = REGISTRY[op]
    if nargs < entry.min_arity or (entry.max_arity is not None and nargs > entry.max_arity):
        hi = entry.max_arity if entry.max_arity is not None else "unbounded"
        raise ParseError(
            f"{op} takes {entry.min_arity}..{hi} arguments, got {nargs}", pos
        )


def _parse_expr(ts: _TokenStream, in_loop, tail: bool) -> Node:
    """`in_loop` is the arity of the innermost enclosing loop (or None);
    `tail` tracks whether we are in its tail position, where recur is legal."""
    tok = ts.next()
    if tok.kind == "number":
        return Const(float(tok.text), pos=tok.pos)
    if tok.kind == "symbol":
        if tok.text in RESERVED_NAMES or tok.text == "if":
            raise ParseError(f"primitive name {tok.text!r} used as a variable", tok.pos)
        if tok.text.startswith("__"):
            raise ParseError("names starting with '__' are reserved for temporaries", tok.pos)
        return Var(tok.text, pos=tok.pos)
    if tok.kind == "lbracket":
        elems = []
        while True:
            nxt = ts.peek()
            if nxt is None:
                raise ParseError("unterminated vector literal", tok.pos)
            if nxt.kind == "rbracket":
                ts.next()
                break
            elems.append(_parse_expr(ts, in_loop, tail=False))
        if not elems:
            raise ParseError("empty vector literal", tok.pos)
        return Prim("vec", tuple(elems), pos=tok.pos)
    if tok.kind == "rparen" or tok.kind == "rbracket":
        raise ParseError("unbalanced parentheses", tok.pos)

    # tok.kind == lparen
    head = ts.next()
    if head.kind != "symbol":
        raise ParseError(f"expected an operator, got {head.text!r}", head.pos)
    op = head.text

    def finish_args():
        args = []
        while True:
            nxt = ts.peek()
            if nxt is None:
                raise ParseError("unbalanced parentheses", tok.pos)
            if nxt.kind == "rparen":
                ts.next()
                return tuple(args)
            args.append(_parse_expr(ts, in_loop, tail=False))

    if op == "if":
        cond = _parse_expr(ts, in_loop, tail=False)
        then = _parse_expr(ts, in_loop, tail)
        orelse = _parse_expr(ts, in_loop, tail)
        ts.expect("rparen")
        return If(cond, then, orelse, pos=tok.pos)

    if op in ("let", "let*"):
        bindings = _parse_bindings(ts)
        body = _parse_expr(ts, in_loop, tail)
        ts.expect("rparen")
        return Let(bindings, body, pos=tok.pos)

    if op == "begin":
        exprs = []
        while ts.peek() is not None and ts.peek().kind != "rparen":
            exprs.append(_parse_expr(ts, in_loop, tail=False))
        ts.expect("rparen")
        if not exprs:
            raise ParseError("begin needs at least one expression", tok.pos)
        # The language is pure: earlier expressions cannot have effects, so
        # begin means its final expression.
        return exprs[-1]

    if op == "loop":
        bindings = _parse_bindings(ts)
        if not bindings:
            raise ParseError("loop needs at least one variable", tok.pos)
        body = _parse_expr(ts, in_loop=len(bindings), tail=True)
        ts.expect("rparen")
        return Loop(bindings, body, pos=tok.pos)

    if op == "recur":
        if in_loop is None or not tail:
            raise ParseError("recur is only legal in the tail position of a loop", tok.pos)
        args = finish_args()
        if len(args) != in_loop:
            raise ParseError(
                f"recur takes {in_loop} argument(s) to match the loop variables, got {len(args)}",
                tok.pos,
            )
        return Recur(args, pos=tok.pos)

    if op == "letrec":
        ts.expect("lparen")
        ts.expect("lparen")
        name = _check_name(ts.next())
        lam = ts.expect("lparen")
        lam_head = ts.next()
        if lam_head.kind != "symbol" or lam_head.text != "lambda":
            raise ParseError("letrec binding must be (name (lambda (params...) body))", lam.pos)
        ts.expect("lparen")
        params = []
        while ts.peek() is not None and ts.peek().kind != "rparen":
            params.append(_check_name(ts.next()))
        ts.expect("rparen")
        fnbody = _parse_expr(ts, in_loop=None, tail=False)
        ts.expect("rparen")  # close lambda
        ts.expect("rparen")  # close binding
        ts.expect("rparen")  # close binding list
        body = _parse_expr(ts, in_loop, tail)
        ts.expect("rparen")
        return Letrec(name, tuple(params), fnbody, body, pos=tok.pos)

    if op == "call":
        fn_tok = ts.next()
        if fn_tok.kind != "symbol":
            raise ParseError("call expects a function name", fn_tok.pos)
        args = finish_args()
        return Call(fn_tok.text, args, pos=tok.pos)

    if op in PRIM_NAMES:
        args = finish_args()
        _check_arity(op, len(args), tok.pos)
        if op == "vsum" and len(args) > 1:
            # n-ary vsum sums everything: reduce the elementwise sum.
            return Prim("vsum", (Prim("+", args, pos=tok.pos),), pos=tok.pos)
        return Prim(op, args, pos=tok.pos)

    raise ParseError(f"unknown primitive {op!r} in head position", head.pos)


def parse_tokens(tokens: list[Token]) -> Node:
    if not tokens:
        raise ParseError("empty program", (1, 1))
    ts = _TokenStream(tokens)
    ast = _parse_expr(ts, in_loop=None, tail=False)
    trailing = ts.peek()
    if trailing is not None:
        raise ParseError(f"trailing tokens after expression: {trailing.text!r}", trailing.pos)
    return ast


def parse(source: str) -> Node:
    return parse_tokens(tokenize(source))


# ---------------------------------------------------------------------------
# pretty printer


def _fmt_number(v: float) -> str:
    return repr(v)


def pretty(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Prim):
        return "(" + " ".join([node.op] + [pretty(a) for a in node.args]) + ")"
    if isinstance(node, If):
        return f"(if {pretty(node.cond)} {pretty(node.then)} {pretty(node.orelse)})"
    if isinstance(node, Let):
        bs = " ".join(f"({n} {pretty(e)})" for n, e in node.bindings)
        return f"(let ({bs}) {pretty(node.body)})"
    if isinstance(node, Loop):
        bs = " ".join(f"({n} {pretty(e)})" for n, e in node.vars)
        return f"(loop ({bs}) {pretty(node.body)})"
    if isinstance(node, Recur):
        return "(" + " ".join(["recur"] + [pretty(a) for a in node.args]) + ")"
    if isinstance(node, Letrec):
        ps = " ".join(node.params)
        return (
            f"(letrec (({node.name} (lambda ({ps}) {pretty(node.fnbody)}))) "
            f"{pretty(node.body)})"
        )
    if isinstance(node, Call):
        return "(" + " ".join(["call", node.name] + [pretty(a) for a in node.args]) + ")"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# scope checking


def check_scope(ast: Node, inputs, params) -> None:
    """Verify every variable and call is bound.  Inputs and params are the
    externally declared names."""
    inputs = tuple(inputs)
    params = tuple(params)
    overlap = set(inputs) & set(params)
    if overlap:
        raise ScopeError(f"names declared both input and parameter: {sorted(overlap)}")
    for name in inputs + params:
        if name in RESERVED_NAMES or name == "if":
            raise ScopeError(f"declared name {name!r} is a reserved primitive")

    def walk(node: Node, vars_in_scope: frozenset, fns_in_scope: dict):
        if isinstance(node, Const):
            return
        if isinstance(node, Var):
            if node.name not in vars_in_scope:
                raise UnboundVariable(f"unbound variable {node.name!r}", node.pos)
            return
        if isinstance(node, Prim):
            for a in node.args:
                walk(a, vars_in_scope, fns_in_scope)
            return
        if isinstance(node, If):
            walk(node.cond, vars_in_scope, fns_in_scope)
            walk(node.then, vars_in_scope, fns_in_scope)
            walk(node.orelse, vars_in_scope, fns_in_scope)
            return
        if isinstance(node, Let):
            scope = vars_in_scope
            for name, expr in node.bindings:
                walk(expr, scope, fns_in_scope)
                scope = scope | {name}
            walk(node.body, scope, fns_in_scope)
            return
        if isinstance(node, Loop):
            scope = vars_in_scope
            for name, expr in node.vars:
                walk(expr, vars_in_scope, fns_in_scope)
                scope = scope | {name}
            walk(node.body, scope, fns_in_scope)
            return
        if isinstance(node, Recur):
            for a in node.args:
                walk(a, vars_in_scope, fns_in_scope)
            return
        if isinstance(node, Letrec):
            fn_scope = dict(fns_in_scope)
            fn_scope[node.name] = len(node.params)
            walk(node.fnbody, vars_in_scope | set(node.params), fn_scope)
            walk(node.body, vars_in_scope, fn_scope)
            return
        if isinstance(node, Call):
            if node.name not in fns_in_scope:
                raise ScopeError(f"call to undefined function {node.name!r}", node.pos)
            if len(node.args) != fns_in_scope[node.name]:
                raise ScopeError(
                    f"call to {node.name!r} with {len(node.args)} argument(s), "
                    f"expected {fns_in_scope[node.name]}",
                    node.pos,
                )
            for a in node.args:
                walk(a, vars_in_scope, fns_in_scope)
            return
        raise TypeError(f"not an AST node: {node!r}")

    walk(ast, frozenset(inputs + params), {})
