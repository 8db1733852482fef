"""Tokenizer and recursive-descent parser for the S-expression source
language, including bracket vector literals ([1 2 3] reads as (vec 1 2 3)).

A token is a ``Token`` named tuple ``(kind, text, pos)``.  An AST node is a
slotted dataclass whose ``pos``, the 1-based (line, column) of its first
token, takes no part in equality, hashing or repr: two parses of one program
compare equal however its tokens are spaced.  Nodes are not frozen, since a
frozen dataclass costs over twice as much to build, but they are immutable by
rule: no phase assigns to a node after building it.  Equality and hashing read
the fields, and the ANF and graph phases share subtrees of the tree instead of
copying them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Union

from .errors import LexError, ParseError, ScopeError, UnboundVariable
from .ops import PRIM_NAMES, REGISTRY, RESERVED_NAMES

# ---------------------------------------------------------------------------
# tokens

Token = namedtuple("Token", "kind text pos")
Token.__doc__ = """A token: ``kind`` is lparen, rparen, lbracket, rbracket, symbol or
number; ``pos`` is its 1-based (line, column)."""

# A symbol character is one that str.isalnum() accepts, or one of
# "+-*/<>=!?_.$%&^~".  In a str pattern re's \w is exactly isalnum() plus "_",
# \s is isspace() and \d is isdecimal(), so the pattern and the str methods
# agree on every code point.
_SYMBOL_CHAR = r"[\w+\-*/<>=!?.$%&^~]"

# A gap of whitespace and ; comments, then one lexeme: punctuation, a
# number, a malformed number, a symbol or an illegal character; at the end
# of the source the gap matches alone.  A number ends at a character that
# cannot continue a symbol.  A run of symbol characters that starts a
# number but does not make one is malformed, and _number_error says how;
# matching the whole run keeps findall from retrying the number at each of
# its characters, which would take time quadratic in its length.
_LEXEME = re.compile(r"""((?:\s|;[^\n]*)*)(?:
    ([()\[\]])
  | ([+\-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+\-]?\d+)?)(?!SYM)
  | ((?:\d|[+\-.](?=[\d.]))SYM*)
  | (SYM+)
  | (.)
  | \Z)""".replace("SYM", _SYMBOL_CHAR), re.VERBOSE)
_PUNCT = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket"}

_new_tuple = tuple.__new__


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    i = 0  # where the next gap starts
    for gap, punct, number, malformed, symbol, illegal in _LEXEME.findall(source):
        if gap:
            if "\n" in gap:
                line += gap.count("\n")
                line_start = i + gap.rindex("\n") + 1
            i += len(gap)
        pos = (line, i - line_start + 1)
        if punct:
            append(_new_tuple(Token, (_PUNCT[punct], punct, pos)))
            i += 1
        elif symbol:
            append(_new_tuple(Token, ("symbol", symbol, pos)))
            i += len(symbol)
        elif number:
            append(_new_tuple(Token, ("number", number, pos)))
            i += len(number)
        elif malformed:
            _number_error(source, i, pos)
        elif illegal:
            raise LexError(f"illegal character {illegal!r}", pos)
    return tokens


def _number_error(source: str, i: int, pos) -> None:
    """Raise the error for the malformed number that starts at source[i]:
    one with no digits, an exponent without digits, or a symbol character
    right after it."""
    n = len(source)
    j = i + (source[i] in "+-")
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
    raise LexError(f"unterminated number before {source[j]!r}", pos)


# ---------------------------------------------------------------------------
# AST

Pos = Union[tuple, None]


# A node class: slotted, with equality and hashing over every field but pos.
_node = dataclass(slots=True, unsafe_hash=True)


@_node
class Const:
    value: float
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Var:
    name: str
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Let:
    bindings: tuple  # of (name, node)
    body: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class If:
    cond: "Node"
    then: "Node"
    orelse: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Prim:
    op: str
    args: tuple
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Loop:
    vars: tuple  # of (name, init node)
    body: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Recur:
    args: tuple
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Letrec:
    name: str
    params: tuple
    fnbody: "Node"
    body: "Node"
    pos: Pos = field(default=None, compare=False, repr=False)


@_node
class Call:
    name: str
    args: tuple
    pos: Pos = field(default=None, compare=False, repr=False)


Node = Union[Const, Var, Let, If, Prim, Loop, Recur, Letrec, Call]


# ---------------------------------------------------------------------------
# parser
#
# The parser threads an index through a copy of the token list that ends in
# an _END token at the last token's position.  ``depth`` is the number of
# parens and brackets open before the token at the index.


# The deepest nesting of open parens and brackets a source may have.  Every
# compile phase and the reference interpreter recurse on the parse tree, a
# few Python frames per level, so this keeps them all inside Python's
# default recursion limit.
MAX_NESTING = 200

_END = "end"
_NOT_A_NAME = RESERVED_NAMES | {"if"}


def _take(kind: str, pos, depth: int) -> None:
    """Raise what taking a token of ``kind`` raises: at the end of input, or
    on an open paren or bracket past the nesting limit."""
    if kind == _END:
        raise ParseError("unexpected end of input", pos)
    if (kind == "lparen" or kind == "lbracket") and depth >= MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)


def _expect(toks: list, i: int, want: str, depth: int) -> int:
    kind, text, pos = toks[i]
    _take(kind, pos, depth)
    if kind != want:
        raise ParseError(f"expected {want}, got {text!r}", pos)
    return i + 1


def _name(toks: list, i: int, depth: int) -> tuple:
    kind, text, pos = toks[i]
    _take(kind, pos, depth)
    if kind != "symbol":
        raise ParseError(f"expected a name, got {text!r}", pos)
    if text in _NOT_A_NAME:
        raise ParseError(f"{text!r} is a reserved primitive name", pos)
    if text.startswith("__"):
        raise ParseError("names starting with '__' are reserved for temporaries", pos)
    return text, i + 1


def _bindings(toks: list, i: int, depth: int, distinct: bool) -> tuple:
    """A binding list ``((name expr) ...)``; with ``distinct``, naming a
    variable twice is an error at its second binding.  An unclosed list is
    reported at its open paren, as an unclosed argument list is."""
    pos = toks[i][2]
    i = _expect(toks, i, "lparen", depth)
    depth += 1
    bindings = []
    while True:
        kind = toks[i][0]
        if kind == "rparen":
            return tuple(bindings), i + 1
        if kind == _END:
            raise ParseError("unbalanced parens in binding list", pos)
        i = _expect(toks, i, "lparen", depth)
        name_pos = toks[i][2]
        name, i = _name(toks, i, depth + 1)
        if distinct and any(name == bound for bound, _ in bindings):
            raise ParseError(f"loop variable {name!r} is bound twice", name_pos)
        value, i = _expr(toks, i, None, False, depth + 1)
        i = _expect(toks, i, "rparen", depth + 1)
        bindings.append((name, value))


# Surface arities wider than the row's: (vsum a b ...) is (vsum (+ a b ...)).
_SURFACE_MAX_ARITY = {"vsum": None}


def _check_arity(op: str, nargs: int, pos) -> None:
    entry = REGISTRY[op]
    hi = _SURFACE_MAX_ARITY.get(op, entry.max_arity)
    if nargs < entry.min_arity or (hi is not None and nargs > hi):
        raise ParseError(
            f"{op} takes {entry.min_arity}..{'unbounded' if hi is None else hi} arguments,"
            f" got {nargs}", pos
        )


def _args(toks: list, i: int, loop, depth: int, pos) -> tuple:
    """Operand expressions up to the closing paren of the form opened at
    ``pos``."""
    args = []
    while True:
        kind = toks[i][0]
        if kind == "rparen":
            return tuple(args), i + 1
        if kind == _END:
            raise ParseError("unbalanced parentheses", pos)
        node, i = _expr(toks, i, loop, False, depth)
        args.append(node)


def _expr(toks: list, i: int, loop, tail: bool, depth: int) -> tuple:
    """The expression at ``toks[i]`` and the index after it.  ``loop`` is
    the arity of the innermost enclosing loop (or None); ``tail`` tracks
    whether we are in its tail position, where recur is legal."""
    kind, text, pos = toks[i]
    i += 1
    if kind == "symbol":
        if text in _NOT_A_NAME:
            raise ParseError(f"primitive name {text!r} used as a variable", pos)
        if text.startswith("__"):
            raise ParseError("names starting with '__' are reserved for temporaries", pos)
        return Var(text, pos), i
    if kind == "number":
        return Const(float(text), pos), i
    _take(kind, pos, depth)
    if kind != "lparen" and kind != "lbracket":
        raise ParseError("unbalanced parentheses", pos)
    depth += 1

    if kind == "lbracket":
        elems = []
        while True:
            kind = toks[i][0]
            if kind == "rbracket":
                i += 1
                break
            if kind == _END:
                raise ParseError("unterminated vector literal", pos)
            node, i = _expr(toks, i, loop, False, depth)
            elems.append(node)
        if not elems:
            raise ParseError("empty vector literal", pos)
        return Prim("vec", tuple(elems), pos), i

    kind, op, head_pos = toks[i]
    i += 1
    if kind != "symbol":
        _take(kind, head_pos, depth)
        raise ParseError(f"expected an operator, got {op!r}", head_pos)
    if op in PRIM_NAMES:
        args, i = _args(toks, i, loop, depth, pos)
        _check_arity(op, len(args), pos)
        if op == "vsum" and len(args) > 1:
            # n-ary vsum sums everything: reduce the elementwise sum.
            return Prim("vsum", (Prim("+", args, pos),), pos), i
        return Prim(op, args, pos), i
    form = _FORMS.get(op)
    if form is None:
        raise ParseError(f"unknown primitive {op!r} in head position", head_pos)
    return form(toks, i, loop, tail, depth, pos)


# Special forms: (toks, index after the head, loop, tail, depth, pos of the
# open paren) -> (node, index after the closing paren).

def _parse_if(toks, i, loop, tail, depth, pos):
    cond, i = _expr(toks, i, loop, False, depth)
    then, i = _expr(toks, i, loop, tail, depth)
    orelse, i = _expr(toks, i, loop, tail, depth)
    return If(cond, then, orelse, pos), _expect(toks, i, "rparen", depth)


def _parse_let(toks, i, loop, tail, depth, pos):
    # let and let* are both sequential, so a later binding may rebind a name.
    bindings, i = _bindings(toks, i, depth, distinct=False)
    body, i = _expr(toks, i, loop, tail, depth)
    return Let(bindings, body, pos), _expect(toks, i, "rparen", depth)


def _parse_begin(toks, i, loop, tail, depth, pos):
    exprs = []
    while toks[i][0] != "rparen" and toks[i][0] != _END:
        node, i = _expr(toks, i, loop, False, depth)
        exprs.append(node)
    i = _expect(toks, i, "rparen", depth)
    if not exprs:
        raise ParseError("begin needs at least one expression", pos)
    # The language is pure: earlier expressions cannot have effects, so
    # begin means its final expression.
    return exprs[-1], i


def _parse_loop(toks, i, loop, tail, depth, pos):
    bindings, i = _bindings(toks, i, depth, distinct=True)
    if not bindings:
        raise ParseError("loop needs at least one variable", pos)
    body, i = _expr(toks, i, len(bindings), True, depth)
    return Loop(bindings, body, pos), _expect(toks, i, "rparen", depth)


def _parse_recur(toks, i, loop, tail, depth, pos):
    if loop is None or not tail:
        raise ParseError("recur is only legal in the tail position of a loop", pos)
    args, i = _args(toks, i, loop, depth, pos)
    if len(args) != loop:
        raise ParseError(
            f"recur takes {loop} argument(s) to match the loop variables, got {len(args)}",
            pos,
        )
    return Recur(args, pos), i


def _parse_letrec(toks, i, loop, tail, depth, pos):
    # (letrec ((name (lambda (params...) fnbody))) body): the binding list,
    # the binding, the lambda and its parameter list open four more levels.
    i = _expect(toks, i, "lparen", depth)
    i = _expect(toks, i, "lparen", depth + 1)
    name, i = _name(toks, i, depth + 2)
    lam_pos = toks[i][2]
    i = _expect(toks, i, "lparen", depth + 2)
    kind, text, head_pos = toks[i]
    _take(kind, head_pos, depth + 3)
    if kind != "symbol" or text != "lambda":
        raise ParseError("letrec binding must be (name (lambda (params...) body))", lam_pos)
    i = _expect(toks, i + 1, "lparen", depth + 3)
    params = []
    while toks[i][0] != "rparen" and toks[i][0] != _END:
        param_pos = toks[i][2]
        param, i = _name(toks, i, depth + 4)
        if param in params:
            raise ParseError(f"parameter {param!r} is named twice", param_pos)
        params.append(param)
    i = _expect(toks, i, "rparen", depth + 4)
    fnbody, i = _expr(toks, i, None, False, depth + 3)
    i = _expect(toks, i, "rparen", depth + 3)  # close lambda
    i = _expect(toks, i, "rparen", depth + 2)  # close binding
    i = _expect(toks, i, "rparen", depth + 1)  # close binding list
    body, i = _expr(toks, i, loop, tail, depth)
    return Letrec(name, tuple(params), fnbody, body, pos), _expect(toks, i, "rparen", depth)


def _parse_call(toks, i, loop, tail, depth, pos):
    kind, name, fn_pos = toks[i]
    _take(kind, fn_pos, depth)
    if kind != "symbol":
        raise ParseError("call expects a function name", fn_pos)
    args, i = _args(toks, i + 1, loop, depth, pos)
    return Call(name, args, pos), i


_FORMS = {"if": _parse_if, "let": _parse_let, "let*": _parse_let, "begin": _parse_begin,
          "loop": _parse_loop, "recur": _parse_recur, "letrec": _parse_letrec,
          "call": _parse_call}


def parse_tokens(tokens: list[Token]) -> Node:
    if not tokens:
        raise ParseError("empty program", (1, 1))
    toks = list(tokens)
    toks.append((_END, "", toks[-1][2]))
    ast, i = _expr(toks, 0, None, False, 0)
    kind, text, pos = toks[i]
    if kind != _END:
        raise ParseError(f"trailing tokens after expression: {text!r}", pos)
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
    externally declared names; each is declared once and is no reserved
    name."""
    declared = tuple(inputs) + tuple(params)
    if len(set(declared)) != len(declared):
        twice = sorted({name for name in declared if declared.count(name) > 1})
        raise ScopeError(f"names declared more than once as input or parameter: {twice}")
    for name in declared:
        if name in _NOT_A_NAME:
            raise ScopeError(f"declared name {name!r} is a reserved primitive")
    _check(ast, frozenset(declared), {})


def _check(node: Node, names: frozenset, fns: dict) -> None:
    """Scope-check a subtree: ``names`` are the variables in scope, ``fns``
    maps each function in scope to its arity."""
    cls = node.__class__
    if cls is Prim or cls is Recur:
        for a in node.args:
            kind = a.__class__
            if kind is Var:
                if a.name not in names:
                    raise UnboundVariable(f"unbound variable {a.name!r}", a.pos)
            elif kind is not Const:
                _check(a, names, fns)
        return
    if cls is Var:
        if node.name not in names:
            raise UnboundVariable(f"unbound variable {node.name!r}", node.pos)
        return
    if cls is Const:
        return
    if cls is If:
        _check(node.cond, names, fns)
        _check(node.then, names, fns)
        _check(node.orelse, names, fns)
        return
    if cls is Let:
        scope = names
        for name, expr in node.bindings:
            _check(expr, scope, fns)
            scope = scope | {name}
        _check(node.body, scope, fns)
        return
    if cls is Loop:
        scope = names
        for name, expr in node.vars:
            _check(expr, names, fns)
            scope = scope | {name}
        _check(node.body, scope, fns)
        return
    if cls is Letrec:
        fn_scope = dict(fns)
        fn_scope[node.name] = len(node.params)
        _check(node.fnbody, names | set(node.params), fn_scope)
        _check(node.body, names, fn_scope)
        return
    if cls is Call:
        if node.name not in fns:
            raise ScopeError(f"call to undefined function {node.name!r}", node.pos)
        if len(node.args) != fns[node.name]:
            raise ScopeError(
                f"call to {node.name!r} with {len(node.args)} argument(s), "
                f"expected {fns[node.name]}",
                node.pos,
            )
        for a in node.args:
            _check(a, names, fns)
        return
    raise TypeError(f"not an AST node: {node!r}")
