"""The compiler front end against specifications of its own: tokens sit
where they were placed, pretty-printing and parsing invert each other,
and malformed sources fail with a fixed error class, message and
position."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from schemegrad import sexpr
from schemegrad.compiler import compile_source
from schemegrad.errors import LexError, ParseError, ScopeError, UnboundVariable
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program
from schemegrad.ops import PRIM_NAMES, REGISTRY
from schemegrad.sexpr import (Call, Const, If, Let, Letrec, Loop, Prim, Recur, Var, check_scope,
                              parse, pretty, tokenize)

# ---------------------------------------------------------------------------
# tokens at their places

PUNCT = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket"}
DIGITS = "0123456789١"  # with ARABIC-INDIC DIGIT ONE, a decimal digit
SYMBOL_FIRST = "abxyzλ²_*/<>=!?$%&^~+-."  # lambda, superscript two
# Gaps between tokens; a word (number or symbol) needs a non-empty one
# before another word.
GAPS = [" ", "  ", "\t", "\n", "\r\n", "\x0c", " ; a (comment] 1e\n", ";\n"]


@st.composite
def numbers(draw):
    digits = st.text(alphabet=DIGITS, min_size=1, max_size=3)
    sign = draw(st.sampled_from(["", "+", "-"]))
    mantissa = draw(st.sampled_from([
        draw(digits), draw(digits) + ".", draw(digits) + "." + draw(digits), "." + draw(digits),
    ]))
    exponent = draw(st.sampled_from(["", "e", "E-", "e+"]))
    return sign + mantissa + (exponent and exponent + draw(digits))


@st.composite
def symbols(draw):
    first = draw(st.sampled_from(SYMBOL_FIRST))
    rest = draw(st.text(alphabet=SYMBOL_FIRST + DIGITS, max_size=4))
    if first in "+-." and rest[:1] and (rest[0] in DIGITS or rest[0] == "."):
        rest = "a" + rest  # a sign or dot before a digit or dot starts a number
    return first + rest


tokens = st.one_of(
    st.sampled_from(sorted(PUNCT)).map(lambda t: (PUNCT[t], t)),
    numbers().map(lambda t: ("number", t)),
    symbols().map(lambda t: ("symbol", t)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(tokens, st.sampled_from([""] + GAPS)), max_size=30),
       st.sampled_from(["", " ", "\n", "; trailing comment"]))
def test_tokens_sit_where_they_were_placed(placed, end):
    source, expected = "", []
    line, col = 1, 1
    previous_word = False
    for (kind, text), gap in placed:
        word = kind in ("number", "symbol")
        if word and previous_word and not gap:
            gap = " "
        for c in gap:
            line, col = (line + 1, 1) if c == "\n" else (line, col + 1)
        expected.append((kind, text, (line, col)))
        source += gap + text
        col += len(text)
        previous_word = word
    source += end
    assert [(t.kind, t.text, t.pos) for t in tokenize(source)] == expected


def test_lexer_character_classes_are_the_str_predicates():
    """The tokenizer's pattern reads symbol characters, whitespace and
    digits with re's classes; they must agree with the str predicates that
    define them on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    extra = "+-*/<>=!?_.$%&^~"
    assert re.findall(sexpr._SYMBOL_CHAR, every) == [c for c in every if c.isalnum() or c in extra]
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]


# ---------------------------------------------------------------------------
# pretty and parse invert each other

NAMES = ["x", "y", "k", "acc", "λ", "x²", "a-b", "->", "n1"]
PRIMS = sorted(PRIM_NAMES)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def asts(draw, depth=3, loop=None, tail=False):
    """A tree the parser can produce: ``loop`` is the arity of the
    enclosing loop whose tail position ``tail`` says we are in."""
    kinds = ["const", "var"]
    if depth > 0:
        kinds += ["prim", "vec", "if", "let", "loop", "letrec", "call"]
    if loop is not None and tail:
        kinds += ["recur"] * 2
    kind = draw(st.sampled_from(kinds))
    sub = lambda loop=loop, tail=False: draw(asts(depth - 1, loop, tail))  # noqa: E731
    names = lambda lo, hi: draw(st.lists(st.sampled_from(NAMES), min_size=lo,  # noqa: E731
                                         max_size=hi, unique=True))
    if kind == "const":
        return Const(draw(finite))
    if kind == "var":
        return Var(draw(st.sampled_from(NAMES)))
    if kind == "recur":
        return Recur(tuple(sub() for _ in range(loop)))
    if kind in ("prim", "vec"):
        op = "vec" if kind == "vec" else draw(st.sampled_from(PRIMS))
        row = REGISTRY[op]
        hi = 1 if op == "vsum" else row.max_arity or row.min_arity + 2
        n = draw(st.integers(max(row.min_arity, 1 if op == "vec" else 0), min(hi, 3)))
        return Prim(op, tuple(sub() for _ in range(n)))
    if kind == "if":
        return If(sub(), sub(tail=tail), sub(tail=tail))
    if kind == "let":  # let may rebind a name
        bindings = [(draw(st.sampled_from(NAMES)), sub(loop=None)) for _ in range(draw(st.integers(0, 2)))]
        return Let(tuple(bindings), sub(tail=tail))
    if kind == "loop":
        lvars = names(1, 3)
        return Loop(tuple((n, sub(loop=None)) for n in lvars), sub(loop=len(lvars), tail=True))
    if kind == "letrec":
        return Letrec(draw(st.sampled_from(NAMES)), tuple(names(0, 2)), sub(loop=None),
                      sub(tail=tail))
    return Call(draw(st.sampled_from(NAMES)), tuple(sub() for _ in range(draw(st.integers(0, 2)))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(asts())
def test_parse_inverts_pretty_on_generated_trees(ast):
    assert parse(pretty(ast)) == ast


# ---------------------------------------------------------------------------
# malformed sources

# (source, error class, message, (line, col))
MALFORMED = [
    ("(+ x #)", LexError, "illegal character '#'", (1, 6)),
    ("(+ x 1.2e+)", LexError, "unterminated number: exponent has no digits", (1, 6)),
    ("1e", LexError, "unterminated number: exponent has no digits", (1, 1)),
    ("(+ 1x 2)", LexError, "unterminated number before 'x'", (1, 4)),
    ("(+ 1.2.3 2)", LexError, "unterminated number before '.'", (1, 4)),
    ("(+ -. 2)", LexError, "malformed number starting at '-. '", (1, 4)),
    ("..5", LexError, "malformed number starting at '..'", (1, 1)),
    ("(* 2\n  3e5q)", LexError, "unterminated number before 'q'", (2, 3)),
    ("x ; ok\n(y", ParseError, "trailing tokens after expression: '('", (2, 1)),
    ("", ParseError, "empty program", (1, 1)),
    ("   ; only a comment", ParseError, "empty program", (1, 1)),
    ("(+ 1 2", ParseError, "unbalanced parentheses", (1, 1)),
    ("(", ParseError, "unexpected end of input", (1, 1)),
    ("(+ 1 2))", ParseError, "trailing tokens after expression: ')'", (1, 8)),
    ("(+ 1 2) extra", ParseError, "trailing tokens after expression: 'extra'", (1, 9)),
    (")", ParseError, "unbalanced parentheses", (1, 1)),
    ("]", ParseError, "unbalanced parentheses", (1, 1)),
    ("[1 2", ParseError, "unterminated vector literal", (1, 1)),
    ("[]", ParseError, "empty vector literal", (1, 1)),
    ("(+ 1 [2 3)", ParseError, "unbalanced parentheses", (1, 10)),
    ("(1 2)", ParseError, "expected an operator, got '1'", (1, 2)),
    ("((+ 1 2))", ParseError, "expected an operator, got '('", (1, 2)),
    ("(frobnicate 1)", ParseError, "unknown primitive 'frobnicate' in head position", (1, 2)),
    ("(sin 1 2)", ParseError, "sin takes 1..1 arguments, got 2", (1, 1)),
    ("(+)", ParseError, "+ takes 1..unbounded arguments, got 0", (1, 1)),
    ("(vsum)", ParseError, "vsum takes 1..unbounded arguments, got 0", (1, 1)),
    ("(recur 1)", ParseError, "recur is only legal in the tail position of a loop", (1, 1)),
    ("(loop ((i 0)) (+ (recur 1) 2))", ParseError,
     "recur is only legal in the tail position of a loop", (1, 18)),
    ("(loop ((i 0) (j 0)) (recur 1))", ParseError,
     "recur takes 2 argument(s) to match the loop variables, got 1", (1, 21)),
    ("(begin)", ParseError, "begin needs at least one expression", (1, 1)),
    ("(loop () 1)", ParseError, "loop needs at least one variable", (1, 1)),
    ("(let ((a 1)", ParseError, "unbalanced parens in binding list", (1, 6)),
    ("(let (a 1) a)", ParseError, "expected lparen, got 'a'", (1, 7)),
    ("(let ((1 2)) 3)", ParseError, "expected a name, got '1'", (1, 8)),
    ("(let ((sin 1)) sin)", ParseError, "'sin' is a reserved primitive name", (1, 8)),
    ("(+ vec 1)", ParseError, "primitive name 'vec' used as a variable", (1, 4)),
    ("(let ((__t0 1)) __t0)", ParseError,
     "names starting with '__' are reserved for temporaries", (1, 8)),
    ("(+ __x 1)", ParseError, "names starting with '__' are reserved for temporaries", (1, 4)),
    ("(letrec ((f (lam (n) n))) (call f 1))", ParseError,
     "letrec binding must be (name (lambda (params...) body))", (1, 13)),
    ("(letrec ((f (lambda (n 2) n))) (call f 1))", ParseError, "expected a name, got '2'", (1, 24)),
    ("(call 1 2)", ParseError, "call expects a function name", (1, 7)),
    ("(if x 1)", ParseError, "unbalanced parentheses", (1, 8)),
    ("(let ((a 1)) a", ParseError, "unexpected end of input", (1, 14)),
    ("(if (< x 1) 2 3", ParseError, "unexpected end of input", (1, 15)),
    ("(+ 1 " * 201 + "x" + ")" * 201, ParseError, "nesting deeper than 200 levels", (1, 1001)),
    # duplicate binders, at the second occurrence
    ("(loop ((i 0) (i 5)) (if (< i 3) (recur (+ i 1) (+ i 2)) i))", ParseError,
     "loop variable 'i' is bound twice", (1, 15)),
    ("(loop ((i 0) (j 1) (i 2)) i)", ParseError, "loop variable 'i' is bound twice", (1, 21)),
    ("(letrec ((f (lambda (a a) (+ a a)))) (call f 1 2))", ParseError,
     "parameter 'a' is named twice", (1, 24)),
    ("(letrec ((f (lambda (a b c b) a))) (call f 1 2 3 4))", ParseError,
     "parameter 'b' is named twice", (1, 28)),
]


@pytest.mark.parametrize("source, error, message, pos", MALFORMED,
                         ids=[repr(case[0])[:40] for case in MALFORMED])
def test_malformed_source_fails_with_its_error(source, error, message, pos):
    with pytest.raises(error) as err:
        parse(source)
    assert type(err.value) is error
    assert (err.value.message, err.value.pos) == (message, pos)


# (source, inputs, params, error class, message, pos)
OUT_OF_SCOPE = [
    ("(+ x y)", ("x",), (), UnboundVariable, "unbound variable 'y'", (1, 6)),
    ("(+ x\n   (* 2 zz))", ("x",), (), UnboundVariable, "unbound variable 'zz'", (2, 9)),
    ("(loop ((i i)) i)", (), (), UnboundVariable, "unbound variable 'i'", (1, 11)),
    ("(call f 1)", (), (), ScopeError, "call to undefined function 'f'", (1, 1)),
    ("(letrec ((f (lambda (a b) (+ a b)))) (call f 1))", (), (), ScopeError,
     "call to 'f' with 1 argument(s), expected 2", (1, 38)),
    ("x", ("x",), ("x",), ScopeError,
     "names declared more than once as input or parameter: ['x']", None),
    ("(+ x 1)", ("sin",), (), ScopeError, "declared name 'sin' is a reserved primitive", None),
]


@pytest.mark.parametrize("source, inputs, params, error, message, pos", OUT_OF_SCOPE)
def test_scope_error_has_its_message_and_position(source, inputs, params, error, message, pos):
    with pytest.raises(error) as err:
        check_scope(parse(source), inputs, params)
    assert type(err.value) is error
    assert (err.value.message, err.value.pos) == (message, pos)


def test_let_may_rebind_but_loop_and_lambda_binders_are_distinct():
    for src in ("(let ((a 1) (a (+ a 1))) a)", "(let* ((a 1) (a (+ a 1))) a)"):
        prog = compile_source(src)
        assert float(eval_program(prog, {}).data) == 2.0
        assert float(interpret_ast(parse(src), {}).data) == 2.0
    for src in ("(loop ((i 0) (i 5)) (if (< i 3) (recur (+ i 1) (+ i 2)) i))",
                "(letrec ((f (lambda (a a) (+ a a)))) (call f 1 2))"):
        with pytest.raises(ParseError, match="twice"):
            compile_source(src)
