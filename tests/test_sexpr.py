import itertools

import numpy as np
import pytest

from schemegrad import ops
from schemegrad.autodiff import ParameterStore, backward
from schemegrad.compiler import compile_source
from schemegrad.errors import LexError, ParseError, SchemegradError, ScopeError
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.sexpr import (
    MAX_NESTING,
    Const,
    Let,
    Prim,
    Var,
    check_scope,
    parse,
    pretty,
    tokenize,
)
from schemegrad.values import Value, bit_equal


def kinds(src):
    return [t.kind for t in tokenize(src)]


def test_registry_has_51_ops_in_four_categories():
    counts = ops.category_counts()
    assert counts == {"scalar": 24, "vector": 9, "matrix": 11, "control": 7}
    assert len(ops.REGISTRY) == 51


def test_tokenize_simple():
    toks = tokenize("(+ x 1)")
    assert [(t.kind, t.text) for t in toks] == [
        ("lparen", "("), ("symbol", "+"), ("symbol", "x"), ("number", "1"),
        ("rparen", ")"),
    ]


def test_tokenize_brackets_emit_bracket_tokens():
    assert kinds("[1 2 3]") == ["lbracket", "number", "number", "number", "rbracket"]


def test_tokenize_two_op_program():
    toks = tokenize("(* (+ x 1) (- y 2))")
    # 4 lparens/rparens around 3 operators, 2 variables, 2 literals
    assert len(toks) == 13
    assert toks[-1].kind == "rparen"
    assert sum(1 for t in toks if t.kind == "number") == 2


def test_positions_are_one_based_and_monotonic():
    toks = tokenize("(+ x\n   12)")
    assert toks[0].pos == (1, 1)
    assert toks[1].pos == (1, 2)
    assert toks[3].pos == (2, 4)
    flat = [(t.pos[0], t.pos[1]) for t in toks]
    assert flat == sorted(flat)


def test_tokenize_numbers():
    toks = tokenize("1 -2.5 3e4 -1.5e-3 .5")
    assert all(t.kind == "number" for t in toks)
    assert [float(t.text) for t in toks] == [1.0, -2.5, 3e4, -1.5e-3, 0.5]


def test_only_decimal_digits_start_a_number():
    # a superscript two is a digit to str.isdigit but not to float()
    assert [(t.kind, t.text) for t in tokenize("x² ²")] == [("symbol", "x²"), ("symbol", "²")]
    assert parse("(+ x ²)") == Prim("+", (Var("x"), Var("²")))
    with pytest.raises(SchemegradError):
        compile_source("(+ x ²)", inputs=("x",))
    # non-ASCII decimal digits are numbers, as float() reads them
    assert [float(t.text) for t in tokenize("١٢.٥")] == [12.5]


def test_comments_skipped():
    assert parse("; a comment\n(+ 1 2) ; trailing") == parse("(+ 1 2)")


def test_lex_error_on_illegal_character():
    with pytest.raises(LexError):
        tokenize("(+ x #)")


def test_lex_error_on_unterminated_exponent():
    with pytest.raises(LexError):
        tokenize("(+ x 1.2e+)")


def test_bracket_desugars_to_vec():
    assert parse("[1 2 3]") == Prim("vec", (Const(1.0), Const(2.0), Const(3.0)))
    assert parse("[a b]") == parse("(vec a b)")


def test_parse_minimal_let():
    assert parse("(let ((a 2)) a)") == Let((("a", Const(2.0)),), Var("a"))


def test_parse_two_op_structure():
    ast = parse("(* (+ x 1) (- y 2))")
    assert ast == Prim("*", (
        Prim("+", (Var("x"), Const(1.0))),
        Prim("-", (Var("y"), Const(2.0))),
    ))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("(+ 1 2")  # unbalanced
    with pytest.raises(ParseError):
        parse("(frobnicate 1)")  # unknown head
    with pytest.raises(ParseError):
        parse("(sin 1 2)")  # arity
    with pytest.raises(ParseError):
        parse("(+ 1 2) extra")  # trailing tokens
    with pytest.raises(ParseError):
        parse("(recur 1)")  # recur outside loop
    with pytest.raises(ParseError):
        parse("(loop ((i 0)) (+ (recur 1) 2))")  # recur not in tail position


def test_recur_arity_checked_against_loop():
    with pytest.raises(ParseError):
        parse("(loop ((i 0) (j 0)) (recur 1))")


def test_parse_error_carries_position():
    try:
        parse("(+ x\n  (unknown 1))")
    except ParseError as e:
        assert e.pos is not None and e.pos[0] == 2
    else:
        raise AssertionError("expected ParseError")


def test_primitive_names_reserved():
    with pytest.raises(ParseError):
        parse("(let ((sin 1)) sin)")
    with pytest.raises(ParseError):
        parse("(+ vec 1)")


def test_double_underscore_names_rejected():
    with pytest.raises(ParseError):
        parse("(let ((__t0 1)) __t0)")


def test_roundtrip_through_pretty():
    sources = [
        "(* (+ x 1) (- y 2))",
        "(let ((a (+ x 1)) (b 2)) (* a b))",
        "(if (> x 0) x (- 0 x))",
        "(loop ((i 0) (acc 0)) (if (< i 10) (recur (+ i 1) (+ acc i)) acc))",
        "(letrec ((f (lambda (n) (if (< n 2) n (call f (- n 1)))))) (call f 5))",
        "(dot [1 2 3] (vec a b c))",
        "(matvec (eye 3) v)",
    ]
    for src in sources:
        ast = parse(src)
        assert parse(pretty(ast)) == ast


def test_roundtrip_over_corpus():
    from corpus import CORPUS

    for prog in CORPUS:
        ast = parse(prog.source)
        assert parse(pretty(ast)) == ast, prog.id


def test_token_concatenation_reparses_identically():
    from corpus import CORPUS

    for prog in CORPUS:
        rejoined = " ".join(t.text for t in tokenize(prog.source))
        assert parse(rejoined) == parse(prog.source), prog.id


def test_scope_check():
    check_scope(parse("(+ x y)"), inputs=["x", "y"], params=[])
    with pytest.raises(ScopeError):
        check_scope(parse("(+ x y)"), inputs=["x"], params=[])
    with pytest.raises(ScopeError):
        check_scope(parse("(call f 1)"), inputs=[], params=[])
    with pytest.raises(ScopeError):
        # arity of call checked against the letrec signature
        check_scope(
            parse("(letrec ((f (lambda (a b) (+ a b)))) (call f 1))"),
            inputs=[], params=[],
        )
    with pytest.raises(ScopeError):
        check_scope(parse("x"), inputs=["x"], params=["x"])
    with pytest.raises(ScopeError, match="more than once"):
        check_scope(parse("(+ x x)"), inputs=["x", "x"], params=[])
    with pytest.raises(ScopeError, match="more than once"):
        check_scope(parse("(* k x)"), inputs=["x"], params=["k", "k"])
    with pytest.raises(ScopeError, match="more than once"):
        compile_source("(+ x x)", inputs=("x", "x"))


def test_begin_means_last_expression():
    assert parse("(begin 1 2 (+ x 3))") == parse("(+ x 3)")


def test_let_star_is_sequential_let():
    ast = parse("(let* ((a 1) (b (+ a 1))) b)")
    check_scope(ast, inputs=[], params=[])


def test_nary_vsum_desugars_to_elementwise_sum():
    assert parse("(vsum a b c)") == parse("(vsum (+ a b c))")


# Forms that wrap an inner expression {}; each nests it one or two levels.
NESTING_FORMS = {
    "prim": "(+ 1 {})",
    "if": "(if (< x 5) {} 0)",
    "loop": "(loop ((i 0)) (if (< i 2) (recur (+ i 1)) {}))",
    "letrec": "(letrec ((f (lambda (k) (* k a)))) (call f {}))",
}


def _nesting(src: str) -> int:
    depth = deepest = 0
    for c in src:
        depth += c in "(["
        depth -= c in ")]"
        deepest = max(deepest, depth)
    return deepest


def _nested_source(depth: int, forms) -> str:
    """A source nesting exactly `depth` levels: the forms wrapped in turn
    while they fit within the limit, then plain sums to make up the rest."""
    src = "(* a x)"
    for form in itertools.cycle(forms):
        wrapped = form.format(src)
        if _nesting(wrapped) > min(depth, MAX_NESTING):
            break
        src = wrapped
    pad = depth - _nesting(src)
    return "(+ 1 " * pad + src + ")" * pad


@pytest.mark.parametrize("forms", [tuple(NESTING_FORMS)] + [(f,) for f in NESTING_FORMS],
                         ids=lambda f: "+".join(f))
def test_nesting_limit_program_runs_in_every_engine(forms, fresh_kernels):
    """Three runs of each engine: raw-slot, untaped at B=3 and taped at B=1
    with a backward pass.  A kernel nested deeper than Python compiles is
    no kernel, and its runs take the executor."""
    src = _nested_source(MAX_NESTING, [NESTING_FORMS[f] for f in forms])
    assert _nesting(src) == MAX_NESTING == 200
    prog = compile_source(src, inputs=("x",), params=("a",))
    store = ParameterStore()
    store.add("a", 0.5)
    want = interpret_ast(parse(src), {"x": 1.5, "a": 0.5})
    # the batch is a's: x guards the loop's tail `if`, which must be unbatched
    batched = ParameterStore()
    batched.add("a", Value.batch_scalars([0.5, 0.25, 2.0]))
    want_batched = interpret_ast(parse(src), {"x": 1.5, "a": batched.value_of("a")})
    for _ in range(3):
        got = eval_program(prog, {"x": 1.5}, store)
        assert bit_equal(got, want)
        assert bit_equal(eval_program(prog, {"x": 1.5}, batched), want_batched)
        out, tape = eval_with_tape(prog, {"x": 1.5}, store)
        assert bit_equal(out, want)
        store["a"].grad = None
        backward(tape, Value(np.ones_like(out.data), out.kind, out.batched))
        assert store["a"].grad is not None


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_past_limit_is_a_parse_error(depth):
    src = _nested_source(depth, list(NESTING_FORMS.values()))
    with pytest.raises(ParseError, match="nesting deeper than 200 levels"):
        parse(src)
    with pytest.raises(ParseError):
        compile_source(src, inputs=("x",), params=("a",))


def test_nesting_error_names_the_opening_token():
    src = "[" * 150 + "\n" + "(+ 1 " * 60 + "x" + ")" * 60 + "]" * 150
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.pos == (2, 251)  # the 51st paren on line 2
