import numpy as np
import pytest

from schemegrad.anf import AnfFunction, CallApp, TailIf, TailRecur, to_anf
from schemegrad.autodiff import ParameterStore, finite_diff_check
from schemegrad.compiler import DEFAULT_MAX_DEPTH, CompileConfig, compile_source, disassemble
from schemegrad.errors import DepthLimitExceeded, LoweringError
from schemegrad.interpreter import interpret_ast
from schemegrad.lowering import lower_tail_calls
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.sexpr import parse
from schemegrad.values import Value, bit_equal, stack_batch

COUNTDOWN = ("(letrec ((down (lambda (n) (if (> n 0) (call down (- n 1)) n))))"
             " (call down 5))")
FIB = ("(letrec ((fib (lambda (n) (if (< n 2) n"
       " (+ (call fib (- n 1)) (call fib (- n 2)))))))"
       " (call fib 10))")


def test_tail_self_call_is_a_jump():
    anf = lower_tail_calls(to_anf(parse(COUNTDOWN)))
    (fn,) = anf.functions
    assert isinstance(fn.body.tail, TailIf)
    assert isinstance(fn.body.tail.then.tail, TailRecur)  # no call, no copied body
    prog = compile_source(COUNTDOWN)
    assert len(prog.functions) == 1
    assert eval_program(prog, {}).item() == 0.0


def test_loop_syntax_sums_first_ten():
    prog = compile_source(
        "(loop ((i 0) (acc 0)) (if (< i 10) (recur (+ i 1) (+ acc i)) acc))"
    )
    assert eval_program(prog, {}).item() == 45.0  # sum 0..9


def test_non_tail_recursion_stays_stack_dispatched():
    anf = lower_tail_calls(to_anf(parse(FIB)))
    (fn,) = anf.functions
    assert isinstance(fn, AnfFunction)
    calls = [rhs for _, rhs in fn.body.tail.orelse.bindings if isinstance(rhs, CallApp)]
    assert [c.fn for c in calls] == [fn.uid, fn.uid]
    prog = compile_source(FIB)
    assert eval_program(prog, {}).item() == 55.0


def test_fib_matches_iterative_oracle():
    def fib_iter(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    template = ("(letrec ((fib (lambda (n) (if (< n 2) n"
                " (+ (call fib (- n 1)) (call fib (- n 2)))))))"
                " (call fib k))")
    prog = compile_source(template, inputs=("k",))
    for k in range(0, 15):
        assert eval_program(prog, {"k": float(k)}).item() == float(fib_iter(k))


def test_depth_limit_boundaries():
    up = ("(letrec ((up (lambda (n) (if (< n 0.5) 0 (+ 1 (call up (- n 1)))))))"
          " (call up {}))")
    config = CompileConfig(max_recursion_depth=1000)
    ok = compile_source(up.format(999), config=config)
    assert eval_program(ok, {}).item() == 999.0
    bad = compile_source(up.format(1000), config=config)
    with pytest.raises(DepthLimitExceeded):
        eval_program(bad, {})


def test_default_depth_limit_is_10000():
    assert DEFAULT_MAX_DEPTH == 10_000
    deep = ("(letrec ((up (lambda (n) (if (< n 0.5) 0 (+ 1 (call up (- n 1)))))))"
            " (call up {}))")
    ok = compile_source(deep.format(9999))
    assert eval_program(ok, {}).item() == 9999.0
    bad = compile_source(deep.format(10001))
    with pytest.raises(DepthLimitExceeded):
        eval_program(bad, {})


def test_depth_limit_configurable():
    deep = ("(letrec ((up (lambda (n) (if (< n 0.5) 0 (+ 1 (call up (- n 1)))))))"
            " (call up 50))")
    prog = compile_source(deep, config=CompileConfig(max_recursion_depth=10))
    with pytest.raises(DepthLimitExceeded):
        eval_program(prog, {})


def test_mutual_recursion_rejected():
    src = ("(letrec ((f (lambda (n)"
           " (letrec ((g (lambda (m) (call f m)))) (call g n)))))"
           " (call f 1))")
    with pytest.raises(LoweringError):
        compile_source(src)


def test_million_iteration_loop_constant_stack():
    import sys

    src = "(loop ((i 0) (acc 0)) (if (< i 1000000) (recur (+ i 1) (+ acc i)) acc))"
    prog = compile_source(src)
    limit = sys.getrecursionlimit()
    out = eval_program(prog, {})
    assert sys.getrecursionlimit() == limit
    assert out.item() == 999999 * 1000000 / 2


def test_lowering_deterministic():
    a1 = lower_tail_calls(to_anf(parse(COUNTDOWN)))
    a2 = lower_tail_calls(to_anf(parse(COUNTDOWN)))
    assert repr(a1) == repr(a2)


def test_captured_variable_in_loop_body():
    src = "(loop ((i 0) (acc 0)) (if (< i 5) (recur (+ i 1) (+ acc step)) acc))"
    prog = compile_source(src, inputs=("step",))
    assert eval_program(prog, {"step": 2.0}).item() == 10.0


def test_captured_variable_in_function_body():
    src = ("(letrec ((scaled (lambda (n) (if (> n 0)"
           " (+ k (call scaled (- n 1))) 0))))"
           " (call scaled 3))")
    prog = compile_source(src, inputs=("k",))
    assert eval_program(prog, {"k": 1.5}).item() == 4.5


def test_nested_loops():
    src = ("(loop ((i 0) (total 0))"
           " (if (< i 3)"
           "     (recur (+ i 1)"
           "            (+ total (loop ((j 0) (s 0))"
           "                       (if (< j 4) (recur (+ j 1) (+ s 1)) s))))"
           "     total))")
    prog = compile_source(src)
    assert eval_program(prog, {}).item() == 12.0


# letrec shapes over a data input x and a parameter a.  Branch conditions
# read only unbatched trip counts, so every shape also runs batched in x.
LETREC_CASES = (
    ("tail_rec_two_sites",
     "(letrec ((pw (lambda (k acc) (if (> k 0) (call pw (- k 1) (* acc x)) acc))))"
     " (+ (call pw 3 a) (call pw 2 (* a x))))"),
    ("helper_two_sites",
     "(letrec ((sq (lambda (u) (* u u)))) (+ (call sq (* a x)) (call sq (- x a))))"),
    ("mixed_tail_and_non_tail",
     "(letrec ((f (lambda (k acc) (if (> k 2) (call f (- k 1) (+ acc (* a x)))"
     " (if (> k 0) (+ acc (call f (- k 1) (* acc a))) acc)))))"
     " (call f 5 x))"),
    ("inner_shadows_outer",
     "(letrec ((f (lambda (k acc) (if (> k 0) (call f (- k 1) (* acc a))"
     " (letrec ((f (lambda (u) (+ u x)))) (call f acc))))))"
     " (call f 3 x))"),
    ("body_holds_loop",
     "(letrec ((g (lambda (n u) (loop ((i 0) (s u))"
     " (if (< i n) (recur (+ i 1) (+ s (* a u))) s)))))"
     " (* (call g 3 x) (call g 2 a)))"),
    ("captured_parameter",
     "(letrec ((h (lambda (k acc) (if (> k 0) (call h (- k 1) (+ acc (* a k))) (* acc x)))))"
     " (call h 4 x))"),
)
XS = (0.5, 1.25, -0.75, 2.0, 1.5)


def _letrec_store():
    store = ParameterStore()
    store.add("a", 0.7)
    return store


@pytest.mark.parametrize("source", [src for _, src in LETREC_CASES],
                         ids=[cid for cid, _ in LETREC_CASES])
def test_letrec_shapes_match_interpreter_batched_and_fd(source):
    prog = compile_source(source, inputs=("x",), params=("a",))
    store = _letrec_store()
    ast = parse(source)
    singles = []
    for x in XS:
        got = eval_program(prog, {"x": x}, store)
        assert bit_equal(got, interpret_ast(ast, {"x": x, "a": 0.7}))
        singles.append(got)
    xb = Value.batch_scalars(np.array(XS))
    batched = eval_program(prog, {"x": xb}, store)
    assert bit_equal(batched, interpret_ast(ast, {"x": xb, "a": 0.7}))
    assert bit_equal(batched, stack_batch(singles))
    report = finite_diff_check(prog, {"x": 1.25}, store)
    assert report.passed, report.per_name


def test_inner_letrec_tail_call_is_not_a_jump_of_the_outer_function():
    anf = to_anf(parse(LETREC_CASES[3][1]))
    (outer,) = [fn for fn in anf.functions if len(fn.params) == 2]
    (inner,) = [fn for fn in anf.functions if len(fn.params) == 1]
    assert isinstance(outer.body.tail.then.tail, TailRecur)
    (call,) = [rhs for _, rhs in outer.body.tail.orelse.bindings if isinstance(rhs, CallApp)]
    assert call.fn == inner.uid


def test_tail_recursion_takes_no_depth():
    src = ("(letrec ((down (lambda (n acc) (if (> n 0) (call down (- n 1) (+ acc 1)) acc))))"
           " (call down 50000 0))")
    prog = compile_source(src)
    assert prog.max_recursion_depth == DEFAULT_MAX_DEPTH < 50_000
    assert eval_program(prog, {}).item() == 50_000.0
    out, tape = eval_with_tape(prog, {})
    assert out.item() == 50_000.0


def test_helper_call_counts_one_level_as_interpreter_does():
    # A non-recursive helper takes one level while it runs, in both engines.
    src = "(letrec ((sq (lambda (u) (* u u)))) (call sq 3))"
    assert eval_program(compile_source(src), {}).item() == 9.0
    with pytest.raises(DepthLimitExceeded):
        eval_program(compile_source(src, config=CompileConfig(max_recursion_depth=0)), {})
    with pytest.raises(DepthLimitExceeded):
        interpret_ast(parse(src), {}, max_depth=0)


def test_disassembly_lists_recur_in_function_body():
    assert disassemble(compile_source(COUNTDOWN)) == COUNTDOWN_DISASSEMBLY


COUNTDOWN_DISASSEMBLY = """\
slot[0] = 5.0                     ; constant
slot[1] = call down(slot[0])      ; output
function down/1:
  ; vars slot[0]
  slot[1] = 0.0
  slot[2] = >(slot[0], slot[1])
  if slot[2]:
    slot[3] = 1.0
    slot[4] = slot[0] - slot[3]
    recur slot[4]
  else:
    return slot[0]"""
