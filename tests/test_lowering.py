import pytest

from schemegrad.anf import to_anf
from schemegrad.compiler import CompileConfig, compile_source
from schemegrad.errors import DepthLimitExceeded, LoweringError
from schemegrad.lowering import DEFAULT_MAX_DEPTH, RecursiveFn, lower_tail_calls
from schemegrad.machine import eval_program
from schemegrad.sexpr import parse

COUNTDOWN = ("(letrec ((down (lambda (n) (if (> n 0) (call down (- n 1)) n))))"
             " (call down 5))")
FIB = ("(letrec ((fib (lambda (n) (if (< n 2) n"
       " (+ (call fib (- n 1)) (call fib (- n 2)))))))"
       " (call fib 10))")


def test_tail_recursive_letrec_becomes_loop():
    anf = lower_tail_calls(to_anf(parse(COUNTDOWN)))
    assert anf.functions == ()  # fully lowered
    prog = compile_source(COUNTDOWN)
    assert len(prog.functions) == 0
    assert eval_program(prog, {}).item() == 0.0


def test_loop_syntax_sums_first_ten():
    prog = compile_source(
        "(loop ((i 0) (acc 0)) (if (< i 10) (recur (+ i 1) (+ acc i)) acc))"
    )
    assert eval_program(prog, {}).item() == 45.0  # sum 0..9


def test_non_tail_recursion_stays_stack_dispatched():
    anf = lower_tail_calls(to_anf(parse(FIB)))
    assert len(anf.functions) == 1
    assert isinstance(anf.functions[0], RecursiveFn)
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
