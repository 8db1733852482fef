"""Compiled evaluation against the reference tree-walking interpreter:
bit-exact equality on the corpus, plus batch-vs-stacked consistency."""

import numpy as np
import pytest

from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation, EvalError
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program
from schemegrad.runtime import ERROR_POLICY
from schemegrad.sexpr import parse
from schemegrad.training import truth_store
from schemegrad.values import Value, bit_equal, stack_batch

from corpus import CORPUS, integer_inputs


def _env(inputs, params):
    env = dict(inputs)
    env.update({k: Value.of(v) for k, v in params.items()})
    return env


@pytest.mark.parametrize("prog", CORPUS, ids=lambda p: p.id)
def test_compiled_equals_interpreter_bitwise(prog):
    compiled = compile_source(prog.source, inputs=prog.inputs,
                              params=tuple(prog.params))
    ast = parse(prog.source)
    store = truth_store(prog.params) if prog.params else None
    rng = np.random.default_rng(hash(prog.id) % (2 ** 32))
    n_points = 20
    for _ in range(n_points):
        inputs = integer_inputs(prog, prog.sampler(rng, 1))
        ref = interpret_ast(ast, _env(inputs, prog.params), ERROR_POLICY)
        got = eval_program(compiled, inputs, store, ERROR_POLICY)
        assert bit_equal(ref, got), prog.id


@pytest.mark.parametrize("prog", [p for p in CORPUS if not p.has_loops],
                         ids=lambda p: p.id)
def test_batched_equals_stacked_unbatched(prog):
    compiled = compile_source(prog.source, inputs=prog.inputs,
                              params=tuple(prog.params))
    store = truth_store(prog.params) if prog.params else None
    rng = np.random.default_rng(hash(prog.id) % (2 ** 31))
    B = 7
    points = [prog.sampler(rng, 1) for _ in range(B)]
    batched_inputs = {}
    for name in points[0]:
        vals = [pt[name] for pt in points]
        if all(not v.batched for v in vals) and len({v.data.tobytes() for v in vals}) == 1:
            batched_inputs[name] = vals[0]  # shared constant input (L, dt)
        else:
            batched_inputs[name] = stack_batch(vals)
    batched = eval_program(compiled, batched_inputs, store, ERROR_POLICY)
    stacked = stack_batch([
        eval_program(compiled, pt, store, ERROR_POLICY) for pt in points
    ])
    assert bit_equal(batched, stacked), prog.id


def test_two_op_example_value():
    prog = compile_source("(* (+ x 1) (- y 2))", inputs=("x", "y"))
    assert eval_program(prog, {"x": 2.0, "y": 5.0}).item() == 9.0


def test_gravity_unit_masses():
    prog = compile_source("(/ (* G (* m1 m2)) (pow r 2))",
                          inputs=("m1", "m2", "r"), params=("G",))
    store = truth_store({"G": 6.674})
    out = eval_program(prog, {"m1": 1.0, "m2": 1.0, "r": 1.0}, store)
    assert out.item() == 6.674


def test_interpreter_basics():
    assert interpret_ast(parse("(+ 1 2)"), {}).item() == 3.0
    assert interpret_ast(parse("(pow 2 10)"), {}).item() == 1024.0


def _both_engines(src, env):
    compiled = compile_source(src, inputs=tuple(env))
    return (lambda: eval_program(compiled, env, None, ERROR_POLICY),
            lambda: interpret_ast(parse(src), env, ERROR_POLICY))


def test_interpreter_defers_a_violation_that_a_batched_select_discards():
    env = {"x": Value.batch_scalars(np.array([-1.0, 4.0]))}
    for run in _both_engines("(if (> x 0) (sqrt x) 0)", env):
        assert bit_equal(run(), Value.batch_scalars(np.array([0.0, 2.0])))


@pytest.mark.parametrize("src, x", [("(/ 1 x)", float("nan")), ("(+ x 1e999)", 1.0)],
                         ids=["nan_input", "infinite_literal"])
def test_interpreter_raises_on_a_non_finite_output(src, x):
    for run in _both_engines(src, {"x": Value.scalar(x)}):
        with pytest.raises(DomainViolation):
            run()


def test_interpreter_past_python_recursion_raises_eval_error():
    src = "(letrec ((down (lambda (n) (if (> n 0) (call down (- n 1)) n)))) (call down 2000))"
    assert eval_program(compile_source(src), {}).item() == 0.0
    with pytest.raises(EvalError, match="recursion limit"):
        interpret_ast(parse(src), {})


def test_loop_initial_values_read_the_enclosing_scope():
    # `y`'s initial value is the input x, not the loop variable x beside it
    src = "(loop ((x 1) (y x)) (if (< x 3) (recur (+ x 1) y) y))"
    for run in _both_engines(src, {"x": Value.scalar(10.0)}):
        assert run().item() == 10.0
