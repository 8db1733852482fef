import numpy as np
import pytest

from schemegrad.autodiff import Tape
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation, EvalError, MissingInput, SingularMatrix
from schemegrad.machine import eval_program, eval_with_tape, run_on_tape
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY
from schemegrad.values import Value, bit_equal


def test_missing_input_raises():
    prog = compile_source("(+ x y)", inputs=("x", "y"))
    with pytest.raises(MissingInput):
        eval_program(prog, {"x": 1.0})


def test_missing_param_raises():
    prog = compile_source("(* h f)", inputs=("f",), params=("h",))
    with pytest.raises(MissingInput):
        eval_program(prog, {"f": 1.0}, {})


def test_unused_declared_input_not_required():
    prog = compile_source("x", inputs=("x", "unused"))
    assert eval_program(prog, {"x": 2.0}).item() == 2.0


def test_domain_violation_reaching_output_reports_instruction():
    prog = compile_source("(/ 1 x)", inputs=("x",))
    with pytest.raises(DomainViolation) as err:
        eval_program(prog, {"x": 0.0}, policy=ERROR_POLICY)
    assert err.value.instruction is not None
    # propagate mode lets the inf through
    out = eval_program(prog, {"x": 0.0}, policy=PROPAGATE_POLICY)
    assert np.isinf(out.data)


def test_select_discards_untaken_branch_violation():
    # both branches evaluate eagerly, but a non-finite value masked out by
    # the select must not abort error-mode evaluation
    prog = compile_source("(if (> x 0) (/ 1 x) 5)", inputs=("x",))
    out = eval_program(prog, {"x": 0.0}, policy=ERROR_POLICY)
    assert out.item() == 5.0
    batched = Value.batch_scalars(np.array([0.0, 2.0]))
    out = eval_program(prog, {"x": batched}, policy=ERROR_POLICY)
    assert np.array_equal(out.data, [5.0, 0.5])


def test_unmasked_violation_still_raises():
    prog = compile_source("(+ (/ 1 x) 1)", inputs=("x",))
    with pytest.raises(DomainViolation):
        eval_program(prog, {"x": 0.0}, policy=ERROR_POLICY)


def test_batched_loop_condition_rejected():
    prog = compile_source(
        "(loop ((k x)) (if (> k 0) (recur (- k 1)) k))", inputs=("x",))
    with pytest.raises(EvalError):
        eval_program(prog, {"x": Value.batch_scalars(np.array([1.0, 2.0]))})


def test_taped_forward_bit_equal_on_loops():
    from schemegrad.values import bit_equal

    prog = compile_source(
        "(loop ((k 0) (y x)) (if (< k 7) (recur (+ k 1) (* y y)) y))",
        inputs=("x",))
    plain = eval_program(prog, {"x": 1.01})
    taped, tape = eval_with_tape(prog, {"x": 1.01})
    assert bit_equal(plain, taped)


def test_scratch_state_is_per_call():
    # two interleaved evaluations of one program must not share slots
    prog = compile_source("(* x x)", inputs=("x",))
    a = eval_program(prog, {"x": 3.0})
    b = eval_program(prog, {"x": 4.0})
    assert (a.item(), b.item()) == (9.0, 16.0)


def test_singular_matrix_names_its_instruction():
    prog = compile_source("(+ 1 (det (inv M)))", inputs=("M",))
    inv_slot = next(ins[1] for ins in prog.block.instrs
                    if ins[0] == "prim" and ins[2] == "inv")
    m = Value.matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix) as err:
        eval_program(prog, {"M": m})
    assert err.value.op == "inv" and err.value.where == 0
    assert err.value.instruction == inv_slot
    assert f"at instruction {inv_slot}" in str(err.value)
    with pytest.raises(SingularMatrix) as err:
        eval_with_tape(prog, {"M": m})
    assert err.value.instruction == inv_slot


# A straight-line program, a loop and a non-tail recursive call; each takes
# one scalar input x.
_EXECUTOR_PROGRAMS = {
    "straight": "(/ (+ (* x x) (sin x)) (+ 2 (exp (- x))))",
    "loop": "(loop ((k 0) (y x)) (if (< k 6) (recur (+ k 1) (+ (* y 0.5) (sqrt (abs y)))) y))",
    "call": "(letrec ((f (lambda (k y) (if (< k 1) y (+ y (call f (- k 1) (* y 0.75))))))) "
            "(call f 4 x))",
}


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("name", sorted(_EXECUTOR_PROGRAMS))
def test_eval_program_bit_equal_to_run_on_tape(name, batch):
    prog = compile_source(_EXECUTOR_PROGRAMS[name], inputs=("x",))
    x = Value.batch_scalars(np.linspace(-1.5, 2.5, batch))
    plain = eval_program(prog, {"x": x})
    tape = Tape()
    taped, out_id = run_on_tape(prog, {"x": x}, None, tape)
    assert bit_equal(plain, taped)
    assert tape.value_of(out_id) is taped


def test_constant_output_is_read_only_and_reused_intact():
    prog = compile_source("2.0")
    out = eval_program(prog, {})
    with pytest.raises(ValueError):
        out.data[...] = 3.0
    assert eval_program(prog, {}).item() == 2.0
