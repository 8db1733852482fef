"""The op table: every row's columns, the flags against the op lists they
replaced, replay through every row's forward, and the behaviour that
hangs on the flags (partial-domain reporting, the one branch-op name)."""

import zlib

import numpy as np
import pytest

from schemegrad import optim, runtime
from schemegrad.autodiff import ParameterStore, TapeContext
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation, EmptyObservations, SingularMatrix
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.nn import MlpModel, hybrid_forward
from schemegrad.ops import OPS, REGISTRY
from schemegrad.runtime import ERROR_POLICY
from schemegrad.training import truth_store
from schemegrad.values import Value, stack_batch

from corpus import CORPUS, integer_inputs

_NN_ROWS = {"linear", "relu", "tanh", "mse"}


def _names(flag):
    return {name for name, row in OPS.items() if getattr(row, flag)}


def test_every_row_with_kernels_has_a_forward_and_a_vjp():
    assert len(REGISTRY) == 51
    control = {name for name, row in REGISTRY.items() if row.category == "control"}
    assert control == {"let", "let*", "begin", "loop", "recur", "letrec", "call"}
    for name in control:
        assert REGISTRY[name].forward is None and REGISTRY[name].vjp is None
    assert set(OPS) == (set(REGISTRY) - control) | _NN_ROWS
    for name, row in OPS.items():
        assert row.name == name
        assert callable(row.forward) and callable(row.vjp), name
    for name in _NN_ROWS:
        assert name not in REGISTRY and OPS[name].category == "nn"


def test_non_differentiable_rows_have_the_explicit_none_vjp():
    none = {name for name, row in OPS.items() if row.vjp is runtime.vjp_none}
    assert none == {"=", "<", ">", "<=", ">=", "and", "or", "not", "vlen", "eye", "zeros",
                    "ones"}


def test_flags_match_the_op_lists_they_replace():
    assert _names("elementwise") == {
        "+", "-", "*", "/", "pow", "modulo", "remainder", "abs", "min", "max",
        "sin", "cos", "exp", "sqrt", "log", "if"}
    assert _names("partial") == {
        "/", "sqrt", "log", "pow", "normalize", "inv", "det", "modulo", "remainder"}
    assert _names("eager") == {"det", "inv"}


# One program over the rows that neither the corpus nor the hybrid tape records.
_COVERAGE = ("(+ (if (and (<= x y) (not (= x y)) (or (>= x 0) (> y 0))) (cos x) (log y))"
             " (min x y) (max x y) (modulo y x) (remainder y x) (vlen (zeros 3))"
             " (trace (transpose (matmul (mat (vec x y) (vec y x)) (eye 2))))"
             " (vsum (ones 2)))")


def _batch_inputs(prog, batch):
    rng = np.random.default_rng(zlib.crc32(prog.id.encode()))
    points = [integer_inputs(prog, prog.sampler(rng, 1)) for _ in range(batch)]
    inputs = {}
    for name in points[0]:
        vals = [pt[name] for pt in points]
        shared = len({v.data.tobytes() for v in vals}) == 1  # L, dt
        trip_count = prog.has_loops and name == "n"  # a loop guard must be unbatched
        inputs[name] = vals[0] if batch == 1 or shared or trip_count else stack_batch(vals)
    return inputs


def _hybrid_tape(activation, batch):
    rng = np.random.default_rng(5)
    prog = compile_source("(* k (sin x) y)", inputs=("x", "y"), params=("k",))
    mlp = MlpModel([2, 4, 1], activation=activation, rng=rng)
    inputs = {"x": Value.batch_scalars(rng.uniform(0.5, 2.0, batch)),
              "y": Value.batch_scalars(rng.uniform(0.5, 2.0, batch))}
    ctx = TapeContext()
    out = hybrid_forward(ctx, prog, truth_store({"k": 1.5}), mlp, inputs)
    ctx.mse(out, Value.batch_scalars(rng.uniform(0.0, 1.0, batch)))
    return ctx.tape


@pytest.mark.parametrize("batch", [1, 7])
def test_replay_runs_every_row_forward(batch):
    recorded = set()
    for prog in CORPUS:
        compiled = compile_source(prog.source, inputs=prog.inputs, params=tuple(prog.params))
        store = truth_store(prog.params) if prog.params else None
        _, tape = eval_with_tape(compiled, _batch_inputs(prog, batch), store)
        assert tape.replay(), prog.id
        recorded |= {node[0] for node in tape.nodes}
    for activation in ("relu", "tanh"):
        tape = _hybrid_tape(activation, batch)
        assert tape.replay(), activation
        recorded |= {node[0] for node in tape.nodes}
    rng = np.random.default_rng(batch)
    xy = {n: Value.batch_scalars(rng.uniform(0.5, 2.0, batch)) for n in "xy"}
    _, tape = eval_with_tape(compile_source(_COVERAGE, inputs=("x", "y")), xy)
    assert tape.replay()
    recorded |= {node[0] for node in tape.nodes}
    assert recorded - {"leaf"} == set(OPS)


# ---------------------------------------------------------------------------
# partial rows: an error-mode run names the op's own instruction

_SINGULAR = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]], [[2.0, 0.0], [0.0, 1.0]]])
_BAD_LANE_1 = {  # op -> (source, inputs with lane 1 outside the op's domain, first bad element)
    "/": ("(/ x y)", {"x": [1.0, 1.0, 1.0], "y": [1.0, 0.0, 2.0]}, 1),
    "sqrt": ("(sqrt x)", {"x": [1.0, -1.0, 2.0]}, 1),
    "log": ("(log x)", {"x": [1.0, 0.0, 2.0]}, 1),
    "pow": ("(pow x y)", {"x": [1.0, -2.0, 2.0], "y": [0.5, 0.5, 0.5]}, 1),
    "modulo": ("(modulo x y)", {"x": [1.0, 1.0, 1.0], "y": [1.0, 0.0, 2.0]}, 1),
    "remainder": ("(remainder x y)", {"x": [1.0, 1.0, 1.0], "y": [1.0, 0.0, 2.0]}, 1),
    "normalize": ("(normalize v)", {"v": [[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]}, 2),
    "det": ("(det M)", {"M": _SINGULAR}, 1),
    "inv": ("(inv M)", {"M": _SINGULAR}, 1),
}


def _lanes(data):
    data = np.asarray(data)
    return {1: Value.batch_scalars, 2: Value.batch_vectors, 3: Value.batch_matrices}[data.ndim](data)


def test_every_partial_row_has_a_domain_case():
    assert set(_BAD_LANE_1) == {name for name, row in REGISTRY.items() if row.partial}


@pytest.mark.parametrize("op", sorted(_BAD_LANE_1))
def test_error_mode_names_the_partial_op_instruction(op):
    inner, data, where = _BAD_LANE_1[op]
    prog = compile_source(f"(+ 1 {inner})", inputs=tuple(data))
    slot = next(ins[1] for ins in prog.block.instrs if ins[0] == "prim" and ins[2] == op)
    assert slot != prog.output_slot
    with pytest.raises((DomainViolation, SingularMatrix)) as err:
        eval_program(prog, {n: _lanes(d) for n, d in data.items()}, policy=ERROR_POLICY)
    assert _named(err.value) == op
    assert err.value.instruction == slot
    assert err.value.where == where


def _named(err):
    return err.op if isinstance(err, SingularMatrix) else err.kind


# A lone op follows the program rule: op -> (source, inputs, first bad element)
_LONE_OP_CASES = {
    **{op: (op,) + case for op, case in _BAD_LANE_1.items()},
    "nan input": ("/", "(/ x y)", {"x": [1.0, np.nan], "y": [2.0, 2.0]}, 1),
    "overflow": ("/", "(/ x y)", {"x": [1.0, 1e300], "y": [2.0, 1e-300]}, 1),
}


@pytest.mark.parametrize("case", sorted(_LONE_OP_CASES))
def test_a_lone_op_raises_where_its_one_op_program_raises(case):
    op, source, data, where = _LONE_OP_CASES[case]
    args = {n: _lanes(d) for n, d in data.items()}
    errors = (DomainViolation, SingularMatrix)
    with np.errstate(over="ignore"):  # numpy also warns on the overflow
        with pytest.raises(errors) as program:
            eval_program(compile_source(source, inputs=tuple(data)), args, policy=ERROR_POLICY)
        with pytest.raises(errors) as lone:
            runtime.apply_primitive(op, list(args.values()), ERROR_POLICY)
    assert type(lone.value) is type(program.value)
    assert ((_named(lone.value), lone.value.where)
            == (_named(program.value), program.value.where) == (op, where))


def test_a_tape_context_judges_pow_with_a_constant_exponent():
    with np.errstate(over="ignore"):
        with pytest.raises(DomainViolation) as lone:
            TapeContext(ERROR_POLICY).prim("pow", 1e200, aux=2.0)
        with pytest.raises(DomainViolation) as program:
            eval_program(compile_source("(pow x 2)", inputs=("x",)), {"x": 1e200})
    assert (lone.value.kind, lone.value.where) == (program.value.kind, program.value.where)
    assert program.value.kind == "pow"


# ---------------------------------------------------------------------------
# the branch op has one name, `if`, on the tape and in backward


def test_prim_if_differentiates_and_replays():
    store = ParameterStore()
    store.add("k", 2.0)
    ctx = TapeContext()
    k = ctx.param(store, "k")
    out = ctx.prim("if", 1.0, ctx.mul(k, 3.0), 0.0)
    store.zero_grads()
    ctx.backward(out)
    assert store["k"].grad == 3.0
    assert ctx.tape.replay()


def test_compiled_branches_record_if():
    prog = compile_source("(+ 1 (if (< x 1) (* k x) k))", inputs=("x",), params=("k",))
    _, tape = eval_with_tape(prog, {"x": Value.batch_scalars(np.array([0.5, 2.0]))},
                             truth_store({"k": 1.5}))
    ops = {node[0] for node in tape.nodes}
    assert "if" in ops and "select" not in ops
    assert tape.replay()


# ---------------------------------------------------------------------------
# empty batches


def test_empty_batch_evaluates_to_an_empty_batch():
    prog = compile_source("(+ (* k (sqrt x)) (log x))", inputs=("x",), params=("k",))
    out = eval_program(prog, {"x": Value.batch_scalars(np.array([]))}, truth_store({"k": 2.0}))
    assert out.batched and out.kind == "scalar" and out.data.shape == (0,)


def test_mse_of_an_empty_batch_raises():
    empty = Value.batch_scalars(np.array([]))
    ctx = TapeContext()
    with pytest.raises(EmptyObservations, match="empty"):
        ctx.mse(ctx.lift(empty), empty)
    with pytest.raises(EmptyObservations, match="empty"):
        optim.mse_loss(empty, empty)
