"""The scalar path: a run of a scalar-closed program whose inputs and
parameters are all unbatched scalars holds bare numpy.float64 slots and
calls the op table's scalar kernels (a raw-slot run); every other run
takes the array path on 0-d arrays.  Each test checks the scalar kernels
and the raw-slot run bit for bit against the array path they bypass."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schemegrad import machine
from schemegrad.autodiff import ParameterStore, TapeContext, backward
from schemegrad.compiler import CompileConfig, compile_source
from schemegrad.errors import DepthLimitExceeded, DomainViolation
from schemegrad.experiments.registry import BENCH_PROGRAMS
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.ops import OPS
from schemegrad.runtime import PROPAGATE_POLICY, apply_primitive, pow_immediate
from schemegrad.sexpr import parse
from schemegrad.values import Value, bit_equal

INF, NAN = float("inf"), float("nan")
SPECIAL = [0.0, -0.0, INF, -INF, NAN, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e308, -1e308, 1.0, -1.0, 0.5, 3.0]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def bits(x) -> int:
    return int(np.asarray(x, dtype=np.float64).view(np.uint64))


def _ufunc_binary(ufunc):
    return lambda a, b: ufunc(np.array(a), np.array(b))


def _ufunc_compare(ufunc):
    return lambda a, b: ufunc(np.array(a), np.array(b)).astype(np.float64)


# op -> (source, the ufunc computing it on 0-d arrays)
BINARY = {
    "+": ("(+ a b)", _ufunc_binary(np.add)),
    "-": ("(- a b)", _ufunc_binary(np.subtract)),
    "*": ("(* a b)", _ufunc_binary(np.multiply)),
    "/": ("(/ a b)", _ufunc_binary(np.divide)),
    "=": ("(= a b)", _ufunc_compare(np.equal)),
    "<": ("(< a b)", _ufunc_compare(np.less)),
    ">": ("(> a b)", _ufunc_compare(np.greater)),
    "<=": ("(<= a b)", _ufunc_compare(np.less_equal)),
    ">=": ("(>= a b)", _ufunc_compare(np.greater_equal)),
}
UNARY = {
    "sqrt": ("(sqrt a)", np.sqrt),
    "neg": ("(- a)", lambda a: np.subtract(np.array(0.0), a)),
}
_PROGS = {src: compile_source(src, inputs=("a", "b", "c"))
          for src, _ in list(BINARY.values()) + list(UNARY.values()) + [("(if c a b)", None)]}


def _check_parity(src, values, expected):
    """All-scalar run == lane 0 of a B=2 run == interpret_ast == the op
    applied to numpy scalars == ``expected``, bitwise.  ``src`` is one
    primitive applied to variables, as ``(op a b)``."""
    env = {n: Value.scalar(v) for n, v in zip("abc", values)}
    op, *names = src.strip("()").split()
    lanes = {n: Value.batch_scalars(np.array([v, 1.25])) for n, v in zip("abc", values)}
    prog = _PROGS[src]
    with np.errstate(all="ignore"):  # inf - inf and overflow warn on every path
        scalar = eval_program(prog, env, policy=PROPAGATE_POLICY)
        batched = eval_program(prog, lanes, policy=PROPAGATE_POLICY)
        oracle = interpret_ast(parse(src), env, PROPAGATE_POLICY)
        # the compiler turns (- a) into (- 0.0 a); apply it as written too
        direct = apply_primitive(op, [Value.trusted(env[n].data[()], "scalar", False)
                                      for n in names],
                                 PROPAGATE_POLICY)
        want = expected()
    assert not scalar.batched and scalar.data.shape == ()
    got = bits(scalar.data)
    assert got == bits(batched.data[0]), f"{src} {values}: scalar != lane 0 of B=2"
    assert got == bits(oracle.data), f"{src} {values}: compiled != interpret_ast"
    assert not direct.batched and np.shape(direct.data) == ()
    assert got == bits(direct.data), f"{src} {values}: != {op} on numpy scalars"
    assert got == bits(want), f"{src} {values}: != ufunc on 0-d arrays"


@pytest.mark.parametrize("op", sorted(BINARY))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=floats, b=floats)
def test_binary_numpy_scalar_path_is_bitwise_the_ufunc(op, a, b):
    src, ufunc = BINARY[op]
    _check_parity(src, (a, b, 0.0), lambda: ufunc(a, b))


@pytest.mark.parametrize("op", sorted(UNARY))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=floats)
def test_unary_numpy_scalar_path_is_bitwise_the_ufunc(op, a):
    src, ufunc = UNARY[op]
    _check_parity(src, (a, 0.0, 0.0), lambda: ufunc(np.array(a)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(c=floats, a=floats, b=floats)
def test_select_numpy_scalar_path_is_bitwise_np_where(c, a, b):
    _check_parity("(if c a b)", (a, b, c),
                  lambda: np.where(np.array(c) != 0.0, np.array(a), np.array(b)))


# ---------------------------------------------------------------------------
# the scalar column of the op table


SCALAR_ROWS = sorted(name for name, row in OPS.items() if row.scalar is not None)
IMMEDIATES = (2.0, 3.0, 0.5, -1.0, 1e3)
_COLUMN_PROGS = {}


def _column_case(name):
    """A one-op program applying a scalar row, and its operand names."""
    if name == "if":
        return "(if c a b)", "cab"
    if OPS[name].max_arity == 1:
        return f"({name} a)", "a"
    return f"({name} a b)", "ab"


def _assert_column_parity(src, names, env, got, forward):
    """``got``, a scalar kernel's result, == ``forward`` (the row's forward
    on 0-d arrays) == the program's raw-slot run == lane 0 of its B=2 run
    == interpret_ast, bitwise."""
    prog = _COLUMN_PROGS.get(src)
    if prog is None:
        prog = _COLUMN_PROGS[src] = compile_source(src, inputs=tuple(names))
    assert prog.scalar_closed
    scalars = {n: Value.scalar(env[n]) for n in names}
    lanes = {n: Value.batch_scalars(np.array([env[n], 1.25])) for n in names}
    with np.errstate(all="ignore"):  # inf - inf and overflow warn on every path
        raw = eval_program(prog, scalars, policy=PROPAGATE_POLICY)
        batched = eval_program(prog, lanes, policy=PROPAGATE_POLICY)
        oracle = interpret_ast(parse(src), scalars, PROPAGATE_POLICY)
    assert type(got) is np.float64 and type(forward.data) is np.ndarray
    for label, other in (("forward on 0-d arrays", forward.data), ("raw-slot run", raw.data),
                         ("lane 0 of B=2", batched.data[0]), ("interpret_ast", oracle.data)):
        assert bits(got) == bits(other), f"{src} at {env}: scalar kernel != {label}"


@pytest.mark.parametrize("name", SCALAR_ROWS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.sampled_from(SPECIAL) | floats, b=st.sampled_from(SPECIAL) | floats, c=floats)
def test_scalar_kernel_is_bitwise_the_forward(name, a, b, c):
    src, names = _column_case(name)
    env = {"a": a, "b": b, "c": c}
    operands = [env[n] for n in names]
    row = OPS[name]
    with np.errstate(all="ignore"):
        got = row.scalar(*[np.float64(x) for x in operands])
        forward = row.forward([Value.scalar(x) for x in operands], PROPAGATE_POLICY)
    _assert_column_parity(src, names, env, got, forward)


@pytest.mark.parametrize("exponent", IMMEDIATES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.sampled_from(SPECIAL) | floats)
def test_pow_immediate_scalar_kernel_is_bitwise_the_forward(exponent, a):
    with np.errstate(all="ignore"):
        got = OPS["pow"].scalar(np.float64(a), exponent)
        forward = pow_immediate(Value.scalar(a), exponent, PROPAGATE_POLICY)
    _assert_column_parity(f"(pow a {exponent!r})", "a", {"a": a}, got, forward)


def test_every_scalar_row_and_no_other_row_has_a_scalar_kernel():
    for name, row in OPS.items():
        assert (row.scalar is not None) is (row.category == "scalar"), name
    assert len(SCALAR_ROWS) == 24


def test_min_max_scalar_kernels_follow_numpy_on_signed_zeros_and_nans():
    nan_a, nan_b = np.array([0x7FF8000000000001, 0xFFF8000000000002],
                            dtype=np.uint64).view(np.float64)
    cases = [np.float64(x) for x in (0.0, -0.0, 1.0, -INF, INF)] + [nan_a, nan_b]
    for name, ufunc in (("min", np.minimum), ("max", np.maximum)):
        for a in cases:
            for b in cases:
                want = ufunc(np.array(a), np.array(b))
                assert bits(OPS[name].scalar(a, b)) == bits(want), (name, a, b)
    assert bits(OPS["min"].scalar(np.float64(0.0), np.float64(-0.0))) == bits(-0.0)
    assert bits(OPS["min"].scalar(np.float64(-0.0), np.float64(0.0))) == bits(0.0)


# ---------------------------------------------------------------------------
# the run-kind decision


_RUN_KIND_SOURCE = ("(if (< x k) (+ (* k x) (/ y 2.5) (sqrt (abs x)))"
                    " (- (exp (- x)) (* 0.5 y) (modulo x 0.75)))")
_XS = np.array([-1.5, 0.25, 2.0])


def _run_kind_case(x, y):
    prog = compile_source(_RUN_KIND_SOURCE, inputs=("x", "y"), params=("k",))
    store = ParameterStore()
    store.add("k", 0.8)
    return prog, {"x": x, "y": y}, store


def _all_scalar_run(x, y):
    prog, inputs, store = _run_kind_case(Value.scalar(x), Value.scalar(y))
    return eval_program(prog, inputs, store)


def _unbatched_scalar_types(prog, inputs, store):
    """The data types of the unbatched scalars the run records: (those of
    its constants, those of its inputs, parameters and results)."""
    _, tape = eval_with_tape(prog, inputs, store)
    named = set(tape.input_ids.values()) | {nid for _, _, nid in tape.param_entries}
    consts, others = set(), set()
    for nid, (op, _, value, _) in enumerate(tape.nodes):
        if value.kind == "scalar" and not value.batched:
            (consts if op == "leaf" and nid not in named else others).add(type(value.data))
    return consts, others


def _forbidden(*args):
    raise AssertionError("a raw-slot run called a Value kernel")


def test_all_scalar_run_holds_bare_floats(monkeypatch):
    prog, inputs, store = _run_kind_case(Value.scalar(0.25), 1.5)
    assert prog.scalar_closed
    leaves = machine._check_inputs(prog, inputs, store)
    assert {n: type(x) for n, x in leaves.items()} == dict.fromkeys("xyk", np.float64)
    # the slots hold the floats: no Value kernel runs
    for name in ("apply_primitive", "pow_immediate", "select"):
        monkeypatch.setattr(machine, name, _forbidden)
    out = eval_program(prog, inputs, store)
    assert type(out.data) is np.ndarray and not out.data.flags.writeable
    # the tape's inputs, parameters and results are Values around numpy
    # scalars; its constants are the compiled read-only 0-d arrays
    assert _unbatched_scalar_types(prog, inputs, store) == ({np.ndarray}, {np.float64})


@pytest.mark.parametrize("case", ["batched", "vector", "batched_y"])
def test_other_runs_keep_0d_arrays_and_match_stacked_scalar_runs(case):
    y = 1.5
    if case == "batched":
        x = Value.batch_scalars(_XS)
    elif case == "vector":
        x = Value.vector(_XS)
    else:  # a batched input other than the first
        x, y = Value.scalar(_XS[0]), Value.batch_scalars(np.array([1.5, -0.5, 3.0]))
    prog, inputs, store = _run_kind_case(x, y)
    assert machine._check_inputs(prog, inputs, store) is None
    # the param, the constants and what is computed from them alone, such
    # as (* 0.5 y) for an unbatched y, stay 0-d arrays
    assert _unbatched_scalar_types(prog, inputs, store) == ({np.ndarray}, {np.ndarray})
    out = eval_program(prog, inputs, store)
    assert out.data.shape == (3,)
    for i in range(3):
        xi = _XS[i] if case != "batched_y" else _XS[0]
        yi = y if case != "batched_y" else y.data[i]
        want = _all_scalar_run(xi, yi)
        assert bits(out.data[i]) == bits(want.data), f"{case}: element {i}"


@pytest.mark.parametrize("case", ["scalar", "batched", "vector"])
def test_tape_ref_inputs_take_the_run_kind_of_their_values(case):
    x = {"scalar": Value.scalar(0.25), "batched": Value.batch_scalars(_XS),
         "vector": Value.vector(_XS)}[case]
    prog, inputs, store = _run_kind_case(x, Value.scalar(1.5))
    ctx = TapeContext()
    refs = {name: ctx.constant(v) for name, v in inputs.items()}
    leaves = machine._check_inputs(prog, refs, store)
    assert leaves == machine._check_inputs(prog, inputs, store)
    assert (leaves is not None) is (case == "scalar")


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("leaf", ["scalars", "batched_input", "vector_input", "vector_param"])
def test_a_run_is_raw_slot_exactly_when_closed_and_every_leaf_is_an_unbatched_scalar(
        closed, leaf, monkeypatch):
    src = "(+ (* k x) y)" if closed else "(+ (* k x) (vsum (vec y y)))"
    prog = compile_source(src, inputs=("x", "y"), params=("k",))
    assert prog.scalar_closed is closed
    x = {"batched_input": Value.batch_scalars(_XS), "vector_input": Value.vector(_XS)}.get(
        leaf, Value.scalar(0.25))
    store = ParameterStore()
    store.add("k", np.array([0.5, -2.0, 3.0]) if leaf == "vector_param" else 0.8)
    inputs = {"x": x, "y": Value.scalar(1.5)}
    raw = closed and leaf == "scalars"
    assert (machine._check_inputs(prog, inputs, store) is not None) is raw
    kernels = []
    apply = machine.apply_primitive
    monkeypatch.setattr(machine, "apply_primitive",
                        lambda op, *rest: kernels.append(op) or apply(op, *rest))
    out = eval_program(prog, inputs, store)
    assert (not kernels) is raw  # a raw-slot run calls the scalar column only
    assert bit_equal(out, interpret_ast(parse(src), {**inputs, "k": store.value_of("k")}))


def test_a_vector_parameter_takes_the_value_path():
    prog = compile_source("(* k x)", inputs=("x",), params=("k",))
    store = ParameterStore()
    store.add("k", np.array([0.5, -2.0, 3.0]))
    inputs = {"x": Value.scalar(1.5)}
    assert machine._check_inputs(prog, inputs, store) is None
    out = eval_program(prog, inputs, store)
    want = interpret_ast(parse("(* k x)"), {**inputs, "k": store.value_of("k")})
    assert out.kind == "vector" and bit_equal(out, want)


@pytest.mark.parametrize("src", [BENCH_PROGRAMS["dot4"][0], "(+ x)", "(and x)", "(min x)"])
def test_programs_that_are_not_scalar_closed_match_the_interpreter(src):
    # dot4 has vector ops; an n-ary op given one operand has nothing to fold
    names = BENCH_PROGRAMS["dot4"][1] if "dot" in src else ("x",)
    prog = compile_source(src, inputs=names)
    assert not prog.scalar_closed
    for x in (0.0, -0.0, 2.5, NAN):
        env = {n: Value.scalar(x + i) for i, n in enumerate(names)}
        assert machine._check_inputs(prog, env, None) is None  # the array path
        out = eval_program(prog, env, policy=PROPAGATE_POLICY)
        assert not out.batched and out.data.shape == ()
        assert bit_equal(out, interpret_ast(parse(src), env, PROPAGATE_POLICY))


# (source, op, instruction): a domain error in a loop or a function body,
# named as the Value path names it
RAW_DOMAIN_ERRORS = [
    ("(loop ((i 0) (acc 0)) (if (< i 4) (recur (+ i 1) (+ acc (log (- 2 i)))) acc))",
     "log", 8),
    ("(letrec ((f (lambda (n) (if (< n 1) 0 (+ (sqrt (- n 2)) (call f (- n 1)))))))"
     " (call f 3))", "sqrt", 6),
    ("(letrec ((f (lambda (n acc) (if (< n 1) acc"
     " (call f (- n 1) (* acc (/ 1 (- n 2)))))))) (call f 3 1))", "/", 8),
]


@pytest.mark.parametrize("src, op, instruction", RAW_DOMAIN_ERRORS)
def test_raw_run_domain_errors_name_the_op_instruction_and_element(src, op, instruction):
    prog = compile_source(src)
    assert prog.scalar_closed
    for p in (prog, dataclasses.replace(prog, scalar_closed=False)):
        with pytest.raises(DomainViolation) as err:
            eval_program(p, {})
        assert (err.value.kind, err.value.instruction, err.value.where) == (op, instruction, 0)


def test_raw_run_depth_limit_fires_at_the_same_depth():
    src = "(letrec ((f (lambda (n) (if (< n 1) 0 (+ 1 (call f (- n 1))))))) (call f n))"
    prog = compile_source(src, inputs=("n",), config=CompileConfig(max_recursion_depth=20))
    assert prog.scalar_closed
    assert eval_program(prog, {"n": 19.0}).item() == 19.0
    with pytest.raises(DepthLimitExceeded) as err:
        eval_program(prog, {"n": 20.0})
    assert (err.value.fn_name, err.value.limit) == ("f", 20)


@pytest.mark.parametrize("src", [
    _RUN_KIND_SOURCE,
    "(loop ((i 0) (y x)) (if (< i 3) (recur (+ i 1) (+ (* y k) (pow y 2))) (sqrt (abs y))))",
])
def test_a_taped_raw_run_records_the_value_path_tape(src):
    prog = compile_source(src, inputs=("x", "y"), params=("k",))
    assert prog.scalar_closed
    inputs = {"x": Value.scalar(0.25), "y": Value.scalar(1.5)}
    tapes, grads = [], []
    for p in (prog, dataclasses.replace(prog, scalar_closed=False)):  # raw, then arrays
        store = ParameterStore()
        store.add("k", 0.8)
        out, tape = eval_with_tape(p, inputs, store)
        result = backward(tape, Value.scalar(1.0), wrt_inputs=("x", "y"))
        tapes.append(tape)
        grads.append({"k": store.require_grad("k"),
                      **{n: g.data for n, g in result.input_grads.items()}})
        assert tape.replay()
    raw, arrays = tapes
    assert len(raw) == len(arrays)
    for (op, args, value, aux), (op2, args2, value2, aux2) in zip(raw.nodes, arrays.nodes):
        assert (op, args, aux) == (op2, args2, aux2)
        assert (value.kind, value.batched) == (value2.kind, value2.batched) == ("scalar", False)
        assert np.shape(value.data) == np.shape(value2.data) == ()
        assert bits(value.data) == bits(value2.data)
    assert grads[0].keys() == grads[1].keys() and "x" in grads[0]
    for name, g in grads[0].items():
        assert bits(g) == bits(grads[1][name]), name


# ---------------------------------------------------------------------------
# partial ops at the edges of their domains


EDGES = [0.0, -0.0, -2.5, 1.5, INF, -INF, NAN]
# source -> the ufunc on 0-d arrays
PARTIAL = {
    "(/ x y)": np.divide,
    "(pow x y)": np.power,
    "(modulo x y)": np.mod,
    "(remainder x y)": np.fmod,
    "(sqrt x)": lambda x, y: np.sqrt(x),
    "(log x)": lambda x, y: np.log(x),
    "(pow x 0.5)": lambda x, y: np.power(x, 0.5),
    "(pow x -1)": lambda x, y: np.power(x, -1.0),
    "(pow x 3)": lambda x, y: np.power(x, 3.0),
}


@pytest.mark.parametrize("src", sorted(PARTIAL))
def test_partial_ops_raise_no_warning_and_match_the_ufunc(src):
    prog = compile_source(src, inputs=("x", "y"))
    pairs = [(x, y) for x in EDGES for y in EDGES]
    with np.errstate(all="ignore"):
        want = [bits(PARTIAL[src](np.array(x), np.array(y))) for x, y in pairs]
    pairs += pairs[:(-len(pairs)) % 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scalar = [eval_program(prog, {"x": Value.scalar(x), "y": Value.scalar(y)},
                               policy=PROPAGATE_POLICY) for x, y in pairs]
        batched = []
        for i in range(0, len(pairs), 3):
            xs, ys = zip(*pairs[i:i + 3])
            out = eval_program(prog, {"x": Value.batch_scalars(np.array(xs)),
                                      "y": Value.batch_scalars(np.array(ys))},
                               policy=PROPAGATE_POLICY)
            batched += list(out.data)
    for i, w in enumerate(want):
        assert bits(scalar[i].data) == w, f"{src} at {pairs[i]}: all-scalar run"
        assert bits(batched[i]) == w, f"{src} at {pairs[i]}: B=3 run"
