"""The numpy-scalar path: runs whose inputs are all unbatched scalars hold
their scalars as numpy.float64 and compute on them directly.  Each test
checks it bit for bit against the array path it bypasses."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schemegrad import machine
from schemegrad.autodiff import ParameterStore, TapeContext
from schemegrad.compiler import compile_source
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.runtime import PROPAGATE_POLICY, apply_primitive
from schemegrad.sexpr import parse
from schemegrad.values import Value, numpy_scalar

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
        direct = apply_primitive(op, [numpy_scalar(env[n]) for n in names],
                                 PROPAGATE_POLICY)
        want = expected()
    assert not scalar.batched and scalar.data.shape == ()
    got = bits(scalar.data)
    assert got == bits(batched.data[0]), f"{src} {values}: scalar != lane 0 of B=2"
    assert got == bits(oracle.data), f"{src} {values}: compiled != interpret_ast"
    assert type(direct.data) is np.float64
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
    """The data types of every unbatched scalar the run records: leaves
    and intermediate results."""
    _, tape = eval_with_tape(prog, inputs, store)
    return {type(value.data) for _, _, value, _ in tape.nodes
            if value.kind == "scalar" and not value.batched}


def test_all_scalar_run_holds_numpy_scalars():
    prog, inputs, store = _run_kind_case(Value.scalar(0.25), 1.5)
    assert machine._check_inputs(prog, inputs) is True
    # inputs, the param and the constants enter as numpy scalars, and
    # every result stays one
    assert _unbatched_scalar_types(prog, inputs, store) == {np.float64}
    out = eval_program(prog, inputs, store)
    assert type(out.data) is np.ndarray and not out.data.flags.writeable


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
    assert machine._check_inputs(prog, inputs) is False
    # the param, the constants and what is computed from them alone, such
    # as (* 0.5 y) for an unbatched y, stay 0-d arrays
    assert _unbatched_scalar_types(prog, inputs, store) == {np.ndarray}
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
    prog, inputs, _ = _run_kind_case(x, Value.scalar(1.5))
    ctx = TapeContext()
    refs = {name: ctx.constant(v) for name, v in inputs.items()}
    assert machine._check_inputs(prog, refs) is machine._check_inputs(prog, inputs)
    assert machine._check_inputs(prog, refs) is (case == "scalar")


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
