"""The scalar path: an untaped run of a scalar-closed program whose inputs
and parameters are all unbatched scalars goes through the program's raw
kernel, which calls the op table's scalar kernels on bare numpy.float64
values (a raw-slot run); every other run, taped B=1 runs included, takes
the array path on 0-d arrays, and every Value a run returns or records
holds an array.  Each test checks the scalar kernels and the raw-slot run
bit for bit against the array path they bypass."""

import dataclasses
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schemegrad import kernels, machine
from schemegrad.autodiff import ParameterStore, Tape, TapeContext, backward
from schemegrad.compiler import CompileConfig, compile_source
from schemegrad.errors import DepthLimitExceeded, DomainViolation
from schemegrad.experiments.registry import BENCH_PROGRAMS
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program, eval_with_tape, run_on_tape
from schemegrad.ops import OPS
from schemegrad.runtime import PROPAGATE_POLICY, apply_primitive, pow_immediate
from schemegrad.sexpr import parse
from schemegrad.training import truth_store
from schemegrad.values import Value, bit_equal

from corpus import CORPUS, integer_inputs

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
    applied alone (``apply_primitive``) == ``expected``, bitwise.  ``src``
    is one primitive applied to variables, as ``(op a b)``."""
    env = {n: Value.scalar(v) for n, v in zip("abc", values)}
    op, *names = src.strip("()").split()
    lanes = {n: Value.batch_scalars(np.array([v, 1.25])) for n, v in zip("abc", values)}
    prog = _PROGS[src]
    scalar = eval_program(prog, env, policy=PROPAGATE_POLICY)
    batched = eval_program(prog, lanes, policy=PROPAGATE_POLICY)
    oracle = interpret_ast(parse(src), env, PROPAGATE_POLICY)
    # the compiler turns (- a) into (- 0.0 a); apply it as written too
    direct = apply_primitive(op, [env[n] for n in names], PROPAGATE_POLICY)
    with np.errstate(all="ignore"):  # inf - inf and overflow warn in the ufunc oracle
        want = expected()
    assert not scalar.batched and scalar.data.shape == ()
    got = bits(scalar.data)
    assert got == bits(batched.data[0]), f"{src} {values}: scalar != lane 0 of B=2"
    assert got == bits(oracle.data), f"{src} {values}: compiled != interpret_ast"
    assert not direct.batched and type(direct.data) is np.ndarray and direct.data.shape == ()
    assert got == bits(direct.data), f"{src} {values}: != {op} applied alone"
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
IMMEDIATES = (2.0, 3.0, 0.5, -1.0, 1.5, -2.5, 1e3)
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
@given(a=st.sampled_from(SPECIAL) | floats, pattern=st.integers(0, 2**64 - 1))
def test_pow_immediate_scalar_kernel_is_bitwise_the_forward(exponent, a, pattern):
    # The kernel squares by one multiply, so at exponent 2 it also meets any
    # bit pattern: NaN payloads, subnormals and overflowing values.
    bases = (a, float(np.uint64(pattern).view(np.float64))) if exponent == 2.0 else (a,)
    for base in bases:
        with np.errstate(all="ignore"):
            got = OPS["pow"].scalar(np.float64(base), exponent)
            forward = pow_immediate(Value.scalar(base), exponent, PROPAGATE_POLICY)
        _assert_column_parity(f"(pow a {exponent!r})", "a", {"a": base}, got, forward)


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
    raise AssertionError("a kernel run applied a row to Values")


def _lookups(monkeypatch) -> list:
    """The kinds of kernel that the runs look up from here on, in order:
    the path each run takes."""
    kinds, lookup = [], kernels.lookup
    monkeypatch.setattr(kernels, "lookup",
                        lambda prog, sig, kind: kinds.append(kind) or lookup(prog, sig, kind))
    return kinds


def test_all_scalar_run_holds_bare_floats(monkeypatch):
    prog, inputs, store = _run_kind_case(Value.scalar(0.25), 1.5)
    assert prog.scalar_closed
    values, arrays, sig, batch = machine._leaves(prog, inputs, store)
    assert [a.shape for a in arrays] == [(), (), ()] and batch is None
    assert sig == ((False, ()),) * 3
    # the raw kernel holds the floats: no Value kernel runs
    kinds = _lookups(monkeypatch)
    for name in ("apply_primitive", "pow_immediate", "select"):
        monkeypatch.setattr(machine, name, _forbidden)
    out = eval_program(prog, inputs, store)
    assert type(out.data) is np.ndarray and not out.data.flags.writeable
    assert kinds == [kernels.RAW]


def test_no_value_a_b1_run_returns_or_records_holds_a_numpy_scalar(request, fresh_kernels):
    """Over the corpus at B=1: the untaped output and every record of three
    taped runs, through the kernels, then through the executor."""
    for executor in (False, True):
        if executor:
            request.getfixturevalue("no_kernels")
        for p in CORPUS:
            feed = integer_inputs(p, p.sampler(np.random.default_rng(zlib.crc32(p.id.encode())),
                                               1))
            prog = compile_source(p.source, inputs=p.inputs, params=tuple(p.params))
            store = truth_store(p.params) if p.params else None
            out = eval_program(prog, feed, store, PROPAGATE_POLICY)
            assert type(out.data) is np.ndarray, p.id
            for run in range(3):
                tape = Tape()
                out, _ = run_on_tape(prog, feed, store, tape, PROPAGATE_POLICY, store=store)
                assert type(out.data) is np.ndarray, (p.id, run)
                for op, _, value, _ in tape.nodes:
                    assert type(value.data) is np.ndarray, (p.id, run, op)


@pytest.mark.parametrize("case", ["batched", "vector", "batched_y"])
def test_other_runs_keep_0d_arrays_and_match_stacked_scalar_runs(case, request, monkeypatch):
    y = 1.5
    if case == "batched":
        x = Value.batch_scalars(_XS)
    elif case == "vector":
        x = Value.vector(_XS)
    else:  # a batched input other than the first
        x, y = Value.scalar(_XS[0]), Value.batch_scalars(np.array([1.5, -0.5, 3.0]))
    prog, inputs, store = _run_kind_case(x, y)
    kinds = _lookups(monkeypatch)
    out = eval_program(prog, inputs, store)
    assert kinds == [kernels.UNTAPED]
    assert out.data.shape == (3,)
    for i in range(3):
        xi = _XS[i] if case != "batched_y" else _XS[0]
        yi = y if case != "batched_y" else y.data[i]
        want = _all_scalar_run(xi, yi)
        assert bits(out.data[i]) == bits(want.data), f"{case}: element {i}"
    # in the executor's records, the param, the constants and what is
    # computed from them alone, such as (* 0.5 y) for an unbatched y, stay
    # 0-d arrays
    request.getfixturevalue("no_kernels")
    assert _unbatched_scalar_types(prog, inputs, store) == ({np.ndarray}, {np.ndarray})


@pytest.mark.parametrize("case", ["scalar", "batched", "vector"])
def test_tape_ref_inputs_take_the_run_kind_of_their_values(case, monkeypatch):
    x = {"scalar": Value.scalar(0.25), "batched": Value.batch_scalars(_XS),
         "vector": Value.vector(_XS)}[case]
    prog, inputs, store = _run_kind_case(x, Value.scalar(1.5))
    ctx = TapeContext()
    refs = {name: ctx.constant(v) for name, v in inputs.items()}
    assert machine._leaves(prog, refs, store) == machine._leaves(prog, inputs, store)
    kinds = _lookups(monkeypatch)
    assert bit_equal(eval_program(prog, refs, store), eval_program(prog, inputs, store))
    assert kinds == [kernels.RAW if case == "scalar" else kernels.UNTAPED] * 2


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
    kinds = _lookups(monkeypatch)
    for name in ("apply_primitive", "pow_immediate", "select"):
        monkeypatch.setattr(machine, name, _forbidden)
    out = eval_program(prog, inputs, store)  # a kernel run, raw or array: no Value row
    assert kinds == [kernels.RAW if raw else kernels.UNTAPED]
    assert bit_equal(out, interpret_ast(parse(src), {**inputs, "k": store.value_of("k")}))


def test_a_vector_parameter_takes_the_value_path(monkeypatch):
    prog = compile_source("(* k x)", inputs=("x",), params=("k",))
    store = ParameterStore()
    store.add("k", np.array([0.5, -2.0, 3.0]))
    inputs = {"x": Value.scalar(1.5)}
    kinds = _lookups(monkeypatch)
    out = eval_program(prog, inputs, store)
    assert kinds == [kernels.UNTAPED]
    want = interpret_ast(parse("(* k x)"), {**inputs, "k": store.value_of("k")})
    assert out.kind == "vector" and bit_equal(out, want)


@pytest.mark.parametrize("src", [BENCH_PROGRAMS["dot4"][0], "(+ x)", "(and x)", "(min x)"])
def test_programs_that_are_not_scalar_closed_match_the_interpreter(src, monkeypatch):
    # dot4 has vector ops; an n-ary op given one operand has nothing to fold
    names = BENCH_PROGRAMS["dot4"][1] if "dot" in src else ("x",)
    prog = compile_source(src, inputs=names)
    assert not prog.scalar_closed
    kinds = _lookups(monkeypatch)
    for x in (0.0, -0.0, 2.5, NAN):
        env = {n: Value.scalar(x + i) for i, n in enumerate(names)}
        out = eval_program(prog, env, policy=PROPAGATE_POLICY)
        assert kinds.pop() == kernels.UNTAPED  # the array path
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


@pytest.mark.parametrize("src, fused", [
    (_RUN_KIND_SOURCE, 1),
    ("(loop ((i 0) (y x)) (if (< i 3) (recur (+ i 1) (+ (* y k) (pow y 2))) (sqrt (abs y))))", 0),
])
def test_a_taped_b1_run_is_bitwise_the_same_from_its_first_run_on(src, fused, request,
                                                                  fresh_kernels):
    """A taped run of a scalar-closed program at scalar leaves is an array
    run: from its text's first on, one of a straight-line program is one
    ``fused`` record.  Outputs and gradients match the executor's bitwise."""
    prog = compile_source(src, inputs=("x", "y"), params=("k",))
    assert prog.scalar_closed
    inputs = {"x": Value.scalar(0.25), "y": Value.scalar(1.5)}
    runs = []
    for run in range(4):  # three runs, then the executor's
        if run == 3:
            request.getfixturevalue("no_kernels")
        store = ParameterStore()
        store.add("k", 0.8)
        out, tape = eval_with_tape(prog, inputs, store)
        result = backward(tape, Value.scalar(1.0), wrt_inputs=("x", "y"))
        assert tape.replay()
        grads = {"k": bits(store.require_grad("k")),
                 **{n: bits(g.data) for n, g in result.input_grads.items()}}
        assert {"k", "x"} <= grads.keys()
        runs.append((bits(out.data), grads, [n[0] for n in tape.nodes].count(kernels.FUSED)))
    assert [r[2] for r in runs] == [fused, fused, fused, 0]
    assert all(r[:2] == runs[3][:2] for r in runs)


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
