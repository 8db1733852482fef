"""Generated kernels against the executor.

Every kind of kernel (raw, untaped, taped) is generated on its key's first
run in the process, and every later run of a program compiled from that
text goes through it.  Each test starts from an empty table of kernels, so
its first runs generate them, and compares every run with an explicit
executor reference: the same run with every lookup finding no kernel
(``_by_executor``, the ``no_kernels`` fixture), or ``machine._run`` on a
program compiled anew.  They must match bit for bit: outputs with their
dtype and writability, tape values, parameter and input gradients, TapeRef
gradients through a chain, and errors.  Changed signatures, the depth
limit, ``Tape.replay``, the record count of a Lotka-Volterra epoch, the
peak memory of a warmed eval, how often a run calls the executor, reads its
inputs and converts them, that a run takes the kernel, det and inv on a
singular lane, and eye, zeros and ones of literal, computed and bad sizes
are checked too, and so are a network call, which is one ``fused`` record,
and programs nested as deep as the parser takes, which get every kernel.
"""

import gc
import random
import tracemalloc
import zlib
from collections import UserDict

import numpy as np
import pytest

from schemegrad import kernels, machine, ode, sexpr
from schemegrad.autodiff import Tape, TapeContext, backward
from schemegrad.compiler import CompileConfig, compile_source
from schemegrad.errors import (DepthLimitExceeded, DomainViolation, EvalError, SchemegradError,
                               ShapeMismatch, SingularMatrix)
from schemegrad.experiments import lotka_volterra as lv_exp
from schemegrad.experiments.registry import BENCH_PROGRAMS, FEYNMAN
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program, eval_with_tape, run_on_tape
from schemegrad.nn import MlpModel, compose_chain, mlp_forward
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY, apply_primitive
from schemegrad.sexpr import parse
from schemegrad.training import truth_store
from schemegrad.values import Value, frozen_scalar

from corpus import CORPUS, integer_inputs

STRAIGHT = [p for p in CORPUS if not p.has_loops]


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return repr(a.shape).encode() + a.tobytes()


def _compile(p):
    return compile_source(p.source, inputs=p.inputs, params=tuple(p.params))


def _output(v: Value) -> tuple:
    return (v.kind, v.batched, type(v.data), v.data.dtype, v.data.flags.writeable,
            _bits(v.data))


def _taped(prog, feed, params, policy=PROPAGATE_POLICY) -> tuple:
    """Output, output record value, and gradients of one taped run: the
    parameters' alone, then theirs and every input's."""
    store = truth_store(params) if params else None
    tape = Tape()
    out, out_id = run_on_tape(prog, feed, store, tape, policy, store=store)
    tape.output_id = out_id
    grads = []
    for wrt in ((), list(feed)):
        if store is not None:
            store.zero_grads()
        res = backward(tape, Value(np.ones_like(out.data), out.kind, out.batched),
                       wrt_inputs=wrt)
        grads += [{n: _bits(store[n].grad) for n in store.names()} if store else {},
                  {n: _bits(g.data) for n, g in res.input_grads.items()}]
    assert tape.replay()
    return _output(out), _bits(tape.nodes[out_id][2].data), grads, tape


@pytest.fixture(autouse=True)
def _fresh(fresh_kernels):
    """Every test starts from an empty table of kernels."""


def _by_executor(fn, *args):
    """``fn(*args)`` with every kernel lookup finding none, so that its runs
    take the executor, as under ``no_kernels``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "lookup", lambda prog, sig, kind: None)
        return fn(*args)


def _kernel_kinds(prog) -> list:
    """The run kinds for which the table holds a kernel of the program's
    text, one entry per signature."""
    text = kernels.key(prog, None, None)[:4]
    return sorted(k[5] for k, made in kernels._SHARED.items() if k[:4] == text and made)


def _has_kernel(prog) -> bool:
    return any(kind != kernels.RAW for kind in _kernel_kinds(prog))


def _fused_count(tape) -> int:
    return [n[0] for n in tape.nodes].count(kernels.FUSED)


@pytest.mark.parametrize("batch", [2, 5])
@pytest.mark.parametrize("p", STRAIGHT, ids=lambda p: p.id)
def test_kernel_runs_match_the_executor_bitwise(p, batch):
    store = truth_store(p.params) if p.params else None
    feed = p.sampler(np.random.default_rng(zlib.crc32(p.id.encode()) + batch), batch)
    for policy in (ERROR_POLICY, PROPAGATE_POLICY):
        kernels._SHARED.clear()  # each policy's first run generates the kernel
        prog = _compile(p)
        runs = [_output(eval_program(prog, feed, store, policy)) for _ in range(3)]
        assert runs == [_output(_by_executor(eval_program, prog, feed, store,
                                             policy))] * 3, p.id
    taped = [_taped(prog, feed, p.params) for _ in range(3)]
    executor = _by_executor(_taped, prog, feed, p.params)
    for run in taped:
        assert run[:3] == executor[:3], p.id
    assert _has_kernel(prog), p.id
    assert [_fused_count(run[3]) for run in taped] == [prog.straight_line] * 3
    assert _fused_count(executor[3]) == 0


@pytest.mark.parametrize("bid", sorted(BENCH_PROGRAMS))
def test_bench_programs_match_the_executor_bitwise(bid):
    src, names = BENCH_PROGRAMS[bid]
    prog = compile_source(src, inputs=names)
    rng = np.random.default_rng(zlib.crc32(bid.encode()))
    feed = {n: Value.batch_scalars(rng.uniform(1.0, 2.0, 5)) for n in names}
    feed["b"] = Value.batch_scalars(rng.uniform(4.5, 6.0, 5))  # discriminant: b*b >= 4ac
    feed = {n: feed[n] for n in names}
    runs = [_output(eval_program(prog, feed)) for _ in range(3)]
    assert runs == [_output(_by_executor(eval_program, prog, feed))] * 3
    taped = [_taped(prog, feed, {}) for _ in range(3)]
    executor = _by_executor(_taped, prog, feed, {})
    assert all(run[:3] == executor[:3] for run in taped)
    assert _has_kernel(prog)


def test_unbatched_array_runs_keep_their_writable_and_frozen_outputs():
    vec = {"v": Value.vector([1.0, 2.0, 2.0])}
    for src, writable in (("(+ (dot v v) 1)", True), ("(* (norm v) 2)", True),
                          ("(scale 2 v)", True), ("(+ 2)", False)):
        prog = compile_source(src, inputs=("v",))
        outs = [eval_program(prog, vec) for _ in range(3)]
        assert _has_kernel(prog)
        assert {_output(o) for o in outs} == {_output(outs[0])}
        assert outs[2].data.flags.writeable is writable


@pytest.mark.parametrize("eid", sorted(FEYNMAN))
def test_feynman_kernels_match_the_executor_at_10k(eid):
    eq = FEYNMAN[eid]
    params = {**eq.params, **eq.frozen}
    prog = compile_source(eq.source, inputs=eq.inputs, params=tuple(params))
    rng = np.random.default_rng(zlib.crc32(eid.encode()))
    feed = {n: Value.batch_scalars(rng.uniform(lo, hi, 10_000)) for n, (lo, hi) in eq.ranges.items()}
    store = truth_store(params)
    runs = [_output(eval_program(prog, feed, store, PROPAGATE_POLICY)) for _ in range(3)]
    assert runs == [_output(_by_executor(eval_program, prog, feed, store,
                                         PROPAGATE_POLICY))] * 3
    closure = eq.closure(**{n: v.data for n, v in feed.items()}, **params)
    assert runs[2][-1] == _bits(closure)
    taped = [_taped(prog, feed, params) for _ in range(3)]
    executor = _by_executor(_taped, prog, feed, params)
    assert all(run[:3] == executor[:3] for run in taped)


@pytest.mark.parametrize("src", ["(+ x (* x x))", "(* (sin x) (+ x 1))", "(/ x (+ 1 (* x x)))"])
@pytest.mark.parametrize("x0", [Value.scalar(0.3), Value.batch_scalars([0.0, 0.5, -0.7])])
def test_taperef_gradients_through_an_8_deep_chain(src, x0):
    stages = [compile_source(src, inputs=("x",))] * 8

    def chain():
        ctx = TapeContext()
        x = ctx.constant(x0)
        out = compose_chain(ctx, stages, x)
        res = ctx.backward(out, wrt_inputs=[x])
        assert ctx.tape.replay()
        return (_bits(out.value.data), _bits(res.input_grads[x.tape_id].data),
                _fused_count(ctx.tape))

    (fused_out, fused_grad, fused), (exec_out, exec_grad, none) = (
        chain(), _by_executor(chain))
    assert (fused_out, fused_grad) == (exec_out, exec_grad)
    assert none == 0 and fused == 8


def test_a_domain_violation_raises_what_the_executor_raises():
    src = "(* k (sqrt (/ L g)))"
    good = {"L": Value.batch_scalars([1.0, 2.0, 3.0, 4.0]), "g": Value.batch_scalars([9.8] * 4)}
    bad = {"L": Value.batch_scalars([1.0, 2.0, -3.0, -4.0]), "g": good["g"]}
    store = truth_store({"k": 2.0})

    def raised(prog, taped):
        with pytest.raises(DomainViolation) as err:
            if taped:
                run_on_tape(prog, bad, store, Tape(), ERROR_POLICY, store=store)
            else:
                eval_program(prog, bad, store, ERROR_POLICY)
        e = err.value
        return type(e), e.kind, e.instruction, e.where

    for taped in (False, True):
        warm = compile_source(src, inputs=("L", "g"), params=("k",))
        for _ in range(2):
            if taped:
                run_on_tape(warm, good, store, Tape(), ERROR_POLICY, store=store)
            else:
                eval_program(warm, good, store, ERROR_POLICY)
        assert _has_kernel(warm)
        assert (raised(warm, taped) == _by_executor(raised, warm, taped)
                == (DomainViolation, "sqrt", 3, 2))


@pytest.mark.parametrize("src, first, then", [
    ("(+ (* x y) y)", {"x": Value.batch_scalars([1.0, 2.0]), "y": Value.batch_scalars([3.0, 4.0])},
     {"x": Value.batch_scalars([1.0, 2.0]), "y": Value.scalar(3.0)}),
    ("(* x (+ y 1))", {"x": Value.batch_scalars([1.0, 2.0]), "y": Value.batch_scalars([3.0, 4.0])},
     {"x": Value.batch_vectors([[1.0, 2.0], [3.0, 4.0]]), "y": Value.batch_scalars([3.0, 4.0])}),
])
def test_a_changed_signature_gets_a_kernel_of_its_own(src, first, then):
    prog = compile_source(src, inputs=("x", "y"))
    for _ in range(3):
        eval_program(prog, first)
        _taped(prog, first, {})
    assert _kernel_kinds(prog) == ["taped", "untaped"]  # one signature
    # the changed signature's first run (prog's) generates its kernels, and a
    # fresh program's run takes them
    fresh = compile_source(src, inputs=("x", "y"))
    executor = _by_executor(eval_program, prog, then)
    assert _output(eval_program(prog, then)) == _output(eval_program(fresh, then)) == _output(
        executor)
    assert _kernel_kinds(prog) == ["taped", "untaped", "untaped"]
    executor = _by_executor(_taped, prog, then, {})
    assert _taped(prog, then, {})[:3] == _taped(fresh, then, {})[:3] == executor[:3]
    assert _kernel_kinds(prog) == ["taped", "taped", "untaped", "untaped"]
    assert _fused_count(_taped(fresh, then, {})[3]) == 1


def test_a_warm_lotka_volterra_epoch_holds_10_records(request):
    store = truth_store(lv_exp.TRUE_PARAMS)
    cfg = ode.ShootingConfig(segment_length=lv_exp.SEGMENT_LENGTH,
                             observations=lv_exp.generate_observations())
    system = lv_exp.make_system(store)
    rhs = system.rhs
    # a plain function has no linked step, so the system is stepped stage by stage
    staged = ode.OdeSystem(rhs=lambda ctx, state, t: rhs(ctx, state, t), state_dim=2,
                           dt=lv_exp.DT)
    epochs = []
    for each in (system, staged):
        if each is staged:
            request.getfixturevalue("no_kernels")  # from here on every run takes the executor
        ctx = TapeContext()
        loss = ode.multiple_shooting_loss(ctx, each, cfg)
        store.zero_grads()
        ctx.backward(loss)
        assert ctx.tape.replay()
        epochs.append((len(ctx.tape), [n[0] for n in ctx.tape.nodes].count(kernels.FUSED),
                       _bits(loss.value.data), {n: _bits(store[n].grad) for n in store.names()}))
    (warm_len, fused, warm_loss, warm_grads), (exec_len, none, exec_loss, exec_grads) = epochs
    # an epoch is one fused record of the linked segment program, its loss
    # record and eight leaves: two start states, targets, masks, four parameters
    assert (warm_len, fused, exec_len, none) == (10, 1, 767, 0)
    assert (warm_loss, warm_grads) == (exec_loss, exec_grads)


def test_a_warm_eval_holds_no_more_than_the_closure_and_one_batch_array():
    eq = FEYNMAN["rel_energy"]
    params = {**eq.params, **eq.frozen}
    prog = compile_source(eq.source, inputs=eq.inputs, params=tuple(params))
    rng = np.random.default_rng(0)
    feed = {n: Value.batch_scalars(rng.uniform(lo, hi, 10_000)) for n, (lo, hi) in eq.ranges.items()}
    arrays = {n: v.data for n, v in feed.items()}
    store = truth_store(params)

    def peak(fn) -> int:
        fn()
        fn()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            high = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del out
        return high

    compiled = peak(lambda: eval_program(prog, feed, store, PROPAGATE_POLICY))
    closure = peak(lambda: eq.closure(**arrays, **params))
    assert compiled <= closure + 10_000 * 8


# --- generated programs -------------------------------------------------------

_BINARY = ("+", "-", "*", "/", "pow", "min", "max", "modulo", "remainder",
           "<", ">", "=", "<=", ">=", "and", "or")
_UNARY = ("abs", "sin", "cos", "exp", "sqrt", "log", "not", "-")


def _scalar_source(r, depth):
    if depth == 0 or r.random() < 0.25:
        return r.choice(["x", "y", "k", "1.5", "2", "0.5"])
    c = r.random()
    if c < 0.45:
        op = r.choice(_BINARY)
        if op == "pow" and r.random() < 0.5:
            return f"(pow {_scalar_source(r, depth - 1)} {r.choice(['2', '3', '0.5', '-1'])})"
        n = 3 if op in ("+", "-", "*", "/", "min", "max", "and", "or") and r.random() < 0.3 else 2
        return f"({op} " + " ".join(_scalar_source(r, depth - 1) for _ in range(n)) + ")"
    if c < 0.65:
        return f"({r.choice(_UNARY)} {_scalar_source(r, depth - 1)})"
    if c < 0.75:
        return "(if " + " ".join(_scalar_source(r, depth - 1) for _ in range(3)) + ")"
    if c < 0.85:
        return f"({r.choice(['norm', 'vsum', 'vlen'])} {_vector_source(r, depth - 1)})"
    if c < 0.9:
        return f"({r.choice(['trace', 'det'])} {_matrix_source(r, depth - 1)})"
    return f"(dot {_vector_source(r, depth - 1)} {_vector_source(r, depth - 1)})"


def _vector_source(r, depth):
    if depth == 0 or r.random() < 0.3:
        return r.choice(["v", "w", "(vec x y k)", "(ones 3)"])
    c = r.random()
    if c < 0.2:
        return f"(scale {_scalar_source(r, depth - 1)} {_vector_source(r, depth - 1)})"
    if c < 0.35:
        return f"(matvec {_matrix_source(r, depth - 1)} {_vector_source(r, depth - 1)})"
    if c < 0.45:
        return f"(cross {_vector_source(r, depth - 1)} {_vector_source(r, depth - 1)})"
    if c < 0.55:
        return f"(normalize {_vector_source(r, depth - 1)})"
    if c < 0.75:
        other = _vector_source(r, depth - 1) if r.random() < 0.5 else _scalar_source(r, depth - 1)
        return f"({r.choice(['+', '-', '*'])} {_vector_source(r, depth - 1)} {other})"
    return "(vec " + " ".join(_scalar_source(r, depth - 1) for _ in range(3)) + ")"


def _matrix_source(r, depth):
    if depth == 0 or r.random() < 0.4:
        return r.choice(["M", "M", "M", "(eye 3)", "(zeros 3 3)"])
    c = r.random()
    if c < 0.2:
        return "(mat " + " ".join(_vector_source(r, depth - 1) for _ in range(3)) + ")"
    if c < 0.4:
        return f"(matmul {_matrix_source(r, depth - 1)} {_matrix_source(r, depth - 1)})"
    if c < 0.6:
        return f"(transpose {_matrix_source(r, depth - 1)})"
    if c < 0.8:
        return f"(outer {_vector_source(r, depth - 1)} {_vector_source(r, depth - 1)})"
    if c < 0.9:
        return f"(inv {_matrix_source(r, depth - 1)})"
    return f"(scale {_scalar_source(r, depth - 1)} {_matrix_source(r, depth - 1)})"


def _generated_feed(r, batch):
    rng = np.random.default_rng(r.randrange(2 ** 31))
    feed = {}
    for name, core in (("x", ()), ("y", ()), ("v", (3,)), ("w", (3,)), ("M", (3, 3))):
        shape = ((batch,) if r.random() < 0.6 else ()) + core
        kind = ("scalar", "vector", "matrix")[len(core)]
        feed[name] = Value(rng.uniform(-2.0, 2.0, shape), kind, len(shape) > len(core))
    return feed


def _outcome(fn, *args) -> tuple:
    """``fn(*args)``'s result, or its error's class and message."""
    try:
        return fn(*args)
    except SchemegradError as err:
        return type(err), str(err)


@pytest.mark.parametrize("seed", range(4))
def test_generated_programs_match_the_executor_bitwise(seed):
    """Random straight-line programs over every row with emit forms, with
    batched and unbatched scalars, vectors and matrices mixed, at points
    that leave partial domains: kernel runs against the executor's, NaN
    payloads included."""
    r = random.Random(seed)
    kernels_made = 0

    def untaped(prog, feed, store, policy):
        return _output(eval_program(prog, feed, store, policy))

    def taped(prog, feed, params):
        return _taped(prog, feed, params)[:3]

    for _ in range(100):
        src = _scalar_source(r, 4) if r.random() < 0.7 else _vector_source(r, 4)
        feed = _generated_feed(r, r.choice([1, 2, 5]))
        params = {"k": r.uniform(-2.0, 2.0)}
        store = truth_store(params)
        for policy in (PROPAGATE_POLICY, ERROR_POLICY):
            kernels._SHARED.clear()  # a text may come again; each policy's first run is its first
            prog = compile_source(src, inputs=("x", "y", "v", "w", "M"), params=("k",))
            runs = [_outcome(untaped, prog, feed, store, policy) for _ in range(3)]
            executor = _by_executor(_outcome, untaped, prog, feed, store, policy)
            assert runs == [executor] * 3, src
        runs = [_outcome(taped, prog, feed, params) for _ in range(3)]
        assert runs == [_by_executor(_outcome, taped, prog, feed, params)] * 3, src
        kernels_made += _has_kernel(prog)
    assert kernels_made >= 50


# --- raw kernels ----------------------------------------------------------------

# The loop and recursion samples of the benchmark's scalar_programs workload, at
# its trip counts (loop:euler's inputs are drawn there).
LOOP_SAMPLES = (
    ("loop:sum", "(loop ((i 0) (acc 0)) (if (< i n) (recur (+ i 1) (+ acc i)) acc))",
     {"n": 1000.0}),
    ("letrec:fib", "(letrec ((fib (lambda (k) (if (< k 2) k"
                   " (+ (call fib (- k 1)) (call fib (- k 2)))))))"
                   " (call fib n))", {"n": 12.0}),
    ("loop:euler", "(loop ((k 0) (y y0)) (if (< k 10)"
                   " (recur (+ k 1) (+ y (* 0.1 (* rate y)))) y))", {"y0": 1.3, "rate": -0.4}),
)
_GUARD_PROBE = "(letrec ((f (lambda (n) (+ 1 (if (< n 1) 0 (call f (- n 1))))))) (call f 3))"
_NON_TAIL = "(letrec ((s (lambda (k) (if (< k 1) 0 (+ 1 (call s (- k 1))))))) (call s n))"


_EXECUTOR = machine._run  # uncounted by ``executor_runs``


@pytest.fixture
def executor_runs(monkeypatch):
    """The programs of the executor's runs (``machine._run``), in order."""
    calls, run = [], _EXECUTOR

    def counted(prog, *rest):
        calls.append(prog)
        return run(prog, *rest)

    monkeypatch.setattr(machine, "_run", counted)
    return calls


def _error(err) -> tuple:
    return (type(err), str(err), *[getattr(err, a, None) for a in (
        "kind", "op", "instruction", "where", "fn_name", "limit")])


def _reference(src, inputs, params, feed, config, policy) -> tuple:
    """The executor's result: the run of a program compiled anew with every
    lookup finding no kernel, its output or its error."""
    store = truth_store(params) if params else None
    prog = compile_source(src, inputs=inputs, params=tuple(params), config=config)
    try:
        return _output(_by_executor(eval_program, prog, feed, store, policy))
    except SchemegradError as err:
        return _error(err)


def _parity(src, inputs, params, feed, executor_runs, config=None, redone=False) -> tuple:
    """Under each policy, three untaped runs from an emptied table, each of a
    program compiled anew, against the executor's result (``_reference``):
    the same output (bits, dtype, writability) or error.  A run takes its
    text's kernel, raw or array, from the text's first run on and calls the
    executor only to redo an error, or every time when ``redone`` (a
    recursion deeper than Python's stack, a program that gets no kernel).
    Returns the executor's result under each policy."""
    store = truth_store(params) if params else None
    references = []
    for policy in (ERROR_POLICY, PROPAGATE_POLICY):
        reference = _reference(src, inputs, params, feed, config, policy)
        kernels._SHARED.clear()
        runs, executed = [], []
        for _ in range(3):
            prog = compile_source(src, inputs=inputs, params=tuple(params), config=config)
            before = len(executor_runs)
            try:
                runs.append(_output(eval_program(prog, feed, store, policy)))
            except SchemegradError as err:
                runs.append(_error(err))
            executed.append(len(executor_runs) - before)
        assert runs == [reference] * 3, src
        redo = redone or isinstance(reference[0], type)
        assert executed == [int(redo)] * 3, src
        references.append(reference)
    return tuple(references)


def _scalar_feed(p):
    feed = p.sampler(np.random.default_rng(zlib.crc32(p.id.encode())), 1)
    return integer_inputs(p, feed)


RAW_CORPUS = [p for p in CORPUS if compile_source(p.source, inputs=p.inputs,
                                                  params=tuple(p.params)).scalar_closed]


@pytest.mark.parametrize("p", RAW_CORPUS, ids=lambda p: p.id)
def test_raw_kernels_match_the_executor_on_the_corpus(p, executor_runs):
    """Every corpus program a B=1 feed of scalars runs raw-slot: the
    Feynman formulas, the ODE right-hand sides, the chains and the loop and
    recursion samples."""
    feed = _scalar_feed(p)
    _parity(p.source, p.inputs, p.params, feed, executor_runs)
    assert _kernel_kinds(_compile(p)) == [kernels.RAW]


@pytest.mark.parametrize("bid", sorted(BENCH_PROGRAMS))
def test_bench_programs_match_the_executor_at_b1(bid, executor_runs):
    src, names = BENCH_PROGRAMS[bid]
    rng = np.random.default_rng(zlib.crc32(bid.encode()))
    feed = {n: Value.scalar(rng.uniform(4.5, 6.0) if n == "b" else rng.uniform(1.0, 2.0))
            for n in names}
    _parity(src, names, {}, feed, executor_runs)  # dot4 is an array run of 0-d arrays


@pytest.mark.parametrize("name, src, feed", LOOP_SAMPLES, ids=[s[0] for s in LOOP_SAMPLES])
def test_raw_kernels_match_the_executor_on_the_loop_samples(name, src, feed, executor_runs):
    references = _parity(src, tuple(feed), {}, {n: Value.scalar(v) for n, v in feed.items()},
                         executor_runs)
    if name != "loop:euler":
        assert references[0][-1] == _bits({"loop:sum": 499500.0, "letrec:fib": 144.0}[name])


@pytest.mark.parametrize("seed", range(4))
def test_generated_scalar_programs_match_the_executor_raw(seed, executor_runs):
    """Random scalar-closed programs at B=1 with scalar leaves, at points
    that leave partial domains: errors must match too."""
    r = random.Random(1000 + seed)
    tried = 0
    while tried < 60:
        src = _scalar_source(r, 4)
        names = ("x", "y", "v", "w", "M")
        if not compile_source(src, inputs=names, params=("k",)).scalar_closed:
            continue  # reads a vector or a matrix
        tried += 1
        feed = {n: Value.scalar(r.uniform(-2.0, 2.0)) for n in "xy"}
        _parity(src, names, {"k": r.uniform(-2.0, 2.0)}, feed, executor_runs)


def test_the_recursion_guard_probe_raises_through_the_kernel(executor_runs):
    errors = _parity(_GUARD_PROBE, (), {}, {}, executor_runs)
    assert errors[0][0] is DepthLimitExceeded and errors[0][-2:] == ("f", 10_000)


def test_a_recursion_deeper_than_pythons_stack_is_redone(executor_runs):
    n = {"n": Value.scalar(3000.0)}
    outputs = _parity(_NON_TAIL, ("n",), {}, n, executor_runs, redone=True)
    assert outputs[0][-1] == _bits(3000.0)
    errors = _parity(_NON_TAIL, ("n",), {}, {"n": Value.scalar(20_000.0)}, executor_runs)
    assert errors[0][0] is DepthLimitExceeded and errors[0][-2:] == ("s", 10_000)
    # the depth limit of a program compiled with its own
    config = CompileConfig(max_recursion_depth=5)
    assert _parity(_NON_TAIL, ("n",), {}, {"n": Value.scalar(4.0)}, executor_runs,
                   config)[0][-1] == _bits(4.0)
    errors = _parity(_NON_TAIL, ("n",), {}, {"n": Value.scalar(5.0)}, executor_runs, config)
    assert errors[0][0] is DepthLimitExceeded and errors[0][-2:] == ("s", 5)


def test_a_tail_call_takes_no_depth_in_the_kernel(executor_runs):
    src = "(letrec ((down (lambda (k) (if (> k 0) (call down (- k 1)) k)))) (call down n))"
    outputs = _parity(src, ("n",), {}, {"n": Value.scalar(2000.0)}, executor_runs)
    assert outputs[0][-1] == _bits(0.0)


def test_a_program_nested_deeper_than_python_compiles_takes_the_executor(executor_runs):
    body = "i"
    for j in range(120):  # tail ifs in a loop body: 120 nested Python blocks
        body = f"(if (< x {j}) {j} {body})"
    src = f"(loop ((i 0)) (if (< i 2) (recur (+ i 1)) {body}))"
    outputs = _parity(src, ("x",), {}, {"x": Value.scalar(200.0)}, executor_runs, redone=True)
    assert outputs[0][-1] == _bits(2.0)
    assert list(kernels._SHARED.values()) == [None]


@pytest.mark.parametrize("name, src, feed", LOOP_SAMPLES[:2], ids=[s[0] for s in LOOP_SAMPLES[:2]])
def test_a_fresh_program_of_a_text_with_a_kernel_takes_it(name, src, feed, executor_runs):
    feed = {n: Value.scalar(v) for n, v in feed.items()}
    eval_program(compile_source(src, inputs=tuple(feed)), feed)  # the text's first run
    assert kernels.lookup(compile_source(src, inputs=tuple(feed)), None, kernels.RAW) is not None
    eval_program(compile_source(src, inputs=tuple(feed)), feed)  # a fresh program takes it
    assert executor_runs == []


@pytest.mark.parametrize("name, src, feed", LOOP_SAMPLES[:2], ids=[s[0] for s in LOOP_SAMPLES[:2]])
def test_a_raw_kernel_eval_peaks_no_higher_than_the_executors(name, src, feed):
    """tracemalloc, as the benchmark measures peak_mb: a full collection
    first, then the least peak of three passes of a run through the kernel
    and of the executor's reference run (``_reference``)."""
    feed = {n: Value.scalar(v) for n, v in feed.items()}

    def least_peak(through_kernel: bool) -> int:
        least = None
        for _ in range(3):
            prog = compile_source(src, inputs=tuple(feed))
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if through_kernel:
                    out = eval_program(prog, feed)
                else:
                    out = _EXECUTOR(prog, feed, None, ERROR_POLICY, None, None)[0]
                    out = frozen_scalar(out.data)  # as eval_program wraps it
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            del out
            least = peak if least is None else min(least, peak)
        return least

    eval_program(compile_source(src, inputs=tuple(feed)), feed)
    assert kernels.lookup(compile_source(src, inputs=tuple(feed)), None, kernels.RAW) is not None
    kernel = least_peak(True)
    assert kernel <= least_peak(False)


# --- control flow in array runs -------------------------------------------------

LOOPS = [p for p in CORPUS if p.has_loops]


@pytest.mark.parametrize("p", LOOPS, ids=lambda p: p.id)
def test_array_runs_of_loops_and_calls_match_the_executor(p, executor_runs):
    """Every corpus loop and recursion with three draws of each input
    stacked: loop:geom and loop:euler finish in the kernel, and a batched
    trip count abandons the kernel at its branch and raises from the
    executor's redo."""
    feed = integer_inputs(p, p.sampler(np.random.default_rng(zlib.crc32(p.id.encode())), 3))
    references = _parity(p.source, p.inputs, p.params, feed, executor_runs)
    if "n" in p.inputs:
        assert references[0][:2] == (
            EvalError, "recur cannot be guarded by a batched or non-scalar condition")


_VECTOR_LOOP = "(loop ((k 0) (v v0)) (if (< k 10) (recur (+ k 1) (scale 0.5 v)) (norm v)))"
_VECTOR_RECURSION = ("(letrec ((f (lambda (k v) (if (< k 1) v (scale 2 (call f (- k 1) v))))))"
                     " (call f n v0))")
_V3 = Value.batch_vectors([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0], [2.0, 2.0, 2.0]])


@pytest.mark.parametrize("src, feed, redone, error", [
    (_VECTOR_LOOP, {"v0": Value.vector([1.0, -2.0, 0.5])}, False, None),
    (_VECTOR_LOOP, {"v0": _V3}, False, None),
    (_VECTOR_RECURSION, {"n": Value.scalar(4.0), "v0": Value.vector([1.0, -2.0, 0.5])}, False,
     None),
    (_VECTOR_RECURSION, {"n": Value.scalar(4.0), "v0": _V3}, False, None),
    # x turns batched on its first recur: the kernel abandons there
    ("(loop ((k 0) (x 0)) (if (< k 3) (recur (+ k 1) (+ x xs)) x))",
     {"xs": Value.batch_scalars([1.0, 2.0, 3.0])}, True, None),
    # the dot of a scalar is a ShapeMismatch in an arm that no run takes
    ("(loop ((k 0) (x x0)) (if (< k 2) (recur (+ k 1) (* x 2)) (if (> k 5) (dot x x) x)))",
     {"x0": Value.batch_scalars([1.0, 2.0, 3.0])}, False, None),
    # ... and in the arm that every run takes: the redo raises it
    ("(loop ((k 0) (x x0)) (if (< k 2) (recur (+ k 1) (* x 2)) (if (> k 1) (dot x x) x)))",
     {"x0": Value.batch_scalars([1.0, 2.0, 3.0])}, False, ShapeMismatch),
    # a NaN lane: the error policy's redo raises DomainViolation at the sqrt
    ("(loop ((k 0) (x x0)) (if (< k 2) (recur (+ k 1) (sqrt x)) x))",
     {"x0": Value.batch_scalars([4.0, -1.0, 9.0])}, False, DomainViolation),
], ids=["vector_loop_b1", "vector_loop_b3", "vector_recursion_b1", "vector_recursion_b3",
        "turns_batched", "untaken_mismatch", "taken_mismatch", "domain"])
def test_control_flow_in_array_runs_matches_the_executor(src, feed, redone, error,
                                                         executor_runs):
    """Under each policy, kernel runs against the executor's, errors with
    their positions included: a run that finishes in the kernel calls the
    executor 0 times, and one that abandons or raises exactly once.
    ``error`` is what the error policy raises, if anything."""
    first = _parity(src, tuple(feed), {}, feed, executor_runs, redone=redone)[0][0]
    assert (first if isinstance(first, type) else None) is error


def test_an_array_run_past_the_depth_limit_raises_from_the_redo(executor_runs):
    config = CompileConfig(max_recursion_depth=5)
    feed = {"n": Value.scalar(4.0), "v0": _V3}
    outputs = _parity(_VECTOR_RECURSION, ("n", "v0"), {}, feed, executor_runs, config)
    assert outputs[0][-1] == _bits(_V3.data * 16.0)
    errors = _parity(_VECTOR_RECURSION, ("n", "v0"), {}, {**feed, "n": Value.scalar(5.0)},
                     executor_runs, config)
    assert errors[0][0] is DepthLimitExceeded and errors[0][-2:] == ("f", 5)


# --- one way into a run ---------------------------------------------------------


@pytest.mark.parametrize("x", [Value.scalar(2.0), Value.batch_scalars([1.0, 2.0, 3.0])],
                         ids=["b1", "b3"])
def test_a_fresh_straight_line_programs_first_array_runs_take_its_kernels(x, executor_runs):
    """From an emptied table: the first untaped array run and the first
    taped run generate their kernels and call the executor 0 times."""
    prog = compile_source("(+ (vsum (vec x g)) (* k (sqrt (/ x g))))", inputs=("x", "g"),
                          params=("k",))
    feed, store = {"x": x, "g": Value.scalar(9.8)}, truth_store({"k": 2.0})
    out = eval_program(prog, feed, store)
    taped, tape = eval_with_tape(prog, feed, store)
    assert executor_runs == []
    assert _fused_count(tape) == 1 and _kernel_kinds(prog) == ["taped", "untaped"]
    assert _output(out) == _output(taped) == _output(_by_executor(eval_program, prog, feed,
                                                                  store))


class _CountingFeed(UserDict):
    """A feed that counts the reads of each input (``feed[name]``)."""

    def __init__(self, feed):
        super().__init__(feed)
        self.reads = dict.fromkeys(feed, 0)

    def __getitem__(self, name):
        self.reads[name] += 1
        return super().__getitem__(name)


_BATCH = Value.batch_scalars([1.0, 2.0, 3.0])


@pytest.mark.parametrize("src, x, reads", [
    ("(* k (sqrt (/ x g)))", Value.scalar(2.0), 1),  # a raw kernel run
    ("(* k (sqrt (/ x g)))", _BATCH, 1),  # an array kernel run
    ("(loop ((i 0) (y x)) (if (< i 3) (recur (+ i 1) (* y g)) (* k y)))", _BATCH, 1),  # a loop
    # y turns batched on its first recur: the kernel abandons, and the executor redoes the run
    ("(loop ((i 0) (y g)) (if (< i 3) (recur (+ i 1) (* y x)) (* k y)))", _BATCH, 2),
], ids=["raw", "array", "array_loop", "executor"])
def test_an_untaped_run_reads_each_input_once_and_the_executor_twice(src, x, reads):
    prog = compile_source(src, inputs=("x", "g"), params=("k",))
    store = truth_store({"k": 2.0})
    for run in range(2):  # the key's first run, then a warm one
        feed = _CountingFeed({"x": x, "g": Value.scalar(9.8)})
        eval_program(prog, feed, store)
        assert feed.reads == {"x": reads, "g": reads}, run


def test_an_executor_run_converts_each_plain_input_once(monkeypatch, executor_runs):
    """The executor takes the Values the leaf pass made: a plain number
    fed to a run that its kernel abandons (y turns a vector on its first
    recur) is converted once."""
    conversions = []
    of = Value.of

    def counted(x):
        conversions.append(x)
        return of(x)

    monkeypatch.setattr(Value, "of", staticmethod(counted))
    prog = compile_source("(loop ((i 0) (y x)) (if (< i 1) (recur (+ i 1) (vec y x)) y))",
                          inputs=("x",))
    assert _output(eval_program(prog, {"x": 1.5})) == _output(
        _by_executor(eval_program, prog, {"x": Value.scalar(1.5)}))
    assert len(executor_runs) == 2 and conversions == [1.5]


# --- det, inv, eye, zeros and ones ----------------------------------------------

# Three well-conditioned 3x3 matrices, and the stack with its middle lane
# singular (its second row twice its first).
_WELL = np.array([[[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
                  [[3.0, -1.0, 0.5], [0.0, 2.5, 1.0], [1.0, 0.0, 3.0]],
                  [[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]]])
_ONE_SINGULAR = _WELL.copy()
_ONE_SINGULAR[1] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]
_LINALG = [("(det M)", {}), ("(trace (inv M))", {}), ("(det (inv (scale s M)))", {"s": 0.8})]


def _result(fn, *args) -> tuple:
    """``fn(*args)``'s result, or its error's class, message and position."""
    try:
        return fn(*args)
    except SchemegradError as err:
        return _error(err)


def _matrices(stack, batch) -> dict:
    return {"M": Value.batch_matrices(stack) if batch == 3 else Value.matrix(stack[1])}


@pytest.mark.parametrize("stack", [_WELL, _ONE_SINGULAR], ids=["well", "one_singular"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("src, params", _LINALG, ids=["det", "inv", "detinv"])
def test_det_and_inv_kernels_match_the_executor(src, params, batch, stack, executor_runs):
    """Three kernel runs against one executor run, untaped under each
    policy and taped with the gradients of ``s`` and ``M``: outputs,
    gradients and errors bitwise, and a singular matrix raises from the
    executor's redo, naming its instruction."""
    feed, store = _matrices(stack, batch), truth_store(params) if params else None
    singular = stack is _ONE_SINGULAR
    for policy in (ERROR_POLICY, PROPAGATE_POLICY):
        kernels._SHARED.clear()
        prog = compile_source(src, inputs=("M",), params=tuple(params))
        assert prog.straight_line

        def untaped():
            return _output(eval_program(prog, feed, store, policy))

        def taped():
            return _taped(prog, feed, params, policy)[:3]

        results = []
        for run in (untaped, taped):
            before = len(executor_runs)
            runs = [_result(run) for _ in range(3)]
            assert len(executor_runs) - before == (3 if singular and policy.raises else 0)
            assert runs == [_by_executor(_result, run)] * 3, (src, policy.mode, run.__name__)
            results.append(runs[0])
        if singular and policy.raises:  # the first of det and inv to run raises
            op = "det" if src == "(det M)" else "inv"
            slot = next(ins[1] for ins in prog.block.instrs if ins[0] == "prim" and ins[2] == op)
            assert results[0][:1] + results[0][3:6] == (SingularMatrix, op, slot, batch // 3)
        elif singular and "inv" in src:  # the singular lane's inverse is NaN
            nan = np.isnan(eval_program(prog, feed, store, policy).data).ravel().tolist()
            assert nan == ([True] if batch == 1 else [False, True, False])
    assert _has_kernel(prog)


def test_a_taped_detinv_run_at_b256_is_one_fused_record(executor_runs):
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, (256, 3, 3))
    feed = {"M": Value.batch_matrices(a @ np.swapaxes(a, 1, 2) + 3.0 * np.eye(3))}
    prog = compile_source("(det (inv (scale s M)))", inputs=("M",), params=("s",))
    runs = [_taped(prog, feed, {"s": 0.8}) for _ in range(3)]
    assert executor_runs == []
    assert [[n[0] for n in run[3].nodes] for run in runs] == [["leaf", "leaf", kernels.FUSED]] * 3
    executor = _by_executor(_taped, prog, feed, {"s": 0.8})
    assert len(executor[3].nodes) == 5
    assert all(run[:3] == executor[:3] for run in runs)


def test_the_fused_det_vjp_reads_the_factors_of_its_forward(monkeypatch):
    """A taped (det (inv (scale s M))) factors its two matrices in the
    forward, and its backward reads the det's kept factors: no third LU."""
    factored, factors = [], kernels._NAMESPACE["_factors"]

    def counted(m, batched):
        factored.append(m.shape)
        return factors(m, batched)

    monkeypatch.setitem(kernels._NAMESPACE, "_factors", counted)
    prog = compile_source("(det (inv (scale s M)))", inputs=("M",), params=("s",))
    ctx = TapeContext()
    out = ctx.run(prog, {"M": Value.batch_matrices(_WELL)}, truth_store({"s": 0.8}))
    assert factored == [(3, 3, 3)] * 2
    ctx.backward(out, wrt_inputs=["M"])
    assert factored == [(3, 3, 3)] * 2


def test_det_at_b1_never_calls_the_executor(executor_runs):
    prog = compile_source("(det M)", inputs=("M",))
    outs = [_output(eval_program(prog, {"M": Value.matrix(_WELL[0])})) for _ in range(3)]
    assert executor_runs == [] and outs == [_output(_by_executor(
        eval_program, prog, {"M": Value.matrix(_WELL[0])}))] * 3


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("src", ["(matvec (eye 3) v)", "(+ (vsum (ones 3)) (vlen (zeros 2)))",
                                 "(trace (ones 2 2))"], ids=["eye", "ones_zeros", "ones_2x2"])
def test_literal_sizes_take_the_kernel(src, batch, executor_runs):
    v = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0], [2.0, 2.0, 2.0]])
    feed = {"v": Value.batch_vectors(v) if batch == 3 else Value.vector(v[0])}
    prog = compile_source(src, inputs=("v",))
    assert prog.straight_line and all(ins[3] == () for ins in prog.block.instrs
                                      if ins[0] == "prim" and ins[2] in ("eye", "zeros", "ones"))
    for policy in (ERROR_POLICY, PROPAGATE_POLICY):
        kernels._SHARED.clear()
        runs = [_output(eval_program(prog, feed, None, policy)) for _ in range(3)]
        taped = [_taped(prog, feed, {}, policy) for _ in range(3)]
        assert executor_runs == [] and [_fused_count(run[3]) for run in taped] == [1] * 3
        assert runs == [_output(_by_executor(eval_program, prog, feed, None, policy))] * 3
        executor = _by_executor(_taped, prog, feed, {}, policy)
        assert all(run[:3] == executor[:3] for run in taped)
        executor_runs.clear()


def test_a_computed_size_takes_the_executor(executor_runs):
    """The untaped kernel abandons at the eye, and the taped run gets no
    kernel: every run is the executor's."""
    feed = {"v": Value.vector([1.0, -2.0, 0.5]), "n": Value.scalar(3.0)}
    prog = compile_source("(matvec (eye n) v)", inputs=("v", "n"))
    literal = compile_source("(matvec (eye 3) v)", inputs=("v", "n"))
    runs = [_output(eval_program(prog, feed)) for _ in range(3)]
    assert len(executor_runs) == 3 and _kernel_kinds(prog) == [kernels.UNTAPED]
    assert runs == [_output(eval_program(literal, feed))] * 3
    taped = [_taped(prog, feed, {}) for _ in range(3)]
    assert all(run[:3] == _taped(literal, feed, {})[:3] for run in taped)
    assert [_fused_count(run[3]) for run in taped] == [0] * 3 and len(executor_runs) == 6
    assert _output(apply_primitive("eye", [Value.scalar(3.0)])) == _output(
        Value.matrix(np.eye(3)))


@pytest.mark.parametrize("src, message", [
    ("(trace (eye 2.5))", "eye: index 2.5 is not an integer"),
    ("(vsum (zeros 0))", "zeros: sizes must be positive"),
    ("(trace (ones 2 -1))", "ones: sizes must be positive"),
    ("(trace (eye x))", "eye: index must be an unbatched scalar"),
])
def test_a_bad_size_raises_what_it_always_raised(src, message):
    """From the kernel's generation, the executor and the interpreter
    alike."""
    feed = {"x": Value.batch_scalars([2.0, 3.0])}
    prog = compile_source(src, inputs=("x",))
    for run in (lambda: eval_program(prog, feed), lambda: _taped(prog, feed, {}),
                lambda: interpret_ast(parse(src), feed)):
        with pytest.raises(ShapeMismatch) as err:
            run()
        assert str(err.value) == message
    assert _by_executor(_outcome, eval_program, prog, feed) == (ShapeMismatch, message)


def test_the_det_under_a_select_still_raises_in_both_paths(executor_runs):
    """``(if (> s 0) (det M) 0)`` at a singular M and s = -1: the select
    evaluates both arms, so the error policy raises in the kernel's redo as
    in the executor (making the arm lazy is a separate change)."""
    prog = compile_source("(if (> s 0) (det M) 0)", inputs=("M", "s"))
    feed = {"M": Value.matrix(_ONE_SINGULAR[1]), "s": Value.scalar(-1.0)}
    kernel = _result(eval_program, prog, feed)
    assert kernel[0] is SingularMatrix and kernel == _by_executor(_result, eval_program, prog,
                                                                   feed)
    assert _has_kernel(prog) and len(executor_runs) == 2
    assert eval_program(prog, feed, None, PROPAGATE_POLICY).item() == 0.0


@pytest.mark.parametrize("src, message", [
    ("(trace (eye 1e999))", "eye: index inf is not an integer"),
    ("(vsum (zeros 2 1e999))", "zeros: index inf is not an integer"),
    ("(ref v 1e999)", "ref: index inf is not an integer"),
])
def test_an_infinite_size_or_index_raises_shape_mismatch(src, message):
    feed = {"v": Value.vector([1.0, 2.0])}
    prog = compile_source(src, inputs=("v",))
    for run in (lambda: eval_program(prog, feed), lambda: _by_executor(eval_program, prog, feed),
                lambda: interpret_ast(parse(src), feed)):
        with pytest.raises(ShapeMismatch) as err:
            run()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# a network call, and programs at the nesting limit


def _network_run(model, x, target) -> tuple:
    """The ops of the tape of one network call and its loss, and the bits of
    the output, the loss and every weight and input gradient."""
    ctx = TapeContext()
    xr = ctx.constant(x)
    out = mlp_forward(ctx, model, xr)
    loss = ctx.mse(out, target)
    model.store.zero_grads()
    res = ctx.backward(loss, wrt_inputs=[xr])
    assert ctx.tape.replay()
    return ([node[0] for node in ctx.tape.nodes],
            [_bits(out.value.data), _bits(loss.value.data), _bits(res.input_grads[xr.tape_id].data)]
            + [_bits(model.store[n].grad) for n in model.store.names()])


@pytest.mark.parametrize("batch", [None, 3], ids=["unbatched", "b3"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_a_network_call_is_one_fused_record_bitwise_the_executors(activation, batch):
    rng = np.random.default_rng(zlib.crc32(activation.encode()))
    model = MlpModel([3, 5, 4, 2], activation=activation, rng=rng)
    x, target = rng.uniform(-1.0, 1.0, (batch or 1, 3)), rng.uniform(-1.0, 1.0, (batch or 1, 2))
    if batch:
        x, target = Value.batch_vectors(x), Value.batch_vectors(target)
    else:
        x, target = Value.vector(x[0]), Value.vector(target[0])
    ops, got = _network_run(model, x, target)
    assert ops == ["leaf"] * 7 + [kernels.FUSED, "leaf", "mse"]  # x, then the six weights
    executor_ops, want = _by_executor(_network_run, model, x, target)
    assert executor_ops == ["leaf", "leaf", "leaf", "linear", activation, "leaf", "leaf", "linear",
                            activation, "leaf", "leaf", "linear", "leaf", "mse"]
    assert got == want
    assert _network_run(model, x, target) == (ops, got)  # the warm kernel too


def _nested(depth: int, inner: str, template: str) -> str:
    src = inner
    for _ in range(depth):
        src = template.format(src)
    return src


# (source, inputs, params): a chain of 199 additions, and a component nested
# 200 levels deep, as ``test_linked_step`` links it
_AT_THE_LIMIT = [
    (_nested(sexpr.MAX_NESTING - 1, "x", "(+ 1 {})"), ("x",), {}),
    (f"(* a {_nested(sexpr.MAX_NESTING - 1, 'y', '(+ {} 0.001)')})", ("x", "y"), {"a": 0.5}),
]


@pytest.mark.parametrize("src, inputs, params", _AT_THE_LIMIT, ids=["chain", "component"])
def test_a_program_at_the_nesting_limit_takes_every_kernel(src, inputs, params, executor_runs):
    for x in (0.25, -1.5):
        _parity(src, inputs, params, {n: Value.scalar(x) for n in inputs}, executor_runs)
    batched = {n: Value.batch_scalars([0.25, -1.5, 3.0]) for n in inputs}
    _parity(src, inputs, params, batched, executor_runs)
    prog = compile_source(src, inputs=inputs, params=tuple(params))
    taped = _taped(prog, batched, params)
    assert _fused_count(taped[3]) == 1 and len(taped[3]) == len(prog.leaves) + 1
    assert taped[:3] == _by_executor(_taped, prog, batched, params)[:3]
    sig = machine._leaves(prog, batched, truth_store(params) if params else None)[2]
    for kind, at in ((kernels.RAW, None), (kernels.UNTAPED, sig), (kernels.TAPED, sig)):
        assert kernels.lookup(prog, at, kind) is not None, kind
