"""Generated kernels against the executor.

A straight-line program's first array run of each kind (untaped, taped)
takes the executor and later runs go through its generated kernel, so the
first run is the reference the later ones must match bit for bit: outputs
with their writability, tape values, parameter and input gradients, and
TapeRef gradients through a chain.  Errors under the error policy, changed
signatures and ``Tape.replay`` are checked too, along with the record count
of a Lotka-Volterra epoch and the peak memory of a warmed eval.
"""

import random
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from schemegrad import kernels, ode
from schemegrad.autodiff import Tape, TapeContext, backward
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation, SchemegradError
from schemegrad.experiments import lotka_volterra as lv_exp
from schemegrad.experiments.registry import BENCH_PROGRAMS, FEYNMAN
from schemegrad.machine import eval_program, run_on_tape
from schemegrad.nn import compose_chain
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY
from schemegrad.training import truth_store
from schemegrad.values import Value

from corpus import CORPUS

STRAIGHT = [p for p in CORPUS if not p.has_loops]


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return repr(a.shape).encode() + a.tobytes()


def _compile(p):
    return compile_source(p.source, inputs=p.inputs, params=tuple(p.params))


def _output(v: Value) -> tuple:
    return (v.kind, v.batched, type(v.data), v.data.flags.writeable, _bits(v.data))


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


def _has_kernel(prog) -> bool:
    cache = prog.kernels
    return cache is not None and (any(cache.untaped.values()) or any(cache.taped.values()))


@pytest.mark.parametrize("batch", [2, 5])
@pytest.mark.parametrize("p", STRAIGHT, ids=lambda p: p.id)
def test_kernel_runs_match_the_executor_bitwise(p, batch):
    prog = _compile(p)
    store = truth_store(p.params) if p.params else None
    feed = p.sampler(np.random.default_rng(zlib.crc32(p.id.encode()) + batch), batch)
    for policy in (ERROR_POLICY, PROPAGATE_POLICY):
        runs = [_output(eval_program(prog, feed, store, policy)) for _ in range(3)]
        assert runs[1] == runs[0] and runs[2] == runs[0], p.id
    taped = [_taped(prog, feed, p.params) for _ in range(3)]
    for later in taped[1:]:
        assert later[:3] == taped[0][:3], p.id
    eligible = kernels.Cache(prog).leaves is not None
    assert _has_kernel(prog) == eligible, p.id
    if eligible:
        assert [n[0] for n in taped[2][3].nodes].count(kernels.FUSED) == 1
        assert kernels.FUSED not in [n[0] for n in taped[0][3].nodes]


@pytest.mark.parametrize("bid", sorted(BENCH_PROGRAMS))
def test_bench_programs_match_the_executor_bitwise(bid):
    src, names = BENCH_PROGRAMS[bid]
    prog = compile_source(src, inputs=names)
    rng = np.random.default_rng(zlib.crc32(bid.encode()))
    feed = {n: Value.batch_scalars(rng.uniform(1.0, 2.0, 5)) for n in names}
    feed["b"] = Value.batch_scalars(rng.uniform(4.5, 6.0, 5))  # discriminant: b*b >= 4ac
    feed = {n: feed[n] for n in names}
    runs = [_output(eval_program(prog, feed)) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    taped = [_taped(prog, feed, {}) for _ in range(3)]
    assert taped[1][:3] == taped[0][:3] and taped[2][:3] == taped[0][:3]
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
    assert runs[1] == runs[0] and runs[2] == runs[0]
    closure = eq.closure(**{n: v.data for n, v in feed.items()}, **params)
    assert runs[2][4] == _bits(closure)
    taped = [_taped(prog, feed, params) for _ in range(3)]
    assert taped[1][:3] == taped[0][:3] and taped[2][:3] == taped[0][:3]


@pytest.mark.parametrize("src", ["(+ x (* x x))", "(* (sin x) (+ x 1))", "(/ x (+ 1 (* x x)))"])
@pytest.mark.parametrize("x0", [Value.scalar(0.3), Value.batch_scalars([0.0, 0.5, -0.7])])
def test_taperef_gradients_through_an_8_deep_chain(src, x0):
    one = compile_source(src, inputs=("x",))
    results = []
    for stages in ([one] * 8, [compile_source(src, inputs=("x",)) for _ in range(8)]):
        ctx = TapeContext()
        x = ctx.constant(x0)
        out = compose_chain(ctx, stages, x)
        res = ctx.backward(out, wrt_inputs=[x])
        assert ctx.tape.replay()
        results.append((_bits(out.value.data), _bits(res.input_grads[x.tape_id].data),
                        [n[0] for n in ctx.tape.nodes].count(kernels.FUSED)))
    (fused_out, fused_grad, fused), (exec_out, exec_grad, none) = results
    assert (fused_out, fused_grad) == (exec_out, exec_grad)
    assert none == 0 and fused == (7 if x0.batched else 0)  # scalar chains run raw-slot


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
        fresh = compile_source(src, inputs=("L", "g"), params=("k",))
        assert raised(warm, taped) == raised(fresh, taped) == (DomainViolation, "sqrt", 3, 2)


@pytest.mark.parametrize("src, first, then", [
    ("(+ (* x y) y)", {"x": Value.batch_scalars([1.0, 2.0]), "y": Value.batch_scalars([3.0, 4.0])},
     {"x": Value.batch_scalars([1.0, 2.0]), "y": Value.scalar(3.0)}),
    ("(* x (+ y 1))", {"x": Value.batch_scalars([1.0, 2.0]), "y": Value.batch_scalars([3.0, 4.0])},
     {"x": Value.batch_vectors([[1.0, 2.0], [3.0, 4.0]]), "y": Value.batch_scalars([3.0, 4.0])}),
])
def test_a_changed_signature_takes_the_executor(src, first, then):
    prog = compile_source(src, inputs=("x", "y"))
    for _ in range(3):
        eval_program(prog, first)
        _taped(prog, first, {})
    assert len(prog.kernels.untaped) == len(prog.kernels.taped) == 1
    fresh = compile_source(src, inputs=("x", "y"))
    assert _output(eval_program(prog, then)) == _output(eval_program(fresh, then))
    assert _taped(prog, then, {})[:3] == _taped(fresh, then, {})[:3]
    assert [n[0] for n in _taped(prog, then, {})[3].nodes].count(kernels.FUSED) == 1


def test_a_warm_lotka_volterra_epoch_holds_117_records():
    store = truth_store(lv_exp.TRUE_PARAMS)
    cfg = ode.ShootingConfig(segment_length=lv_exp.SEGMENT_LENGTH,
                             observations=lv_exp.generate_observations())
    system = lv_exp.make_system(store)

    # programs compiled anew: every run takes the executor, and a plain function
    # has no linked step, so the system is stepped stage by stage
    def first_runs(ctx, state, t):
        return ode.make_compiled_rhs(lv_exp._programs(), [store, store], ("x", "y"))(ctx, state, t)

    executor = ode.OdeSystem(rhs=first_runs, state_dim=2, dt=lv_exp.DT)
    ode.multiple_shooting_loss(TapeContext(), system, cfg)  # warms the kernels
    epochs = []
    for each in (system, executor):
        ctx = TapeContext()
        loss = ode.multiple_shooting_loss(ctx, each, cfg)
        store.zero_grads()
        ctx.backward(loss)
        assert ctx.tape.replay()
        epochs.append((len(ctx.tape), [n[0] for n in ctx.tape.nodes].count(kernels.FUSED),
                       _bits(loss.value.data), {n: _bits(store[n].grad) for n in store.names()}))
    (warm_len, fused, warm_loss, warm_grads), (exec_len, none, exec_loss, exec_grads) = epochs
    # a warm step is one fused record split by two refs
    assert (warm_len, fused, exec_len, none) == (117, 10, 767, 0)
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
        return f"({r.choice(['norm', 'vsum'])} {_vector_source(r, depth - 1)})"
    return f"(dot {_vector_source(r, depth - 1)} {_vector_source(r, depth - 1)})"


def _vector_source(r, depth):
    if depth == 0 or r.random() < 0.3:
        return r.choice(["v", "w", "(vec x y k)"])
    c = r.random()
    if c < 0.3:
        return f"(scale {_scalar_source(r, depth - 1)} {_vector_source(r, depth - 1)})"
    if c < 0.5:
        return f"(matvec M {_vector_source(r, depth - 1)})"
    if c < 0.7:
        other = _vector_source(r, depth - 1) if r.random() < 0.5 else _scalar_source(r, depth - 1)
        return f"({r.choice(['+', '-', '*'])} {_vector_source(r, depth - 1)} {other})"
    return "(vec " + " ".join(_scalar_source(r, depth - 1) for _ in range(3)) + ")"


def _generated_feed(r, batch):
    rng = np.random.default_rng(r.randrange(2 ** 31))
    feed = {}
    for name, core in (("x", ()), ("y", ()), ("v", (3,)), ("w", (3,)), ("M", (3, 3))):
        shape = ((batch,) if r.random() < 0.6 else ()) + core
        kind = ("scalar", "vector", "matrix")[len(core)]
        feed[name] = Value(rng.uniform(-2.0, 2.0, shape), kind, len(shape) > len(core))
    return feed


@pytest.mark.parametrize("seed", range(4))
def test_generated_programs_match_the_executor_bitwise(seed):
    """Random straight-line programs over every row with emit forms, with
    batched and unbatched scalars, vectors and matrices mixed, at points
    that leave partial domains: kernel runs against the first run, NaN
    payloads included."""
    r = random.Random(seed)
    kernels_made = 0
    with warnings.catch_warnings():
        # the executor's overflow warnings (exp, *), which a kernel's errstate silences
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(100):
            src = _scalar_source(r, 4) if r.random() < 0.7 else _vector_source(r, 4)
            prog = compile_source(src, inputs=("x", "y", "v", "w", "M"), params=("k",))
            feed = _generated_feed(r, r.choice([1, 2, 5]))
            params = {"k": r.uniform(-2.0, 2.0)}
            store = truth_store(params)
            for policy in (PROPAGATE_POLICY, ERROR_POLICY):
                runs = []
                for _ in range(3):
                    try:
                        runs.append(_output(eval_program(prog, feed, store, policy)))
                    except SchemegradError as err:
                        runs.append((type(err), str(err)))
                assert runs[1] == runs[0] and runs[2] == runs[0], src
            taped = []
            for _ in range(3):
                try:
                    taped.append(_taped(prog, feed, params)[:3])
                except SchemegradError as err:
                    taped.append((type(err), str(err)))
            assert taped[1] == taped[0] and taped[2] == taped[0], src
            kernels_made += _has_kernel(prog)
    assert kernels_made >= 50
