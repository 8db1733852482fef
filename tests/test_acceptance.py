"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time
import zlib

import numpy as np
import pytest

from schemegrad.compiler import compile_source, disassemble
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program
from schemegrad.autodiff import TapeContext, backward, finite_diff_check
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY
from schemegrad.sexpr import parse
from schemegrad.training import truth_store
from schemegrad.values import Value, bit_equal

from corpus import CORPUS, integer_inputs

pytestmark = pytest.mark.acceptance

def _verdict(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# -- criterion 1: compiled == interpreter, bit-exact, 100 points, < 10 s ------


def test_criterion_01_compilation_correctness_oracle():
    t0 = time.perf_counter()
    worst = None
    for prog in CORPUS:
        compiled = compile_source(prog.source, inputs=prog.inputs,
                                  params=tuple(prog.params))
        ast = parse(prog.source)
        store = truth_store(prog.params) if prog.params else None
        rng = np.random.default_rng(zlib.crc32(prog.id.encode()) % (2 ** 32))
        n_points = 25 if prog.has_loops else 100
        if prog.has_loops:
            for _ in range(n_points):
                inputs = integer_inputs(prog, prog.sampler(rng, 1))
                env = dict(inputs)
                env.update({k: Value.of(v) for k, v in prog.params.items()})
                ref = interpret_ast(ast, env, ERROR_POLICY)
                got = eval_program(compiled, inputs, store, ERROR_POLICY)
                if not bit_equal(ref, got):
                    worst = prog.id
        else:
            points = [prog.sampler(rng, 1) for _ in range(n_points)]
            for pt in points:
                env = dict(pt)
                env.update({k: Value.of(v) for k, v in prog.params.items()})
                ref = interpret_ast(ast, env, ERROR_POLICY)
                got = eval_program(compiled, pt, store, ERROR_POLICY)
                if not bit_equal(ref, got):
                    worst = prog.id
        if worst:
            break
    elapsed = time.perf_counter() - t0
    _verdict("criterion-1 compilation-correctness (bit-exact vs interpreter)",
             worst is None and elapsed < 10.0,
             f"{len(CORPUS)} programs in {elapsed:.1f}s" + (f"; diverged: {worst}" if worst else ""))


# -- criterion 2: gradients vs central differences, 20 points, < 30 s ---------


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    failures = []
    for prog in CORPUS:
        if not prog.differentiable:
            continue
        compiled = compile_source(prog.source, inputs=prog.inputs,
                                  params=tuple(prog.params))
        store = truth_store(prog.params) if prog.params else None
        rng = np.random.default_rng(zlib.crc32(prog.id.encode()) % 65521)
        for _ in range(20):
            inputs = integer_inputs(prog, prog.sampler(rng, 1))
            report = finite_diff_check(compiled, inputs, store, h=1e-5, tol=1e-6)
            if not report.passed:
                failures.append((prog.id, report.max_rel_err))
                break
    elapsed = time.perf_counter() - t0
    _verdict("criterion-2 gradient-correctness (central diff, tol 1e-6)",
             not failures and elapsed < 30.0,
             f"20 pts/program in {elapsed:.1f}s" + (f"; {failures}" if failures else ""))


# -- criterion 3: compiled == hand-coded closure, exactly 0.0 ------------------


def test_criterion_03_compiled_equals_handcoded():
    from schemegrad.experiments.registry import (
        ALL_EQUATIONS, COMPOSITION_OPS, handcoded_oracle,
    )
    from corpus import CORPUS as _corpus

    worst = 0.0
    worst_id = ""
    rng = np.random.default_rng(17)
    by_id = {p.id.split(":", 1)[-1]: p for p in _corpus}
    checked = 0
    for eid, eq in ALL_EQUATIONS.items():
        cp = by_id[eid]
        compiled = compile_source(cp.source, inputs=cp.inputs, params=tuple(cp.params))
        store = truth_store(cp.params)
        ins = cp.sampler(rng, 1000)
        got = eval_program(compiled, ins, store, PROPAGATE_POLICY)
        native = handcoded_oracle(eid, ins, cp.params)
        diff = float(np.max(np.abs(got.data - native)))
        checked += 1
        if diff > worst:
            worst, worst_id = diff, eid
    for name, (src, closure) in COMPOSITION_OPS.items():
        compiled = compile_source(src, inputs=("x",))
        x = rng.uniform(-2, 2, 1000)
        got = eval_program(compiled, {"x": Value.batch_scalars(x)}, None,
                           PROPAGATE_POLICY)
        diff = float(np.max(np.abs(got.data - closure(x))))
        checked += 1
        if diff > worst:
            worst, worst_id = diff, name
    _verdict("criterion-3 compiled==hand-coded (exact)",
             worst == 0.0, f"{checked} equations, max |diff| = {worst}"
             + (f" at {worst_id}" if worst else ""))


# -- criteria 4-9: the experiment suites ---------------------------------------


def test_criterion_04_feynman_recovery():
    from schemegrad.experiments import feynman

    t0 = time.perf_counter()
    rows, _ = feynman.run(seed=0, epochs_scale=1.0)
    elapsed = time.perf_counter() - t0
    ok_count, total = feynman.recovered_count(rows)
    handcoded_ok = all(r.passed for r in rows if r.model == "handcoded_oracle")
    expected_fail_marked = feynman.EXPECTED_FAILURES == {"oscillator", "lorentz"}
    _verdict("criterion-4 feynman 13/15 recovery <1%",
             ok_count == 13 and total == 13 and handcoded_ok
             and expected_fail_marked and elapsed < 900.0,
             f"{ok_count}/{total} recovered, {elapsed:.0f}s")


def test_criterion_05_lotka_volterra():
    from schemegrad.experiments import lotka_volterra

    rows, _ = lotka_volterra.run()
    bad = [r.metric for r in rows if not r.passed]
    _verdict("criterion-5 lotka-volterra recovery + noise sweep",
             not bad, f"{len(rows)} rows" + (f"; failed {bad}" if bad else ""))


def test_criterion_06_pendulum():
    from schemegrad.experiments import pendulum

    rows, _ = pendulum.run()
    bad = [r.metric for r in rows if not r.passed]
    ratio = next(r.value for r in rows if r.metric == "mlp_to_compiled_mse_ratio")
    _verdict("criterion-6 pendulum S1 + 100x over MLP",
             not bad, f"ratio {ratio:.0f}x" + (f"; failed {bad}" if bad else ""))


def test_criterion_07_heat():
    from schemegrad.experiments import heat

    rows, _ = heat.run()
    bad = [r.metric for r in rows if not r.passed]
    alpha = next(r.value for r in rows if r.metric == "alpha:rel_err")
    _verdict("criterion-7 heat alpha recovery + hybrid",
             not bad, f"alpha err {alpha:.2e}" + (f"; failed {bad}" if bad else ""))


def test_criterion_08_composition():
    from schemegrad.experiments import composition

    t0 = time.perf_counter()
    rows, _ = composition.run()
    train_elapsed = time.perf_counter() - t0
    bad = [r.metric for r in rows if not r.passed]
    amp = next(r.value for r in rows if r.metric.endswith(":amplification"))
    _verdict("criterion-8 composition exact-zero + neural amplification",
             not bad and train_elapsed < 300.0,
             f"amplification {amp:.1e}, {train_elapsed:.0f}s"
             + (f"; failed {bad}" if bad else ""))


def test_criterion_09_gravity3d():
    from schemegrad.experiments import gravity3d

    rows, _ = gravity3d.run()
    bad = [r.metric for r in rows if not r.passed]
    g_err = next(r.value for r in rows if r.metric == "G:rel_err")
    _verdict("criterion-9 3d gravity G recovery + 1e4x over MLP",
             not bad, f"G err {g_err:.2e}" + (f"; failed {bad}" if bad else ""))


# -- criterion 10: structural goldens ------------------------------------------


TWO_OP_GOLDEN = """\
slot[0] = 1.0                     ; constant
slot[1] = x                       ; input
slot[2] = slot[1] + slot[0]       ; __t0
slot[3] = y                       ; input
slot[4] = 2.0                     ; constant
slot[5] = slot[3] - slot[4]       ; __t1
slot[6] = slot[2] * slot[5]       ; output"""


def test_criterion_10_structural_goldens():
    from schemegrad.experiments.registry import FEYNMAN

    expected = {
        "planck": 3, "hooke": 5, "kinetic": 6, "gravity": 8, "ideal_gas": 5,
        "pendulum_period": 6, "heat_energy": 5, "coulomb": 8, "gaussian": 15,
        "rel_energy": 14, "sound": 7, "barometric": 14, "efield": 6,
        "oscillator": 8, "lorentz": 10,
    }
    bad = []
    for eid, eq in FEYNMAN.items():
        prog = compile_source(eq.source, inputs=eq.inputs,
                              params=tuple(eq.params) + tuple(eq.frozen))
        if prog.node_count != expected[eid]:
            bad.append((eid, prog.node_count, expected[eid]))
    two_op = compile_source("(* (+ x 1) (- y 2))", inputs=("x", "y"))
    golden_ok = disassemble(two_op) == TWO_OP_GOLDEN and two_op.slot_count == 7
    _verdict("criterion-10 structural goldens (node counts + 7-slot table)",
             not bad and golden_ok, f"mismatches: {bad}" if bad else "15 equations + slot table")


# -- criterion 11: performance properties --------------------------------------


def test_criterion_11_performance_properties():
    from schemegrad.experiments import bench

    rows, _ = bench.run()
    bad = [r.metric for r in rows if not r.passed]
    worst_amort = min(r.value for r in rows if r.metric.endswith("amortization_10k_vs_1"))
    worst_compile = max(r.value for r in rows if r.metric.endswith("compile_seconds"))
    _verdict("criterion-11 performance (amortization >= 50x, compile < 10 ms, 1e6 loop)",
             not bad,
             f"min amortization {worst_amort:.0f}x, max compile {worst_compile * 1e3:.2f} ms"
             + (f"; failed {bad}" if bad else ""))


# -- criterion 12: gradient scaling --------------------------------------------


def test_criterion_12_gradient_scaling():
    from schemegrad.nn import compose_chain

    square = compile_source("(* x x)", inputs=("x",))
    residual = compile_source("(+ x (* x x))", inputs=("x",))
    ok = True
    detail = []
    for k in range(1, 9):
        ctx = TapeContext()
        x = ctx.constant(1.5)
        out = compose_chain(ctx, [square] * k, x)
        res = backward(ctx.tape, Value.scalar(1.0), wrt_inputs=[x],
                       output_id=out.tape_id)
        got = abs(float(res.input_grads[x.tape_id].data))
        zs = [1.5 ** (2 ** i) for i in range(k)]
        expected = (2.0 ** k) * float(np.prod(zs))
        if abs(got - expected) > 1e-9 * expected:
            ok = False
            detail.append(f"k={k}")
    ctx = TapeContext()
    x = ctx.constant(0.0)
    out = compose_chain(ctx, [residual] * 8, x)
    res = backward(ctx.tape, Value.scalar(1.0), wrt_inputs=[x],
                   output_id=out.tape_id)
    residual_grad = float(res.input_grads[x.tape_id].data)
    ok = ok and residual_grad >= 1.0
    _verdict("criterion-12 gradient scaling (2^k chain + residual path)",
             ok, f"residual-chain grad at 0 = {residual_grad}"
             + (f"; bad {detail}" if detail else ""))
