"""Gradient flow through frozen compiled modules fed by trainable layers,
and exactness of compiled programs far outside any training range."""

import numpy as np
import pytest

from schemegrad.autodiff import TapeContext
from schemegrad.compiler import compile_source
from schemegrad.errors import ConfigError
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program
from schemegrad.nn import MlpModel, mlp_forward, unpack_scalar
from schemegrad.runtime import PROPAGATE_POLICY
from schemegrad.sexpr import parse
from schemegrad.training import draw_inputs, extrapolation_ranges, truth_store
from schemegrad.values import Value, bit_equal


def test_frozen_subgraph_gradients_match_finite_differences():
    # H(x; theta) = M(f_theta(x)) with M compiled and f a one-layer net;
    # parameter gradients through the frozen module vs central differences
    rng = np.random.default_rng(1)
    m = compile_source("(+ (sin z) (* 0.5 (* z z)))", inputs=("z",))
    f = MlpModel([2, 1], activation="tanh", rng=rng)
    x = Value.batch_vectors(rng.uniform(-1.0, 1.0, (8, 2)))
    target = Value.batch_scalars(rng.uniform(-1.0, 1.0, 8))

    def loss_value():
        ctx = TapeContext()
        z = unpack_scalar(ctx, mlp_forward(ctx, f, ctx.lift(x)), 0)
        h = ctx.run(m, {"z": z})
        return ctx, ctx.mse(h, target)

    ctx, loss = loss_value()
    f.store.zero_grads()
    ctx.backward(loss)

    eps = 1e-6
    for name in f.store.names():
        grad = f.store[name].grad
        arr = f.store[name].value.data
        it = np.nditer(arr, flags=["multi_index"])
        for _ in range(min(arr.size, 3)):
            idx = it.multi_index
            base = arr[idx]
            arr[idx] = base + eps
            f.store.set_value(name, arr)
            up = float(loss_value()[1].value.data)
            arr[idx] = base - eps
            f.store.set_value(name, arr)
            down = float(loss_value()[1].value.data)
            arr[idx] = base
            f.store.set_value(name, arr)
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grad[idx]), 1.0)
            assert abs(fd - grad[idx]) / denom < 1e-5, (name, idx)
            next(it, None)


def test_compiled_exact_outside_training_range():
    # 5x-extrapolated inputs: compiled output still equals the interpreter
    # bit for bit (the compiled component carries no approximation error)
    from schemegrad.experiments.registry import FEYNMAN

    rng = np.random.default_rng(2)
    for eid, eq in FEYNMAN.items():
        prog = compile_source(eq.source, inputs=eq.inputs,
                              params=tuple(eq.params) + tuple(eq.frozen))
        store = truth_store(eq.params, eq.frozen)
        wide = extrapolation_ranges(eq.ranges, factor=5.0)
        ast = parse(eq.source)
        for _ in range(10):
            pt = draw_inputs(wide, 1, rng)
            pt = {k: Value.scalar(float(v.data[0])) for k, v in pt.items()}
            env = dict(pt)
            env.update({k: Value.of(v) for k, v in {**eq.params, **eq.frozen}.items()})
            ref = interpret_ast(ast, env, PROPAGATE_POLICY)
            got = eval_program(prog, pt, store, PROPAGATE_POLICY)
            assert bit_equal(ref, got), eid


def test_hybrid_sum_gradients_reach_both_components():
    rng = np.random.default_rng(3)
    known = compile_source("(* a (sin x))", inputs=("x",), params=("a",))
    store = truth_store({"a": 2.0})
    mlp = MlpModel([1, 6, 1], activation="tanh", rng=rng)
    x = Value.batch_scalars(rng.uniform(-1, 1, 16))
    ctx = TapeContext()
    xr = ctx.lift(x)
    from schemegrad.nn import hybrid_forward

    out = hybrid_forward(ctx, known, store, mlp, {"x": xr})
    loss = ctx.mse(out, Value.batch_scalars(np.zeros(16)))
    store.zero_grads()
    mlp.store.zero_grads()
    ctx.backward(loss)
    assert store["a"].grad is not None and abs(float(store["a"].grad)) > 0
    assert any(np.abs(mlp.store[n].grad).max() > 0 for n in mlp.store.names())


def test_an_unsupported_activation_raises_config_error():
    with pytest.raises(ConfigError, match="unsupported activation 'sigmoid'"):
        MlpModel([2, 4, 1], activation="sigmoid")
