"""3D vector mechanics: recover the gravitational constant through norm,
scale and vector arithmetic, against a dense-network baseline."""

from __future__ import annotations

import numpy as np

from .. import training
from ..autodiff import TapeContext
from ..compiler import compile_source
from ..machine import eval_program
from ..nn import MlpModel, mlp_forward, pack_scalars
from ..optim import gauss_newton
from ..runtime import PROPAGATE_POLICY
from ..training import init_param_store, truth_store
from ..values import Value
from .registry import GRAVITY3D
from .report import ResultRow

TRUE_G = 6.674
NOISE = 0.02
DEFAULT_SEED = 9
ADAM_EPOCHS = 1500
MLP_EPOCHS = 3000
BATCH = 4096


def program():
    return compile_source(GRAVITY3D.source, inputs=("m1", "m2", "r"), params=("G",))


def sample_inputs(rng, n: int):
    m1 = rng.uniform(0.5, 2.0, size=n)
    m2 = rng.uniform(0.5, 2.0, size=n)
    r = rng.uniform(-2.0, 2.0, size=(n, 3))
    norms = np.sqrt((r * r).sum(axis=1))
    scale = np.maximum(1.0, 0.5 / np.maximum(norms, 1e-9))
    r = r * scale[:, None]
    return {
        "m1": Value.batch_scalars(m1),
        "m2": Value.batch_scalars(m2),
        "r": Value.batch_vectors(r),
    }


def _noisy_targets(prog, truth, ins, rng):
    clean = eval_program(prog, ins, truth, PROPAGATE_POLICY)
    return Value.batch_vectors(clean.data * (1.0 + NOISE * rng.standard_normal(clean.data.shape)))


def fit_g(seed: int = DEFAULT_SEED, epochs: int = ADAM_EPOCHS):
    rng = np.random.default_rng(seed)
    prog = program()
    truth = truth_store({"G": TRUE_G})
    store = init_param_store({"G": TRUE_G}, None, rng)

    def loss_fn(ctx):
        ins = sample_inputs(rng, BATCH)
        target = _noisy_targets(prog, truth, ins, rng)
        return ctx.mse(ctx.run(prog, ins, store), target)

    curve = training.fit(loss_fn, [(store, 1e-2, 1e-4)], epochs, record_every=25)

    # least-squares polish on one fixed large draw
    fixed = sample_inputs(np.random.default_rng(seed + 55), 60_000)
    noisy = _noisy_targets(prog, truth, fixed, np.random.default_rng(seed + 56)).data

    def residuals():
        pred = eval_program(prog, fixed, store, PROPAGATE_POLICY)
        return (pred.data - noisy).ravel()

    gauss_newton(store, ["G"], residuals)
    g_err = abs(float(store["G"].value.data) - TRUE_G) / TRUE_G
    return store, g_err, curve


def test_mse(predict_fn, seed: int, n: int = 10_000) -> float:
    rng = np.random.default_rng(seed + 101)
    ins = sample_inputs(rng, n)
    clean = eval_program(program(), ins, truth_store({"G": TRUE_G}), PROPAGATE_POLICY)
    pred = predict_fn(ins)
    return float(np.mean((pred - clean.data) ** 2))


def fit_mlp(seed: int = DEFAULT_SEED, epochs: int = MLP_EPOCHS):
    rng = np.random.default_rng(seed + 1)
    prog = program()
    truth = truth_store({"G": TRUE_G})
    model = MlpModel([5, 64, 64, 64, 3], activation="relu", rng=rng)

    def loss_fn(ctx):
        ins = sample_inputs(rng, 1024)
        target = _noisy_targets(prog, truth, ins, rng)
        return ctx.mse(mlp_forward(ctx, model, _pack(ctx, ins)), target)

    training.fit(loss_fn, [(model.store, 1e-3, 1e-3)], epochs, record_every=epochs)
    return model


def _pack(ctx, ins):
    r = ctx.lift(ins["r"])
    comps = [ctx.lift(ins["m1"]), ctx.lift(ins["m2"])]
    for i in range(3):
        comps.append(ctx.prim("ref", r, aux=float(i)))
    return pack_scalars(ctx, comps)


def run(seed: int = DEFAULT_SEED, epochs_scale: float = 1.0):
    rows = []
    curves = {}
    store, g_err, curve = fit_g(seed=seed, epochs=max(50, int(round(ADAM_EPOCHS * epochs_scale))))
    curves["gravity3d_fit"] = curve
    rows.append(ResultRow("vector3d", "compiled", "G:rel_err", g_err, 1e-3, "<="))

    compiled_mse = test_mse(
        lambda ins: eval_program(program(), ins, store, PROPAGATE_POLICY).data, seed
    )
    rows.append(ResultRow("vector3d", "compiled", "test_mse", compiled_mse,
                          informational=True))

    model = fit_mlp(seed=seed, epochs=max(50, int(round(MLP_EPOCHS * epochs_scale))))

    def mlp_predict(ins):
        ctx = TapeContext(PROPAGATE_POLICY)
        return mlp_forward(ctx, model, _pack(ctx, ins)).value.data

    mlp_mse = test_mse(mlp_predict, seed)
    rows.append(ResultRow("vector3d", "mlp", "test_mse", mlp_mse, informational=True))
    rows.append(ResultRow("vector3d", "mlp", "params", float(model.param_count),
                          informational=True))
    ratio = mlp_mse / compiled_mse if compiled_mse > 0 else float("inf")
    rows.append(ResultRow("vector3d", "compiled", "mlp_to_compiled_mse_ratio",
                          ratio, 1e4, ">="))
    return rows, curves
