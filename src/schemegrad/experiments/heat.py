"""1D diffusion on a 10-point grid: recover the diffusivity through the
compiled update rule (experiment 1) and learn an unknown source term next
to the known diffusion operator (experiment 2)."""

from __future__ import annotations

import numpy as np

from .. import training
from ..compiler import compile_source
from ..machine import eval_program
from ..nn import MlpModel, mlp_forward
from ..optim import gauss_newton
from ..runtime import PROPAGATE_POLICY
from ..training import init_param_store, truth_store
from ..values import Value
from .registry import HEAT_STEP
from .report import ResultRow

N_GRID = 10
DT = 0.1
TRUE_ALPHA = 0.01
N_TRAIN_IC = 50
N_TEST_IC = 20
N_STEPS = 5
EXTRAP_STEPS = 20  # 4x the training horizon
DEFAULT_SEED = 5
ADAM_EPOCHS = 400
HYBRID_EPOCHS = 3000

SOURCE_TERM = 0.02 * np.sin(2.0 * np.pi * (np.arange(N_GRID) + 0.5) / N_GRID)


def laplacian() -> np.ndarray:
    L = np.zeros((N_GRID, N_GRID))
    idx = np.arange(N_GRID)
    L[idx, idx] = -2.0
    L[idx[:-1], idx[:-1] + 1] = 1.0
    L[idx[1:], idx[1:] - 1] = 1.0
    return L


def step_program():
    return compile_source(HEAT_STEP.source, inputs=("u", "L", "dt"), params=("alpha",))


def rollout(prog, store, u0: np.ndarray, n_steps: int, source: np.ndarray | None = None):
    """Batched explicit stepping; returns [n_steps, B, N] of states after
    each step."""
    L = Value.matrix(laplacian())
    u = Value.batch_vectors(np.asarray(u0, dtype=np.float64))
    states = []
    for _ in range(n_steps):
        u = eval_program(prog, {"u": u, "L": L, "dt": DT}, store, PROPAGATE_POLICY)
        if source is not None:
            u = Value.batch_vectors(u.data + source)
        states.append(u.data.copy())
    return np.asarray(states)


def make_dataset(rng, n_ic: int, n_steps: int, source: np.ndarray | None = None):
    u0 = rng.uniform(0.0, 1.0, size=(n_ic, N_GRID))
    prog = step_program()
    states = rollout(prog, truth_store({"alpha": TRUE_ALPHA}), u0, n_steps, source)
    return u0, states


def fit_alpha(seed: int = DEFAULT_SEED, epochs: int = ADAM_EPOCHS):
    rng = np.random.default_rng(seed)
    u0, targets = make_dataset(rng, N_TRAIN_IC, N_STEPS)
    prog = step_program()
    store = init_param_store({"alpha": TRUE_ALPHA}, None, rng)
    L = Value.matrix(laplacian())

    def loss_fn(ctx):
        u = ctx.lift(Value.batch_vectors(u0))
        terms = []
        for step in range(N_STEPS):
            u = ctx.run(prog, {"u": u, "L": L, "dt": DT}, store)
            terms.append(ctx.mse(u, Value.batch_vectors(targets[step])))
        loss = terms[0]
        for t in terms[1:]:
            loss = ctx.add(loss, t)
        return loss

    curve = training.fit(loss_fn, [(store, 1e-3, 1e-6)], epochs, record_every=20)

    def residuals():
        pred = rollout(prog, store, u0, N_STEPS)
        return (pred - targets).ravel()

    gauss_newton(store, ["alpha"], residuals, fd_step=1e-8)
    alpha = float(store["alpha"].value.data)
    return store, abs(alpha - TRUE_ALPHA) / TRUE_ALPHA, curve


def eval_mse(store, seed: int, n_steps: int) -> float:
    rng = np.random.default_rng(seed + 11)
    u0, targets = make_dataset(rng, N_TEST_IC, n_steps)
    prog = step_program()
    pred = rollout(prog, store, u0, n_steps)
    return float(np.mean((pred - targets) ** 2))


# --- experiment 2: diffusion plus unknown source -----------------------------


def _one_step_pairs(rng, source):
    u0, states = make_dataset(rng, N_TRAIN_IC, N_STEPS, source)
    xs = np.concatenate([u0[None]] + [states[:-1]], axis=0).reshape(-1, N_GRID)
    ys = states.reshape(-1, N_GRID)
    return xs, ys


def fit_hybrid(seed: int = DEFAULT_SEED, epochs: int = HYBRID_EPOCHS):
    """alpha plus a dense correction head, trained jointly on one-step
    pairs that include the hidden source term.  alpha gets its own
    optimizer scaled to its magnitude so the correction head cannot push
    it around."""
    rng = np.random.default_rng(seed + 1)
    xs, ys = _one_step_pairs(rng, SOURCE_TERM)
    prog = step_program()
    model = MlpModel([N_GRID, 96, N_GRID], activation="tanh", rng=rng, zero_output=True)
    alpha_store = init_param_store({"alpha": TRUE_ALPHA}, None, rng)
    L = Value.matrix(laplacian())
    x_v = Value.batch_vectors(xs)
    y_v = Value.batch_vectors(ys)

    def loss_fn(ctx):
        u = ctx.lift(x_v)
        known = ctx.run(prog, {"u": u, "L": L, "dt": DT}, alpha_store)
        return ctx.mse(ctx.add(known, mlp_forward(ctx, model, u)), y_v)

    curve = training.fit(loss_fn, [(model.store, 1e-3, 1e-5), (alpha_store, 1e-4, 1e-8)],
                         epochs, record_every=50)
    return model, curve[-1][1], float(alpha_store["alpha"].value.data), curve


def fit_pure_mlp(seed: int = DEFAULT_SEED, epochs: int = HYBRID_EPOCHS):
    rng = np.random.default_rng(seed + 2)
    xs, ys = _one_step_pairs(rng, SOURCE_TERM)
    model = MlpModel([N_GRID, 64, 64, 64, N_GRID], activation="relu", rng=rng)
    x_v = Value.batch_vectors(xs)
    y_v = Value.batch_vectors(ys)
    curve = training.fit(lambda ctx: ctx.mse(mlp_forward(ctx, model, ctx.lift(x_v)), y_v),
                         [(model.store, 1e-3, 1e-5)], epochs, record_every=50)
    return model, curve[-1][1], curve


def run(seed: int = DEFAULT_SEED, epochs_scale: float = 1.0):
    rows = []
    curves = {}
    epochs = max(50, int(round(ADAM_EPOCHS * epochs_scale)))

    store, alpha_err, curve = fit_alpha(seed=seed, epochs=epochs)
    curves["heat_alpha"] = curve
    rows.append(ResultRow("heat", "compiled", "alpha:rel_err", alpha_err, 1e-4, "<="))
    rows.append(ResultRow("heat", "compiled", "trainable_params",
                          float(store.num_trainable), 1.0, "=="))
    rows.append(ResultRow("heat", "compiled", "mse_interp",
                          eval_mse(store, seed, N_STEPS), 1e-12, "<="))
    rows.append(ResultRow("heat", "compiled", "mse_extrap_4x",
                          eval_mse(store, seed, EXTRAP_STEPS), 1e-12, "<="))

    h_epochs = max(100, int(round(HYBRID_EPOCHS * epochs_scale)))
    _, hybrid_loss, hybrid_alpha, curve = fit_hybrid(seed=seed, epochs=h_epochs)
    curves["heat_hybrid"] = curve
    _, mlp_loss, curve = fit_pure_mlp(seed=seed, epochs=h_epochs)
    curves["heat_pure_mlp"] = curve
    rows.append(ResultRow("heat", "hybrid", "final_train_loss", hybrid_loss,
                          informational=True))
    rows.append(ResultRow("heat", "hybrid", "alpha_learned", hybrid_alpha,
                          informational=True))
    rows.append(ResultRow("heat", "mlp", "final_train_loss", mlp_loss,
                          informational=True))
    ratio = mlp_loss / hybrid_loss if hybrid_loss > 0 else float("inf")
    rows.append(ResultRow("heat", "hybrid", "mlp_to_hybrid_loss_ratio",
                          ratio, 20.0, ">="))
    return rows, curves
