"""Damped pendulum: full-structure parameter recovery (scenario 1), a
gravity-term-plus-learned-damping hybrid (scenario 2), and a dense-network
ODE baseline under the same shooting protocol."""

from __future__ import annotations

import numpy as np

from .. import training
from ..compiler import compile_source
from ..nn import MlpModel
from ..ode import (
    CompiledRhs,
    OdeSystem,
    ShootingConfig,
    gauss_newton_refine,
    make_compiled_rhs,
    make_mlp_rhs,
    multiple_shooting_loss,
    rollout,
    segment_count,
)
from ..training import init_param_store, truth_store
from .registry import PENDULUM_DOMEGA
from .report import ResultRow

TRUE_PARAMS = {"g_L": 9.81, "b": 0.25}
Y0 = (1.2, 0.0)  # canonical initial condition for trajectory-error reporting
DT = 0.1
T_END = 12.0
SEGMENT_LENGTH = 10
DEFAULT_SEED = 7
ADAM_EPOCHS = 600  # basin-finding; Gauss-Newton completes the descent
MLP_EPOCHS = 800
NOISE = 0.02
N_TRAJECTORIES = 96  # one noisy trajectory pins b too loosely at 2% noise


def training_ics(rng) -> list:
    # velocity-rich starts carry most of the damping information
    ics = [Y0]
    while len(ics) < N_TRAJECTORIES:
        theta0 = float(rng.uniform(0.4, 1.4))
        omega0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.5))
        ics.append((theta0, omega0))
    return ics


def _dtheta_prog():
    return compile_source("omega", inputs=("theta", "omega"))


def _domega_prog():
    return compile_source(PENDULUM_DOMEGA.source, inputs=("theta", "omega"),
                          params=("g_L", "b"))


def make_system(store) -> OdeSystem:
    rhs = make_compiled_rhs([_dtheta_prog(), _domega_prog()], [store, store],
                            ("theta", "omega"))
    return OdeSystem(rhs=rhs, state_dim=2, dt=DT)


def make_hybrid_system(store, model) -> OdeSystem:
    """Scenario 2's system: d theta = omega, and d omega the compiled gravity
    term (``g_L`` from ``store``) plus component 0 of ``model``."""
    gravity = compile_source("(* (- 0 g_L) (sin theta))", inputs=("theta", "omega"),
                             params=("g_L",))

    def derivatives(ctx, state):
        theta, omega = state
        known = ctx.run(gravity, {"theta": theta, "omega": omega}, store)
        corr = ctx.run(model.program, {"x": ctx.prim("vec", theta, omega)}, model.store)
        return (omega, ctx.add(known, ctx.prim("ref", corr, aux=0.0)))

    return OdeSystem(rhs=CompiledRhs(("theta", "omega"), derivatives), state_dim=2, dt=DT)


def generate_observations(ics) -> list:
    """Clean trajectories from the true parameters, one [T+1, 2] array per
    initial condition, stepped together as one batched rollout."""
    return list(rollout(make_system(truth_store(TRUE_PARAMS)), ics, int(round(T_END / DT))))


def trajectory_mse(sys: OdeSystem, horizon_steps: int) -> float:
    """MSE of the rollout of `sys` from Y0 against the true-parameter one."""
    ref = rollout(make_system(truth_store(TRUE_PARAMS)), Y0, horizon_steps)
    return float(np.mean((ref - rollout(sys, Y0, horizon_steps)) ** 2))


MINIBATCH_SEGMENTS = 256


def _shooting_fit(sys, cfg, groups, epochs, seed):
    """Adam on the shooting loss over a random minibatch of segments each
    epoch (all of them when there are few)."""
    rng = np.random.default_rng(seed + 77)
    n_seg = segment_count(cfg)

    def loss_fn(ctx):
        idx = None
        if n_seg > MINIBATCH_SEGMENTS:
            idx = rng.choice(n_seg, size=MINIBATCH_SEGMENTS, replace=False)
        return multiple_shooting_loss(ctx, sys, cfg, segment_indices=idx)

    return training.fit(loss_fn, groups, epochs, record_every=25)


def _noisy_observations(rng, noise: float):
    clean = generate_observations(ics=training_ics(rng))
    return [o * (1.0 + noise * rng.standard_normal(o.shape)) for o in clean]


def fit_s1(seed: int = DEFAULT_SEED, epochs: int = ADAM_EPOCHS, noise: float = NOISE):
    rng = np.random.default_rng(seed)
    noisy = _noisy_observations(rng, noise)
    store = init_param_store(TRUE_PARAMS, None, rng)
    cfg = ShootingConfig(SEGMENT_LENGTH, noisy)
    sys = make_system(store)
    curve = _shooting_fit(sys, cfg, [(store, 1e-2, 1e-5)], epochs, seed)
    gauss_newton_refine(store, sys, cfg, list(TRUE_PARAMS))
    errors = {n: abs(float(store[n].value.data) - tv) / tv for n, tv in TRUE_PARAMS.items()}
    return store, errors, curve, noisy


def fit_mlp_baseline(seed: int = DEFAULT_SEED, epochs: int = MLP_EPOCHS,
                     noise: float = NOISE):
    rng = np.random.default_rng(seed + 1)
    noisy = _noisy_observations(rng, noise)
    model = MlpModel([2, 64, 64, 64, 2], activation="relu", rng=rng)
    sys = OdeSystem(rhs=make_mlp_rhs(model, 2), state_dim=2, dt=DT)
    curve = _shooting_fit(sys, ShootingConfig(SEGMENT_LENGTH, noisy),
                          [(model.store, 3e-3, 1e-4)], epochs, seed)
    return model, sys, curve


def fit_s2_hybrid(seed: int = DEFAULT_SEED, epochs: int = ADAM_EPOCHS,
                  noise: float = NOISE):
    """Compiled gravity term with trainable g_L plus a learned correction
    consuming (theta, omega); the correction must absorb the damping."""
    rng = np.random.default_rng(seed + 2)
    noisy = _noisy_observations(rng, noise)
    store = init_param_store({"g_L": TRUE_PARAMS["g_L"]}, None, rng)
    model = MlpModel([2, 33, 33, 1], activation="tanh", rng=rng)
    sys = make_hybrid_system(store, model)
    curve = _shooting_fit(sys, ShootingConfig(SEGMENT_LENGTH, noisy),
                          [(store, 3e-3, 1e-4), (model.store, 3e-3, 1e-4)], epochs, seed)
    final_loss = curve[-1][1]
    g_err = abs(float(store["g_L"].value.data) - TRUE_PARAMS["g_L"]) / TRUE_PARAMS["g_L"]
    return store, model, sys, final_loss, g_err, curve


def run(seed: int = DEFAULT_SEED, epochs_scale: float = 1.0):
    rows = []
    curves = {}
    epochs = max(50, int(round(ADAM_EPOCHS * epochs_scale)))
    n = int(round(T_END / DT))

    store, errors, curve, _ = fit_s1(seed=seed, epochs=epochs)
    curves["pendulum_s1"] = curve
    rows.append(ResultRow("pendulum", "compiled", "g_L:rel_err", errors["g_L"], 0.005, "<="))
    rows.append(ResultRow("pendulum", "compiled", "b:rel_err", errors["b"], 0.01, "<="))
    rows.append(ResultRow("pendulum", "compiled", "trainable_params",
                          float(store.num_trainable), 2.0, "=="))
    compiled_mse = trajectory_mse(make_system(store), n)
    rows.append(ResultRow("pendulum", "compiled", "traj_mse_in_dist",
                          compiled_mse, informational=True))

    model, mlp_sys, curve = fit_mlp_baseline(seed=seed, epochs=max(50, int(round(MLP_EPOCHS * epochs_scale))))
    curves["pendulum_mlp"] = curve
    mlp_mse = trajectory_mse(mlp_sys, n)
    rows.append(ResultRow("pendulum", "mlp_ode_rhs", "traj_mse_in_dist",
                          mlp_mse, informational=True))
    ratio = mlp_mse / compiled_mse if compiled_mse > 0 else float("inf")
    rows.append(ResultRow("pendulum", "compiled", "mlp_to_compiled_mse_ratio",
                          ratio, 100.0, ">="))

    h_store, h_model, h_sys, h_loss, h_gerr, curve = fit_s2_hybrid(seed=seed, epochs=epochs)
    curves["pendulum_s2_hybrid"] = curve
    hybrid_mse = trajectory_mse(h_sys, n)
    rows.append(ResultRow("pendulum", "hybrid", "traj_mse_in_dist",
                          hybrid_mse, 5e-3, "<="))
    rows.append(ResultRow("pendulum", "hybrid", "beats_pure_mlp",
                          float(hybrid_mse < mlp_mse), 1.0, "=="))
    rows.append(ResultRow("pendulum", "hybrid", "g_L:rel_err", h_gerr, informational=True))
    rows.append(ResultRow("pendulum", "hybrid", "recovery_degraded_vs_s1",
                          float(h_gerr > errors["g_L"]), informational=True))
    return rows, curves
