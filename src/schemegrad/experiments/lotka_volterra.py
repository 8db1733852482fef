"""Predator-prey rate-constant recovery from noisy trajectories via RK4
integration with multiple shooting, plus the noise-robustness sweep."""

from __future__ import annotations

import numpy as np

from .. import training
from ..compiler import compile_source
from ..ode import (
    OdeSystem,
    ShootingConfig,
    gauss_newton_refine,
    make_compiled_rhs,
    multiple_shooting_loss,
    rollout,
)
from ..training import init_param_store, truth_store
from .registry import LV_PRED, LV_PREY
from .report import ResultRow

TRUE_PARAMS = {"alpha": 1.5, "beta": 1.0, "delta": 1.0, "gamma": 3.0}
Y0 = (1.0, 1.0)
DT = 0.1
T_END = 12.0
SEGMENT_LENGTH = 10

# noise level -> reference max recovery error from the robustness study;
# the sweep asserts within 2x of these
NOISE_REFERENCE = {0.0: 0.0, 0.01: 0.00663, 0.02: 0.01166, 0.05: 0.03232, 0.10: 0.10846}


def _programs():
    prey = compile_source(LV_PREY.source, inputs=("x", "y"), params=("alpha", "beta"))
    pred = compile_source(LV_PRED.source, inputs=("x", "y"), params=("delta", "gamma"))
    return prey, pred


def make_system(store) -> OdeSystem:
    prey, pred = _programs()
    rhs = make_compiled_rhs([prey, pred], [store, store], ("x", "y"))
    return OdeSystem(rhs=rhs, state_dim=2, dt=DT)


def generate_observations():
    """Clean trajectory from the true parameters, produced by the same RK4
    stepper the model trains with."""
    return rollout(make_system(truth_store(TRUE_PARAMS)), Y0, int(round(T_END / DT)))


def add_noise(obs: np.ndarray, noise: float, rng) -> np.ndarray:
    if noise == 0.0:
        return obs.copy()
    return obs * (1.0 + noise * rng.standard_normal(obs.shape))


def fit(noise: float = 0.02, epochs: int = 3000, seed: int = 0):
    rng = np.random.default_rng(seed)
    clean = generate_observations()
    noisy = add_noise(clean, noise, rng)
    store = init_param_store(TRUE_PARAMS, None, rng)
    sys = make_system(store)
    cfg = ShootingConfig(segment_length=SEGMENT_LENGTH, observations=noisy)
    curve = training.fit(lambda ctx: multiple_shooting_loss(ctx, sys, cfg),
                         [(store, 1e-2, 1e-5)], epochs, record_every=25)
    # the shooting objective is deterministic once observations are drawn;
    # finish the descent to its actual minimum
    gauss_newton_refine(store, sys, cfg, list(TRUE_PARAMS))
    errors = {
        name: abs(float(store[name].value.data) - tv) / abs(tv)
        for name, tv in TRUE_PARAMS.items()
    }
    return store, errors, curve, clean


def trajectory_mse(store, clean: np.ndarray, horizon_steps: int) -> float:
    """Rollout from the training initial condition under fitted parameters,
    compared to the true-parameter rollout over the given horizon."""
    ref = rollout(make_system(truth_store(TRUE_PARAMS)), Y0, horizon_steps)
    fitted = rollout(make_system(store), Y0, horizon_steps)
    return float(np.mean((ref - fitted) ** 2))


DEFAULT_SEED = 42
ADAM_EPOCHS = 1200  # Adam reaches the basin; Gauss-Newton finishes the descent


def run(seed: int = DEFAULT_SEED, epochs_scale: float = 1.0, with_sweep: bool = True):
    rows = []
    curves = {}
    epochs = max(50, int(round(ADAM_EPOCHS * epochs_scale)))

    store, errors, curve, clean = fit(noise=0.02, epochs=epochs, seed=seed)
    curves["lv_fit_2pct"] = curve
    for name, err in errors.items():
        rows.append(ResultRow("lotka_volterra", "compiled", f"{name}:rel_err",
                              err, 0.015, "<="))
    n = int(round(T_END / DT))
    rows.append(ResultRow("lotka_volterra", "compiled", "traj_mse_in_dist",
                          trajectory_mse(store, clean, n), informational=True))
    rows.append(ResultRow("lotka_volterra", "compiled", "traj_mse_2x",
                          trajectory_mse(store, clean, 2 * n), informational=True))
    rows.append(ResultRow("lotka_volterra", "compiled", "traj_mse_5x",
                          trajectory_mse(store, clean, 5 * n), informational=True))

    if with_sweep:
        rows.extend(noise_sweep(seed=seed, epochs_scale=epochs_scale, curves=curves))
    return rows, curves


def noise_sweep(seed: int = DEFAULT_SEED, epochs_scale: float = 1.0, curves: dict | None = None):
    """Recovery error vs observation noise; each level must stay within 2x
    of the reference pattern (and be essentially exact at zero noise)."""
    rows = []
    epochs = max(50, int(round(ADAM_EPOCHS * epochs_scale)))
    for noise, reference in NOISE_REFERENCE.items():
        _, errors, curve, _ = fit(noise=noise, epochs=epochs, seed=seed + int(noise * 1000))
        max_err = max(errors.values())
        if curves is not None:
            curves[f"lv_sweep_{int(noise * 100)}pct"] = curve
        if noise == 0.0:
            rows.append(ResultRow("lotka_volterra", "compiled",
                                  "sweep_0pct:max_err", max_err, 1e-6, "<="))
        else:
            rows.append(ResultRow(
                "lotka_volterra", "compiled",
                f"sweep_{int(noise * 100)}pct:max_err", max_err,
                2.0 * reference, "<=",
            ))
    return rows
