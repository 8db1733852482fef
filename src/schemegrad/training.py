"""Coefficient-recovery training: draw batches from declared input ranges,
compare against noisy targets, and fit the program's named parameters with
Adam under a cosine learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParameterStore, TapeContext
from .errors import NonFiniteLoss
from .machine import eval_program
from .optim import AdamState, adam_step, cosine_lr, gauss_newton
from .runtime import PROPAGATE_POLICY
from .values import Value


@dataclass
class DataSpec:
    ranges: dict  # input name -> (lo, hi)
    noise: float = 0.02
    batch: int = 10_000
    test_size: int = 10_000


@dataclass
class OptimSpec:
    lr0: float = 1e-2
    lr1: float = 1e-4


@dataclass
class TrainingReport:
    final_params: dict
    recovery_errors: dict  # trainable name -> relative error vs truth
    loss_curve: list  # (epoch, train loss)
    test_mse: float | None = None
    extrap_mse: float | None = None
    epochs: int = 0
    seed: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def max_recovery_error(self) -> float:
        return max(self.recovery_errors.values()) if self.recovery_errors else 0.0


def init_param_store(true_params: dict, frozen_params: dict | None, rng,
                     prior_scales: dict | None = None) -> ParameterStore:
    """Trainables start at uniform [0.5, 2.0] times their prior scale
    (default: the true value); frozen entries sit at their known values."""
    store = ParameterStore()
    prior_scales = prior_scales or {}
    for name, truth in true_params.items():
        scale = prior_scales.get(name, truth)
        store.add(name, float(rng.uniform(0.5, 2.0)) * scale, trainable=True)
    for name, value in (frozen_params or {}).items():
        store.add(name, value, trainable=False)
    return store


def truth_store(true_params: dict, frozen_params: dict | None = None) -> ParameterStore:
    store = ParameterStore()
    for name, v in true_params.items():
        store.add(name, v, trainable=True)
    for name, v in (frozen_params or {}).items():
        store.add(name, v, trainable=False)
    return store


def draw_inputs(ranges: dict, batch: int, rng) -> dict:
    return {
        name: Value.batch_scalars(rng.uniform(lo, hi, size=batch))
        for name, (lo, hi) in ranges.items()
    }


def extrapolation_ranges(ranges: dict, factor: float = 5.0) -> dict:
    """Widen each range to `factor` times its span, anchored at the lower
    end so singular points below the training range stay excluded."""
    return {
        name: (lo, lo + factor * (hi - lo))
        for name, (lo, hi) in ranges.items()
    }


def train_coefficients(
    prog,
    true_params: dict,
    data: DataSpec,
    epochs: int,
    seed: int = 0,
    optim: OptimSpec | None = None,
    frozen_params: dict | None = None,
    prior_scales: dict | None = None,
    record_every: int = 10,
    store: ParameterStore | None = None,
    polish_samples: int = 0,
) -> tuple[ParameterStore, TrainingReport]:
    """Fit the program's trainable parameters to noisy evaluations of the
    same program at the true parameter values.

    With `polish_samples` > 0, a deterministic Gauss-Newton pass on one
    fixed noisy draw finishes the descent below Adam's stochastic floor.
    """
    optim = optim or OptimSpec()
    rng = np.random.default_rng(seed)
    truth = truth_store(true_params, frozen_params)
    if store is None:
        store = init_param_store(true_params, frozen_params, rng, prior_scales)
    adam = AdamState(lr=optim.lr0)
    curve = []

    for epoch in range(epochs):
        inputs = draw_inputs(data.ranges, data.batch, rng)
        clean = eval_program(prog, inputs, truth, PROPAGATE_POLICY)
        noisy = clean.data * (1.0 + data.noise * rng.standard_normal(clean.data.shape))
        target = Value(noisy, clean.kind, clean.batched)

        ctx = TapeContext(PROPAGATE_POLICY)
        out = ctx.run(prog, inputs, store)
        loss = ctx.mse(out, target)
        loss_val = float(loss.value.data)
        if not np.isfinite(loss_val):
            raise NonFiniteLoss(epoch, loss_val)
        store.zero_grads()
        ctx.backward(loss)
        adam_step(store, adam, lr=cosine_lr(epoch, epochs, optim.lr0, optim.lr1))
        if epoch % record_every == 0 or epoch == epochs - 1:
            curve.append((epoch, loss_val))

    if polish_samples > 0:
        fixed = draw_inputs(data.ranges, polish_samples, rng)
        clean = eval_program(prog, fixed, truth, PROPAGATE_POLICY)
        target = clean.data * (1.0 + data.noise * rng.standard_normal(clean.data.shape))

        def residuals():
            pred = eval_program(prog, fixed, store, PROPAGATE_POLICY)
            return (pred.data - target).ravel()

        gauss_newton(store, list(true_params), residuals)

    recovery = {}
    finals = {}
    for name, truth_v in true_params.items():
        fitted = float(store[name].value.data)
        finals[name] = fitted
        recovery[name] = abs(fitted - truth_v) / abs(truth_v)

    test_rng = np.random.default_rng(seed + 101)
    test_inputs = draw_inputs(data.ranges, data.test_size, test_rng)
    test_clean = eval_program(prog, test_inputs, truth, PROPAGATE_POLICY)
    test_pred = eval_program(prog, test_inputs, store, PROPAGATE_POLICY)
    test_mse = float(np.mean((test_pred.data - test_clean.data) ** 2))

    ex_inputs = draw_inputs(extrapolation_ranges(data.ranges), data.test_size, test_rng)
    ex_clean = eval_program(prog, ex_inputs, truth, PROPAGATE_POLICY)
    ex_pred = eval_program(prog, ex_inputs, store, PROPAGATE_POLICY)
    extrap_mse = float(np.mean((ex_pred.data - ex_clean.data) ** 2))

    report = TrainingReport(
        final_params=finals,
        recovery_errors=recovery,
        loss_curve=curve,
        test_mse=test_mse,
        extrap_mse=extrap_mse,
        epochs=epochs,
        seed=seed,
    )
    return store, report
