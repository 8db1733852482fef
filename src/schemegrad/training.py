"""The training loop every fit shares (`fit`: Adam under a cosine
learning-rate schedule), and coefficient recovery on top of it: draw batches
from declared input ranges, compare against noisy targets, and fit the
program's named parameters."""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def max_recovery_error(self) -> float:
        return max(self.recovery_errors.values()) if self.recovery_errors else 0.0


TEST_SIZE = 10_000  # points in each held-out test and extrapolation draw


def fit(loss_fn, groups, epochs: int, record_every: int) -> list:
    """Adam under a cosine schedule, one epoch per loss.

    Each epoch builds the loss with `loss_fn(ctx)` on a fresh
    propagate-mode `TapeContext`, raises `NonFiniteLoss` if it is not
    finite, zeroes every group's gradients, runs one backward, and steps
    each `(store, lr0, lr1)` group with its own Adam state at
    `cosine_lr(epoch, epochs, lr0, lr1)` (`lr0 == lr1` is a constant rate).
    Returns the loss curve: `(epoch, loss)` every `record_every` epochs and
    at the last one.
    """
    states = [AdamState(lr=lr0) for _, lr0, _ in groups]
    curve = []
    for epoch in range(epochs):
        ctx = TapeContext(PROPAGATE_POLICY)
        loss = loss_fn(ctx)
        value = float(loss.value.data)
        if not np.isfinite(value):
            raise NonFiniteLoss(epoch, value)
        for store, _, _ in groups:
            store.zero_grads()
        ctx.backward(loss)
        for (store, lr0, lr1), state in zip(groups, states):
            adam_step(store, state, lr=cosine_lr(epoch, epochs, lr0, lr1))
        if epoch % record_every == 0 or epoch == epochs - 1:
            curve.append((epoch, value))
    return curve


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
    store = init_param_store(true_params, frozen_params, rng, prior_scales)

    def loss_fn(ctx):
        inputs = draw_inputs(data.ranges, data.batch, rng)
        clean = eval_program(prog, inputs, truth, PROPAGATE_POLICY)
        noisy = clean.data * (1.0 + data.noise * rng.standard_normal(clean.data.shape))
        return ctx.mse(ctx.run(prog, inputs, store), Value(noisy, clean.kind, clean.batched))

    curve = fit(loss_fn, [(store, optim.lr0, optim.lr1)], epochs, record_every=10)

    if polish_samples > 0:
        fixed = draw_inputs(data.ranges, polish_samples, rng)
        clean = eval_program(prog, fixed, truth, PROPAGATE_POLICY)
        target = clean.data * (1.0 + data.noise * rng.standard_normal(clean.data.shape))

        def residuals():
            pred = eval_program(prog, fixed, store, PROPAGATE_POLICY)
            return (pred.data - target).ravel()

        gauss_newton(store, list(true_params), residuals)

    finals = {name: float(store[name].value.data) for name in true_params}
    recovery = {name: abs(finals[name] - t) / abs(t) for name, t in true_params.items()}
    test_rng = np.random.default_rng(seed + 101)

    def held_out_mse(ranges) -> float:
        ins = draw_inputs(ranges, TEST_SIZE, test_rng)
        clean = eval_program(prog, ins, truth, PROPAGATE_POLICY)
        pred = eval_program(prog, ins, store, PROPAGATE_POLICY)
        return float(np.mean((pred.data - clean.data) ** 2))

    return store, TrainingReport(
        final_params=finals,
        recovery_errors=recovery,
        loss_curve=curve,
        test_mse=held_out_mse(data.ranges),
        extrap_mse=held_out_mse(extrapolation_ranges(data.ranges)),
        epochs=epochs,
        seed=seed,
    )
