"""Adam with bias correction, the standalone MSE helper, the cosine
learning-rate schedule used for coefficient recovery, and the Gauss-Newton
polish that ends each fit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParameterStore
from .errors import ShapeMismatch
from .nn import _mse, _vjp_mse
from .values import Value


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(store: ParameterStore, state: AdamState, lr: float | None = None) -> None:
    """One Adam update over every trainable entry; gradients are left
    untouched (the caller zeroes them)."""
    state.step += 1
    t = state.step
    lr = state.lr if lr is None else lr
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name in store.trainable_names():
        g = store.require_grad(name)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(g)
            state.m[name] = m
            state.v[name] = np.zeros_like(g)
        v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / bias1
        v_hat = v / bias2
        entry = store[name]
        new = entry.value.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)
        store.set_value(name, new)


def cosine_lr(step: int, total: int, lr0: float, lr1: float) -> float:
    """Cosine decay from lr0 to lr1 over `total` steps."""
    if total <= 1:
        return lr1
    t = min(max(step, 0), total - 1) / (total - 1)
    return lr1 + 0.5 * (lr0 - lr1) * (1.0 + math.cos(math.pi * t))


def mse_loss(pred: Value, target: Value):
    """Mean squared error plus the matching backward seed
    2*(pred-target)/count: the forward and, at g = 1, the VJP of the
    tape's ``mse`` record."""
    pred = Value.of(pred)
    target = Value.of(target)
    try:
        loss = _mse([pred, target])
    except ShapeMismatch:
        raise ShapeMismatch(
            f"mse_loss: shapes {pred.data.shape} vs {target.data.shape}"
        ) from None
    grad = _vjp_mse(1.0, (pred, target), loss, None, (True, False))[0]
    return loss, Value(grad, pred.kind, pred.batched)


def gauss_newton(store, names, residuals, iterations: int = 12,
                 fd_step: float = 1e-6, damping: float = 1e-10) -> None:
    """Deterministic Gauss-Newton on a residual vector over named scalar
    parameters.

    Once observations are drawn these fits are fixed nonlinear
    least-squares objectives; first-order optimizers stall well above
    machine precision in their ill-conditioned valleys, so the final
    approach uses the normal equations with a finite-difference Jacobian.
    """
    for _ in range(iterations):
        r0 = residuals()
        m = r0.size
        J = np.empty((m, len(names)))
        for k, name in enumerate(names):
            base = float(store[name].value.data)
            store.set_value(name, base + fd_step)
            up = residuals()
            store.set_value(name, base - fd_step)
            down = residuals()
            store.set_value(name, base)
            J[:, k] = (up - down) / (2.0 * fd_step)
        jtj = J.T @ J
        jtr = J.T @ r0
        mu = damping * np.trace(jtj) / len(names)
        try:
            delta = np.linalg.solve(jtj + mu * np.eye(len(names)), -jtr)
        except np.linalg.LinAlgError:
            break
        new_loss = None
        scale = 1.0
        loss0 = float(np.mean(r0 * r0))
        for _ in range(8):  # backtracking keeps steps from overshooting
            for k, name in enumerate(names):
                store.set_value(name, float(store[name].value.data) + scale * delta[k])
            r1 = residuals()
            new_loss = float(np.mean(r1 * r1))
            if new_loss <= loss0 or scale < 1e-6:
                break
            for k, name in enumerate(names):
                store.set_value(name, float(store[name].value.data) - scale * delta[k])
            scale *= 0.5
        if new_loss is not None and abs(loss0 - new_loss) <= 1e-30:
            break
