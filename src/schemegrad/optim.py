"""Adam with bias correction, the standalone MSE helper, and the cosine
learning-rate schedule used for coefficient recovery."""

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
