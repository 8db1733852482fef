"""Minimal dense network built on the tape: fused linear layers, relu/tanh,
an MSE record, and the hybrid/composition forward patterns."""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterStore, TapeContext, TapeRef
from .errors import EmptyObservations, ShapeMismatch
from .ops import Op, register
from .values import Value


# ---------------------------------------------------------------------------
# tape records: op rows that are no language names


def _linear(args, policy=None) -> Value:
    x, w, b = args
    return Value(np.matmul(x.data, w.data) + b.data, "vector", x.batched)


def _relu(args, policy=None) -> Value:
    x = args[0]
    return Value(np.maximum(x.data, 0.0), x.kind, x.batched)


def _tanh(args, policy=None) -> Value:
    x = args[0]
    return Value(np.tanh(x.data), x.kind, x.batched)


def _mse(args, policy=None) -> Value:
    pred, target = args
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(
            f"mse: prediction shape {pred.data.shape} != target shape {target.data.shape}"
        )
    if pred.data.size == 0:
        raise EmptyObservations("mse: the batch is empty")
    d = pred.data - target.data
    return Value.scalar(np.mean(d * d))


def _vjp_linear(g, args, out, aux, need):
    x, w, b = args
    gx = np.matmul(g, w.data.T) if need[0] else None  # None for a data input
    if x.batched:
        gw = np.matmul(x.data.T, g) if need[1] else None
        gb = g.sum(axis=0) if need[2] else None
    else:
        gw = np.outer(x.data, g) if need[1] else None
        gb = g if need[2] else None
    return [gx, gw, gb]


def _vjp_relu(g, args, out, aux, need):
    return [np.asarray(g * (args[0].data > 0.0))]  # a 0-d array for a 0-d operand


def _vjp_tanh(g, args, out, aux, need):
    return [np.asarray(g * (1.0 - out.data * out.data))]


def _vjp_mse(g, args, out, aux, need):
    pred, target = args
    gd = g * (2.0 * (pred.data - target.data) / pred.data.size)
    return [np.asarray(gd) if need[0] else None, np.asarray(-gd) if need[1] else None]


register(Op("linear", "nn", 3, 3, forward=_linear, vjp=_vjp_linear))
register(Op("relu", "nn", 1, 1, forward=_relu, vjp=_vjp_relu))
register(Op("tanh", "nn", 1, 1, forward=_tanh, vjp=_vjp_tanh))
register(Op("mse", "nn", 2, 2, forward=_mse, vjp=_vjp_mse))


def mse_record(ctx: TapeContext, pred: TapeRef, target) -> TapeRef:
    return ctx.prim("mse", pred, target)


# ---------------------------------------------------------------------------
# the model


class MlpModel:
    """Dense network; weights live in a ParameterStore as w0/b0, w1/b1, ...

    relu layers use Kaiming-uniform fan-in init, tanh layers Xavier-uniform;
    biases start at zero.
    """

    def __init__(self, layer_sizes, activation: str = "relu", rng=None,
                 zero_output: bool = False):
        if activation not in ("relu", "tanh"):
            raise ValueError(f"unsupported activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.activation = activation
        self.store = ParameterStore()
        last = len(self.layer_sizes) - 2
        for i, (n_in, n_out) in enumerate(zip(self.layer_sizes, self.layer_sizes[1:])):
            if activation == "relu":
                bound = np.sqrt(6.0 / n_in)
            else:
                bound = np.sqrt(6.0 / (n_in + n_out))
            w = rng.uniform(-bound, bound, size=(n_in, n_out))
            if zero_output and i == last:
                # correction heads start as a pure bias so the known term
                # carries the model until a residual is actually needed
                w = np.zeros((n_in, n_out))
            self.store.add(f"w{i}", Value.matrix(w))
            self.store.add(f"b{i}", Value.vector(np.zeros(n_out)))

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def param_count(self) -> int:
        return sum(
            a * b + b for a, b in zip(self.layer_sizes, self.layer_sizes[1:])
        )

    def weight_names(self):
        for i in range(self.num_layers):
            yield f"w{i}", f"b{i}"


def mlp_forward(ctx: TapeContext, model: MlpModel, x: TapeRef) -> TapeRef:
    """Affine -> activation per hidden layer, affine output; all on tape."""
    if x.value.kind != "vector":
        raise ShapeMismatch("mlp_forward expects a vector input; pack scalars first")
    if x.value.core_shape[-1] != model.layer_sizes[0]:
        raise ShapeMismatch(
            f"mlp input width {x.value.core_shape[-1]} != layer width {model.layer_sizes[0]}"
        )
    h = x
    for i, (wn, bn) in enumerate(model.weight_names()):
        w = ctx.param(model.store, wn)
        b = ctx.param(model.store, bn)
        h = ctx.prim("linear", h, w, b)
        if i < model.num_layers - 1:
            h = ctx.prim(model.activation, h)
    return h


def pack_scalars(ctx: TapeContext, refs) -> TapeRef:
    """Stack scalar refs into a vector (batched scalars -> [B, n])."""
    return ctx.prim("vec", *refs)


def unpack_scalar(ctx: TapeContext, vec_ref: TapeRef, index: int) -> TapeRef:
    return ctx.prim("ref", vec_ref, aux=float(index))


# ---------------------------------------------------------------------------
# hybrid patterns


def hybrid_forward(ctx: TapeContext, compiled, store, mlp: MlpModel, inputs: dict) -> TapeRef:
    """Known term plus learned correction: compiled(inputs) + mlp(x) where
    x packs the declared inputs in order."""
    known = ctx.run(compiled, inputs, store)
    x = pack_scalars(ctx, [ctx.lift(inputs[name]) for name in compiled.input_names])
    corr = mlp_forward(ctx, mlp, x)
    if known.value.kind == "scalar":
        corr = unpack_scalar(ctx, corr, 0)
    if corr.value.data.shape != known.value.data.shape:
        raise ShapeMismatch(
            f"hybrid components disagree: {known.value.data.shape} vs {corr.value.data.shape}"
        )
    return ctx.add(known, corr)


def compose_chain(ctx: TapeContext, modules, x: TapeRef) -> TapeRef:
    """Left-to-right composition of compiled programs and MLPs on one tape.
    An empty chain is the identity."""
    h = x
    for i, module in enumerate(modules):
        if isinstance(module, MlpModel):
            scalar_in = h.value.kind == "scalar"
            v = pack_scalars(ctx, [h]) if scalar_in else h
            v = mlp_forward(ctx, module, v)
            h = unpack_scalar(ctx, v, 0) if scalar_in else v
        else:
            prog, store = module if isinstance(module, tuple) else (module, None)
            if len(prog.input_names) != 1:
                raise ShapeMismatch(
                    f"chain stage {i} must take exactly one input, got {prog.input_names}"
                )
            h = ctx.run(prog, {prog.input_names[0]: h}, store)
    return h
