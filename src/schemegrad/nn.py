"""Minimal dense network, an MSE record, and the hybrid/composition forward
patterns.  A network is one compiled straight-line tree of ``linear`` and
activation prims, so a network call is one ``fused`` record."""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterStore, TapeContext, TapeRef
from .compiler import compile_tree
from .errors import ConfigError, ShapeMismatch
from .sexpr import Prim, Var, pretty
from .values import Value


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
            raise ConfigError(f"unsupported activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.activation = activation
        self.store = ParameterStore()
        last = len(self.layer_sizes) - 2
        h = Var("x")
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
            h = Prim("linear", (Prim(activation, (h,)) if i else h, Var(f"w{i}"), Var(f"b{i}")))
        self.program = compile_tree(h, pretty(h), ("x",), self.store.names())

    @property
    def param_count(self) -> int:
        return sum(
            a * b + b for a, b in zip(self.layer_sizes, self.layer_sizes[1:])
        )


def mlp_forward(ctx: TapeContext, model: MlpModel, x: TapeRef) -> TapeRef:
    """Affine -> activation per hidden layer, affine output: one run of the
    network's program."""
    if x.value.kind != "vector":
        raise ShapeMismatch("mlp_forward expects a vector input; pack scalars first")
    if x.value.core_shape[-1] != model.layer_sizes[0]:
        raise ShapeMismatch(
            f"mlp input width {x.value.core_shape[-1]} != layer width {model.layer_sizes[0]}"
        )
    return ctx.run(model.program, {"x": x}, model.store)


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
