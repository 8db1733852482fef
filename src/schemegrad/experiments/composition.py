"""Compositional generalization: chains of compiled modules must match
hand-composed closures exactly at every depth and range, while chains of
per-operation network approximations accumulate error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import TapeContext
from ..compiler import compile_source
from ..machine import eval_program
from ..nn import MlpModel, mlp_forward
from ..runtime import PROPAGATE_POLICY
from ..training import fit
from ..values import Value
from .registry import COMPOSITION_CHAINS, COMPOSITION_OPS
from .report import ResultRow

IN_DIST = (-2.0, 2.0)
EXTRAP = (-8.0, 8.0)  # 4x range
N_POINTS = 1000
MLP_EPOCHS = 5000
DEFAULT_SEED = 3
AMPLIFIED_CHAIN = ("square", "add_one", "cube")

_MACHINE_EPS = float(np.finfo(np.float64).eps)


@dataclass
class CompositionErrorReport:
    """Per-chain, per-range error comparison between the compiled chain and
    the chain of network approximations.  The amplification factor divides
    by the compiled MSE floored at machine epsilon, since all-compiled
    chains sit at exactly zero."""

    chain_id: str
    depth: int
    compiled_mse: float
    neural_mse: float
    range_tag: str  # in_dist | extrap_4x

    @property
    def amplification_factor(self) -> float:
        return self.neural_mse / max(self.compiled_mse, _MACHINE_EPS)


def compiled_ops() -> dict:
    return {name: compile_source(src, inputs=("x",))
            for name, (src, _) in COMPOSITION_OPS.items()}


def chain_compiled(progs, chain, x: Value) -> Value:
    v = x
    for name in chain:
        v = eval_program(progs[name], {"x": v}, None, PROPAGATE_POLICY)
    return v


def chain_native(chain, x: np.ndarray) -> np.ndarray:
    v = x
    for name in chain:
        v = COMPOSITION_OPS[name][1](v)
    return v


def train_op_mlps(seed: int = DEFAULT_SEED, epochs: int = MLP_EPOCHS):
    """One 1->32->32->1 tanh network per operation, fit on the training
    interval with clean targets."""
    models = {}
    curves = {}
    for i, (name, (_, closure)) in enumerate(COMPOSITION_OPS.items()):
        rng = np.random.default_rng(seed + i)
        model = MlpModel([1, 32, 32, 1], activation="tanh", rng=rng)
        xs = rng.uniform(IN_DIST[0], IN_DIST[1], size=512)
        ys = closure(xs)
        xv = Value.batch_vectors(xs[:, None])
        yv = Value.batch_vectors(ys[:, None])
        models[name] = model
        curves[f"comp_op_{name}"] = fit(
            lambda ctx: ctx.mse(mlp_forward(ctx, model, ctx.lift(xv)), yv),
            [(model.store, 3e-3, 1e-5)], epochs, record_every=100)
    return models, curves


def chain_neural(models, chain, x: np.ndarray) -> np.ndarray:
    v = x
    for name in chain:
        ctx = TapeContext(PROPAGATE_POLICY)
        out = mlp_forward(ctx, models[name], ctx.lift(Value.batch_vectors(v[:, None])))
        v = out.value.data[:, 0]
    return v


def sample_ranges(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "in_dist": rng.uniform(IN_DIST[0], IN_DIST[1], size=N_POINTS),
        "extrap_4x": rng.uniform(EXTRAP[0], EXTRAP[1], size=N_POINTS),
    }


def evaluate_chains(models: dict, seed: int = DEFAULT_SEED) -> list[CompositionErrorReport]:
    """Compiled-vs-native and neural-vs-native errors for every chain at
    both evaluation ranges."""
    progs = compiled_ops()
    reports = []
    for chain in COMPOSITION_CHAINS:
        cid = ">".join(chain)
        for tag, x in sample_ranges(seed).items():
            compiled = chain_compiled(progs, chain, Value.batch_scalars(x))
            native = chain_native(chain, x)
            compiled_mse = float(np.mean((compiled.data - native) ** 2))
            neural = chain_neural(models, chain, x)
            neural_mse = float(np.mean((neural - native) ** 2))
            reports.append(CompositionErrorReport(
                chain_id=cid, depth=len(chain), compiled_mse=compiled_mse,
                neural_mse=neural_mse, range_tag=tag,
            ))
    return reports


def run(seed: int = DEFAULT_SEED, epochs_scale: float = 1.0):
    models, curves = train_op_mlps(
        seed=seed, epochs=max(100, int(round(MLP_EPOCHS * epochs_scale)))
    )
    reports = evaluate_chains(models, seed=seed)

    rows = []
    for rec in reports:
        rows.append(ResultRow("composition", "compiled",
                              f"{rec.chain_id}:{rec.range_tag}:mse_vs_native",
                              rec.compiled_mse, 0.0, "=="))
        rows.append(ResultRow("composition", "mlp",
                              f"{rec.chain_id}:{rec.range_tag}:mse",
                              rec.neural_mse, informational=True))
        rows.append(ResultRow("composition", "mlp",
                              f"{rec.chain_id}:{rec.range_tag}:amplification_vs_compiled",
                              rec.amplification_factor, informational=True))

    amp_id = ">".join(AMPLIFIED_CHAIN)
    by_tag = {r.range_tag: r for r in reports if r.chain_id == amp_id}
    amplification = by_tag["extrap_4x"].neural_mse / max(by_tag["in_dist"].neural_mse, 1e-300)
    rows.append(ResultRow("composition", "mlp", f"{amp_id}:amplification",
                          amplification, 1e3, ">="))
    return rows, curves
