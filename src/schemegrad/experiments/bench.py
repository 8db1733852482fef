"""Hardware-independent performance properties: compile time, batch
amortization of per-sample cost, and constant-stack-depth loop execution,
plus informational rows for batched det/inv throughput, the cost of one
loop iteration and the backward pass of one training step."""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import TapeContext
from ..compiler import compile_source
from ..machine import eval_program
from ..runtime import PROPAGATE_POLICY
from ..training import draw_inputs, truth_store
from ..values import Value
from .registry import BENCH_PROGRAMS, FEYNMAN
from .report import ResultRow

BATCH_SIZES = (1, 100, 10_000)
AMORTIZATION_FLOOR = 50.0
COMPILE_BUDGET_S = 0.010
LOOP_ITERATIONS = 1_000_000
LINALG_BATCH = 10_000
TRAIN_BATCH = 10_000


def _inputs_for(names, batch: int, rng):
    if batch == 1:
        return {n: Value.scalar(rng.uniform(1.0, 2.0)) for n in names}
    return {n: Value.batch_scalars(rng.uniform(1.0, 2.0, size=batch)) for n in names}


def _best_time(fn, repeats: int = 7, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def throughput_table(seed: int = 0):
    """Samples/second per program and batch size, plus the amortization
    ratio of per-sample cost between batch 1 and batch 10k."""
    rng = np.random.default_rng(seed)
    table = {}
    for name, (source, input_names) in BENCH_PROGRAMS.items():
        prog = compile_source(source, inputs=input_names)
        per_batch = {}
        for batch in BATCH_SIZES:
            ins = _inputs_for(input_names, batch, rng)
            t = _best_time(lambda: eval_program(prog, ins, None, PROPAGATE_POLICY))
            per_batch[batch] = batch / t
        ratio = (per_batch[BATCH_SIZES[-1]]) / per_batch[1]
        table[name] = {"samples_per_s": per_batch, "amortization": ratio,
                       "nodes": prog.node_count}
    return table


def compile_times(repeats: int = 5):
    out = {}
    for name, (source, input_names) in BENCH_PROGRAMS.items():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            compile_source(source, inputs=input_names)
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def long_loop_completes(n: int = LOOP_ITERATIONS) -> tuple[float, float]:
    """Tail-recursive accumulation over n iterations; executes iteratively
    with constant auxiliary stack.  Returns (residual, seconds per
    iteration)."""
    src = f"""
    (loop ((i 0) (acc 0))
      (if (< i {n})
          (recur (+ i 1) (+ acc i))
          acc))
    """
    prog = compile_source(src)
    t0 = time.perf_counter()
    out = eval_program(prog, {}, None, PROPAGATE_POLICY)
    per_iteration = (time.perf_counter() - t0) / n
    expected = (n - 1) * n / 2.0
    return float(out.data) - expected, per_iteration


def linalg_samples_per_s(seed: int = 0) -> float:
    """Samples/second of batched (det (inv M)) on LINALG_BATCH
    well-conditioned 3x3 matrices, the workload of the batch-vectorised LU."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(LINALG_BATCH, 3, 3)) + 3.0 * np.eye(3)
    prog = compile_source("(det (inv M))", inputs=("M",))
    ins = {"M": Value.batch_matrices(m)}
    return LINALG_BATCH / _best_time(lambda: eval_program(prog, ins, None, PROPAGATE_POLICY),
                              repeats=3, warmup=1)


def backward_us(seed: int = 0, repeats: int = 20) -> float:
    """Median microseconds of one backward pass of a rel_energy MSE training
    step at TRAIN_BATCH, as train_coefficients takes it."""
    eq = FEYNMAN["rel_energy"]
    prog = compile_source(eq.source, inputs=eq.inputs, params=tuple(eq.params))
    rng = np.random.default_rng(seed)
    store = truth_store(eq.params)
    inputs = draw_inputs(eq.ranges, TRAIN_BATCH, rng)
    clean = eval_program(prog, inputs, store, PROPAGATE_POLICY)
    target = Value(clean.data * (1.0 + eq.noise * rng.standard_normal(clean.data.shape)),
                   clean.kind, clean.batched)
    ctx = TapeContext(PROPAGATE_POLICY)
    loss = ctx.mse(ctx.run(prog, inputs, store), target)
    times = []
    for _ in range(repeats):
        store.zero_grads()
        t0 = time.perf_counter()
        ctx.backward(loss)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def run(seed: int = 0, epochs_scale: float = 1.0):
    rows = []
    table = throughput_table(seed=seed)
    for name, rec in table.items():
        rows.append(ResultRow("bench", "compiled", f"{name}:amortization_10k_vs_1",
                              rec["amortization"], AMORTIZATION_FLOOR, ">="))
        for batch, sps in rec["samples_per_s"].items():
            rows.append(ResultRow("bench", "compiled", f"{name}:samples_per_s_b{batch}",
                                  sps, informational=True))
    for name, t in compile_times().items():
        rows.append(ResultRow("bench", "compiled", f"{name}:compile_seconds",
                              t, COMPILE_BUDGET_S, "<="))
    rows.append(ResultRow("bench", "compiled", f"det_inv:samples_per_s_b{LINALG_BATCH}",
                          linalg_samples_per_s(seed), informational=True))
    rows.append(ResultRow("bench", "compiled", f"train_step:us_backward_b{TRAIN_BATCH}",
                          backward_us(seed), informational=True))
    residual, per_iteration = long_loop_completes()
    rows.append(ResultRow("bench", "compiled", "loop_1e6:residual", residual, 0.0, "=="))
    rows.append(ResultRow("bench", "compiled", "loop_1e6:us_per_iteration",
                          per_iteration * 1e6, informational=True))
    return rows, {}
