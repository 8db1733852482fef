"""Shared program corpus for oracle and acceptance tests: every experiment
equation, the composition chains as single sources, and loop/recursion
samples, each with a safe-domain input sampler."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from schemegrad.experiments.registry import (
    COMPOSITION_CHAINS,
    COMPOSITION_OPS,
    FEYNMAN,
    GRAVITY3D,
    HEAT_STEP,
    LV_PRED,
    LV_PREY,
    PENDULUM_DOMEGA,
)
from schemegrad.values import Value


@dataclass
class CorpusProgram:
    id: str
    source: str
    inputs: tuple
    params: dict = field(default_factory=dict)
    sampler: object = None  # (rng, n) -> dict of Values (batched where n>1)
    scalar_sampler: object = None  # (rng,) -> dict of scalars/arrays for interp
    has_loops: bool = False
    differentiable: bool = True


def _range_sampler(ranges):
    def sample(rng, n):
        if n == 1:
            return {k: Value.scalar(rng.uniform(lo, hi)) for k, (lo, hi) in ranges.items()}
        return {k: Value.batch_scalars(rng.uniform(lo, hi, size=n))
                for k, (lo, hi) in ranges.items()}

    return sample


def compose_source(chain) -> str:
    """Textual composition: substitute the accumulated source for the
    variable x in the next stage (word-boundary match so the x inside
    'exp' survives)."""
    import re

    src = "x"
    for name in chain:
        stage = COMPOSITION_OPS[name][0]
        src = re.sub(r"\bx\b", lambda m: src, stage)
    return src


def _laplacian(n=10):
    L = np.zeros((n, n))
    idx = np.arange(n)
    L[idx, idx] = -2.0
    L[idx[:-1], idx[:-1] + 1] = 1.0
    L[idx[1:], idx[1:] - 1] = 1.0
    return L


def _heat_sampler(rng, n):
    L = Value.matrix(_laplacian())
    dt = Value.scalar(0.1)
    if n == 1:
        return {"u": Value.vector(rng.uniform(0.0, 1.0, size=10)), "L": L, "dt": dt}
    return {"u": Value.batch_vectors(rng.uniform(0.0, 1.0, size=(n, 10))),
            "L": L, "dt": dt}


def _gravity3d_sampler(rng, n):
    def vecs(k):
        r = rng.uniform(-2.0, 2.0, size=(k, 3))
        norms = np.sqrt((r * r).sum(axis=1))
        return r * np.maximum(1.0, 0.5 / np.maximum(norms, 1e-9))[:, None]

    if n == 1:
        return {"m1": Value.scalar(rng.uniform(0.5, 2.0)),
                "m2": Value.scalar(rng.uniform(0.5, 2.0)),
                "r": Value.vector(vecs(1)[0])}
    return {"m1": Value.batch_scalars(rng.uniform(0.5, 2.0, size=n)),
            "m2": Value.batch_scalars(rng.uniform(0.5, 2.0, size=n)),
            "r": Value.batch_vectors(vecs(n))}


def _spd_matrix_sampler(name, size=3):
    """Well-conditioned matrices for det/inv programs."""

    def sample(rng, n):
        def one():
            a = rng.uniform(-1.0, 1.0, size=(size, size))
            return a @ a.T + np.eye(size) * size

        if n == 1:
            return {name: Value.matrix(one())}
        return {name: Value.batch_matrices(np.stack([one() for _ in range(n)]))}

    return sample


def _vec_sampler(names, length=3, lo=-2.0, hi=2.0):
    def sample(rng, n):
        if n == 1:
            return {k: Value.vector(rng.uniform(lo, hi, size=length)) for k in names}
        return {k: Value.batch_vectors(rng.uniform(lo, hi, size=(n, length)))
                for k in names}

    return sample


def build_corpus() -> list[CorpusProgram]:
    progs = []
    for eid, eq in FEYNMAN.items():
        progs.append(CorpusProgram(
            id=f"feynman:{eid}",
            source=eq.source,
            inputs=eq.inputs,
            params={**eq.params, **eq.frozen},
            sampler=_range_sampler(eq.ranges),
        ))
    for eq in (LV_PREY, LV_PRED, PENDULUM_DOMEGA):
        progs.append(CorpusProgram(
            id=eq.id, source=eq.source, inputs=eq.inputs, params=dict(eq.params),
            sampler=_range_sampler(eq.ranges),
        ))
    progs.append(CorpusProgram(
        id="heat_step", source=HEAT_STEP.source, inputs=("u", "L", "dt"),
        params={"alpha": 0.01}, sampler=_heat_sampler,
    ))
    progs.append(CorpusProgram(
        id="gravity3d", source=GRAVITY3D.source, inputs=("m1", "m2", "r"),
        params={"G": 6.674}, sampler=_gravity3d_sampler,
    ))
    for chain in COMPOSITION_CHAINS:
        progs.append(CorpusProgram(
            id="chain:" + ">".join(chain),
            source=compose_source(chain),
            inputs=("x",),
            sampler=_range_sampler({"x": (-2.0, 2.0)}),
        ))
    # vector/matrix gradient coverage
    progs.append(CorpusProgram(
        id="vm:norm", source="(norm v)", inputs=("v",),
        sampler=_vec_sampler(("v",), lo=0.5, hi=2.0),
    ))
    progs.append(CorpusProgram(
        id="vm:matvec", source="(vsum (matvec M v))", inputs=("M", "v"),
        sampler=lambda rng, n: {
            **_spd_matrix_sampler("M")(rng, n), **_vec_sampler(("v",))(rng, n)
        },
    ))
    progs.append(CorpusProgram(
        id="vm:det", source="(det M)", inputs=("M",),
        sampler=_spd_matrix_sampler("M"),
    ))
    progs.append(CorpusProgram(
        id="vm:inv", source="(trace (inv M))", inputs=("M",),
        sampler=_spd_matrix_sampler("M"),
    ))
    progs.append(CorpusProgram(
        id="vm:detinv", source="(det (inv (scale s M)))", inputs=("M",), params={"s": 0.8},
        sampler=_spd_matrix_sampler("M"),
    ))
    progs.append(CorpusProgram(
        id="vm:eye", source="(matvec (eye 3) v)", inputs=("v",),
        sampler=_vec_sampler(("v",)),
    ))
    progs.append(CorpusProgram(
        id="vm:ones_zeros",
        source="(* x (+ (vsum (ones 3)) (vlen (zeros 2)) (trace (ones 2 2))))", inputs=("x",),
        sampler=_range_sampler({"x": (-2.0, 2.0)}),
    ))
    progs.append(CorpusProgram(
        id="vm:normalize_dot", source="(dot (normalize v) w)", inputs=("v", "w"),
        sampler=_vec_sampler(("v", "w"), lo=0.5, hi=2.0),
    ))
    progs.append(CorpusProgram(
        id="vm:cross", source="(vsum (cross a b))", inputs=("a", "b"),
        sampler=_vec_sampler(("a", "b")),
    ))
    progs.append(CorpusProgram(
        id="vm:outer_trace", source="(trace (outer a b))", inputs=("a", "b"),
        sampler=_vec_sampler(("a", "b")),
    ))
    # loop / recursion samples (compared pointwise; trip counts stay small)
    progs.append(CorpusProgram(
        id="loop:sum",
        source="(loop ((i 0) (acc 0)) (if (< i n) (recur (+ i 1) (+ acc i)) acc))",
        inputs=("n",),
        sampler=_range_sampler({"n": (1.0, 30.0)}),
        has_loops=True, differentiable=False,
    ))
    progs.append(CorpusProgram(
        id="loop:geom",
        source="(loop ((k 0) (x x0)) (if (< k 8) (recur (+ k 1) (* x 0.5)) x))",
        inputs=("x0",),
        sampler=_range_sampler({"x0": (-4.0, 4.0)}),
        has_loops=True,
    ))
    progs.append(CorpusProgram(
        id="letrec:countdown",
        source="(letrec ((down (lambda (k) (if (> k 0) (call down (- k 1)) k))))"
               " (call down n))",
        inputs=("n",),
        sampler=_range_sampler({"n": (1.0, 20.0)}),
        has_loops=True, differentiable=False,
    ))
    progs.append(CorpusProgram(
        id="letrec:fib",
        source="(letrec ((fib (lambda (k) (if (< k 2) k"
               " (+ (call fib (- k 1)) (call fib (- k 2)))))))"
               " (call fib n))",
        inputs=("n",),
        sampler=_range_sampler({"n": (1.0, 12.0)}),
        has_loops=True, differentiable=False,
    ))
    progs.append(CorpusProgram(
        id="loop:euler",
        source="(loop ((k 0) (y y0)) (if (< k 10)"
               " (recur (+ k 1) (+ y (* 0.1 (* rate y)))) y))",
        inputs=("y0", "rate"),
        sampler=_range_sampler({"y0": (0.5, 2.0), "rate": (-1.0, 1.0)}),
        has_loops=True,
    ))
    return progs


CORPUS = build_corpus()


def integer_inputs(prog: CorpusProgram, inputs: dict) -> dict:
    """Loop/recursion trip counts must be integral to compare engines."""
    if not prog.has_loops:
        return inputs
    out = {}
    for k, v in inputs.items():
        if k in ("n",):
            out[k] = Value(np.floor(v.data), v.kind, v.batched)
        else:
            out[k] = v
    return out
