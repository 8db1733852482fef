"""The benchmark's three workloads.

Each workload is built from a seed. Building it compiles its programs
(except in scalar_programs, where compiling is part of every op) and makes
its inputs. One *cycle* is a fixed multiset of items, visited in a seeded
order, so every cycle does the same work and count metrics repeat exactly.
A cycle holds 5, 15 or 31 ops: over whole cycles, numpy's linear 50th and
90th percentiles then fall in the middle of one item's latencies rather
than in the gap between two items, where seconds of host noise move them.
A workload provides:

- ``op(item)``: one timed operation, calling schemegrad only through module
  attributes (``machine.eval_program``, ``optim.adam_step``, ...) so that a
  traced run can rebind them;
- ``verify(item, result)``: a cheap check of one op's output;
- ``checks()``: the full output checks against independent references,
  returning a message per mismatch;
- ``closure_pairs()``: (name, compiled call, hand-coded closure call) on the
  same inputs, for vs_closure;
- ``tape_pairs()``: (eval_program call, run_on_tape call) on the same inputs,
  for machine.tape_overhead_ms.
"""

from __future__ import annotations

import math

import numpy as np

from schemegrad import autodiff, compiler, interpreter, machine, ode, optim, sexpr, training
from schemegrad.autodiff import ParameterStore, TapeContext
from schemegrad.experiments import gravity3d as g3d_exp
from schemegrad.experiments import heat as heat_exp
from schemegrad.experiments import lotka_volterra as lv_exp
from schemegrad.experiments.registry import (
    BENCH_PROGRAMS, FEYNMAN, GRAVITY3D, HEAT_STEP, LV_PRED, LV_PREY,
)
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY
from schemegrad.values import Value, bit_equal

PROP = PROPAGATE_POLICY


def _params_of(eq) -> tuple:
    return tuple(eq.params) + tuple(eq.frozen)


def _near_truth_store(true_params: dict, frozen: dict, rng) -> ParameterStore:
    """Trainables start within 10% of the truth. Starting closer than the
    experiments' [0.5, 2] band keeps every seed inside each formula's domain
    (lorentz needs c > max v = 1.7), so no training step produces NaN."""
    store = ParameterStore()
    for name, v in true_params.items():
        store.add(name, v * float(rng.uniform(0.9, 1.1)))
    for name, v in frozen.items():
        store.add(name, v, trainable=False)
    return store


def _arrays(inputs: dict) -> dict:
    return {k: v.data for k, v in inputs.items()}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _train_step(ctx: TapeContext, loss, store: ParameterStore, adam: optim.AdamState, lr: float):
    store.zero_grads()
    ctx.backward(loss)
    optim.adam_step(store, adam, lr=lr)
    return float(loss.value.data), (ctx.tape,)


def _loss_is_finite(item, result) -> bool:
    return math.isfinite(result[0])


class _Fit:
    """One trainable model's state inside a fit workload."""

    def __init__(self, name, prog, store, lr0, lr1, epochs):
        self.name, self.prog, self.store = name, prog, store
        self.adam = optim.AdamState(lr=lr0)
        self.lr0, self.lr1, self.epochs = lr0, lr1, epochs
        self.epoch = 0

    def lr(self) -> float:
        lr = optim.cosine_lr(self.epoch, self.epochs, self.lr0, self.lr1)
        self.epoch += 1
        return lr


# ---------------------------------------------------------------------------


class FitFormulas:
    """One op is one Adam step of one Feynman equation at batch 10,000,
    written as training.train_coefficients writes it."""

    name = "fit_formulas"
    BATCH = 10_000
    RATIO_INNER = 10
    verify = staticmethod(_loss_is_finite)

    def __init__(self, seed: int, compile_fn):
        self.rng = np.random.default_rng(seed)
        check_rng = np.random.default_rng(seed + 1)
        self.cycle = []
        self.fixed = []  # (eid, prog, truth, inputs) for checks and timing pairs
        for eid in self.rng.permutation(list(FEYNMAN)):
            eq = FEYNMAN[eid]
            prog = compile_fn(eq.source, eq.inputs, _params_of(eq))
            fit = _Fit(eid, prog, _near_truth_store(eq.params, eq.frozen, self.rng),
                       1e-2, 1e-4, eq.epochs)
            fit.truth = training.truth_store(eq.params, eq.frozen)
            self.cycle.append(fit)
            ins = {n: Value.batch_scalars(check_rng.uniform(lo, hi, self.BATCH))
                   for n, (lo, hi) in eq.ranges.items()}
            self.fixed.append((eid, prog, fit.truth, ins))

    def op(self, fit):
        eq = FEYNMAN[fit.name]
        inputs = training.draw_inputs(eq.ranges, self.BATCH, self.rng)
        clean = machine.eval_program(fit.prog, inputs, fit.truth, PROP)
        noisy = clean.data * (1.0 + eq.noise * self.rng.standard_normal(clean.data.shape))
        target = Value(noisy, clean.kind, clean.batched)
        ctx = TapeContext(PROP)
        out = ctx.run(fit.prog, inputs, fit.store)
        loss = ctx.mse(out, target)
        return _train_step(ctx, loss, fit.store, fit.adam, fit.lr())

    def checks(self) -> list:
        bad = []
        for eid, prog, truth, ins in self.fixed:
            eq = FEYNMAN[eid]
            got = machine.eval_program(prog, ins, truth, PROP).data
            if not _same_bits(got, eq.closure(**_arrays(ins), **eq.params, **eq.frozen)):
                bad.append(f"{eid}: compiled != registry closure at B={self.BATCH}")
        return bad

    def closure_pairs(self):
        return [_feynman_pair(eid, prog, truth, ins, PROP) for eid, prog, truth, ins in self.fixed]

    def tape_pairs(self):
        return [_tape_pair(prog, ins, truth) for _, prog, truth, ins in self.fixed]


def _feynman_pair(eid, prog, truth, ins, policy):
    eq = FEYNMAN[eid]
    arrays, consts = _arrays(ins), {**eq.params, **eq.frozen}
    return (eid, lambda: machine.eval_program(prog, ins, truth, policy),
            lambda: eq.closure(**arrays, **consts))


def _tape_pair(prog, ins, store):
    def on_tape():
        machine.run_on_tape(prog, ins, store, autodiff.Tape(), PROP, store=store)

    return (lambda: machine.eval_program(prog, ins, store, PROP), on_tape)


# ---------------------------------------------------------------------------


DETINV_SOURCE = "(det (inv (scale s M)))"


def _spd_batch(rng, n: int) -> np.ndarray:
    """Well-conditioned symmetric 3x3 matrices (A A^T + 3 I)."""
    a = rng.uniform(-1.0, 1.0, size=(n, 3, 3))
    return a @ np.swapaxes(a, 1, 2) + 3.0 * np.eye(3)


class FitStructured:
    """One op is one training epoch of one of the paper's structured models:
    Lotka-Volterra multiple shooting (12 segments x 10 RK4 steps), a
    gravity3d step at B=4096, a 10-step heat rollout through matvec, and a
    (det (inv (scale s M))) step at B=256. The det/inv step is listed twice,
    so a cycle has five ops and the median op is the LV epoch's median."""

    name = "fit_structured"
    RATIO_INNER = 40
    G3D_BATCH, HEAT_ICS, HEAT_STEPS, DETINV_BATCH = 4096, 50, 10, 256
    verify = staticmethod(_loss_is_finite)

    def __init__(self, seed: int, compile_fn):
        rng = self.rng = np.random.default_rng(seed)

        # Lotka-Volterra: two compiled right-hand sides, multiple shooting
        self.prey = compile_fn(LV_PREY.source, LV_PREY.inputs, tuple(LV_PREY.params))
        self.pred = compile_fn(LV_PRED.source, LV_PRED.inputs, tuple(LV_PRED.params))
        self.lv_truth = training.truth_store(lv_exp.TRUE_PARAMS)
        self.clean_obs = lv_exp.generate_observations()
        noisy = lv_exp.add_noise(self.clean_obs, 0.02, rng)
        self.lv_cfg = ode.ShootingConfig(segment_length=lv_exp.SEGMENT_LENGTH, observations=noisy)
        lv = _Fit("lv", None, _near_truth_store(lv_exp.TRUE_PARAMS, {}, rng),
                  1e-2, 1e-5, lv_exp.ADAM_EPOCHS)
        lv.system = self._lv_system(lv.store)
        seg_rows = self.clean_obs[:-1:lv_exp.SEGMENT_LENGTH]
        self.lv_inputs = {"x": Value.batch_scalars(seg_rows[:, 0].copy()),
                          "y": Value.batch_scalars(seg_rows[:, 1].copy())}

        # gravity3d: norm, scale and vector arithmetic
        g3d = _Fit("gravity3d", compile_fn(GRAVITY3D.source, GRAVITY3D.inputs, ("G",)),
                   _near_truth_store({"G": g3d_exp.TRUE_G}, {}, rng), 1e-2, 1e-4,
                   g3d_exp.ADAM_EPOCHS)
        g3d.truth = training.truth_store({"G": g3d_exp.TRUE_G})
        self.g3d_inputs = g3d_exp.sample_inputs(rng, self.G3D_BATCH)

        # heat: 10 explicit steps of (+ u (scale (* dt alpha) (matvec L u)))
        heat = _Fit("heat", compile_fn(HEAT_STEP.source, HEAT_STEP.inputs, ("alpha",)),
                    _near_truth_store({"alpha": heat_exp.TRUE_ALPHA}, {}, rng), 1e-3, 1e-6,
                    heat_exp.ADAM_EPOCHS)
        self.heat_truth = training.truth_store({"alpha": heat_exp.TRUE_ALPHA})
        self.heat_L = Value.matrix(heat_exp.laplacian())
        self.heat_u0 = Value.batch_vectors(rng.uniform(0.0, 1.0, (self.HEAT_ICS, heat_exp.N_GRID)))
        self.heat_targets = []
        u = self.heat_u0
        for _ in range(self.HEAT_STEPS):
            u = machine.eval_program(heat.prog, self._heat_feed(u), self.heat_truth, PROP)
            self.heat_targets.append(u)

        # batched det/inv through the per-matrix LU
        detinv = _Fit("detinv", compile_fn(DETINV_SOURCE, ("M",), ("s",)),
                      _near_truth_store({"s": 0.8}, {}, rng), 1e-3, 1e-5, 1000)
        self.detinv_truth = training.truth_store({"s": 0.8})
        self.detinv_M = Value.batch_matrices(_spd_batch(rng, self.DETINV_BATCH))
        self.detinv_target = machine.eval_program(detinv.prog, {"M": self.detinv_M},
                                                  self.detinv_truth, PROP)

        self.cycle = [lv, g3d, heat, detinv, detinv]
        rng.shuffle(self.cycle)
        self.models = {"lv": lv, "gravity3d": g3d, "heat": heat, "detinv": detinv}

    def _lv_system(self, store):
        rhs = ode.make_compiled_rhs([self.prey, self.pred], [store, store], ("x", "y"))
        return ode.OdeSystem(rhs=rhs, state_dim=2, dt=lv_exp.DT)

    def _heat_feed(self, u):
        return {"u": u, "L": self.heat_L, "dt": heat_exp.DT}

    def op(self, fit):
        ctx = TapeContext(PROP)
        if fit.name == "lv":
            loss = ode.multiple_shooting_loss(ctx, fit.system, self.lv_cfg)
        elif fit.name == "gravity3d":
            ins = g3d_exp.sample_inputs(self.rng, self.G3D_BATCH)
            clean = machine.eval_program(fit.prog, ins, fit.truth, PROP)
            noisy = clean.data * (1.0 + g3d_exp.NOISE * self.rng.standard_normal(clean.data.shape))
            loss = ctx.mse(ctx.run(fit.prog, ins, fit.store), Value.batch_vectors(noisy))
        elif fit.name == "heat":
            u = ctx.lift(self.heat_u0)
            loss = None
            for target in self.heat_targets:
                u = ctx.run(fit.prog, self._heat_feed(u), fit.store)
                term = ctx.mse(u, target)
                loss = term if loss is None else ctx.add(loss, term)
        else:
            out = ctx.run(fit.prog, {"M": self.detinv_M}, fit.store)
            loss = ctx.mse(out, self.detinv_target)
        return _train_step(ctx, loss, fit.store, fit.adam, fit.lr())

    def checks(self) -> list:
        bad = []
        truth = self.lv_truth
        for prog, eq in ((self.prey, LV_PREY), (self.pred, LV_PRED)):
            params = {k: truth[k].value.data for k in eq.params}
            got = machine.eval_program(prog, self.lv_inputs, truth, PROP).data
            if not _same_bits(got, eq.closure(**_arrays(self.lv_inputs), **params)):
                bad.append(f"{eq.id}: compiled != registry closure")
        ctx = TapeContext(PROP)
        clean_cfg = ode.ShootingConfig(segment_length=lv_exp.SEGMENT_LENGTH,
                                       observations=self.clean_obs)
        lv_loss = float(ode.multiple_shooting_loss(ctx, self._lv_system(truth), clean_cfg).value.data)
        if not lv_loss < 1e-20:
            bad.append(f"LV shooting loss at the true parameters is {lv_loss!r}, not < 1e-20")

        g3d = self.models["gravity3d"]
        got = machine.eval_program(g3d.prog, self.g3d_inputs, g3d.truth, PROP).data
        if not _same_bits(got, GRAVITY3D.closure(**_arrays(self.g3d_inputs), G=g3d_exp.TRUE_G)):
            bad.append("gravity3d: compiled != registry closure")

        heat = self.models["heat"]
        got = machine.eval_program(heat.prog, self._heat_feed(self.heat_u0), self.heat_truth, PROP)
        want = HEAT_STEP.closure(self.heat_u0.data, self.heat_L.data, heat_exp.DT,
                                 heat_exp.TRUE_ALPHA)
        if not _same_bits(got.data, want):
            bad.append("heat_step: compiled != registry closure")

        detinv = self.models["detinv"]
        few = Value.batch_matrices(self.detinv_M.data[:4])
        batched = machine.eval_program(detinv.prog, {"M": few}, self.detinv_truth)
        for i in range(4):
            one = machine.eval_program(detinv.prog, {"M": few.unbatch(i)}, self.detinv_truth)
            if not _same_bits(batched.data[i], one.data):
                bad.append(f"detinv: batched != unbatched for matrix {i}")
        return bad

    def closure_pairs(self):
        truth = self.lv_truth
        pairs = []
        for prog, eq in ((self.prey, LV_PREY), (self.pred, LV_PRED)):
            params = {k: truth[k].value.data for k in eq.params}
            arrays = _arrays(self.lv_inputs)
            pairs.append((eq.id, lambda p=prog: machine.eval_program(p, self.lv_inputs, truth, PROP),
                          lambda c=eq.closure, p=params: c(**arrays, **p)))
        g3d, heat = self.models["gravity3d"], self.models["heat"]
        g_arrays = _arrays(self.g3d_inputs)
        pairs.append(("gravity3d",
                      lambda: machine.eval_program(g3d.prog, self.g3d_inputs, g3d.truth, PROP),
                      lambda: GRAVITY3D.closure(**g_arrays, G=g3d_exp.TRUE_G)))
        feed = self._heat_feed(self.heat_u0)
        u0, L = self.heat_u0.data, self.heat_L.data
        pairs.append(("heat_step",
                      lambda: machine.eval_program(heat.prog, feed, self.heat_truth, PROP),
                      lambda: HEAT_STEP.closure(u0, L, heat_exp.DT, heat_exp.TRUE_ALPHA)))
        return pairs

    def tape_pairs(self):
        # detinv is left out: its 256 per-matrix LUs dwarf the tape's cost,
        # so the difference of two medians would be noise.
        m = self.models
        return [_tape_pair(self.prey, self.lv_inputs, self.lv_truth),
                _tape_pair(self.pred, self.lv_inputs, self.lv_truth),
                _tape_pair(m["gravity3d"].prog, self.g3d_inputs, m["gravity3d"].truth),
                _tape_pair(m["heat"].prog, self._heat_feed(self.heat_u0), self.heat_truth)]


# ---------------------------------------------------------------------------

# Loop and recursion samples, copied from the test corpus with fixed trip
# counts: (id, source, inputs).
LOOP_PROGRAMS = (
    ("loop:sum", "(loop ((i 0) (acc 0)) (if (< i n) (recur (+ i 1) (+ acc i)) acc))",
     {"n": 1000.0}),
    ("letrec:fib", "(letrec ((fib (lambda (k) (if (< k 2) k"
                   " (+ (call fib (- k 1)) (call fib (- k 2)))))))"
                   " (call fib n))", {"n": 12.0}),
    ("loop:euler", "(loop ((k 0) (y y0)) (if (< k 10)"
                   " (recur (+ k 1) (+ y (* 0.1 (* rate y)))) y))", None),
)
LOOP_SUM_ITERATIONS = 1000

# BENCH_PROGRAMS inputs are drawn from [1, 2], except where a program needs
# another range to stay in its domain: discriminant needs b*b >= 4*a*c.
BENCH_RANGES = {("discriminant", "b"): (4.5, 6.0)}

VECMAT_PROGRAMS = (
    ("vm:cross", "(vsum (cross a b))", ("a", "b")),
    ("vm:normalize", "(normalize a)", ("a",)),
    ("vm:det", "(det M)", ("M",)),
    ("vm:inv", "(inv M)", ("M",)),
)


class ScalarPrograms:
    """One op is compile_source plus one eval_program at B=1, on a program
    from a fixed mix: the 15 Feynman formulas, the 6 BENCH_PROGRAMS, four
    small vector/matrix programs and, listed twice each, three
    loop/recursion samples. With 31 ops a cycle, the median op is a
    straight-line program's median and the 90th percentile lands mid-way
    in letrec:fib's latencies, not between two programs'."""

    name = "scalar_programs"
    RATIO_INNER = 100

    def __init__(self, seed: int, compile_fn):
        rng = np.random.default_rng(seed)
        self.compile = compile_fn
        items = []  # (id, source, inputs, params, env)
        for eid, eq in FEYNMAN.items():
            env = {n: Value.scalar(rng.uniform(lo, hi)) for n, (lo, hi) in eq.ranges.items()}
            items.append((eid, eq.source, eq.inputs, training.truth_store(eq.params, eq.frozen),
                          env))
        for bid, (src, names) in BENCH_PROGRAMS.items():
            ranges = {n: BENCH_RANGES.get((bid, n), (1.0, 2.0)) for n in names}
            items.append((f"bench:{bid}", src, names, None,
                          {n: Value.scalar(rng.uniform(lo, hi)) for n, (lo, hi) in ranges.items()}))
        for lid, src, env in LOOP_PROGRAMS:
            if env is None:
                env = {"y0": rng.uniform(0.5, 2.0), "rate": rng.uniform(-1.0, 1.0)}
            item = (lid, src, tuple(env), None, {k: Value.scalar(v) for k, v in env.items()})
            items += [item, item]
        for vid, src, names in VECMAT_PROGRAMS:
            env = {n: (Value.matrix(_spd_batch(rng, 1)[0]) if n == "M"
                       else Value.vector(rng.uniform(0.5, 2.0, 3))) for n in names}
            items.append((vid, src, names, None, env))
        self.cycle = [items[i] for i in rng.permutation(len(items))]
        self.expected = {}

    def op(self, item):
        _, src, names, store, env = item
        prog = self.compile(src, names, tuple(store.names()) if store else ())
        return machine.eval_program(prog, env, store)

    def verify(self, item, result) -> bool:
        return bit_equal(result, self.expected[item[0]])

    def checks(self) -> list:
        bad = []
        for pid, src, names, store, env in self.cycle:
            full_env = dict(env)
            if store is not None:
                full_env.update({n: store.value_of(n) for n in store.names()})
            want = interpreter.interpret_ast(sexpr.parse(src), full_env)
            self.expected[pid] = want
            if not bit_equal(self.op((pid, src, names, store, env)), want):
                bad.append(f"{pid}: compiled != interpret_ast")
        return bad

    def _compiled(self, pid):
        for item in self.cycle:
            if item[0] == pid:
                _, src, names, store, env = item
                params = tuple(store.names()) if store else ()
                return compiler.compile_source(src, inputs=names, params=params), store, env
        raise KeyError(pid)

    def closure_pairs(self):
        pairs = []
        for eid in FEYNMAN:
            prog, truth, env = self._compiled(eid)
            pairs.append(_feynman_pair(eid, prog, truth, env, ERROR_POLICY))
        return pairs

    def tape_pairs(self):
        return []

    def loop_probe(self):
        """eval_program of loop:sum and its iteration count."""
        prog, _, env = self._compiled("loop:sum")
        return (lambda: machine.eval_program(prog, env)), LOOP_SUM_ITERATIONS


WORKLOADS = {w.name: w for w in (FitFormulas, FitStructured, ScalarPrograms)}
