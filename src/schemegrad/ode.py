"""Classical RK4 time stepping on the tape, plus the multiple-shooting loss
for trajectory fitting.

System state is a tuple of refs (scalars or vectors, optionally batched);
the right-hand side maps a state tuple to a derivative tuple on the same
tape so gradients reach the RHS parameters.  A right-hand side made of
compiled programs (``make_compiled_rhs``) steps as one linked program per
RK4 step (``link_rk4``), with the stage-by-stage step's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .autodiff import TapeContext, TapeRef
from .compiler import CompileConfig, compile_source
from .errors import EmptyObservations, SourceError
from .sexpr import tokenize
from .values import Value


@dataclass
class OdeSystem:
    rhs: object  # callable(ctx, state: tuple[TapeRef], t: float) -> tuple[TapeRef]
    state_dim: int
    dt: float


@dataclass
class ShootingConfig:
    segment_length: int
    observations: object  # [T+1, state_dim] array, or a list of them

    def trajectory_list(self) -> list:
        obs = self.observations
        if isinstance(obs, np.ndarray):
            return [obs]
        return [np.asarray(o, dtype=np.float64) for o in obs]


def _axpy(ctx: TapeContext, y: TapeRef, c: float, k: TapeRef) -> TapeRef:
    return ctx.add(y, ctx.mul(ctx.constant(c), k))


def rk4_step(ctx: TapeContext, sys: OdeSystem, state, t: float, dt: float):
    """One classical RK4 step; weights (1,2,2,1)/6, fully on tape.  When the
    RHS is a ``CompiledRhs`` with a linked step for ``dt`` and every state
    component is a scalar ``TapeRef``, the step is one run of that program,
    split by one ``ref`` record per component; any other RHS is stepped here
    stage by stage, with the same constants in the same order."""
    rhs = sys.rhs
    if isinstance(rhs, CompiledRhs) and all(type(y) is TapeRef and y.value.kind == "scalar"
                                            for y in state):
        prog = rhs.step_program(dt)
        if prog is not None:
            out = ctx.run(prog, dict(zip(rhs.input_names, state)), rhs.stores[0])
            return tuple(ctx.prim("ref", out, float(i)) for i in range(len(rhs.programs)))
    k1 = sys.rhs(ctx, state, t)
    s2 = tuple(_axpy(ctx, y, dt / 2.0, k) for y, k in zip(state, k1))
    k2 = sys.rhs(ctx, s2, t + dt / 2.0)
    s3 = tuple(_axpy(ctx, y, dt / 2.0, k) for y, k in zip(state, k2))
    k3 = sys.rhs(ctx, s3, t + dt / 2.0)
    s4 = tuple(_axpy(ctx, y, dt, k) for y, k in zip(state, k3))
    k4 = sys.rhs(ctx, s4, t + dt)
    out = []
    for y, a, b, c, d in zip(state, k1, k2, k3, k4):
        acc = ctx.add(a, ctx.mul(ctx.constant(2.0), b))
        acc = ctx.add(acc, ctx.mul(ctx.constant(2.0), c))
        acc = ctx.add(acc, d)
        out.append(_axpy(ctx, y, dt / 6.0, acc))
    return tuple(out)


def integrate(ctx: TapeContext, sys: OdeSystem, state, t0: float, n_steps: int):
    """Fixed-step RK4 rollout; returns the list of states after each step."""
    states = []
    t = t0
    for _ in range(n_steps):
        state = rk4_step(ctx, sys, state, t, sys.dt)
        t += sys.dt
        states.append(state)
    return states


def rollout(sys: OdeSystem, y0, n_steps: int) -> np.ndarray:
    """[n_steps + 1, state_dim] rows of the RK4 trajectory from the scalar
    state `y0` at t = 0; row 0 is `y0`.  Nothing differentiates a rollout,
    so each step records on a fresh tape and only the state values carry
    over: memory stays that of one step however long the horizon."""
    rows = [list(y0)]
    t = 0.0
    for _ in range(n_steps):
        ctx = TapeContext()
        state = tuple(ctx.constant(Value.scalar(v)) for v in rows[-1])
        rows.append([float(s.value.data) for s in rk4_step(ctx, sys, state, t, sys.dt)])
        t += sys.dt
    return np.asarray(rows)


def _segment_table(cfg: ShootingConfig):
    trajs = cfg.trajectory_list()
    seg = max(1, int(cfg.segment_length))
    entries = []  # (trajectory index, start row)
    for ti, obs in enumerate(trajs):
        if obs.ndim != 2 or obs.shape[0] < 2:
            raise EmptyObservations("need at least two observation rows per trajectory")
        for s in range(0, obs.shape[0] - 1, seg):
            entries.append((ti, s))
    if not entries:
        raise EmptyObservations("no shooting segments")
    return trajs, seg, entries


def segment_count(cfg: ShootingConfig) -> int:
    return len(_segment_table(cfg)[2])


def _shooting_steps(ctx: TapeContext, sys: OdeSystem, cfg: ShootingConfig,
                    segment_indices=None):
    """Step every segment together, lazily: after step j, yield the state,
    one target array per component (observation row s + j, clipped to the
    last row) and the mask of segments that row exists for.  Callers record
    their terms for step j before step j + 1 is taken."""
    trajs, seg, entries = _segment_table(cfg)
    if segment_indices is not None:
        entries = [entries[i] for i in segment_indices]
    state = tuple(
        ctx.constant_batch(np.array([trajs[ti][s, d] for ti, s in entries]))
        for d in range(sys.state_dim)
    )
    t = 0.0
    for j in range(1, seg + 1):
        state = rk4_step(ctx, sys, state, t, sys.dt)
        t += sys.dt
        valid = np.array([s + j <= trajs[ti].shape[0] - 1 for ti, s in entries])
        rows = [min(s + j, trajs[ti].shape[0] - 1) for ti, s in entries]
        targets = [np.array([trajs[ti][r, d] for (ti, _), r in zip(entries, rows)])
                   for d in range(sys.state_dim)]
        yield state, targets, valid


def multiple_shooting_loss(ctx: TapeContext, sys: OdeSystem, cfg: ShootingConfig,
                           segment_indices=None) -> TapeRef:
    """Each segment restarts from an observed state and integrates
    segment_length steps; the mean squared error is taken against every
    observation the segments cover, each covered point weighted equally.
    Segments from all trajectories are batched together; `segment_indices`
    restricts one evaluation to a minibatch of segments."""
    terms = []
    covered = 0  # observed points the terms cover; each term averages over all lanes
    for state, targets, valid in _shooting_steps(ctx, sys, cfg, segment_indices):
        for y, target in zip(state, targets):
            covered += int(valid.sum())
            if valid.all():
                terms.append(ctx.mse(y, Value.batch_scalars(target)))
            else:
                # ragged tail: mask the error to zero where no row exists
                masked = ctx.mul(ctx.constant_batch(valid.astype(np.float64)), y)
                target = np.where(valid, target, 0.0)
                terms.append(ctx.mse(masked, Value.batch_scalars(target)))
    total = terms[0]
    for term in terms[1:]:
        total = ctx.add(total, term)
    return ctx.mul(ctx.constant(len(valid) / covered), total)


def shooting_residuals(ctx: TapeContext, sys: OdeSystem, cfg: ShootingConfig) -> np.ndarray:
    """Flat residual vector (prediction minus observation) over every
    point the shooting segments cover; the mean of its squares equals the
    multiple-shooting loss."""
    return np.concatenate([
        (y.value.data - target)[valid]
        for state, targets, valid in _shooting_steps(ctx, sys, cfg)
        for y, target in zip(state, targets)
    ])


def gauss_newton_refine(store, sys: OdeSystem, cfg: ShootingConfig, names) -> None:
    """Gauss-Newton polish on the multiple-shooting residuals of ``sys``,
    whose right-hand side reads ``names`` from ``store`` on every run."""

    def residuals() -> np.ndarray:
        return shooting_residuals(TapeContext(), sys, cfg)

    optim.gauss_newton(store, names, residuals)


class CompiledRhs:
    """The right-hand side of a system with one compiled program per state
    component, each seeing the state components under ``input_names``.
    Called as ``rhs(ctx, state, t)``, it runs every program on the state, as
    any RHS does.  ``step_program(dt)`` links the programs into one program
    for a whole RK4 step, which ``rk4_step`` runs instead."""

    def __init__(self, programs, stores, input_names):
        self.programs, self.stores = tuple(programs), tuple(stores)
        self.input_names = tuple(input_names)
        self._steps = {}  # dt -> the linked step program, or None

    def __call__(self, ctx, state, t):
        feed = {name: ref for name, ref in zip(self.input_names, state)}
        return tuple(ctx.run(prog, feed, store) for prog, store in zip(self.programs, self.stores))

    def step_program(self, dt: float):
        """The RK4 step over ``dt`` as one compiled program (see
        ``link_rk4``), made on first use and kept; None when the programs
        cannot be linked."""
        if dt not in self._steps:
            self._steps[dt] = link_rk4(self.programs, self.stores, self.input_names, dt)
        return self._steps[dt]


def link_rk4(programs, stores, input_names, dt: float):
    """One compiled program for an RK4 step over ``dt`` of the state
    ``input_names``, whose derivatives are ``programs``, or None.

    Each stage binds every program's output, its body spliced in with its
    inputs bound to the stage's state, and the step returns the new state
    as a vector::

        (let* ((k0_0 (let ((x x) (y y)) <body 0>)) ...
               (s1_0 (+ x (* 0.05 k0_0))) ...)
          (vec (+ x (* 0.016666666666666666
                       (+ (+ (+ k0_0 (* 2.0 k1_0)) (* 2.0 k2_0)) k3_0))) ...))

    Its constants and its order of operations are ``rk4_step``'s, so its
    values are bitwise those of the stage-by-stage step, and so are its
    gradients: a taped run through a generated kernel sums each leaf's
    contributions in the order of one record per instruction.  The
    template's names are chosen apart from every name in the programs, so
    a parameter called ``k0_0`` is not captured.  Programs are linked only
    when they read one store, know no input outside ``input_names``, share
    their depth limit, name no parameter like an input and fit the parser's
    nesting limit once spliced."""
    n = len(programs)
    if (not n or n != len(input_names) or any(s is not stores[0] for s in stores)
            or any(not set(prog.input_names) <= set(input_names) for prog in programs)
            or len({prog.max_recursion_depth for prog in programs}) != 1):
        return None
    params = tuple(dict.fromkeys(p for prog in programs for p in prog.param_names))
    taken = set(input_names) | set(params)
    for prog in programs:
        taken.update(tok.text for tok in tokenize(prog.source_text) if tok.kind == "symbol")
    mark = ""
    while any(f"{c}{i}_{j}{mark}" in taken for c in "ks" for i in range(4) for j in range(n)):
        mark += "_"
    k = [[f"k{i}_{j}{mark}" for j in range(n)] for i in range(4)]
    stage = [list(input_names)] + [[f"s{i}_{j}{mark}" for j in range(n)] for i in (1, 2, 3)]
    binds = []
    for i, h in enumerate((None, dt / 2.0, dt / 2.0, dt)):
        if h is not None:
            binds += [f"({stage[i][j]} (+ {y} (* {h!r} {k[i - 1][j]})))"
                      for j, y in enumerate(input_names)]
        state = dict(zip(input_names, stage[i]))
        for j, prog in enumerate(programs):
            let = " ".join(f"({a} {state[a]})" for a in prog.input_names)
            # the newline ends a comment on the body's last line
            body = f"(let ({let}) {prog.source_text}\n)" if let else f"{prog.source_text}\n"
            binds.append(f"({k[i][j]} {body})")
    outs = [f"(+ {y} (* {dt / 6.0!r} (+ (+ (+ {k[0][j]} (* 2.0 {k[1][j]})) (* 2.0 {k[2][j]}))"
            f" {k[3][j]})))" for j, y in enumerate(input_names)]
    source = "(let* (" + "\n".join(binds) + ")\n(vec " + " ".join(outs) + "))"
    try:
        return compile_source(source, inputs=input_names, params=params,
                              config=CompileConfig(programs[0].max_recursion_depth))
    except SourceError:  # a parameter named like an input, a body near the nesting limit
        return None


def make_compiled_rhs(programs, stores, input_names) -> CompiledRhs:
    """RHS from one compiled program per state component.  Each program
    sees the state components under ``input_names``.  When every program
    reads the same store, ``rk4_step`` steps the system as one linked
    program (see ``link_rk4``), so a domain error inside a step names an
    instruction of that program; otherwise, and for a state component that
    is not a scalar, it runs each program once per stage."""
    return CompiledRhs(programs, stores, input_names)


def make_mlp_rhs(model, n_components):
    """RHS where a dense network maps the packed state to its derivative."""
    from .nn import mlp_forward, pack_scalars, unpack_scalar

    def rhs(ctx, state, t):
        x = pack_scalars(ctx, list(state))
        y = mlp_forward(ctx, model, x)
        return tuple(unpack_scalar(ctx, y, d) for d in range(n_components))

    return rhs
