"""Classical RK4 time stepping on the tape, plus the multiple-shooting loss
for trajectory fitting.

System state is a tuple of refs (scalars or vectors, optionally batched);
the right-hand side maps a state tuple to a derivative tuple on the same
tape so gradients reach the RHS parameters.

A right-hand side made of compiled programs (``make_compiled_rhs``) is
linked into larger straight-line programs (``link_rk4``), with the bits of
the stage-by-stage Python stepper.  Linking splices the programs' parse
trees into an RK4 tree whose own names start with ``__``, which no
program's text can name, and compiles that tree:

- one RK4 step is one program: ``rk4_step`` makes one run of it, and
  ``rollout`` steps one or many initial states with one untaped run of it
  per step;
- the k steps of a shooting segment and their residuals are one program:
  ``multiple_shooting_loss`` makes one taped run of it, on every segment at
  once, scored by one ``shooting_mse`` record, and ``shooting_residuals``
  one untaped run.

Linked programs are kept process-wide, keyed by their programs' texts and
names, dt, the number of steps and the depth limit, so a system built again
over the same programs compiles nothing and finds its kernels warm.  Any
other right-hand side (a dense network, a hybrid, a Python function) is
stepped stage by stage, one record per operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import machine, optim
from .autodiff import TapeContext, TapeRef
from .compiler import CompileConfig, compile_tree
from .errors import EmptyObservations, ShapeMismatch
from .ops import Op, register
from .runtime import PROPAGATE_POLICY
from .sexpr import Const, Let, Prim, Var, parse, pretty
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


def _check_width(rhs_width: int, state_width: int) -> None:
    if rhs_width != state_width:
        raise ShapeMismatch(f"the right-hand side has {rhs_width} components,"
                            f" the state {state_width}")


def rk4_step(ctx: TapeContext, sys: OdeSystem, state, t: float, dt: float):
    """One classical RK4 step; weights (1,2,2,1)/6, fully on tape.  When the
    RHS is a ``CompiledRhs`` with a linked step for ``dt`` and every state
    component is a scalar ``TapeRef``, the step is one run of that program,
    split by one ``ref`` record per component; any other RHS is stepped here
    stage by stage, with the same constants in the same order.  A RHS that
    gives another number of components than the state has raises
    ``ShapeMismatch``."""
    rhs = sys.rhs
    if isinstance(rhs, CompiledRhs) and all(type(y) is TapeRef and y.value.kind == "scalar"
                                            for y in state):
        prog = rhs.step_program(dt)
        if prog is not None:
            _check_width(len(rhs.programs), len(state))
            out = ctx.run(prog, dict(zip(rhs.input_names, state)), rhs.stores[0])
            return tuple(ctx.prim("ref", out, aux=float(i)) for i in range(len(rhs.programs)))
    k1 = sys.rhs(ctx, state, t)
    _check_width(len(k1), len(state))
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
    """The RK4 trajectory from t = 0 of one initial state ``y0`` (d floats),
    as [n_steps + 1, d] rows, or of many ([N, d]), as [N, n_steps + 1, d];
    row 0 is the initial state.  Nothing differentiates a rollout: a system
    with a linked step (see ``CompiledRhs``) steps every initial state at
    once, with one untaped run of the step program per step; any other
    system steps each initial state on a fresh tape per step, keeping only
    the state values, so memory stays that of one step.  Initial states of
    another width than the system's raise ``ShapeMismatch``."""
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim not in (1, 2) or y0.shape[-1] != sys.state_dim:
        raise ShapeMismatch(f"initial states of shape {y0.shape} for a state of"
                            f" {sys.state_dim} components")
    rhs = sys.rhs
    prog = rhs.step_program(sys.dt) if isinstance(rhs, CompiledRhs) else None
    if prog is None:
        if y0.ndim == 2:
            return np.stack([rollout(sys, y, n_steps) for y in y0])
        rows = [y0]
        t = 0.0
        for _ in range(n_steps):
            ctx = TapeContext()
            state = tuple(ctx.constant(Value.scalar(v)) for v in rows[-1])
            rows.append(np.array([s.value.data for s in rk4_step(ctx, sys, state, t, sys.dt)]))
            t += sys.dt
        return np.stack(rows)
    _check_width(len(rhs.programs), sys.state_dim)
    many = y0.ndim == 2
    rows = [y0]
    for _ in range(n_steps):
        feed = {name: Value(rows[-1][..., i], "scalar", many)
                for i, name in enumerate(rhs.input_names)}
        rows.append(machine.eval_program(prog, feed, rhs.stores[0], PROPAGATE_POLICY).data)
    return np.stack(rows, axis=-2)


def _segment_table(cfg: ShootingConfig, state_dim: int = 0):
    """The trajectories, the segment length and every segment's (trajectory
    index, start row); observations narrower than ``state_dim`` raise
    ``ShapeMismatch``, and wider ones are read up to it."""
    trajs = cfg.trajectory_list()
    seg = max(1, int(cfg.segment_length))
    entries = []  # (trajectory index, start row)
    for ti, obs in enumerate(trajs):
        if obs.ndim != 2 or obs.shape[0] < 2:
            raise EmptyObservations("need at least two observation rows per trajectory")
        if obs.shape[1] < state_dim:
            raise ShapeMismatch(f"observations of {obs.shape[1]} components for a state of"
                                f" {state_dim}")
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
    trajs, seg, entries = _segment_table(cfg, sys.state_dim)
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


def _linked_segments(sys: OdeSystem, cfg: ShootingConfig, segment_indices=None):
    """The run of every segment through the system's linked segment program
    (see ``CompiledRhs``), or None when it has none: (program, its inputs,
    the store, the loss weight B / N, the masks).

    The inputs are each segment's observed start state, one batched scalar
    per component, and two batched vectors of k * d entries, step-major and
    component-minor: ``__T`` holds the observation row s + j of segment s
    after step j, ``__M`` 1.0 where that row exists and 0.0 past the end of a
    ragged trajectory, where ``__T`` holds 0.0.  N counts the rows that exist."""
    rhs = sys.rhs
    if not isinstance(rhs, CompiledRhs) or len(rhs.input_names) != sys.state_dim:
        return None
    prog = rhs.segment_program(sys.dt, max(1, int(cfg.segment_length)))
    trajs, seg, entries = _segment_table(cfg, sys.state_dim)
    if segment_indices is not None:
        entries = [entries[i] for i in segment_indices]
    if prog is None or not entries:  # no segment: the stepper raises as it always has
        return None
    flat = np.concatenate(trajs)[:, :sys.state_dim]
    first = np.cumsum([0] + [len(obs) for obs in trajs])
    where, start = np.array(entries).T
    last = first[where + 1] - first[where] - 1
    rows = start[:, None] + np.arange(1, seg + 1)  # (B, k): the rows step j reaches
    valid = rows <= last[:, None]
    targets = flat[first[where][:, None] + np.minimum(rows, last[:, None])]  # (B, k, d)
    targets = np.where(valid[..., None], targets, 0.0).reshape(len(entries), -1)
    masks = np.repeat(valid.astype(np.float64), sys.state_dim, axis=1)
    x0 = flat[first[where] + start]
    feed = {name: Value.batch_scalars(np.ascontiguousarray(x0[:, i]))
            for i, name in enumerate(rhs.input_names)}
    feed.update(zip(prog.input_names[len(feed):], (Value.batch_vectors(targets),
                                                   Value.batch_vectors(masks))))
    weight = len(entries) / (int(valid.sum()) * sys.state_dim)
    return prog, feed, rhs.stores[0], weight, masks


def multiple_shooting_loss(ctx: TapeContext, sys: OdeSystem, cfg: ShootingConfig,
                           segment_indices=None) -> TapeRef:
    """Each segment restarts from an observed state and integrates
    segment_length steps; the mean squared error is taken against every
    observation the segments cover, each covered point weighted equally.
    Segments from all trajectories are batched together; `segment_indices`
    restricts one evaluation to a minibatch of segments.

    A system with a linked segment program makes one taped run of it and
    one ``shooting_mse`` record; any other steps with ``rk4_step`` and
    records its terms one by one.  Both give the same bits."""
    linked = _linked_segments(sys, cfg, segment_indices)
    if linked is not None:
        prog, feed, store, weight, _ = linked
        return ctx.prim(SHOOTING_MSE, ctx.run(prog, feed, store), aux=weight)
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
    point the shooting segments cover, step-major, then component, then
    segment; the mean of its squares equals the multiple-shooting loss.  A
    system with a linked segment program makes one untaped run of it and
    keeps each column's rows that exist."""
    linked = _linked_segments(sys, cfg)
    if linked is not None:
        prog, feed, store, _, masks = linked
        residuals = machine.eval_program(prog, feed, store, ctx.policy).data
        return residuals.T[masks.T != 0.0]
    return np.concatenate([
        (y.value.data - target)[valid]
        for state, targets, valid in _shooting_steps(ctx, sys, cfg)
        for y, target in zip(state, targets)
    ])


def _shooting_mse(args, policy=None, weight=None) -> Value:
    """The multiple-shooting loss from a segment run's residuals r, (B, k *
    d): the terms the step-by-step loss records, in its order.  Each column
    is one mean squared error over the segments, ``np.mean(r * r)``; they
    are summed left to right and the sum is scaled by ``weight``."""
    r = args[0].data
    squares = r * r
    terms = np.add.reduce(np.ascontiguousarray(squares.T), axis=1) / r.shape[0]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return Value.scalar(weight * total)


def _vjp_shooting_mse(g, args, out, weight, need):
    """Each residual's gradient as the step-by-step loss gives it: the
    scale's adjoint passes unchanged through the sum to every mean squared
    error, whose adjoint is ``g * (2 r / B)``."""
    r = args[0].data
    return [(g * weight) * (2.0 * r / r.shape[0])]


SHOOTING_MSE = "shooting_mse"
register(Op(SHOOTING_MSE, "tape", 1, 1, forward=_shooting_mse, vjp=_vjp_shooting_mse))


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
    any RHS does.  ``step_program(dt)`` and ``segment_program(dt, k)`` are
    the programs linked into one RK4 step or one k-step shooting segment
    (see ``link_rk4``), which ``rk4_step``, ``rollout``,
    ``multiple_shooting_loss`` and ``shooting_residuals`` run instead."""

    def __init__(self, programs, stores, input_names):
        self.programs, self.stores = tuple(programs), tuple(stores)
        self.input_names = tuple(input_names)
        self._linked = {}  # (dt, steps) -> the linked program, or None

    def __call__(self, ctx, state, t):
        feed = {name: ref for name, ref in zip(self.input_names, state)}
        return tuple(ctx.run(prog, feed, store) for prog, store in zip(self.programs, self.stores))

    def step_program(self, dt: float):
        """The RK4 step over ``dt`` as one compiled program, or None when
        the programs cannot be linked."""
        return self._link(dt, None)

    def segment_program(self, dt: float, steps: int):
        """``steps`` RK4 steps over ``dt`` and their residuals as one
        compiled program, or None when the programs cannot be linked."""
        return self._link(dt, steps)

    def _link(self, dt, steps):
        key = (dt, steps)
        if key not in self._linked:
            self._linked[key] = link_rk4(self.programs, self.stores, self.input_names, dt, steps)
        return self._linked[key]


# Linked programs (or None) by (the programs' texts and names, the state names,
# dt, steps, depth limit), oldest first: a system built again over programs
# compiled from the same texts, as every fit and benchmark set-up builds one,
# gets the same program, compiled once and its kernels warm.
_LINKED: dict = {}
_LINKED_MAX = 64


def link_rk4(programs, stores, input_names, dt: float, steps: int | None = None):
    """One compiled program for RK4 stepping over ``dt`` of the state
    ``input_names``, whose derivatives are ``programs``, or None.

    Its tree is one ``let`` that binds, stage by stage, the state, such as
    ``(__s1_0 (+ x (* 0.05 __k0_0)))``, then each program's parse tree under
    a ``let`` that binds its inputs to that state.  With ``steps`` None it
    returns the new state as a vector.  With ``steps`` k it is a shooting
    segment: after each step j it rebinds the state names, then binds each
    component's residual ``(- (* (ref __M i) x) (ref __T i))`` at i = (j - 1)
    * d + component of the batched inputs ``__T`` (targets) and ``__M``
    (masks), and it returns the residuals as a vector.  Its constants and
    order of operations are ``rk4_step``'s, and a residual is bound before
    the next step's stages, so its values and gradients are bitwise the
    stage-by-stage ones.  Its own names start with ``__``, which no
    program's text can name.  Programs link only when they read one store,
    know no input outside ``input_names``, share their depth limit, name no
    parameter like a state input and declare no ``__`` name."""
    params = tuple(dict.fromkeys(p for prog in programs for p in prog.param_names))
    if (not programs or len(programs) != len(input_names)
            or any(s is not stores[0] for s in stores)
            or any(not set(prog.input_names) <= set(input_names) for prog in programs)
            or len({prog.max_recursion_depth for prog in programs}) != 1
            or set(params) & set(input_names)
            or any(name.startswith("__") for name in params + tuple(input_names))):
        return None
    key = (tuple((prog.source_text, prog.input_names, prog.param_names) for prog in programs),
           tuple(input_names), dt, steps, programs[0].max_recursion_depth)
    if key in _LINKED:
        prog = _LINKED.pop(key)
    else:
        prog = _link(programs, tuple(input_names), params, dt, steps)
        if len(_LINKED) >= _LINKED_MAX:
            del _LINKED[next(iter(_LINKED))]
    _LINKED[key] = prog  # the most recently used last
    return prog


def _axpy_tree(y, c: float, k):
    """``(+ y (* c k))``, as ``_axpy`` records it."""
    return Prim("+", (y, Prim("*", (Const(float(c)), k))))


def _link(programs, input_names, params, dt, steps):
    n = len(programs)
    bodies = [parse(prog.source_text) for prog in programs]
    y = [Var(name) for name in input_names]
    k = [[Var(f"__k{i}_{j}") for j in range(n)] for i in range(4)]
    stage = [y] + [[Var(f"__s{i}_{j}") for j in range(n)] for i in (1, 2, 3)]
    step = []
    for i, h in enumerate((None, dt / 2.0, dt / 2.0, dt)):
        if h is not None:
            step += [(v.name, _axpy_tree(y[j], h, k[i - 1][j])) for j, v in enumerate(stage[i])]
        state = dict(zip(input_names, stage[i]))
        for j, (prog, body) in enumerate(zip(programs, bodies)):
            let = tuple((a, state[a]) for a in prog.input_names)
            step.append((k[i][j].name, Let(let, body) if let else body))
    new = []
    for j in range(n):
        acc = _axpy_tree(_axpy_tree(k[0][j], 2.0, k[1][j]), 2.0, k[2][j])
        new.append(_axpy_tree(y[j], dt / 6.0, Prim("+", (acc, k[3][j]))))
    inputs, binds, out = input_names, step, new
    if steps is not None:
        inputs += ("__T", "__M")
        binds, out = [], []
        for s in range(steps):
            binds += step + list(zip(input_names, new))
            for j in range(n):
                at = Const(float(s * n + j))
                out.append(Var(f"__r{s + 1}_{j}"))
                residual = Prim("-", (Prim("*", (Prim("ref", (Var("__M"), at)), y[j])),
                                      Prim("ref", (Var("__T"), at))))
                binds.append((out[-1].name, residual))
    tree = Let(tuple(binds), Prim("vec", tuple(out)))  # its text keys the kernels
    return compile_tree(tree, pretty(tree), inputs, params,
                        CompileConfig(programs[0].max_recursion_depth))


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
