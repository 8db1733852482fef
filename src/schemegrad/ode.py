"""Classical RK4 time stepping on the tape, plus the multiple-shooting loss
for trajectory fitting.

System state is a tuple of refs (scalars or vectors, optionally batched);
the right-hand side maps a state tuple to a derivative tuple on the same
tape so gradients reach the RHS parameters.

RK4 is written once, in ``rk4_step``.  Every right-hand side the library
builds (compiled programs, a network, a hybrid of both, over any number of
parameter stores) is a ``CompiledRhs``, which ``link_rk4`` links: it runs
``rk4_step`` on a context that records a tree, splicing each program's
own tree, and compiles one straight-line program with the bits of the
stage-by-stage stepper.  One RK4 step is one program, which ``rk4_step``
runs once and ``rollout`` once per step for every initial state; the k
steps of a shooting segment and their residuals are one program, which
``multiple_shooting_loss`` runs once on every segment, scored by one
``shooting_mse`` record, and ``shooting_residuals`` once untaped.  A plain
Python function is stepped stage by stage, one record per op or program
run, and so is a ``CompiledRhs`` over a state component that is not a
scalar, over programs that declare a ``__`` name, or over programs of
differing depth limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import machine, optim
from .autodiff import TapeContext, TapeRef, param_value
from .compiler import DEFAULT_MAX_DEPTH, CompileConfig, compile_tree
from .errors import EmptyObservations, ShapeMismatch
from .runtime import PROPAGATE_POLICY
from .sexpr import Const, Let, Prim, Var, pretty
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
    stage by stage, and so is the trace that links a step.  A RHS that
    gives another number of components than the state has raises
    ``ShapeMismatch``."""
    rhs = sys.rhs
    if isinstance(rhs, CompiledRhs) and all(type(y) is TapeRef and y.value.kind == "scalar"
                                            for y in state):
        linked = rhs.link(dt)
        if linked is not None:
            _check_width(len(rhs.input_names), len(state))
            out = ctx.run(linked[0], _linked_feed(state, linked[1], ctx))
            return tuple(ctx.prim("ref", out, aux=float(i)) for i in range(len(state)))
    ks = [sys.rhs(ctx, state, t)]
    _check_width(len(ks[0]), len(state))
    for h in (dt / 2.0, dt / 2.0, dt):  # each stage's state, then its derivatives
        ks.append(sys.rhs(ctx, tuple(_axpy(ctx, y, h, k) for y, k in zip(state, ks[-1])), t + h))
    out = []
    for y, a, b, c, d in zip(state, *ks):
        acc = ctx.add(_axpy(ctx, _axpy(ctx, a, 2.0, b), 2.0, c), d)  # a + 2b + 2c + d
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
    linked = rhs.link(sys.dt) if isinstance(rhs, CompiledRhs) else None
    rows = [y0]
    if linked is None:
        if y0.ndim == 2:
            return np.stack([rollout(sys, y, n_steps) for y in y0])
        t = 0.0
        for _ in range(n_steps):
            ctx = TapeContext()
            state = tuple(ctx.constant(Value.scalar(v)) for v in rows[-1])
            rows.append(np.array([s.value.data for s in rk4_step(ctx, sys, state, t, sys.dt)]))
            t += sys.dt
        return np.stack(rows)
    _check_width(len(rhs.input_names), sys.state_dim)
    for _ in range(n_steps):
        feed = _linked_feed([Value(rows[-1][..., i], "scalar", y0.ndim == 2)
                             for i in range(sys.state_dim)], linked[1])
        rows.append(machine.eval_program(linked[0], feed, None, PROPAGATE_POLICY).data)
    return np.stack(rows, axis=-2)


def _segments(cfg: ShootingConfig, state_dim: int, segment_indices=None):
    """Every segment's (or the minibatch ``segment_indices``'s) observed
    start state, one (B,) array per component, the observation row s + j
    that step j of segment s reaches (B, k, d; 0.0 past the end of a ragged
    trajectory) and where that row exists (B, k).  Observations narrower
    than ``state_dim`` raise ``ShapeMismatch``, and wider ones are read up
    to it."""
    trajs = cfg.observations
    if isinstance(trajs, np.ndarray):
        trajs = [trajs]
    trajs = [np.asarray(obs, dtype=np.float64) for obs in trajs]
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
    if segment_indices is not None:
        entries = [entries[i] for i in segment_indices]
    flat = np.concatenate([obs[:, :state_dim] for obs in trajs])
    first = np.cumsum([0] + [len(obs) for obs in trajs])
    where, start = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    last = first[where + 1] - first[where] - 1
    rows = start[:, None] + np.arange(1, seg + 1)  # (B, k): the rows step j reaches
    valid = rows <= last[:, None]
    targets = flat[first[where][:, None] + np.minimum(rows, last[:, None])]
    x0 = [np.ascontiguousarray(column) for column in flat[first[where] + start].T]
    return x0, np.where(valid[..., None], targets, 0.0), valid


def segment_count(cfg: ShootingConfig) -> int:
    return len(_segments(cfg, 0)[2])


def _shooting_steps(ctx: TapeContext, sys: OdeSystem, cfg: ShootingConfig,
                    segment_indices=None):
    """Step every segment together, lazily: after step j, yield the state,
    one target array per component and the mask of segments whose row
    exists (see ``_segments``).  Callers record their terms for step j
    before step j + 1 is taken."""
    x0, targets, valid = _segments(cfg, sys.state_dim, segment_indices)
    state = tuple(ctx.constant_batch(column) for column in x0)
    t = 0.0
    for j in range(valid.shape[1]):
        state = rk4_step(ctx, sys, state, t, sys.dt)
        t += sys.dt
        yield state, [targets[:, j, d] for d in range(sys.state_dim)], valid[:, j]


def _linked_segments(sys: OdeSystem, cfg: ShootingConfig, segment_indices=None, ctx=None):
    """The run of every segment through the system's linked segment program,
    or None when it has none: (program, its feed, the loss weight B / N, the
    masks), the parameters fed as ``ctx``'s leaves when it is given.  The
    feed holds each segment's observed start state, one batched scalar per
    component, and two batched vectors of k * d entries, step-major and
    component-minor: ``__T`` the targets of ``_segments``, ``__M`` 1.0 where
    their row exists and 0.0 where not.  N counts the rows that exist."""
    rhs = sys.rhs
    if not isinstance(rhs, CompiledRhs) or len(rhs.input_names) != sys.state_dim:
        return None
    linked = rhs.link(sys.dt, max(1, int(cfg.segment_length)))
    x0, targets, valid = _segments(cfg, sys.state_dim, segment_indices)
    if linked is None or not len(valid):  # no segment: the stepper raises as it always has
        return None
    masks = np.repeat(valid.astype(np.float64), sys.state_dim, axis=1)
    feed = _linked_feed([Value.batch_scalars(column) for column in x0], linked[1], ctx)
    feed["__T"] = Value.batch_vectors(targets.reshape(len(valid), -1))
    feed["__M"] = Value.batch_vectors(masks)
    weight = len(valid) / (int(valid.sum()) * sys.state_dim)
    return linked[0], feed, weight, masks


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
    linked = _linked_segments(sys, cfg, segment_indices, ctx)
    if linked is not None:
        prog, feed, weight, _ = linked
        return ctx.prim(SHOOTING_MSE, ctx.run(prog, feed), aux=weight)
    terms = []
    covered = 0  # observed points the terms cover; each term averages over all lanes
    for state, targets, valid in _shooting_steps(ctx, sys, cfg, segment_indices):
        for y, target in zip(state, targets):
            covered += int(valid.sum())
            if not valid.all():  # ragged tail: mask the error to zero where no row exists
                y = ctx.mul(ctx.constant_batch(valid.astype(np.float64)), y)
            terms.append(ctx.mse(y, Value.batch_scalars(target)))
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
        prog, feed, _, masks = linked
        residuals = machine.eval_program(prog, feed, None, ctx.policy).data
        return residuals.T[masks.T != 0.0]
    return np.concatenate([
        (y.value.data - target)[valid]
        for state, targets, valid in _shooting_steps(ctx, sys, cfg)
        for y, target in zip(state, targets)
    ])


SHOOTING_MSE = "shooting_mse"  # the row of the loss over a segment run's residuals


def gauss_newton_refine(store, sys: OdeSystem, cfg: ShootingConfig, names) -> None:
    """Gauss-Newton polish on the multiple-shooting residuals of ``sys``,
    whose right-hand side reads ``names`` from ``store`` on every run."""

    def residuals() -> np.ndarray:
        return shooting_residuals(TapeContext(), sys, cfg)

    optim.gauss_newton(store, names, residuals)


class CompiledRhs:
    """A right-hand side that the library builds, over any number of
    stores: ``derivatives(ctx, state)`` maps the state, named
    ``input_names``, to its derivatives through the context's methods alone
    and reads no value, so that ``link_rk4`` can trace it.  It links unless
    a state component is not a scalar, a program it runs declares a ``__``
    name or lacks an input, or programs differ in their depth limits.
    ``link(dt, steps)`` keeps ``link_rk4``'s result per (dt, steps)."""

    def __init__(self, input_names, derivatives):
        self.input_names = tuple(input_names)
        self.derivatives = derivatives
        self._linked = {}  # (dt, steps) -> (the linked program, its leaf pairs), or None

    def __call__(self, ctx, state, t):
        return self.derivatives(ctx, state)

    def link(self, dt: float, steps: int | None = None):
        key = (dt, steps)
        if key not in self._linked:
            self._linked[key] = link_rk4(self, dt, steps)
        return self._linked[key]


class _Unlinkable(Exception):
    """A traced run that ``link_rk4`` refuses."""


class _Trace:
    """A context with ``TapeContext``'s interface that computes nothing: each
    result is a tree bound to a fresh ``__k<n>`` name, a constant a ``Const``
    and a parameter a ``__p<n>`` name.  ``run`` binds a program's tree under
    a ``let`` of its inputs and parameters.  ANF names its own temporaries
    ``__t``, ``__v`` and ``__f``, which these names avoid."""

    def __init__(self):
        self.bindings = []  # (name, tree) in order
        self.pairs = []  # (store, name) of __p0, __p1, ...
        self.leaves = {}  # (id(store), name) -> its __p<n> variable
        self.depth = None  # the depth limit of the programs run

    def _bind(self, tree) -> Var:
        self.bindings.append((f"__k{len(self.bindings)}", tree))
        return Var(self.bindings[-1][0])

    def constant(self, value) -> Const:
        return Const(float(value))

    def prim(self, op: str, *args, aux=None) -> Var:
        return self._bind(Prim(op, args if aux is None else args + (Const(float(aux)),)))

    def add(self, *args) -> Var:
        return self.prim("+", *args)

    def mul(self, *args) -> Var:
        return self.prim("*", *args)

    def param(self, store, name: str) -> Var:
        key = (id(store), name)
        if key not in self.leaves:
            self.leaves[key] = Var(f"__p{len(self.pairs)}")
            self.pairs.append((store, name))
        return self.leaves[key]

    def run(self, prog, inputs: dict, store=None) -> Var:
        # a declared "__" name bound in the let could shadow a trace name
        if (any(name.startswith("__") for name in prog.input_names + prog.param_names)
                or not set(prog.input_names) <= set(inputs)
                or self.depth not in (None, prog.max_recursion_depth)):
            raise _Unlinkable
        self.depth = prog.max_recursion_depth
        binds = tuple((name, inputs[name]) for name in prog.input_names)
        binds += tuple((name, self.param(store, name)) for name in prog.param_names)
        return self._bind(Let(binds, prog.tree) if binds else prog.tree)


# Linked programs by (the text of the traced step, the number of steps, the
# depth limit), oldest first: a system built again, as every fit and set-up
# builds one, traces one step and gets the same program, its kernels warm.
_LINKED: dict = {}
_LINKED_MAX = 64


def link_rk4(rhs: CompiledRhs, dt: float, steps: int | None = None):
    """RK4 over ``dt`` of the right-hand side ``rhs`` as one compiled
    program, with the (store, name) pair of each of its ``__p<n>`` inputs:
    (program, pairs), or None.  A step is ``rk4_step`` run on a ``_Trace``
    from the state inputs ``__y<j>``.  With ``steps`` None the program
    returns the new state as a vector.  With ``steps`` k it is a shooting
    segment, the traced step k times, whose names each step binds again (a
    ``let`` binds in sequence): after step s it binds the state to the new
    state and traces each component j's residual ``(- (* (ref __M i) y)
    (ref __T i))`` at i = s * d + j of the batched inputs ``__T`` (targets)
    and ``__M`` (masks), and it returns the residuals as a vector.  The
    traced ops, constants and order are the stage-by-stage run's, so values
    and gradients are bitwise that run's.  A run feeds each pair's
    parameter as an input (``_linked_feed``).  See ``CompiledRhs`` for
    what does not link."""
    trace = _Trace()
    n = len(rhs.input_names)
    try:
        new = rk4_step(trace, OdeSystem(rhs, n, dt), tuple(Var(f"__y{j}") for j in range(n)),
                       0.0, dt)
    except _Unlinkable:
        return None
    tree = Let(tuple(trace.bindings), Prim("vec", new))
    key = (pretty(tree), steps, DEFAULT_MAX_DEPTH if trace.depth is None else trace.depth)
    prog = _LINKED.pop(key, None)
    if prog is None:
        inputs = [f"__y{j}" for j in range(n)] + [f"__p{i}" for i in range(len(trace.pairs))]
        if steps is not None:
            step = trace.bindings[:]
            trace.bindings.clear()  # the residuals' names count on from the step's
            out = []
            for s in range(steps):
                trace.bindings += step + [(f"__y{j}", y) for j, y in enumerate(new)]
                for j in range(n):
                    at = float(s * n + j)
                    masked = trace.mul(trace.prim("ref", Var("__M"), aux=at), Var(f"__y{j}"))
                    out.append(trace.prim("-", masked, trace.prim("ref", Var("__T"), aux=at)))
            tree = Let(tuple(trace.bindings), Prim("vec", tuple(out)))
            inputs += ["__T", "__M"]
        prog = compile_tree(tree, pretty(tree), inputs, (), CompileConfig(key[2]))
        if len(_LINKED) >= _LINKED_MAX:
            del _LINKED[next(iter(_LINKED))]
    _LINKED[key] = prog  # the most recently used last
    return prog, tuple(trace.pairs)


def _linked_feed(state, pairs, ctx=None) -> dict:
    """A linked program's inputs: the state components as ``__y<j>``, and as
    ``__p<n>`` the parameter of each (store, name) pair, a ``ctx.param``
    leaf with ``ctx``, its value without.  A missing store or parameter
    raises ``MissingInput``, as a stage-by-stage run does."""
    feed = {f"__y{j}": y for j, y in enumerate(state)}
    for i, (store, name) in enumerate(pairs):
        feed[f"__p{i}"] = param_value(store, name) if ctx is None else ctx.param(store, name)
    return feed


def make_compiled_rhs(programs, stores, input_names) -> CompiledRhs:
    """RHS from one compiled program per state component, each run with its
    own store and seeing the state components under ``input_names``.  It
    links as a ``CompiledRhs`` does, so a domain error inside a step names
    an instruction of the linked program."""
    runs = tuple(zip(programs, stores))
    input_names = tuple(input_names)

    def derivatives(ctx, state):
        feed = dict(zip(input_names, state))
        return tuple(ctx.run(prog, feed, store) for prog, store in runs)

    return CompiledRhs(input_names, derivatives)


def make_mlp_rhs(model, n_components) -> CompiledRhs:
    """RHS where a dense network maps the packed state to its derivative:
    ``vec``, one run of the network's program, one ``ref`` per component.
    A network whose input is not ``n_components`` wide raises
    ``ShapeMismatch``."""
    if model.layer_sizes[0] != n_components:
        raise ShapeMismatch(f"mlp input width {n_components} != layer width"
                            f" {model.layer_sizes[0]}")

    def derivatives(ctx, state):
        y = ctx.run(model.program, {"x": ctx.prim("vec", *state)}, model.store)
        return tuple(ctx.prim("ref", y, aux=float(d)) for d in range(n_components))

    return CompiledRhs([f"y{d}" for d in range(n_components)], derivatives)
