"""Classical RK4 time stepping on the tape, plus the multiple-shooting loss
for trajectory fitting.

System state is a tuple of refs (scalars or vectors, optionally batched);
the right-hand side maps a state tuple to a derivative tuple on the same
tape so gradients reach the RHS parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .autodiff import TapeContext, TapeRef
from .errors import EmptyObservations
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
    """One classical RK4 step; weights (1,2,2,1)/6, fully on tape."""
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


def make_compiled_rhs(programs, stores, input_names):
    """RHS from one compiled program per state component.  Each program
    sees the state components under `input_names`."""

    def rhs(ctx, state, t):
        feed = {name: ref for name, ref in zip(input_names, state)}
        outs = []
        for prog, store in zip(programs, stores):
            outs.append(ctx.run(prog, feed, store))
        return tuple(outs)

    return rhs


def make_mlp_rhs(model, n_components):
    """RHS where a dense network maps the packed state to its derivative."""
    from .nn import mlp_forward, pack_scalars, unpack_scalar

    def rhs(ctx, state, t):
        x = pack_scalars(ctx, list(state))
        y = mlp_forward(ctx, model, x)
        return tuple(unpack_scalar(ctx, y, d) for d in range(n_components))

    return rhs
