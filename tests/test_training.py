import ast
from pathlib import Path

import numpy as np
import pytest

import schemegrad

from schemegrad.autodiff import ParameterStore, TapeContext
from schemegrad.compiler import compile_source
from schemegrad.errors import EmptyObservations, NonFiniteLoss, ShapeMismatch
from schemegrad.nn import MlpModel, compose_chain, hybrid_forward, mlp_forward
from schemegrad.ode import (
    OdeSystem,
    ShootingConfig,
    integrate,
    multiple_shooting_loss,
    rk4_step,
    rollout,
    shooting_residuals,
)
from schemegrad.optim import AdamState, adam_step, cosine_lr, mse_loss
from schemegrad.training import DataSpec, fit, train_coefficients, truth_store
from schemegrad.values import Value, bit_equal


# --- Adam ---------------------------------------------------------------


def test_adam_zero_gradient_leaves_value():
    store = ParameterStore()
    store.add("p", 1.5)
    store.zero_grads()
    adam_step(store, AdamState(lr=0.1))
    assert float(store["p"].value.data) == 1.5


def test_adam_first_step_hand_computed():
    # grad 1, lr 0.1: m_hat = 1, v_hat = 1 -> update = lr / (1 + eps)
    store = ParameterStore()
    store.add("p", 1.0)
    store.zero_grads()
    store.accumulate_grad("p", np.asarray(1.0))
    state = AdamState(lr=0.1)
    adam_step(store, state)
    expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(float(store["p"].value.data) - expected) < 1e-15
    assert state.step == 1


def test_adam_descends_convex_quadratic():
    store = ParameterStore()
    store.add("p", 4.0)
    state = AdamState(lr=0.05)
    losses = []
    for _ in range(200):
        p = float(store["p"].value.data)
        losses.append((p - 1.0) ** 2)
        store.zero_grads()
        store.accumulate_grad("p", np.asarray(2.0 * (p - 1.0)))
        adam_step(store, state)
    assert losses[-1] < losses[0]
    assert losses[-1] < 1e-2


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 1e-2, 1e-4) == pytest.approx(1e-2)
    assert cosine_lr(99, 100, 1e-2, 1e-4) == pytest.approx(1e-4)


# --- losses ---------------------------------------------------------------


def test_mse_loss_values_and_seed():
    loss, seed = mse_loss(Value.vector([2.0]), Value.vector([0.0]))
    assert loss.item() == 4.0
    assert np.array_equal(seed.data, [4.0])  # 2*(2-0)/1
    loss, _ = mse_loss(Value.vector([1.0, 1.0]), Value.vector([1.0, 1.0]))
    assert loss.item() == 0.0
    with pytest.raises(ShapeMismatch):
        mse_loss(Value.vector([1.0]), Value.vector([1.0, 2.0]))


def test_mse_seed_matches_finite_differences():
    rng = np.random.default_rng(0)
    pred = rng.uniform(-1, 1, 5)
    target = rng.uniform(-1, 1, 5)
    _, seed = mse_loss(Value.vector(pred), Value.vector(target))
    h = 1e-7
    for i in range(5):
        up = pred.copy(); up[i] += h
        down = pred.copy(); down[i] -= h
        fd = (mse_loss(Value.vector(up), Value.vector(target))[0].item()
              - mse_loss(Value.vector(down), Value.vector(target))[0].item()) / (2 * h)
        assert abs(fd - seed.data[i]) < 1e-6


# --- RK4 -------------------------------------------------------------------


def _scalar_sys(rhs_fn, dt=0.1):
    def rhs(ctx, state, t):
        (y,) = state
        return (rhs_fn(ctx, y),)

    return OdeSystem(rhs=rhs, state_dim=1, dt=dt)


def test_rk4_zero_rhs_keeps_state():
    sys = _scalar_sys(lambda ctx, y: ctx.constant(0.0))
    ctx = TapeContext()
    (out,) = rk4_step(ctx, sys, (ctx.constant(1.23),), 0.0, 0.1)
    assert out.value.item() == 1.23


def test_rk4_exponential_growth_one_step():
    sys = _scalar_sys(lambda ctx, y: y)
    ctx = TapeContext()
    (out,) = rk4_step(ctx, sys, (ctx.constant(1.0),), 0.0, 0.1)
    assert abs(out.value.item() - np.exp(0.1)) < 1e-7


def test_rk4_fourth_order_richardson():
    # error(dt) / error(dt/2) ~ 16 for y' = -y over t in [0, 1]
    def run(dt):
        sys = _scalar_sys(lambda ctx, y: ctx.prim("-", ctx.constant(0.0), y), dt=dt)
        ctx = TapeContext()
        state = (ctx.constant(1.0),)
        t = 0.0
        for _ in range(int(round(1.0 / dt))):
            state = rk4_step(ctx, sys, state, t, dt)
            t += dt
        return abs(state[0].value.item() - np.exp(-1.0))

    e1, e2 = run(0.1), run(0.05)
    assert 12.0 < e1 / e2 < 20.0


def test_rk4_gradient_flows_to_rhs_params():
    prog = compile_source("(* rate y)", inputs=("y",), params=("rate",))
    store = truth_store({"rate": 0.5})
    store.zero_grads()

    def rhs(ctx, state, t):
        return (ctx.run(prog, {"y": state[0]}, store),)

    sys = OdeSystem(rhs=rhs, state_dim=1, dt=0.1)
    ctx = TapeContext()
    state = (ctx.constant(1.0),)
    for _ in range(5):
        state = rk4_step(ctx, sys, state, 0.0, 0.1)
    loss = ctx.mse(state[0], Value.scalar(0.0))
    ctx.backward(loss)
    assert store["rate"].grad is not None and store["rate"].grad != 0.0


# --- multiple shooting -------------------------------------------------------


def _lv_like_system(store):
    prog = compile_source("(* r y)", inputs=("y",), params=("r",))

    def rhs(ctx, state, t):
        return (ctx.run(prog, {"y": state[0]}, store),)

    return OdeSystem(rhs=rhs, state_dim=1, dt=0.1)


def _generate(store, n_steps):
    sys = _lv_like_system(store)
    ctx = TapeContext()
    state = (ctx.constant(1.0),)
    rows = [[1.0]]
    for _ in range(n_steps):
        state = rk4_step(ctx, sys, state, 0.0, sys.dt)
        rows.append([state[0].value.item()])
    return np.asarray(rows)


def test_shooting_loss_zero_at_truth():
    store = truth_store({"r": 0.4})
    obs = _generate(store, 40)
    sys = _lv_like_system(store)
    ctx = TapeContext()
    loss = multiple_shooting_loss(ctx, sys, ShootingConfig(10, obs))
    assert float(loss.value.data) < 1e-20


def test_shooting_loss_grows_off_truth():
    truth = truth_store({"r": 0.4})
    obs = _generate(truth, 40)
    off = truth_store({"r": 0.44})
    ctx = TapeContext()
    loss_off = multiple_shooting_loss(ctx, _lv_like_system(off), ShootingConfig(10, obs))
    ctx = TapeContext()
    loss_at = multiple_shooting_loss(ctx, _lv_like_system(truth), ShootingConfig(10, obs))
    assert float(loss_off.value.data) > float(loss_at.value.data)


def test_segment_length_full_trajectory_is_single_shooting():
    store = truth_store({"r": 0.4})
    obs = _generate(store, 20)
    ctx = TapeContext()
    loss = multiple_shooting_loss(ctx, _lv_like_system(store),
                                  ShootingConfig(20, obs))
    assert float(loss.value.data) < 1e-20


def test_empty_observations_rejected():
    store = truth_store({"r": 0.4})
    with pytest.raises(EmptyObservations):
        ctx = TapeContext()
        multiple_shooting_loss(ctx, _lv_like_system(store),
                               ShootingConfig(10, np.zeros((1, 1))))


def test_segments_start_from_observed_states():
    # corrupting one interior observation perturbs the segment that starts
    # there, which a predicted-start scheme would not notice
    store = truth_store({"r": 0.4})
    obs = _generate(store, 40)
    corrupted = obs.copy()
    corrupted[10, 0] += 0.05  # a segment boundary for segment_length=10
    ctx = TapeContext()
    loss = multiple_shooting_loss(ctx, _lv_like_system(store),
                                  ShootingConfig(10, corrupted))
    assert float(loss.value.data) > 1e-6


def test_shooting_residuals_cover_every_observation_and_square_to_the_loss():
    store = truth_store({"r": 0.4})
    sys = _lv_like_system(store)
    # 23 rows in segments of 10: the ragged last segment covers two rows
    ragged = _generate(store, 22) + 0.01
    assert shooting_residuals(TapeContext(), sys, ShootingConfig(10, ragged)).shape == (22,)
    for obs in (_generate(store, 20) + 0.01, ragged):
        loss = multiple_shooting_loss(TapeContext(), sys, ShootingConfig(10, obs))
        res = shooting_residuals(TapeContext(), sys, ShootingConfig(10, obs))
        assert float(np.mean(res * res)) == pytest.approx(float(loss.value.data), rel=1e-12)


def test_rollout_starts_at_y0_and_follows_integrate():
    sys = _lv_like_system(truth_store({"r": 0.4}))
    rows = rollout(sys, (1.5,), 12)
    assert rows.shape == (13, 1)
    assert rows[0, 0] == 1.5
    ctx = TapeContext()
    states = integrate(ctx, sys, (ctx.constant(1.5),), 0.0, 12)
    assert np.array_equal(rows[1:], [[float(s[0].value.data)] for s in states])


# --- fit ----------------------------------------------------------------------


def test_fit_raises_non_finite_loss_at_its_epoch():
    prog = compile_source("(* p x)", inputs=("x",), params=("p",))
    store = truth_store({"p": 2.0})
    xs = iter([1.0, 2.0, 3.0, float("inf"), 4.0])

    def loss_fn(ctx):
        return ctx.mse(ctx.run(prog, {"x": next(xs)}, store), Value.scalar(0.0))

    with pytest.raises(NonFiniteLoss) as err:
        fit(loss_fn, [(store, 1e-2, 1e-3)], epochs=5, record_every=1)
    assert err.value.epoch == 3


def _two_group_problem():
    xs = np.linspace(-1.0, 1.0, 9)
    scale = compile_source("(* a x)", inputs=("x",), params=("a",))
    shift = compile_source("(+ b (* 0.5 x))", inputs=("x",), params=("b",))
    sa, sb = truth_store({"a": 1.0}), truth_store({"b": -0.5})
    x, y = Value.batch_scalars(xs), Value.batch_scalars(3.0 * xs + 0.25)

    def loss_fn(ctx):
        pred = ctx.add(ctx.run(scale, {"x": x}, sa), ctx.run(shift, {"x": x}, sb))
        return ctx.mse(pred, y)

    return sa, sb, loss_fn


def test_two_group_fit_matches_a_hand_written_loop_bitwise():
    epochs = 30
    sa, sb, loss_fn = _two_group_problem()
    curve = fit(loss_fn, [(sa, 1e-2, 1e-4), (sb, 0.05, 0.05)], epochs, record_every=4)

    ha, hb, hand_loss = _two_group_problem()
    adam_a, adam_b = AdamState(), AdamState()
    hand_curve = []
    for epoch in range(epochs):
        ctx = TapeContext()
        loss = hand_loss(ctx)
        ha.zero_grads()
        hb.zero_grads()
        ctx.backward(loss)
        adam_step(ha, adam_a, lr=cosine_lr(epoch, epochs, 1e-2, 1e-4))
        adam_step(hb, adam_b, lr=0.05)
        if epoch % 4 == 0 or epoch == epochs - 1:
            hand_curve.append((epoch, float(loss.value.data)))

    assert curve == hand_curve
    assert bit_equal(sa["a"].value, ha["a"].value)
    assert bit_equal(sb["b"].value, hb["b"].value)


def _callee_name(call: ast.Call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_adam_step_is_called_only_from_training_fit():
    root = Path(schemegrad.__file__).parent
    callers = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node id -> innermost enclosing function (outer ones walk first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner.update((id(n), getattr(fn, "name", "<lambda>")) for n in ast.walk(fn))
        callers += [(path.relative_to(root).as_posix(), owner.get(id(n)))
                    for n in ast.walk(tree)
                    if isinstance(n, ast.Call) and _callee_name(n) == "adam_step"]
    assert callers == [("training.py", "fit")]


# --- train_coefficients -------------------------------------------------------


def test_train_coefficients_recovers_planck_quickly():
    prog = compile_source("(* h f)", inputs=("f",), params=("h",))
    store, report = train_coefficients(
        prog, {"h": 6.626}, DataSpec({"f": (0.1, 4.0)}, batch=2000),
        epochs=1500, seed=3,
    )
    assert report.recovery_errors["h"] < 0.01
    assert report.epochs == 1500


def test_training_deterministic_given_seed():
    prog = compile_source("(* h f)", inputs=("f",), params=("h",))
    _, r1 = train_coefficients(prog, {"h": 6.626},
                               DataSpec({"f": (0.1, 4.0)}, batch=500),
                               epochs=60, seed=11)
    _, r2 = train_coefficients(prog, {"h": 6.626},
                               DataSpec({"f": (0.1, 4.0)}, batch=500),
                               epochs=60, seed=11)
    assert r1.loss_curve == r2.loss_curve
    assert r1.final_params == r2.final_params


# --- MLP --------------------------------------------------------------------


def test_mlp_zero_weights_zero_output():
    model = MlpModel([2, 4, 1], activation="relu")
    for name in model.store.names():
        model.store.set_value(name, np.zeros_like(model.store[name].value.data))
    ctx = TapeContext()
    out = mlp_forward(ctx, model, ctx.lift(Value.batch_vectors(np.ones((3, 2)))))
    assert np.array_equal(out.value.data, np.zeros((3, 1)))


def test_mlp_linear_identity_case():
    model = MlpModel([1, 1], activation="relu")
    model.store.set_value("w0", np.array([[2.0]]))
    model.store.set_value("b0", np.array([1.0]))
    ctx = TapeContext()
    out = mlp_forward(ctx, model, ctx.lift(Value.vector([3.0])))
    assert out.value.data[0] == 7.0


def test_mlp_param_count_formula():
    model = MlpModel([3, 64, 64, 64, 2])
    expected = 3 * 64 + 64 + 64 * 64 + 64 + 64 * 64 + 64 + 64 * 2 + 2
    assert model.param_count == expected
    assert model.store.num_trainable == expected


def test_mlp_gradient_check():
    rng = np.random.default_rng(0)
    model = MlpModel([2, 5, 1], activation="tanh", rng=rng)
    x = Value.batch_vectors(rng.uniform(-1, 1, (4, 2)))
    target = Value.batch_vectors(rng.uniform(-1, 1, (4, 1)))

    def loss_at():
        ctx = TapeContext()
        out = mlp_forward(ctx, model, ctx.lift(x))
        return ctx, ctx.mse(out, target)

    ctx, loss = loss_at()
    model.store.zero_grads()
    ctx.backward(loss)
    h = 1e-6
    for name in model.store.names():
        grad = model.store[name].grad
        arr = model.store[name].value.data
        flat_idx = 0  # check one coordinate per tensor
        base = arr.ravel()[flat_idx]
        arr.ravel()[flat_idx] = base + h
        model.store.set_value(name, arr)
        up = float(loss_at()[1].value.data)
        arr.ravel()[flat_idx] = base - h
        model.store.set_value(name, arr)
        down = float(loss_at()[1].value.data)
        arr.ravel()[flat_idx] = base
        model.store.set_value(name, arr)
        fd = (up - down) / (2 * h)
        assert abs(fd - grad.ravel()[flat_idx]) < 1e-6


# --- hybrid and composition --------------------------------------------------


def test_hybrid_with_zero_mlp_equals_compiled():
    prog = compile_source("(* (- 0 g_L) (sin theta))",
                          inputs=("theta", "omega"), params=("g_L",))
    store = truth_store({"g_L": 9.81})
    model = MlpModel([2, 8, 1], activation="tanh")
    for name in model.store.names():
        model.store.set_value(name, np.zeros_like(model.store[name].value.data))
    ctx = TapeContext()
    inputs = {"theta": Value.scalar(0.7), "omega": Value.scalar(0.2)}
    out = hybrid_forward(ctx, prog, store, model, inputs)
    from schemegrad.machine import eval_program

    direct = eval_program(prog, inputs, store)
    assert bit_equal(out.value, direct)


def test_compose_chain_all_compiled_exact():
    square = compile_source("(* x x)", inputs=("x",))
    add_one = compile_source("(+ x 1)", inputs=("x",))
    cube = compile_source("(* x (* x x))", inputs=("x",))
    ctx = TapeContext()
    out = compose_chain(ctx, [square, add_one, cube], ctx.constant(2.0))
    assert out.value.item() == 125.0


def test_compose_chain_empty_is_identity():
    ctx = TapeContext()
    x = ctx.constant(3.3)
    assert compose_chain(ctx, [], x) is x


def test_compose_chain_zero_mlp_stage_zeroes_out():
    square = compile_source("(* x x)", inputs=("x",))
    model = MlpModel([1, 4, 1], activation="tanh")
    for name in model.store.names():
        model.store.set_value(name, np.zeros_like(model.store[name].value.data))
    ctx = TapeContext()
    out = compose_chain(ctx, [square, model, square], ctx.constant(2.0))
    assert out.value.item() == 0.0


def test_parameter_efficiency_counts():
    # compiled models expose exactly their symbolic constants
    from schemegrad.experiments.registry import FEYNMAN

    for eid, eq in FEYNMAN.items():
        store = truth_store(eq.params, eq.frozen)
        assert store.num_trainable == len(eq.params)
        assert store.num_trainable in (1, 2, 3), eid
