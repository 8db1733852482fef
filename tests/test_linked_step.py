"""The linked RK4 step against the stage-by-stage one.

A ``CompiledRhs`` links its programs into one program per step, so
``rk4_step`` makes one run of it where the Python stepper makes one run per
program per stage and the stage arithmetic in between.  Both must give the
same bits: shooting losses, parameter gradients, every state, rollouts,
replayed tapes and errors.  The stage-by-stage reference is the same RHS
called through a plain function, which has no linked step.
"""

import numpy as np
import pytest

from schemegrad import kernels, ode
from schemegrad.autodiff import TapeContext
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation
from schemegrad.experiments import lotka_volterra as lv_exp
from schemegrad.experiments import pendulum as pendulum_exp
from schemegrad.runtime import ERROR_POLICY
from schemegrad.training import truth_store
from schemegrad.values import Value


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return repr(a.shape).encode() + a.tobytes()


def _stage_by_stage(system: ode.OdeSystem) -> ode.OdeSystem:
    rhs = system.rhs
    return ode.OdeSystem(rhs=lambda ctx, state, t: rhs(ctx, state, t),
                         state_dim=system.state_dim, dt=system.dt)


def _epoch(system, store, cfg, segment_indices=None):
    """Bits of one taped shooting epoch: every state, the loss and every
    parameter gradient, with the tape's record kinds and its replay."""
    ctx = TapeContext()
    states = [_bits(y.value.data) for state, _, _ in
              ode._shooting_steps(ctx, system, cfg, segment_indices) for y in state]
    ctx = TapeContext()
    loss = ode.multiple_shooting_loss(ctx, system, cfg, segment_indices)
    store.zero_grads()
    ctx.backward(loss)
    assert ctx.tape.replay()
    ops = [node[0] for node in ctx.tape.nodes]
    grads = {name: _bits(store[name].grad) for name in store.names()}
    return states, _bits(loss.value.data), grads, ops


def _lv():
    store = truth_store({k: 1.1 * v for k, v in lv_exp.TRUE_PARAMS.items()})
    cfg = ode.ShootingConfig(lv_exp.SEGMENT_LENGTH, lv_exp.generate_observations())
    return lv_exp.make_system(store), store, cfg


def _ragged_pendulum():
    store = truth_store({k: 0.9 * v for k, v in pendulum_exp.TRUE_PARAMS.items()})
    ics = pendulum_exp.training_ics(np.random.default_rng(3))[:4]
    obs = [o[:n] for o, n in zip(pendulum_exp.generate_observations(ics), (121, 118, 57, 24))]
    return pendulum_exp.make_system(store), store, ode.ShootingConfig(10, obs)


@pytest.mark.parametrize("case", [_lv, _ragged_pendulum], ids=["lotka_volterra", "pendulum"])
def test_a_linked_epoch_is_bitwise_the_stage_by_stage_one(case):
    system, store, cfg = case()
    for _ in range(3):  # the first runs take the executor, later ones the kernels
        linked = _epoch(system, store, cfg)
        staged = _epoch(_stage_by_stage(system), store, cfg)
        assert linked[:3] == staged[:3]
    steps = cfg.segment_length
    assert linked[3].count("ref") == 2 * steps and linked[3].count(kernels.FUSED) == steps
    assert "ref" not in staged[3]


def test_a_minibatch_of_ragged_segments_is_bitwise_too():
    system, store, cfg = _ragged_pendulum()
    idx = [0, 5, 11, 12, 17]
    for _ in range(3):
        assert _epoch(system, store, cfg, idx)[:3] == \
            _epoch(_stage_by_stage(system), store, cfg, idx)[:3]


@pytest.mark.parametrize("exp, y0", [(lv_exp, lv_exp.Y0), (pendulum_exp, (1.2, 0.4))],
                         ids=["lotka_volterra", "pendulum"])
def test_a_b1_rollout_is_bitwise_the_stage_by_stage_one(exp, y0):
    system = exp.make_system(truth_store(exp.TRUE_PARAMS))
    linked = ode.rollout(system, y0, 40)
    staged = ode.rollout(_stage_by_stage(system), y0, 40)
    assert _bits(linked) == _bits(staged)


def test_the_step_is_one_program_cached_per_dt():
    system, _, _ = _lv()
    step = system.rhs.step_program(0.1)
    assert step is system.rhs.step_program(0.1) is not system.rhs.step_program(0.05)
    assert step.input_names == ("x", "y")
    assert step.param_names == ("alpha", "beta", "delta", "gamma")
    assert not step.functions and step.block.tail[0] == "exit"


def test_template_names_do_not_capture_the_programs_names():
    # a parameter and a local named like the template's temporaries
    store = truth_store({"k0_0": 0.7, "s1_1": -0.4})
    progs = [compile_source("(* k0_0 y)", inputs=("x", "y"), params=("k0_0",)),
             compile_source("(let ((k1_0 (* x s1_1))) (+ k1_0 y))", inputs=("x", "y"),
                            params=("s1_1",))]
    system = ode.OdeSystem(ode.make_compiled_rhs(progs, [store, store], ("x", "y")), 2, 0.1)
    step = system.rhs.step_program(0.1)
    assert "(k0_0_ " in step.source_text and "(k0_0 " not in step.source_text
    obs = np.array([[1.0, 2.0], [1.1, 1.9], [1.3, 1.7], [1.4, 1.4], [1.6, 1.2]])
    cfg = ode.ShootingConfig(2, [obs, obs[:4]])
    for _ in range(3):
        assert _epoch(system, store, cfg)[:3] == _epoch(_stage_by_stage(system), store, cfg)[:3]


def test_a_domain_error_in_stage_three_names_the_same_op():
    # stage 3 reads y = 1 + 0.05 * (-12 / 0.4) = -0.5, so sqrt leaves its domain there
    progs = [compile_source("(sqrt y)", inputs=("x", "y")),
             compile_source("(/ (- 0 a) y)", inputs=("x", "y"), params=("a",))]
    store = truth_store({"a": 12.0})
    system = ode.OdeSystem(ode.make_compiled_rhs(progs, [store, store], ("x", "y")), 2, 0.1)
    errors = []
    for each in (system, _stage_by_stage(system)):
        for batched in (False, True):
            ctx = TapeContext(ERROR_POLICY)
            state = tuple(ctx.constant_batch([v, v]) if batched else ctx.constant(v)
                          for v in (1.0, 1.0))
            with pytest.raises(DomainViolation) as err:
                ode.rk4_step(ctx, each, state, 0.0, 0.1)
            errors.append(err.value)
    assert {e.kind for e in errors} == {"sqrt"}
    # the linked step names its own instruction: the third stage's sqrt
    step = system.rhs.step_program(0.1)
    sqrts = [ins[1] for ins in step.block.instrs if ins[0] == "prim" and ins[2] == "sqrt"]
    assert errors[0].instruction == errors[1].instruction == sqrts[2]


def test_other_systems_keep_the_stage_by_stage_step():
    progs = lv_exp._programs()
    two = ode.make_compiled_rhs(progs, [truth_store(lv_exp.TRUE_PARAMS)] * 2, ("x", "y"))
    assert two.step_program(0.1) is not None
    split = ode.make_compiled_rhs(progs, [truth_store(lv_exp.TRUE_PARAMS),
                                          truth_store(lv_exp.TRUE_PARAMS)], ("x", "y"))
    assert split.step_program(0.1) is None
    clash = [compile_source("(* x y)", inputs=("y",), params=("x",)),
             compile_source("x", inputs=("x", "y"))]  # x is a state name and a parameter
    clashing = ode.make_compiled_rhs(clash, [truth_store({"x": 2.0})] * 2, ("x", "y"))
    assert clashing.step_program(0.1) is None
    ctx = TapeContext()
    state = ode.rk4_step(ctx, ode.OdeSystem(clashing, 2, 0.1),
                         (ctx.constant(1.0), ctx.constant(1.0)), 0.0, 0.1)
    assert "ref" not in [node[0] for node in ctx.tape.nodes] and len(state) == 2
    # a vector state component runs each program once per stage
    prog = compile_source("(scale r v)", inputs=("v",), params=("r",))
    store = truth_store({"r": -0.5})
    system = ode.OdeSystem(ode.make_compiled_rhs([prog], [store], ("v",)), 1, 0.1)
    ctx = TapeContext()
    (out,) = ode.rk4_step(ctx, system, (ctx.constant(Value.vector([1.0, 2.0])),), 0.0, 0.1)
    assert out.value.kind == "vector"
    assert "ref" not in [node[0] for node in ctx.tape.nodes]
