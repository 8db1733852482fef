"""The linked RK4 step and shooting segment against the stage-by-stage
stepper.

A ``CompiledRhs`` links its programs into one program per step, and the k
steps of a shooting segment with their residuals into one program, so
``rk4_step`` makes one run where the Python stepper makes one run per
program per stage and the stage arithmetic in between, and
``multiple_shooting_loss`` one run and one loss record where it records
every step and every term.  Both must give the same bits: shooting losses,
parameter gradients, every state, rollouts, residuals, replayed tapes and
errors.  The stage-by-stage reference is the same RHS called through a
plain function, which has no linked programs.
"""

import numpy as np
import pytest

from schemegrad import kernels, ode
from schemegrad.autodiff import TapeContext
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation
from schemegrad.machine import eval_program
from schemegrad.experiments import lotka_volterra as lv_exp
from schemegrad.experiments import pendulum as pendulum_exp
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY
from schemegrad.training import truth_store
from schemegrad.values import Value


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return repr(a.shape).encode() + a.tobytes()


def _stage_by_stage(system: ode.OdeSystem) -> ode.OdeSystem:
    rhs = system.rhs
    return ode.OdeSystem(rhs=lambda ctx, state, t: rhs(ctx, state, t),
                         state_dim=system.state_dim, dt=system.dt)


@pytest.fixture(autouse=True)
def fresh_links(monkeypatch, fresh_kernels):
    """Empty tables of linked programs and of kernels, so that a test's
    first run of a linked program generates its kernel."""
    monkeypatch.setattr(ode, "_LINKED", {})


def _segment_states(system, store, cfg, segment_indices=None):
    """Every state of every segment, from the linked segment program with
    targets 0.0 and masks 1.0, whose residuals are then the states."""
    prog, feed, _, _, masks = ode._linked_segments(system, cfg, segment_indices)
    targets, masked = prog.input_names[-2:]
    feed[targets] = Value.batch_vectors(np.zeros_like(masks))
    feed[masked] = Value.batch_vectors(np.ones_like(masks))
    out = eval_program(prog, feed, store, PROPAGATE_POLICY).data
    return [_bits(out[:, c]) for c in range(out.shape[1])]


def _epoch(system, store, cfg, segment_indices=None):
    """Bits of one taped shooting epoch: every state, the loss and every
    parameter gradient, with the tape's record kinds and its replay.  The
    states of a linked system come from its linked step and, as residuals,
    from its segment program."""
    ctx = TapeContext()
    states = [_bits(y.value.data) for state, _, _ in
              ode._shooting_steps(ctx, system, cfg, segment_indices) for y in state]
    if isinstance(system.rhs, ode.CompiledRhs):
        assert _segment_states(system, store, cfg, segment_indices) == states
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


@pytest.mark.parametrize("case, idx", [(_lv, None), (_ragged_pendulum, None),
                                       (_ragged_pendulum, [0, 5, 11, 12, 17])],
                         ids=["lotka_volterra", "pendulum", "minibatch"])
def test_a_linked_epoch_is_bitwise_the_stage_by_stage_one(case, idx, request):
    system, store, cfg = case()
    for _ in range(3):
        linked = _epoch(system, store, cfg, idx)
        staged = _epoch(_stage_by_stage(system), store, cfg, idx)
        assert linked[:3] == staged[:3]
        # one run of the segment program, scored by one loss record; leaves:
        # the start states, targets, masks and parameters
        assert linked[3] == ["leaf"] * (4 + len(store.names())) + [kernels.FUSED,
                                                                   ode.SHOOTING_MSE]
        assert ode.SHOOTING_MSE not in staged[3]
    request.getfixturevalue("no_kernels")  # from here on every run takes the executor
    executor = _epoch(system, store, cfg, idx)
    assert executor[:3] == linked[:3]
    assert executor[3].count(ode.SHOOTING_MSE) == 1 and kernels.FUSED not in executor[3]


def test_the_fused_segment_record_is_bitwise_the_executor_tape(request):
    system, store, cfg = _ragged_pendulum()
    linked = system.rhs.segment_program(system.dt, cfg.segment_length)
    prog, feed, _, weight, _ = ode._linked_segments(system, cfg)
    assert prog is linked
    results = []
    for run in range(4):  # three copies through the kernel, then one through the executor
        kernels._SHARED.clear()  # each copy's first run generates the kernel anew
        if run == 3:
            request.getfixturevalue("no_kernels")
        copy = compile_source(linked.source_text, inputs=linked.input_names,
                              params=linked.param_names)
        for _ in range(2):
            ctx = TapeContext()
            loss = ctx.prim(ode.SHOOTING_MSE, ctx.run(copy, feed, store), aux=weight)
            store.zero_grads()
            ctx.backward(loss)
            assert ctx.tape.replay()
            ops = [node[0] for node in ctx.tape.nodes]
            results.append((ops.count(kernels.FUSED), _bits(loss.value.data),
                            {n: _bits(store[n].grad) for n in store.names()}))
    assert [r[0] for r in results] == [1] * 6 + [0] * 2
    assert all(r[1:] == results[-1][1:] for r in results)


def test_shooting_residuals_are_bitwise_the_stage_by_stage_ones():
    for system, store, cfg in (_lv(), _ragged_pendulum()):
        staged = _stage_by_stage(system)
        for _ in range(3):
            linked = ode.shooting_residuals(TapeContext(), system, cfg)
            assert _bits(linked) == _bits(ode.shooting_residuals(TapeContext(), staged, cfg))
        ctx = TapeContext()
        loss = ode.multiple_shooting_loss(ctx, system, cfg)
        assert np.mean(linked * linked) == pytest.approx(float(loss.value.data), rel=1e-12)


def test_a_second_system_gets_the_same_linked_programs():
    first = _lv()[0].rhs
    again = lv_exp.make_system(truth_store(lv_exp.TRUE_PARAMS)).rhs
    assert again.programs[0] is not first.programs[0]
    for dt, steps in ((0.1, None), (0.1, 10), (0.1, 3)):
        assert again._link(dt, steps) is first._link(dt, steps) is not None
    assert first.segment_program(0.1, 10) is not first.segment_program(0.1, 3)
    assert first.segment_program(0.1, 10) is not first.segment_program(0.05, 10)


@pytest.mark.parametrize("exp, y0", [(lv_exp, lv_exp.Y0), (pendulum_exp, (1.2, 0.4))],
                         ids=["lotka_volterra", "pendulum"])
def test_a_b1_rollout_is_bitwise_the_stage_by_stage_one(exp, y0):
    system = exp.make_system(truth_store(exp.TRUE_PARAMS))
    linked = ode.rollout(system, y0, 40)
    staged = ode.rollout(_stage_by_stage(system), y0, 40)
    assert linked.shape == (41, 2) and _bits(linked) == _bits(staged)


def test_a_batched_rollout_is_bitwise_each_single_one():
    ics = pendulum_exp.training_ics(np.random.default_rng(11))[:9]
    system = pendulum_exp.make_system(truth_store(pendulum_exp.TRUE_PARAMS))
    for _ in range(3):
        batched = ode.rollout(system, ics, 30)
        assert batched.shape == (9, 31, 2)
        staged = ode.rollout(_stage_by_stage(system), ics, 30)
        assert _bits(batched) == _bits(staged)
        for ic, rows in zip(ics, batched):
            assert _bits(rows) == _bits(ode.rollout(system, ic, 30))
    observations = pendulum_exp.generate_observations(ics)
    assert [_bits(o) for o in observations] == [_bits(rows[:121]) for rows in
                                                ode.rollout(system, ics, 120)]


def test_the_step_is_one_program_cached_per_dt():
    system, _, _ = _lv()
    step = system.rhs.step_program(0.1)
    assert step is system.rhs.step_program(0.1) is not system.rhs.step_program(0.05)
    assert step.input_names == ("x", "y")
    assert step.param_names == ("alpha", "beta", "delta", "gamma")
    assert not step.functions and step.block.tail[0] == "exit"


def test_a_linked_step_is_one_fused_record_split_by_refs_alone():
    system, _, _ = _lv()
    ctx = TapeContext()
    state = (ctx.constant_batch([1.0, 2.0]), ctx.constant_batch([0.5, 0.4]))
    ode.rk4_step(ctx, system, state, 0.0, 0.1)
    # two states, four parameters; each ref takes its index as aux, not a leaf
    assert [node[0] for node in ctx.tape.nodes] == ["leaf"] * 6 + [kernels.FUSED, "ref", "ref"]
    assert [node[3] for node in ctx.tape.nodes[-2:]] == [0.0, 1.0]


def test_template_names_do_not_capture_the_programs_names():
    # a parameter and a local named like the template's temporaries
    store = truth_store({"k0_0": 0.7, "s1_1": -0.4})
    progs = [compile_source("(* k0_0 y)", inputs=("x", "y"), params=("k0_0",)),
             compile_source("(let ((k1_0 (* x s1_1))) (+ k1_0 y))", inputs=("x", "y"),
                            params=("s1_1",))]
    system = ode.OdeSystem(ode.make_compiled_rhs(progs, [store, store], ("x", "y")), 2, 0.1)
    step = system.rhs.step_program(0.1)
    assert "(k0_0_ " in step.source_text and "(k0_0 " not in step.source_text
    segment = system.rhs.segment_program(0.1, 2)
    assert segment.input_names == ("x", "y", "T_", "M_") and "(r2_1_ " in segment.source_text
    obs = np.array([[1.0, 2.0], [1.1, 1.9], [1.3, 1.7], [1.4, 1.4], [1.6, 1.2]])
    cfg = ode.ShootingConfig(2, [obs, obs[:4]])
    for _ in range(3):
        assert _epoch(system, store, cfg)[:3] == _epoch(_stage_by_stage(system), store, cfg)[:3]


def _sqrt_system():
    # stage 3 reads y = 1 + 0.05 * (-12 / 0.4) = -0.5, so sqrt leaves its domain there
    progs = [compile_source("(sqrt y)", inputs=("x", "y")),
             compile_source("(/ (- 0 a) y)", inputs=("x", "y"), params=("a",))]
    store = truth_store({"a": 12.0})
    return ode.OdeSystem(ode.make_compiled_rhs(progs, [store, store], ("x", "y")), 2, 0.1)


def test_a_domain_error_in_stage_three_names_the_same_op():
    system = _sqrt_system()
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


def test_a_domain_error_inside_a_segment_names_the_same_op():
    system = _sqrt_system()
    obs = np.array([[1.0, 1.0], [1.1, 0.9], [1.2, 0.8], [1.3, 0.7]])
    cfg = ode.ShootingConfig(3, [obs, obs[:3]])
    errors = []
    for _ in range(3):  # the executor redoes each kernel run, and raises
        for each in (system, _stage_by_stage(system)):
            with pytest.raises(DomainViolation) as err:
                ode.multiple_shooting_loss(TapeContext(ERROR_POLICY), each, cfg)
            errors.append(err.value)
    assert {(type(e), e.kind) for e in errors} == {(DomainViolation, "sqrt")}
    # the segment names an instruction of its own program: step 1's third-stage sqrt
    segment = system.rhs.segment_program(0.1, 3)
    sqrts = [ins[1] for ins in segment.block.instrs if ins[0] == "prim" and ins[2] == "sqrt"]
    assert {e.instruction for e in errors[::2]} == {sqrts[2]}
