"""The linked RK4 step and shooting segment against the stage-by-stage
stepper.

A ``CompiledRhs`` (compiled programs, a network or a hybrid of both, over
any number of stores) is traced into one program per step, and the k steps
of a shooting segment with their residuals into one program, so
``rk4_step`` makes one run where the Python stepper makes one run per
program per stage and the stage arithmetic in between, and
``multiple_shooting_loss`` one run and one loss record where it records
every step and every term.  Both must give the same bits: shooting losses,
parameter gradients, every state, rollouts, residuals, replayed tapes and
errors.  The stage-by-stage reference is the same RHS called through a
plain function, which has no linked programs.
"""

import re

import numpy as np
import pytest

from schemegrad import kernels, ode, sexpr
from schemegrad.autodiff import TapeContext
from schemegrad.compiler import CompileConfig, compile_source
from schemegrad.errors import DomainViolation, MissingInput, ParseError, ShapeMismatch
from schemegrad.machine import eval_program
from schemegrad.nn import MlpModel
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


def _segment_states(system, cfg, segment_indices=None):
    """Every state of every segment, from the linked segment program with
    targets 0.0 and masks 1.0, whose residuals are then the states."""
    prog, feed, _, masks = ode._linked_segments(system, cfg, segment_indices)
    feed["__T"] = Value.batch_vectors(np.zeros_like(masks))
    feed["__M"] = Value.batch_vectors(np.ones_like(masks))
    out = eval_program(prog, feed, None, PROPAGATE_POLICY).data
    return [_bits(out[:, c]) for c in range(out.shape[1])]


def _epoch(system, stores, cfg, segment_indices=None):
    """Bits of one taped shooting epoch: every state, the loss and every
    parameter gradient of each store, with the tape's record kinds and its
    replay.  The states of a linked system come from its linked step and,
    as residuals, from its segment program."""
    stores = stores if isinstance(stores, list) else [stores]
    ctx = TapeContext()
    states = [_bits(y.value.data) for state, _, _ in
              ode._shooting_steps(ctx, system, cfg, segment_indices) for y in state]
    if isinstance(system.rhs, ode.CompiledRhs):
        assert _segment_states(system, cfg, segment_indices) == states
    ctx = TapeContext()
    loss = ode.multiple_shooting_loss(ctx, system, cfg, segment_indices)
    for store in stores:
        store.zero_grads()
    ctx.backward(loss)
    assert ctx.tape.replay()
    ops = [node[0] for node in ctx.tape.nodes]
    grads = [{name: _bits(store[name].grad) for name in store.names()} for store in stores]
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


def _network_systems():
    """The pendulum's MLP baseline and scenario 2 hybrid, as the experiment
    builds them, each with its stores."""
    rng = np.random.default_rng(5)
    mlp = MlpModel([2, 64, 64, 64, 2], activation="relu", rng=rng)
    store = truth_store({"g_L": 9.0})
    hybrid = MlpModel([2, 33, 33, 1], activation="tanh", rng=rng)
    return {"mlp": (ode.OdeSystem(ode.make_mlp_rhs(mlp, 2), 2, pendulum_exp.DT), [mlp.store]),
            "hybrid": (pendulum_exp.make_hybrid_system(store, hybrid), [store, hybrid.store])}


@pytest.mark.parametrize("name", ["mlp", "hybrid"])
def test_a_network_or_hybrid_epoch_is_bitwise_the_stage_by_stage_one(name):
    system, stores = _network_systems()[name]
    staged = _stage_by_stage(system)
    ics = pendulum_exp.training_ics(np.random.default_rng(3))[:24]
    obs = pendulum_exp.generate_observations(ics)
    full = ode.ShootingConfig(pendulum_exp.SEGMENT_LENGTH, obs)
    minibatch = np.random.default_rng(1).choice(ode.segment_count(full), size=256,
                                                replace=False)
    ragged = ode.ShootingConfig(pendulum_exp.SEGMENT_LENGTH, [obs[0], obs[1][:57]])
    n_leaves = sum(len(store.names()) for store in stores)
    for cfg, idx in ((full, minibatch), (ragged, None)):
        for _ in range(2):
            linked = _epoch(system, stores, cfg, idx)
            assert linked[:3] == _epoch(staged, stores, cfg, idx)[:3]
            assert linked[3] == ["leaf"] * (4 + n_leaves) + [kernels.FUSED, ode.SHOOTING_MSE]
        assert (_bits(ode.shooting_residuals(TapeContext(), system, cfg))
                == _bits(ode.shooting_residuals(TapeContext(), staged, cfg)))
    assert _bits(ode.rollout(system, (1.2, 0.4), 30)) == _bits(ode.rollout(staged, (1.2, 0.4), 30))
    # many initial states are one batched rollout; a network's linear is not
    # batched == stacked, so its reference is a batched stage-by-stage run
    ctx = TapeContext()
    y0 = np.array(ics[:5])
    states = ode.integrate(ctx, staged, tuple(ctx.constant_batch(y0[:, i]) for i in range(2)),
                           0.0, 30)
    stepped = np.stack([y0] + [np.stack([y.value.data for y in s], axis=-1) for s in states], 1)
    assert _bits(ode.rollout(system, y0, 30)) == _bits(stepped)


def _warm_epoch_records(system, cfg, idx) -> int:
    for _ in range(2):  # the second epoch is warm
        ctx = TapeContext()
        ctx.backward(ode.multiple_shooting_loss(ctx, system, cfg, idx))
    return len(ctx.tape)


def test_warm_epochs_hold_their_pinned_records():
    """Records per warm epoch of each shooting fit, at the fits' own
    minibatch of 256 segments (LV takes all of its 20): two start states,
    targets, masks, one leaf per parameter, one fused record and the loss
    record."""
    rng = np.random.default_rng(pendulum_exp.DEFAULT_SEED)
    obs = pendulum_exp.generate_observations(pendulum_exp.training_ics(rng))
    cfg = ode.ShootingConfig(pendulum_exp.SEGMENT_LENGTH, obs)
    idx = rng.choice(ode.segment_count(cfg), size=pendulum_exp.MINIBATCH_SEGMENTS,
                     replace=False)
    networks = _network_systems()
    s1 = pendulum_exp.make_system(truth_store(pendulum_exp.TRUE_PARAMS))
    lv_system, _, lv_cfg = _lv()
    counts = {"pendulum_s1": _warm_epoch_records(s1, cfg, idx),
              "mlp_baseline": _warm_epoch_records(networks["mlp"][0], cfg, idx),
              "hybrid": _warm_epoch_records(networks["hybrid"][0], cfg, idx),
              "lotka_volterra": _warm_epoch_records(lv_system, lv_cfg, None)}
    assert counts == {"pendulum_s1": 8, "mlp_baseline": 14, "hybrid": 13, "lotka_volterra": 10}


def test_the_fused_segment_record_is_bitwise_the_executor_tape(request):
    system, store, cfg = _ragged_pendulum()
    linked = system.rhs.link(system.dt, cfg.segment_length)[0]
    assert ode._linked_segments(system, cfg)[0] is linked
    results = []
    for run in range(4):  # three copies through the kernel, then one through the executor
        kernels._SHARED.clear()  # each copy's first run generates the kernel anew
        ode._LINKED.clear()  # and each copy is linked anew
        if run == 3:
            request.getfixturevalue("no_kernels")
        copy, pairs = ode.link_rk4(system.rhs, system.dt, cfg.segment_length)
        assert copy is not linked and copy.source_text == linked.source_text
        assert pairs == ((store, "g_L"), (store, "b"))
        for _ in range(2):
            ctx = TapeContext()
            _, feed, weight, _ = ode._linked_segments(system, cfg, None, ctx)
            loss = ctx.prim(ode.SHOOTING_MSE, ctx.run(copy, feed), aux=weight)
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
    store = truth_store(lv_exp.TRUE_PARAMS)
    again = lv_exp.make_system(store).rhs  # over programs compiled anew, and another store
    for dt, steps in ((0.1, None), (0.1, 10), (0.1, 3)):
        (prog, pairs), (same, own) = first.link(dt, steps), again.link(dt, steps)
        assert same is prog and [name for _, name in own] == [name for _, name in pairs]
        assert {id(s) for s, _ in own} == {id(store)} != {id(s) for s, _ in pairs}
    assert first.link(0.1, 10)[0] is not first.link(0.1, 3)[0]
    assert first.link(0.1, 10)[0] is not first.link(0.05, 10)[0]


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
    system, store, _ = _lv()
    linked = system.rhs.link(0.1)
    assert linked is system.rhs.link(0.1) and linked[0] is not system.rhs.link(0.05)[0]
    step, pairs = linked
    # the state, then one input per (store, name) pair read; no parameters
    assert step.input_names == ("__y0", "__y1", "__p0", "__p1", "__p2", "__p3")
    assert step.param_names == ()
    assert pairs == tuple((store, name) for name in ("alpha", "beta", "delta", "gamma"))
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
    # parameters and locals named like the template's names, without their "__"
    store = truth_store({"k0_0": 0.7, "T": -0.4})
    progs = [compile_source("(let ((M (* 2 y))) (* k0_0 M))", inputs=("x", "y"),
                            params=("k0_0",)),
             compile_source("(let ((s1_1 (* x T))) (+ s1_1 y))", inputs=("x", "y"),
                            params=("T",))]
    system = ode.OdeSystem(ode.make_compiled_rhs(progs, [store, store], ("x", "y")), 2, 0.1)
    step = system.rhs.link(0.1)[0]
    segment = system.rhs.link(0.1, 2)[0]
    assert step.input_names == ("__y0", "__y1", "__p0", "__p1")
    assert segment.input_names == ("__y0", "__y1", "__p0", "__p1", "__T", "__M")
    for prog in (step, segment):  # the programs' names as they wrote them, and no marks
        names = set(re.findall(r"[^\s()]+", prog.source_text))
        assert {"k0_0", "T", "M", "s1_1", "__k0", "__y1", "__p1"} <= names
        assert not [name for name in names if name.endswith("_")]
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
    step = system.rhs.link(0.1)[0]
    sqrts = [ins[1] for ins in step.block.instrs if ins[0] == "prim" and ins[2] == "sqrt"]
    assert errors[0].instruction == errors[1].instruction == sqrts[2]


def test_two_stores_and_a_parameter_named_like_a_state_link():
    # each program reads its own store; the stores hold every parameter, at
    # values apart, so reading the wrong store would show
    prey, pred = (truth_store({k: f * v for k, v in lv_exp.TRUE_PARAMS.items()})
                  for f in (1.1, 0.9))
    split = ode.make_compiled_rhs(lv_exp._programs(), [prey, pred], ("x", "y"))
    assert split.link(0.1)[1] == ((prey, "alpha"), (prey, "beta"), (pred, "delta"),
                                  (pred, "gamma"))
    store = truth_store({"x": 2.0})
    clash = [compile_source("(* x y)", inputs=("y",), params=("x",)),
             compile_source("x", inputs=("x", "y"))]  # x is a state name and a parameter
    clashing = ode.make_compiled_rhs(clash, [store, store], ("x", "y"))
    assert clashing.link(0.1)[1] == ((store, "x"),)
    for rhs, stores in ((split, [prey, pred]), (clashing, [store])):
        system = ode.OdeSystem(rhs, 2, 0.1)
        staged = _stage_by_stage(system)
        rows = ode.rollout(system, (1.0, 0.5), 12)
        assert _bits(rows) == _bits(ode.rollout(staged, (1.0, 0.5), 12))
        cfg = ode.ShootingConfig(3, [rows, rows[:8] * 1.01])
        for _ in range(3):
            linked = _epoch(system, stores, cfg)
            assert linked[:3] == _epoch(staged, stores, cfg)[:3]
            assert linked[3].count(kernels.FUSED) == 1
        assert (_bits(ode.shooting_residuals(TapeContext(), system, cfg))
                == _bits(ode.shooting_residuals(TapeContext(), staged, cfg)))


def test_a_missing_store_or_parameter_raises_missing_input():
    for stores in ([None, None], [truth_store({"alpha": 1.0, "beta": 1.0})] * 2):
        system = ode.OdeSystem(ode.make_compiled_rhs(lv_exp._programs(), stores, ("x", "y")),
                               2, 0.1)
        assert system.rhs.link(0.1) is not None
        errors = []
        for each in (system, _stage_by_stage(system)):
            with pytest.raises(MissingInput) as err:
                ctx = TapeContext()
                ode.rk4_step(ctx, each, (ctx.constant(1.0), ctx.constant(1.0)), 0.0, 0.1)
            errors.append(str(err.value))
        with pytest.raises(MissingInput) as err:
            ode.rollout(system, (1.0, 1.0), 2)
        errors.append(str(err.value))
        assert len(set(errors)) == 1


def test_other_systems_keep_the_stage_by_stage_step():
    # a state declared with a "__" name, as the trace's own names start
    dunder = [compile_source("y", inputs=("__s1_0", "y")),
              compile_source("(- 0 y)", inputs=("y",))]
    assert ode.make_compiled_rhs(dunder, [truth_store({})] * 2,
                                 ("__s1_0", "y")).link(0.1) is None
    # programs of differing depth limits
    apart = [compile_source("y", inputs=("x", "y"), config=CompileConfig(50)),
             compile_source("(- 0 x)", inputs=("x", "y"))]
    assert ode.make_compiled_rhs(apart, [None, None], ("x", "y")).link(0.1) is None
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
    segment = system.rhs.link(0.1, 3)[0]
    sqrts = [ins[1] for ins in segment.block.instrs if ins[0] == "prim" and ins[2] == "sqrt"]
    assert {e.instruction for e in errors[::2]} == {sqrts[2]}


def test_a_component_at_the_nesting_limit_links():
    deep = "y"
    for _ in range(sexpr.MAX_NESTING - 1):
        deep = f"(+ {deep} 0.001)"
    deep = f"(* a {deep})"  # nested as deep as the parser takes
    with pytest.raises(ParseError):
        compile_source(f"(- {deep})", inputs=("x", "y"), params=("a",))
    progs = [compile_source(deep, inputs=("x", "y"), params=("a",)),
             compile_source("(- 0 x)", inputs=("x", "y"))]
    store = truth_store({"a": 0.5})
    system = ode.OdeSystem(ode.make_compiled_rhs(progs, [store, store], ("x", "y")), 2, 0.1)
    assert system.rhs.link(0.1) is not None
    assert system.rhs.link(0.1, 3) is not None
    staged = _stage_by_stage(system)
    rows = ode.rollout(system, (1.0, 0.5), 12)
    assert _bits(rows) == _bits(ode.rollout(staged, (1.0, 0.5), 12))
    ctx = TapeContext()
    state = (ctx.constant(1.0), ctx.constant(0.5))
    again = TapeContext()
    assert ([_bits(y.value.data) for y in ode.rk4_step(ctx, system, state, 0.0, 0.1)]
            == [_bits(y.value.data) for y in ode.rk4_step(again, staged, state, 0.0, 0.1)])
    assert [node[0] for node in ctx.tape.nodes][-2:] == ["ref", "ref"]  # one linked run
    store.set_value("a", 0.6)
    cfg = ode.ShootingConfig(3, [rows, rows[:8]])
    assert _epoch(system, store, cfg)[:3] == _epoch(staged, store, cfg)[:3]


@pytest.mark.parametrize("staged", [False, True], ids=["linked", "stage_by_stage"])
def test_a_rollout_of_another_width_raises_shape_mismatch(staged):
    system = _lv()[0]
    system = _stage_by_stage(system) if staged else system
    for y0 in ((1.0, 0.0, 2.0), [[1.0, 0.0, 2.0]], (1.0,)):
        with pytest.raises(ShapeMismatch, match="2 components"):
            ode.rollout(system, y0, 3)


@pytest.mark.parametrize("staged", [False, True], ids=["linked", "stage_by_stage"])
def test_observations_narrower_than_the_state_raise_shape_mismatch(staged):
    system, _, cfg = _lv()
    system = _stage_by_stage(system) if staged else system
    obs = cfg.observations
    narrow = ode.ShootingConfig(cfg.segment_length, [obs, obs[:, :1]])
    with pytest.raises(ShapeMismatch, match="1 components for a state of 2"):
        ode.multiple_shooting_loss(TapeContext(), system, narrow)
    with pytest.raises(ShapeMismatch, match="1 components for a state of 2"):
        ode.shooting_residuals(TapeContext(), system, narrow)
    # wider observations are read up to the state's width, as ever, also
    # beside a trajectory of the state's own width
    same = ode.ShootingConfig(cfg.segment_length, [obs, obs])
    for wide in (np.hstack([obs, obs[:, :1]]), [obs, np.hstack([obs, obs[:, :1]])]):
        wide = ode.ShootingConfig(cfg.segment_length, wide)
        base = cfg if isinstance(wide.observations, np.ndarray) else same
        assert (_bits(ode.multiple_shooting_loss(TapeContext(), system, wide).value.data)
                == _bits(ode.multiple_shooting_loss(TapeContext(), system, base).value.data))
        assert (_bits(ode.shooting_residuals(TapeContext(), system, wide))
                == _bits(ode.shooting_residuals(TapeContext(), system, base)))


@pytest.mark.parametrize("staged", [False, True], ids=["linked", "stage_by_stage"])
def test_a_state_wider_than_the_right_hand_side_raises_shape_mismatch(staged):
    system = _lv()[0]
    system = ode.OdeSystem(system.rhs, 3, system.dt)  # two programs, three components
    system = _stage_by_stage(system) if staged else system
    cfg = ode.ShootingConfig(3, np.zeros((7, 3)))
    with pytest.raises(ShapeMismatch, match="2 components, the state 3"):
        ode.multiple_shooting_loss(TapeContext(), system, cfg)
    with pytest.raises(ShapeMismatch, match="2 components, the state 3"):
        ode.shooting_residuals(TapeContext(), system, cfg)
    with pytest.raises(ShapeMismatch, match="2 components, the state 3"):
        ode.rollout(system, (1.0, 0.0, 2.0), 3)
