import dataclasses
import zlib

import numpy as np
import pytest

from schemegrad.autodiff import ParameterStore, TapeContext, backward, finite_diff_check
from schemegrad.compiler import compile_source
from schemegrad.errors import MissingGradient, ShapeMismatch, SingularMatrix
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.ops import OPS
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY, apply_primitive
from schemegrad.training import truth_store
from schemegrad.values import Value, bit_equal, stack_batch

from corpus import CORPUS


def grad_of(src, inputs, at, params=None):
    prog = compile_source(src, inputs=inputs, params=tuple(params or ()))
    store = None
    if params:
        store = truth_store(params)
        store.zero_grads()
    out, tape = eval_with_tape(prog, at, store)
    seed = Value(np.ones_like(out.data), out.kind, out.batched)
    res = backward(tape, seed, wrt_inputs=list(at))
    return out, res, store


def test_quadratic_gradient():
    _, res, _ = grad_of("(* x x)", ("x",), {"x": 3.0})
    assert res.input_grads["x"].item() == 6.0


def test_gravity_g_gradient_is_linear_coefficient():
    prog = compile_source("(/ (* G (* m1 m2)) (pow r 2))",
                          inputs=("m1", "m2", "r"), params=("G",))
    store = truth_store({"G": 6.674})
    store.zero_grads()
    out, tape = eval_with_tape(prog, {"m1": 1.0, "m2": 1.0, "r": 2.0}, store)
    backward(tape, Value.scalar(1.0))
    assert store["G"].grad == 0.25


def test_pendulum_rhs_gradient_at_origin():
    _, res, store = grad_of("(* (- 0 g_L) (sin theta))", ("theta",),
                            {"theta": 0.0}, params={"g_L": 9.81})
    assert res.input_grads["theta"].item() == -9.81
    report = finite_diff_check(
        compile_source("(* (- 0 g_L) (sin theta))", inputs=("theta",), params=("g_L",)),
        {"theta": 0.3}, {"g_L": 9.81}, h=1e-6,
    )
    assert report.max_rel_err < 1e-6


def test_norm_gradient_is_unit_direction():
    _, res, _ = grad_of("(norm v)", ("v",), {"v": np.array([3.0, 4.0])})
    assert np.allclose(res.input_grads["v"].data, [0.6, 0.8], atol=1e-15)


def test_abs_subgradient_zero_at_zero():
    _, res, _ = grad_of("(abs x)", ("x",), {"x": 0.0})
    assert res.input_grads["x"].item() == 0.0


def test_min_tie_goes_to_first_argument():
    _, res, _ = grad_of("(min x y)", ("x", "y"), {"x": 2.0, "y": 2.0})
    assert res.input_grads["x"].item() == 1.0
    assert res.input_grads["y"].item() == 0.0


def test_select_condition_gets_no_gradient():
    _, res, _ = grad_of("(if (> x 0) (* 2 x) (* 3 x))", ("x",), {"x": 1.5})
    assert res.input_grads["x"].item() == 2.0


def test_comparison_has_zero_gradient():
    _, res, _ = grad_of("(+ x (> x 0))", ("x",), {"x": 1.0})
    assert res.input_grads["x"].item() == 1.0


def test_seed_shape_checked():
    prog = compile_source("(vec x x)", inputs=("x",))
    out, tape = eval_with_tape(prog, {"x": 1.0})
    with pytest.raises(ShapeMismatch):
        backward(tape, Value.scalar(1.0))


def test_forward_value_matches_eval_program_bitwise():
    for prog in CORPUS:
        if prog.has_loops:
            continue
        compiled = compile_source(prog.source, inputs=prog.inputs,
                                  params=tuple(prog.params))
        store = truth_store(prog.params) if prog.params else None
        rng = np.random.default_rng(zlib.crc32(prog.id.encode()) % 100000)
        inputs = prog.sampler(rng, 4)
        plain = eval_program(compiled, inputs, store)
        taped, _ = eval_with_tape(compiled, inputs, store)
        assert bit_equal(plain, taped), prog.id


def test_tape_replay_reproduces_outputs():
    prog = compile_source("(/ (exp (sin x)) (+ (cos x) 2))", inputs=("x",))
    _, tape = eval_with_tape(prog, {"x": 0.7})
    assert tape.replay()
    loopy = compile_source(
        "(loop ((k 0) (y x)) (if (< k 10) (recur (+ k 1) (* y 1.1)) y))",
        inputs=("x",))
    out, tape = eval_with_tape(loopy, {"x": 1.0})
    assert tape.replay()
    assert len(tape.nodes) > 30  # per-iteration records were appended


def test_loop_tape_gradient():
    # y <- y * 1.1 ten times: dy/dx = 1.1^10
    loopy = compile_source(
        "(loop ((k 0) (y x)) (if (< k 10) (recur (+ k 1) (* y 1.1)) y))",
        inputs=("x",))
    out, tape = eval_with_tape(loopy, {"x": 2.0})
    res = backward(tape, Value.scalar(1.0), wrt_inputs=["x"])
    assert abs(res.input_grads["x"].item() - 1.1 ** 10) < 1e-12


def test_program_with_no_params_still_tapes():
    prog = compile_source("(sin x)", inputs=("x",))
    out, tape = eval_with_tape(prog, {"x": 0.5})
    res = backward(tape, Value.scalar(1.0), wrt_inputs=["x"])
    assert res.input_grads["x"].item() == np.cos(0.5)


def test_linearity_of_seed_bitwise():
    prog = compile_source("(* (sin x) (exp y))", inputs=("x", "y"))
    out, tape = eval_with_tape(prog, {"x": 0.3, "y": 0.9})
    g1 = backward(tape, Value.scalar(1.0), wrt_inputs=["x", "y"])
    g2 = backward(tape, Value.scalar(2.0), wrt_inputs=["x", "y"])
    for k in ("x", "y"):
        assert g2.input_grads[k].item() == 2.0 * g1.input_grads[k].item()


def test_grad_accumulation_without_zero():
    prog = compile_source("(* h f)", inputs=("f",), params=("h",))
    store = truth_store({"h": 2.0})
    store.zero_grads()
    out, tape = eval_with_tape(prog, {"f": 3.0}, store)
    backward(tape, Value.scalar(1.0))
    once = store["h"].grad.copy()
    backward(tape, Value.scalar(1.0))
    assert np.array_equal(store["h"].grad, 2.0 * once)


def test_missing_gradient_raised_by_require():
    store = ParameterStore()
    store.add("a", 1.0)
    with pytest.raises(MissingGradient):
        store.require_grad("a")


def test_set_value_of_a_wrong_shape_raises_shape_mismatch():
    store = ParameterStore()
    store.add("a", 1.0)
    store.add("v", [1.0, 2.0])
    with pytest.raises(ShapeMismatch, match="'a'"):
        store.set_value("a", [1.0, 2.0])
    with pytest.raises(ShapeMismatch, match="'v'"):
        store.set_value("v", [1.0, 2.0, 3.0])
    assert store["a"].value.data == 1.0 and store["v"].value.data.tolist() == [1.0, 2.0]
    store.set_value("v", np.array([[3.0], [4.0]]))  # same size: reshaped, as ever
    assert store["v"].value.data.tolist() == [3.0, 4.0]


def test_non_requested_gradients_absent():
    prog = compile_source("(+ x y)", inputs=("x", "y"))
    out, tape = eval_with_tape(prog, {"x": 1.0, "y": 2.0})
    res = backward(tape, Value.scalar(1.0), wrt_inputs=["x"])
    assert "y" not in res.input_grads


@pytest.mark.parametrize("prog", [p for p in CORPUS if p.differentiable],
                         ids=lambda p: p.id)
def test_finite_difference_check_corpus(prog):
    compiled = compile_source(prog.source, inputs=prog.inputs,
                              params=tuple(prog.params))
    store = truth_store(prog.params) if prog.params else None
    rng = np.random.default_rng(zlib.crc32(prog.id.encode()) % 7919)
    from corpus import integer_inputs

    for _ in range(3):
        inputs = integer_inputs(prog, prog.sampler(rng, 1))
        report = finite_diff_check(compiled, inputs, store, h=1e-5, tol=1e-6)
        assert report.passed, f"{prog.id}: {report.per_name}"


def test_finite_diff_quadratic_tight():
    prog = compile_source("(+ (* 3 (* x x)) (* 2 x))", inputs=("x",))
    report = finite_diff_check(prog, {"x": 0.7}, h=1e-5)
    assert report.max_rel_err < 1e-9


def test_finite_diff_check_on_apply_primitive_results():
    # apply_primitive on 0-d arrays returns 0-d array data, never a numpy
    # scalar; perturbing a copy of it must still reach the input and the
    # parameter
    x = apply_primitive("+", [Value.scalar(0.5), Value.scalar(0.2)])
    k = apply_primitive("*", [Value.scalar(1.5), Value.scalar(2.0)])
    assert type(x.data) is np.ndarray and type(k.data) is np.ndarray
    prog = compile_source("(+ (* k (* x x)) (* 2 x))", inputs=("x",), params=("k",))
    report = finite_diff_check(prog, {"x": x}, {"k": k}, h=1e-5)
    assert report.max_rel_err < 1e-9, report.per_name


def test_finite_diff_transcendental():
    prog = compile_source("(* (sin x) (exp y))", inputs=("x", "y"))
    rng = np.random.default_rng(0)
    for _ in range(5):
        report = finite_diff_check(
            prog, {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}, h=1e-5)
        assert report.max_rel_err < 1e-6


def test_modulo_divisor_gradient_convention():
    _, res, _ = grad_of("(modulo a b)", ("a", "b"), {"a": 7.3, "b": 2.0})
    assert res.input_grads["a"].item() == 1.0
    assert res.input_grads["b"].item() == -np.floor(7.3 / 2.0)


# --- gradient scaling through deep squaring chains ----------------------------


def test_squaring_chain_gradient_scaling():
    from schemegrad.nn import compose_chain

    square = compile_source("(* x x)", inputs=("x",))
    for k in range(1, 9):
        ctx = TapeContext()
        x = ctx.constant(1.5)
        h = compose_chain(ctx, [square] * k, x)
        # |dG/dx| = 2^k * prod of intermediate values z_0 .. z_{k-1}
        zs = [1.5 ** (2 ** i) for i in range(k)]
        expected = (2.0 ** k) * np.prod(zs)
        got = abs(_leaf_grad(ctx, h, x))
        assert abs(got - expected) <= 1e-9 * expected, k


def test_residual_chain_keeps_gradient_path_at_zero():
    from schemegrad.nn import compose_chain

    residual = compile_source("(+ x (* x x))", inputs=("x",))
    ctx = TapeContext()
    x = ctx.constant(0.0)
    h = compose_chain(ctx, [residual] * 8, x)
    grads = _leaf_grad(ctx, h, x)
    assert grads >= 1.0


def _leaf_grad(ctx, out_ref, leaf_ref):
    from schemegrad.autodiff import backward as _backward

    res = _backward(ctx.tape, Value.scalar(1.0), wrt_inputs=[leaf_ref],
                    output_id=out_ref.tape_id)
    return float(res.input_grads[leaf_ref.tape_id].data)


# --- det/inv gradients through the batch-vectorised LU -------------------------


def test_det_backward_on_singular_matrix_raises_singular_matrix():
    prog = compile_source("(det (scale s M))", inputs=("M",), params=("s",))
    ctx = TapeContext()
    out = ctx.run(prog, {"M": Value.matrix([[1.0, 2.0], [2.0, 4.0]])},
                  truth_store({"s": 1.0}))
    with pytest.raises(SingularMatrix) as err:
        ctx.backward(out)
    assert err.value.where == 0


def test_det_backward_names_first_singular_lane():
    rng = np.random.default_rng(12)
    stack = rng.uniform(-1, 1, (5, 3, 3)) + 3 * np.eye(3)
    stack[3] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0]]
    ctx = TapeContext()
    out = ctx.run(compile_source("(det M)", inputs=("M",)),
                  {"M": Value.batch_matrices(stack)})
    with pytest.raises(SingularMatrix) as err:
        ctx.backward(out, wrt_inputs=["M"])  # no root reaches det unless M is asked for
    assert err.value.where == 3


def _pivoting_matrices(rng, batch):
    # rows rolled off a dominant diagonal, so every LU swaps rows
    return np.roll(rng.uniform(-1, 1, (batch, 3, 3)) + 3 * np.eye(3), 1, axis=1)


@pytest.mark.parametrize("src", ["(det M)", "(inv M)"])
@pytest.mark.parametrize("batch", [1, 2, 7])
def test_det_inv_gradients_batched_equal_stacked(src, batch):
    prog = compile_source(src, inputs=("M",))
    stack = _pivoting_matrices(np.random.default_rng(300 + batch), batch)

    def grad_m(m):
        ctx = TapeContext()
        out = ctx.run(prog, {"M": m})
        return ctx.backward(out, wrt_inputs=["M"]).input_grads["M"]

    batched = grad_m(Value.batch_matrices(stack))
    stacked = stack_batch([grad_m(Value.matrix(m)) for m in stack])
    assert bit_equal(batched, stacked)


@pytest.mark.parametrize("src", ["(det M)", "(inv M)", "(det (inv (scale s M)))"])
@pytest.mark.parametrize("batch", [None, 1, 3, 256])  # None: one unbatched matrix
def test_det_inv_leave_their_input_unchanged(src, batch):
    # the LU eliminates in place in a copy of the stack, which must be a copy
    # even where the stack's lane-minor transpose is contiguous (one matrix)
    prog = compile_source(src, inputs=("M",), params=("s",))
    stack = _pivoting_matrices(np.random.default_rng(400), batch or 1)
    m = Value.matrix(stack[0]) if batch is None else Value.batch_matrices(stack)
    before = m.data.copy()
    store = truth_store({"s": 0.8})
    for policy in (ERROR_POLICY, PROPAGATE_POLICY):
        eval_program(prog, {"M": m}, store, policy)
        ctx = TapeContext(policy)
        ctx.backward(ctx.run(prog, {"M": m}, store), wrt_inputs=["M"])
        assert m.data.tobytes() == before.tobytes(), policy.mode


# --- activity: only parameters and requested inputs are differentiated -------


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def _check_pruning_bits(compiled, inputs, store):
    """Backward asking for no input, for all inputs and for each one alone:
    parameter gradients agree bit for bit, and so does each input's
    gradient alone and among all."""
    out, tape = eval_with_tape(compiled, inputs, store)
    seed = Value(np.ones_like(out.data), out.kind, out.batched)

    def grads(wrt):
        for entry in store.entries.values():
            entry.grad = None
        res = backward(tape, seed, wrt_inputs=wrt)
        params = {n: _bits(e.grad) for n, e in store.entries.items() if e.grad is not None}
        return params, {n: _bits(v.data) for n, v in res.input_grads.items()}

    params_none, inputs_none = grads([])
    params_all, inputs_all = grads(list(inputs))
    assert params_none and not inputs_none
    assert params_all == params_none
    for name in inputs:
        params_one, inputs_one = grads([name])
        assert params_one == params_none, name
        assert inputs_one == ({name: inputs_all[name]} if name in inputs_all else {}), name


_PARAM_PROGRAMS = [p for p in CORPUS if p.differentiable and p.params]


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("prog", _PARAM_PROGRAMS, ids=lambda p: p.id)
def test_pruning_changes_no_gradient_bits(prog, batch):
    from corpus import integer_inputs

    compiled = compile_source(prog.source, inputs=prog.inputs, params=tuple(prog.params))
    inputs = integer_inputs(prog, prog.sampler(np.random.default_rng(batch), batch))
    _check_pruning_bits(compiled, inputs, truth_store(prog.params))


# VJPs whose arguments mix active and inactive ones; x, y are scalars, v, w
# vectors, A, B matrices, and k the one parameter
_MIXED_ACTIVITY = [
    "(modulo x k)", "(modulo k x)", "(remainder (* k y) x)", "(min x k y)",
    "(max y (* k x) x)", "(if (< x k) (* x y) k)", "(- x k y)", "(/ x k y)", "(/ k x y)",
    "(pow x k)", "(pow k x)", "(* x k y)", "(ref (vec x k y) 1)", "(dot v (scale k w))",
    "(vsum (cross v (scale k w)))", "(vsum (cross (scale k v) w))",
    "(trace (outer v (scale k w)))", "(trace (matmul A (scale k B)))",
    "(trace (matmul (scale k A) B))", "(vsum (matvec A (scale k v)))",
    "(vsum (matvec (scale k A) v))", "(vsum (matvec (mat v (scale k w)) v))",
    "(vsum (scale x (scale k v)))", "(det (+ A (scale k B)))",
]


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("src", _MIXED_ACTIVITY)
def test_pruning_changes_no_gradient_bits_on_mixed_arguments(src, batch, monkeypatch):
    def keeps_need_contract(vjp):
        def checked(g, args, out, aux, need):
            raw = vjp(g, args, out, aux, need)
            assert any(need) and len(need) == len(args)
            assert all(r is None for r, n in zip(raw, need) if not n)
            return raw

        return checked

    for op, row in list(OPS.items()):
        monkeypatch.setitem(OPS, op, dataclasses.replace(row, vjp=keeps_need_contract(row.vjp)))
    rng = np.random.default_rng(batch)
    words = src.replace("(", " ").replace(")", " ").split()
    names = [n for n in ("x", "y", "v", "w", "A", "B") if n in words]
    inputs = {}
    for n in names:
        if n in "xy":
            inputs[n] = Value.batch_scalars(rng.uniform(0.5, 2.0, batch))
        elif n in "vw":
            inputs[n] = Value.batch_vectors(rng.uniform(0.5, 2.0, (batch, 3)))
        else:
            inputs[n] = Value.batch_matrices(rng.uniform(-1.0, 1.0, (batch, 3, 3)) + 3 * np.eye(3))
        if batch == 1:
            inputs[n] = inputs[n].unbatch(0)
    compiled = compile_source(src, inputs=tuple(names), params=("k",))
    _check_pruning_bits(compiled, inputs, truth_store({"k": 1.3}))


def test_vjp_of_a_record_no_root_reaches_is_never_called(monkeypatch, no_kernels):
    calls = []

    def spy(op):
        vjp = OPS[op].vjp

        def wrapped(g, args, out, aux, need):
            calls.append((op, need))
            return vjp(g, args, out, aux, need)

        return wrapped

    prog = compile_source("(* k (pow x 2))", inputs=("x",), params=("k",))
    store = truth_store({"k": 1.5})
    for op in ("pow", "*"):
        monkeypatch.setitem(OPS, op, dataclasses.replace(OPS[op], vjp=spy(op)))
    _, tape = eval_with_tape(prog, {"x": 3.0}, store)
    backward(tape, Value.scalar(1.0))
    assert calls == [("*", (True, False))]
    assert store["k"].grad == 9.0
    calls.clear()
    res = backward(tape, Value.scalar(1.0), wrt_inputs=["x"])
    assert calls == [("*", (True, True)), ("pow", (True,))]
    assert res.input_grads["x"].item() == 9.0  # 2 k x


def test_frozen_parameter_is_a_root():
    prog = compile_source("(* k c x)", inputs=("x",), params=("k", "c"))
    store = truth_store({"k": 1.5}, frozen_params={"c": 2.0})
    _, tape = eval_with_tape(prog, {"x": 3.0}, store)
    backward(tape, Value.scalar(1.0))
    assert store["k"].grad == 6.0 and store["c"].grad == 4.5


def test_singular_data_matrix_does_not_fail_a_parameter_gradient():
    # d/dM is never asked for, so the det VJP, which inverts M, never runs
    prog = compile_source("(* s (det M))", inputs=("M",), params=("s",))
    stack = np.array([[[2.0, 0.0], [0.0, 2.0]],
                      [[1.0, 2.0], [2.0, 4.0]],  # singular
                      [[3.0, 1.0], [1.0, 2.0]]])
    dets = np.array([4.0, 0.0, 5.0])
    target = np.array([1.0, 0.5, 2.0])
    store = truth_store({"s": 1.5})
    ctx = TapeContext()
    out = ctx.run(prog, {"M": Value.batch_matrices(stack)}, store)
    loss = ctx.mse(out, Value.batch_scalars(target))
    store.zero_grads()
    ctx.backward(loss)
    assert store["s"].grad == pytest.approx(np.mean(2.0 * (1.5 * dets - target) * dets))


def _tape_only_case(op: str, batched: bool) -> tuple:
    """Operands, aux and each operand's gradient under a seed of ones for a
    tape-only row: 0-d scalars where the row takes them, else vectors,
    with four lanes when batched."""
    rng = np.random.default_rng(zlib.crc32(op.encode()) + batched)
    lanes = (4,) if batched else ()
    if op in ("relu", "tanh"):
        x = rng.uniform(-1.0, 1.0, lanes)
        grad = (x > 0.0) * 1.0 if op == "relu" else 1.0 - np.tanh(x) * np.tanh(x)
        return [Value(x, "scalar", batched)], None, [grad]
    if op == "mse":
        p, t = rng.uniform(-1.0, 1.0, lanes), rng.uniform(-1.0, 1.0, lanes)
        gd = 2.0 * (p - t) / p.size
        return [Value(p, "scalar", batched), Value(t, "scalar", batched)], None, [gd, -gd]
    if op == "linear":
        x, w, b = rng.uniform(-1.0, 1.0, lanes + (3,)), rng.uniform(-1.0, 1.0, (3, 2)), np.zeros(2)
        g = np.ones(lanes + (2,))
        gw = np.matmul(x.T, g) if batched else np.outer(x, g)
        return ([Value(x, "vector", batched), Value.matrix(w), Value.vector(b)], None,
                [np.matmul(g, w.T), gw, g.sum(axis=0) if batched else g])
    r = rng.uniform(-1.0, 1.0, (4, 3))  # the shooting loss: residuals of four segments
    return [Value(r, "vector", True)], 0.5, [0.5 * (2.0 * r / 4)]


@pytest.mark.parametrize("op, batched", [
    (op, batched) for op in ("relu", "tanh", "mse", "linear") for batched in (False, True)
] + [("shooting_mse", True)])  # the shooting loss takes a batch of residuals
def test_every_tape_only_vjp_returns_operand_shaped_arrays(op, batched):
    """``backward`` adds a tape-only row's gradients as the VJP returns
    them: each is an array shaped like its operand, a 0-d one for a 0-d
    operand, and backward's gradient has the bits of the row's formula."""
    args, aux, want = _tape_only_case(op, batched)
    ctx = TapeContext()
    refs = [ctx.constant(a) for a in args]
    out = ctx.prim(op, *refs, aux=aux)
    g = np.ones_like(out.value.data)
    for a, contrib in zip(args, OPS[op].vjp(g, args, out.value, aux, (True,) * len(args))):
        assert type(contrib) is np.ndarray and contrib.shape == a.data.shape, op
    res = ctx.backward(out, wrt_inputs=refs)
    for r, w in zip(refs, want):
        got = res.input_grads[r.tape_id].data
        assert got.shape == w.shape and got.tobytes() == np.asarray(w).tobytes(), op
