import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import schemegrad
from schemegrad import interpreter, runtime
from schemegrad.autodiff import TapeContext, backward
from schemegrad.compiler import compile_source
from schemegrad.errors import (ConfigError, DomainViolation, SchemegradError, ShapeMismatch,
                               SingularMatrix)
from schemegrad.machine import eval_program, eval_with_tape
from schemegrad.ops import PRIM_NAMES
from schemegrad.runtime import (
    ERROR_POLICY,
    PROPAGATE_POLICY,
    SafeDomainPolicy,
    apply_primitive,
    lu_factor,
    pow_immediate,
    select,
)
from schemegrad.sexpr import parse
from schemegrad.values import Value, bit_equal, stack_batch


def S(x):
    return Value.scalar(x)


def V(*xs):
    return Value.vector(np.array(xs, dtype=float))


def M(rows):
    return Value.matrix(np.array(rows, dtype=float))


def test_trivial_examples():
    assert apply_primitive("dot", [V(1, 2, 3), V(4, 5, 6)]).item() == 32.0
    assert np.array_equal(apply_primitive("cross", [V(1, 0, 0), V(0, 1, 0)]).data,
                          [0.0, 0.0, 1.0])
    eye3 = apply_primitive("eye", [S(3)])
    v = V(1.0, 2.0, 3.0)
    assert bit_equal(apply_primitive("matvec", [eye3, v]), v)
    assert apply_primitive("norm", [V(3, 4)]).item() == 5.0
    assert apply_primitive("pow", [S(2), S(10)]).item() == 1024.0
    assert apply_primitive("+", [S(1), S(2)]).item() == 3.0


def test_outer_shape_table_row():
    out = apply_primitive("outer", [V(1, 2), V(3, 4, 5)])
    assert out.kind == "matrix"
    assert out.data.shape == (2, 3)
    assert np.array_equal(out.data, [[3, 4, 5], [6, 8, 10]])


def test_comparisons_and_logic_return_01():
    assert apply_primitive("<", [S(1), S(2)]).item() == 1.0
    assert apply_primitive(">=", [S(1), S(2)]).item() == 0.0
    assert apply_primitive("and", [S(2), S(3)]).item() == 1.0
    assert apply_primitive("or", [S(0), S(0)]).item() == 0.0
    assert apply_primitive("not", [S(0)]).item() == 1.0


def test_modulo_floored_remainder_truncated():
    assert apply_primitive("modulo", [S(-7), S(3)]).item() == 2.0
    assert apply_primitive("remainder", [S(-7), S(3)]).item() == -1.0
    assert apply_primitive("modulo", [S(7), S(-3)]).item() == -2.0
    assert apply_primitive("remainder", [S(7), S(-3)]).item() == 1.0


def test_unary_minus_is_zero_minus_x():
    # matches the compiled lowering bit for bit, including signed zero
    out = apply_primitive("-", [S(0.0)])
    assert np.signbit(out.data) == np.signbit(0.0 - 0.0)


def test_variadic_folds():
    assert apply_primitive("+", [S(1), S(2), S(3)]).item() == 6.0
    assert apply_primitive("-", [S(10), S(3), S(2)]).item() == 5.0
    assert apply_primitive("*", [S(2), S(3), S(4)]).item() == 24.0
    assert apply_primitive("/", [S(24), S(3), S(2)]).item() == 4.0
    assert apply_primitive("min", [S(3), S(1), S(2)]).item() == 1.0
    assert apply_primitive("max", [S(3), S(5), S(2)]).item() == 5.0


def test_select_elementwise_batched():
    cond = Value.batch_scalars(np.array([1.0, 0.0]))
    then = Value.batch_scalars(np.array([10.0, 10.0]))
    orelse = Value.batch_scalars(np.array([20.0, 20.0]))
    out = select(cond, then, orelse)
    assert np.array_equal(out.data, [10.0, 20.0])


def test_scale_and_vsum_and_vlen():
    assert np.array_equal(apply_primitive("scale", [S(2), V(1, 2)]).data, [2.0, 4.0])
    assert apply_primitive("vsum", [V(1, 2, 3)]).item() == 6.0
    assert apply_primitive("vlen", [V(1, 2, 3, 4)]).item() == 4.0


def test_normalize_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = Value.vector(rng.uniform(-3, 3, size=4))
        if float(apply_primitive("norm", [v]).data) < 1e-6:
            continue
        n = apply_primitive("norm", [apply_primitive("normalize", [v])])
        assert abs(n.item() - 1.0) < 1e-12


def test_det_of_product_property():
    rng = np.random.default_rng(1)
    for _ in range(30):
        A = rng.uniform(-1, 1, size=(3, 3)) + np.eye(3)
        B = rng.uniform(-1, 1, size=(3, 3)) + np.eye(3)
        if np.linalg.cond(A) > 1e3 or np.linalg.cond(B) > 1e3:
            continue
        ab = apply_primitive("matmul", [M(A), M(B)])
        d_ab = apply_primitive("det", [ab]).item()
        d_a = apply_primitive("det", [M(A)]).item()
        d_b = apply_primitive("det", [M(B)]).item()
        assert abs(d_ab - d_a * d_b) <= 1e-9 * max(1.0, abs(d_a * d_b))


def test_inv_is_inverse():
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, size=(3, 3)) + 3 * np.eye(3)
    inv = apply_primitive("inv", [M(A)])
    prod = apply_primitive("matmul", [M(A), inv])
    assert np.allclose(prod.data, np.eye(3), atol=1e-12)


def test_singular_matrix_policy():
    singular = M([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        apply_primitive("inv", [singular], ERROR_POLICY)
    out = apply_primitive("inv", [singular], PROPAGATE_POLICY)
    assert np.isnan(out.data).all()


def test_an_unknown_safe_domain_mode_raises_config_error():
    with pytest.raises(ConfigError, match="unknown safe-domain mode 'bogus'"):
        SafeDomainPolicy("bogus")


def test_singular_matrix_names_first_singular_lane():
    rng = np.random.default_rng(11)
    stack = rng.uniform(-1, 1, (5, 3, 3)) + 3 * np.eye(3)
    stack[3] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0]]
    stack[4] = stack[3]
    for op in ("det", "inv"):
        with pytest.raises(SingularMatrix) as err:
            apply_primitive(op, [Value.batch_matrices(stack)], ERROR_POLICY)
        assert err.value.where == 3
        assert "first singular lane 3" in str(err.value)


# ---------------------------------------------------------------------------
# the batch-vectorised LU against the one-matrix LU it replaced, bitwise


def _oracle_lu_factor(m):
    n = m.shape[0]
    lu = m.copy()
    perm = np.arange(n)
    sign = 1.0
    row_scale = np.abs(m).max(axis=1).max() if n else 0.0
    threshold = 1e-12 * row_scale
    singular = False
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= threshold:
            singular = True
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        piv = lu[k, k]
        if piv != 0.0:
            for i in range(k + 1, n):
                f = lu[i, k] / piv
                lu[i, k] = f
                lu[i, k + 1:] = lu[i, k + 1:] - f * lu[k, k + 1:]
    return lu, perm, sign, singular


def _oracle_det(m):
    lu, _, sign, _ = _oracle_lu_factor(m)
    d = sign
    for k in range(m.shape[0]):
        d = d * lu[k, k]
    return d


def _oracle_inv(m):
    n = m.shape[0]
    lu, perm, _, singular = _oracle_lu_factor(m)
    if singular:
        return np.full_like(m, np.nan)
    inv = np.empty_like(m)
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        e = e[perm]
        y = np.zeros(n)
        for i in range(n):
            y[i] = e[i]
            for j in range(i):
                y[i] -= lu[i, j] * y[j]
        x = np.zeros(n)
        for i in range(n - 1, -1, -1):
            x[i] = y[i]
            for j in range(i + 1, n):
                x[i] -= lu[i, j] * x[j]
            x[i] /= lu[i, i]
        inv[:, col] = x
    return inv


def _lu_stacks(n, rng, batch=12):
    spd = rng.uniform(-1, 1, (batch, n, n))
    spd = spd @ np.swapaxes(spd, 1, 2) + n * np.eye(n)
    # a rolled diagonally dominant matrix pivots away from the diagonal
    swapping = np.roll(rng.uniform(-1, 1, (batch, n, n)) + 3 * np.eye(n), 1, axis=1)
    # small integers give exact cancellations, hence exact-zero pivots
    # (and singular lanes) mid-stack
    zero_pivot = rng.integers(-2, 3, (batch, n, n)).astype(float)
    zero_pivot[batch // 2] = 0.0
    zero_pivot[batch // 2, :, -1] = 1.0
    # a NaN lane, whose pivot search must take the first NaN of a column
    # (rows 1 and below of column 0), and a lane with +inf and -inf on its
    # diagonal, which is singular (its threshold is inf); the other lanes
    # must not see them
    non_finite = swapping.copy()
    non_finite[1, min(1, n - 1):, 0] = np.nan
    non_finite[2][np.diag_indices(n)] = np.where(np.arange(n) % 2, -np.inf, np.inf)
    return {"spd": spd, "swapping": swapping, "zero_pivot": zero_pivot, "non_finite": non_finite}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_lu_matches_one_matrix_oracle(n):
    rng = np.random.default_rng(700 + n)
    for name, stack in _lu_stacks(n, rng).items():
        lu, perm, sign, singular = lu_factor(stack)
        det = apply_primitive("det", [Value.batch_matrices(stack)], PROPAGATE_POLICY).data
        inv = apply_primitive("inv", [Value.batch_matrices(stack)], PROPAGATE_POLICY).data
        for b, m in enumerate(stack):
            o_lu, o_perm, o_sign, o_singular = _oracle_lu_factor(m)
            assert np.array_equal(_bits(lu[b]), _bits(o_lu)), (name, b)
            assert np.array_equal(perm[b], o_perm), (name, b)
            assert (sign[b], singular[b]) == (o_sign, o_singular), (name, b)
            assert _bits(det[b]) == _bits(_oracle_det(m)), (name, b)
            assert np.array_equal(_bits(inv[b]), _bits(_oracle_inv(m))), (name, b)
            if o_singular:
                assert np.isnan(inv[b]).all()
        if name == "swapping":
            assert (perm != np.arange(n)).any() or n == 1
        if name == "zero_pivot":
            assert singular.any() and not singular.all()


def test_domain_violations():
    with pytest.raises(DomainViolation):
        apply_primitive("/", [S(1), S(0)], ERROR_POLICY)
    with pytest.raises(DomainViolation):
        apply_primitive("sqrt", [S(-1)], ERROR_POLICY)
    with pytest.raises(DomainViolation):
        apply_primitive("log", [S(0)], ERROR_POLICY)
    with pytest.raises(DomainViolation):
        apply_primitive("pow", [S(-2), S(0.5)], ERROR_POLICY)
    assert np.isnan(apply_primitive("sqrt", [S(-1)], PROPAGATE_POLICY).data)
    assert np.isinf(apply_primitive("/", [S(1), S(0)], PROPAGATE_POLICY).data)


def _loads(fn: ast.FunctionDef, name: str) -> bool:
    """Whether ``fn`` itself, not a function nested in it, reads ``name``."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))
    return False


def test_only_the_rule_and_the_det_inv_path_read_the_policy():
    tree = ast.parse(inspect.getsource(runtime))
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and _loads(fn, "policy")}
    assert readers == {"apply_primitive", "pow_immediate"}  # the rule on a lone op
    # the generated code of det and inv is given whether the policy raises
    assert {fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and _loads(fn, "raises")} == {"det_inv"}
    # the reference interpreter imports nothing of the machine it checks
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(interpreter)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and node.module != "machine"
                           for node in imports)


def test_shape_mismatches():
    with pytest.raises(ShapeMismatch):
        apply_primitive("dot", [V(1, 2), V(1, 2, 3)])
    with pytest.raises(ShapeMismatch):
        apply_primitive("cross", [V(1, 2), V(3, 4)])
    with pytest.raises(ShapeMismatch):
        apply_primitive("matvec", [M([[1, 2]]), V(1, 2, 3)])
    with pytest.raises(ShapeMismatch):
        apply_primitive("+", [V(1, 2), V(1, 2, 3)])
    with pytest.raises(ShapeMismatch):
        batched2 = Value.batch_scalars(np.ones(2))
        batched3 = Value.batch_scalars(np.ones(3))
        apply_primitive("+", [batched2, batched3])
    # every op with two or more operands on the all-scalar fast path, in
    # both policies and wherever the second batch size appears
    b2 = Value.batch_scalars(np.array([1.0, 2.0]))
    b3 = Value.batch_scalars(np.array([1.0, 2.0, 3.0]))
    mismatched = ([b2, b3], [S(1.0), b2, b3], [b3, S(1.0), b2])
    for op in ("+", "-", "*", "/", "pow", "modulo", "remainder", "min", "max",
               "=", "<", ">", "<=", ">=", "and", "or"):
        for policy in (ERROR_POLICY, PROPAGATE_POLICY):
            for args in mismatched:
                with pytest.raises(ShapeMismatch, match="batch sizes"):
                    apply_primitive(op, args, policy)
    for args in ([b2, b3, S(0.0)], [S(1.0), b2, b3], [b3, S(1.0), b2]):
        with pytest.raises(ShapeMismatch, match="batch sizes"):
            select(*args)
        with pytest.raises(ShapeMismatch, match="batch sizes"):
            apply_primitive("if", args)


def test_scalar_tensor_promotion():
    out = apply_primitive("+", [V(1, 2, 3), S(10)])
    assert np.array_equal(out.data, [11.0, 12.0, 13.0])
    out = apply_primitive("*", [S(2), M([[1, 2], [3, 4]])])
    assert np.array_equal(out.data, [[2, 4], [6, 8]])


def test_batched_scalar_against_batched_vector():
    s = Value.batch_scalars(np.array([2.0, 3.0]))
    v = Value.batch_vectors(np.array([[1.0, 1.0], [1.0, 1.0]]))
    out = apply_primitive("*", [s, v])
    assert np.array_equal(out.data, [[2, 2], [3, 3]])


# ---------------------------------------------------------------------------
# batch consistency: every primitive, batched == stacked unbatched, bitwise


def _args_for(op, rng, matrices="spd"):
    two_vec = [V(*rng.uniform(0.5, 2.0, 3)), V(*rng.uniform(0.5, 2.0, 3))]
    if matrices == "spd":
        spd = rng.uniform(-1, 1, (3, 3))
        spd = spd @ spd.T + 3 * np.eye(3)
    else:  # rows rolled off the diagonal, so the LU swaps rows
        spd = np.roll(rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3), 1, axis=0)
    cases = {
        "+": [S(rng.uniform(0.5, 2)), S(rng.uniform(0.5, 2))],
        "-": [S(rng.uniform(0.5, 2)), S(rng.uniform(0.5, 2))],
        "*": [S(rng.uniform(0.5, 2)), S(rng.uniform(0.5, 2))],
        "/": [S(rng.uniform(0.5, 2)), S(rng.uniform(0.5, 2))],
        "pow": [S(rng.uniform(0.5, 2)), S(rng.uniform(-2, 2))],
        "modulo": [S(rng.uniform(-5, 5)), S(rng.uniform(1, 3))],
        "remainder": [S(rng.uniform(-5, 5)), S(rng.uniform(1, 3))],
        "abs": [S(rng.uniform(-2, 2))],
        "min": [S(rng.uniform(-2, 2)), S(rng.uniform(-2, 2))],
        "max": [S(rng.uniform(-2, 2)), S(rng.uniform(-2, 2))],
        "sin": [S(rng.uniform(-3, 3))],
        "cos": [S(rng.uniform(-3, 3))],
        "exp": [S(rng.uniform(-2, 2))],
        "sqrt": [S(rng.uniform(0.1, 4))],
        "log": [S(rng.uniform(0.1, 4))],
        "=": [S(rng.integers(0, 2)), S(rng.integers(0, 2))],
        "<": [S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1))],
        ">": [S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1))],
        "<=": [S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1))],
        ">=": [S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1))],
        "and": [S(rng.integers(0, 2)), S(rng.integers(0, 2))],
        "or": [S(rng.integers(0, 2)), S(rng.integers(0, 2))],
        "not": [S(rng.integers(0, 2))],
        "if": [S(rng.integers(0, 2)), S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1))],
        "vec": [S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1)), S(rng.uniform(-1, 1))],
        "ref": None,  # handled separately (static index)
        "dot": two_vec,
        "cross": two_vec,
        "norm": [two_vec[0]],
        "normalize": [two_vec[0]],
        "vsum": [two_vec[0]],
        "vlen": None,  # structural constant
        "scale": [S(rng.uniform(-2, 2)), two_vec[0]],
        "mat": two_vec,
        "matmul": [M(spd), M(rng.uniform(-1, 1, (3, 3)))],
        "matvec": [M(spd), two_vec[0]],
        "transpose": [M(spd)],
        "trace": [M(spd)],
        "det": [M(spd)],
        "inv": [M(spd)],
        "outer": two_vec,
        "eye": None,
        "zeros": None,
        "ones": None,
    }
    return cases[op]


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_batch_consistency_all_primitives(batch):
    rng = np.random.default_rng(100 + batch)
    skipped = {"ref", "vlen", "eye", "zeros", "ones"}  # static/structural ops
    for matrices in ("spd", "pivoting"):
        for op in sorted(PRIM_NAMES | {"if"}):
            if op in skipped:
                continue
            per_point = [_args_for(op, rng, matrices) for _ in range(batch)]
            n_args = len(per_point[0])
            batched_args = [
                stack_batch([per_point[b][i] for b in range(batch)])
                for i in range(n_args)
            ]
            batched = apply_primitive(op, batched_args, PROPAGATE_POLICY)
            singles = [apply_primitive(op, per_point[b], PROPAGATE_POLICY)
                       for b in range(batch)]
            stacked = stack_batch(singles)
            assert bit_equal(batched, stacked), \
                f"{op} diverges at batch {batch} on {matrices} matrices"


def test_batch_consistency_ref():
    rng = np.random.default_rng(5)
    idx = S(1)
    vecs = [V(*rng.uniform(-2, 2, 4)) for _ in range(7)]
    batched = apply_primitive("ref", [stack_batch(vecs), idx])
    singles = stack_batch([apply_primitive("ref", [v, idx]) for v in vecs])
    assert bit_equal(batched, singles)


def test_a_lone_vsum_takes_one_operand_and_the_parser_desugars_more(request):
    v, w = V(1, 2, 3), V(10, 20, 30)
    with pytest.raises(SchemegradError, match="vsum takes 1..1 operands, got 2"):
        apply_primitive("vsum", [v, w])
    with pytest.raises(SchemegradError, match="vsum takes 1..1 operands, got 2"):
        TapeContext().prim("vsum", v, w)
    prog = compile_source("(vsum a b)", inputs=("a", "b"))
    for run in range(4):  # three runs through the kernel, then one through the executor
        if run == 3:
            request.getfixturevalue("no_kernels")
        assert eval_program(prog, {"a": v, "b": w}).item() == 66.0
    assert interpreter.interpret_ast(parse("(vsum a b)"), {"a": v, "b": w}).item() == 66.0


@pytest.mark.parametrize("batched", [False, True])
def test_a_constant_ref_index_is_the_rows_aux(batched, request):
    prog = compile_source("(+ (ref v 2) (ref v i))", inputs=("v", "i"))
    consts = [ins for ins in prog.block.instrs if ins[0] == "prim" and ins[2] == "ref"]
    assert [(len(ins[3]), ins[4]) for ins in consts] == [(1, 2.0), (2, None)]
    v = Value.batch_vectors(np.arange(12.0).reshape(3, 4)) if batched else V(0, 1, 2, 3)
    want = v.data[..., 2] + v.data[..., 1]
    bad = {message: compile_source(src, inputs=("v",)) for src, message in (
        ("(ref v 4)", "ref: index 4 out of range for length 4"),
        ("(ref v 1.5)", "ref: index 1.5 is not an integer"))}
    for run in range(4):  # three runs through the kernel, then one through the executor
        if run == 3:
            request.getfixturevalue("no_kernels")
        assert bit_equal(eval_program(prog, {"v": v, "i": S(1.0)}),
                         Value(want, "scalar", batched))
        # an index out of range or not an integer raises as it always has
        for message, wrong in bad.items():
            with pytest.raises(ShapeMismatch, match=message):
                eval_program(wrong, {"v": v})
    # a record with a constant index has no index leaf, and the same gradient
    ctx = TapeContext()
    x = ctx.constant(v)
    out = ctx.prim("ref", x, aux=2.0)
    assert [node[0] for node in ctx.tape.nodes] == ["leaf", "ref"]
    assert ctx.backward(out, wrt_inputs=[x]).input_grads[x.tape_id].data[..., 2].all()


@pytest.mark.parametrize("src, leaf", [
    ("(norm v)", Value.vector([])),
    ("(vsum v)", Value.vector([])),
    ("(dot v v)", Value.vector([])),
    ("(trace v)", Value.matrix(np.zeros((0, 0)))),
    ("(norm v)", Value.batch_vectors(np.zeros((3, 0)))),
])
def test_an_empty_sum_is_zero_in_both_engines(src, leaf, request):
    prog = compile_source(src, inputs=("v",))
    want = np.zeros(leaf.data.shape[:1] if leaf.batched else ())
    for run in range(4):  # three runs through a kernel where one is made, then the executor
        if run == 3:
            request.getfixturevalue("no_kernels")
        got = eval_program(prog, {"v": leaf})
        assert (got.kind, got.batched) == ("scalar", leaf.batched)
        assert bit_equal(got, Value(want, "scalar", leaf.batched))
    assert bit_equal(interpreter.interpret_ast(parse(src), {"v": leaf}), got)


def test_a_nonempty_ordered_sum_still_folds_left():
    arr = np.array([[1e16, 1.0, -1e16, 1.0]])
    assert runtime.ordered_sum_last(arr)[0] == ((1e16 + 1.0) - 1e16) + 1.0 == 1.0


def test_pow_immediate_matches_power():
    rng = np.random.default_rng(6)
    x = Value.batch_scalars(rng.uniform(0.5, 2.0, 16))
    assert bit_equal(pow_immediate(x, 2.0, PROPAGATE_POLICY),
                     apply_primitive("pow", [x, S(2.0)], PROPAGATE_POLICY))


def test_constructors_and_constants():
    assert np.array_equal(apply_primitive("zeros", [S(3)]).data, np.zeros(3))
    assert np.array_equal(apply_primitive("ones", [S(2), S(3)]).data, np.ones((2, 3)))
    assert np.array_equal(apply_primitive("eye", [S(2)]).data, np.eye(2))
    with pytest.raises(ShapeMismatch):
        apply_primitive("eye", [S(2.5)])


def test_shape_table_conformance():
    """Input/output shape rules for every vector/matrix signature, checked
    unbatched and with a leading batch dimension."""
    B, n, m = 4, 3, 2
    rng = np.random.default_rng(9)

    def batched(shape):
        return Value(rng.uniform(0.5, 1.5, (B,) + shape),
                     {0: "scalar", 1: "vector", 2: "matrix"}[len(shape)], batched=True)

    def plain(shape):
        return Value(rng.uniform(0.5, 1.5, shape),
                     {0: "scalar", 1: "vector", 2: "matrix"}[len(shape)])

    cases = [
        # (op, unbatched arg shapes, expected core output shape, output kind)
        ("vec", [(), (), ()], (3,), "vector"),
        ("dot", [(n,), (n,)], (), "scalar"),
        ("cross", [(3,), (3,)], (3,), "vector"),
        ("norm", [(n,)], (), "scalar"),
        ("normalize", [(n,)], (n,), "vector"),
        ("vsum", [(n,)], (), "scalar"),
        ("scale", [(), (n,)], (n,), "vector"),
        ("matvec", [(n, m), (m,)], (n,), "vector"),
        ("matmul", [(n, m), (m, n)], (n, n), "matrix"),
        ("transpose", [(n, m)], (m, n), "matrix"),
        ("trace", [(n, n)], (), "scalar"),
        ("det", [(n, n)], (), "scalar"),
        ("inv", [(n, n)], (n, n), "matrix"),
        ("outer", [(n,), (m,)], (n, m), "matrix"),
    ]
    for op, arg_shapes, out_core, out_kind in cases:
        out = apply_primitive(op, [plain(s) for s in arg_shapes], PROPAGATE_POLICY)
        assert (out.core_shape, out.kind, out.batched) == (out_core, out_kind, False), op
        out = apply_primitive(op, [batched(s) for s in arg_shapes], PROPAGATE_POLICY)
        assert (out.core_shape, out.kind, out.batched) == (out_core, out_kind, True), op


def test_pow_with_a_batched_exponent_is_bitwise_its_unbatched_runs():
    # numpy's power on an array of exponents differs in the last bit, in a
    # few percent of lanes, from a scalar exponent of 2, 0.5 or -1; the
    # exponents 3 and 1.5 put 2 and 0.5 in the gradient's power(x, y - 1)
    rng = np.random.default_rng(16)
    x = rng.uniform(0.1, 4.0, 2000)
    y = rng.choice([2.0, 0.5, -1.0, 3.0, 1.5, 1.7], 2000)
    prog = compile_source("(pow x y)", inputs=("x", "y"))

    def run(xs, ys):
        out, tape = eval_with_tape(prog, {"x": xs, "y": ys}, policy=PROPAGATE_POLICY)
        grads = backward(tape, Value(np.ones_like(out.data), "scalar", out.batched),
                         wrt_inputs=["x", "y"]).input_grads
        return [np.asarray(a, dtype=np.float64) for a in
                (out.data, grads["x"].data, grads["y"].data)]

    batched = run(Value.batch_scalars(x), Value.batch_scalars(y))
    stacked = np.array([run(S(a), S(b)) for a, b in zip(x, y)]).T
    for name, got, want in zip(("forward", "dx", "dy"), batched, stacked):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


# (source, input): the IEEE value of each under the propagate policy
_WARNING_PROBES = {"(+ x 1e308)": (1e308, np.inf), "(pow x 2)": (1e200, np.inf),
                   "(* x 0)": (np.inf, np.nan)}
_PROBE_SCRIPT = """
from math import inf

import numpy as np
from schemegrad import kernels
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation
from schemegrad.interpreter import interpret_ast
from schemegrad.machine import eval_program
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY
from schemegrad.sexpr import parse
from schemegrad.values import Value


def by_executor(p):
    lookup, kernels.lookup = kernels.lookup, lambda prog, sig, kind: None
    try:
        return eval_program(prog, {{"x": x_value}}, policy=p)
    finally:
        kernels.lookup = lookup


for src, x in {probes!r}.items():
    prog = compile_source(src, inputs=("x",))
    for x_value in (Value.scalar(x), Value.batch_scalars(np.full(3, x))):
        # two kernel runs (raw-slot or array), the executor's and the interpreter's
        engines = [lambda p: eval_program(prog, {{"x": x_value}}, policy=p)] * 2
        engines += [by_executor, lambda p: interpret_ast(parse(src), {{"x": x_value}}, p)]
        for engine in engines:
            print(src, x_value.batched, np.ravel(engine(PROPAGATE_POLICY).data)[0].item())
            try:
                engine(ERROR_POLICY)
                print("no error")
            except DomainViolation as err:
                print(src, x_value.batched, "DomainViolation", err.kind)
"""


def test_no_float_warning_leaves_a_run_under_w_error():
    probes = {src: x for src, (x, _) in _WARNING_PROBES.items()}
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(schemegrad.__file__)))
    run = subprocess.run([sys.executable, "-W", "error", "-c",
                          _PROBE_SCRIPT.format(probes=probes)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src_dir})
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    want = []
    for src, (_, ieee) in _WARNING_PROBES.items():
        for batched in (False, True):
            want += [f"{src} {batched} {ieee}", f"{src} {batched} DomainViolation "
                     f"{'pow' if 'pow' in src else 'non-finite output'}"] * 4
    assert lines == want


def test_bit_equal_compares_raw_bits_so_nans_of_another_sign_differ():
    quiet_nan = np.array([0x7FF8000000000000], dtype=np.uint64).view(np.float64)
    negative = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    assert bit_equal(Value.batch_scalars(quiet_nan), Value.batch_scalars(quiet_nan.copy()))
    assert not bit_equal(Value.batch_scalars(quiet_nan), Value.batch_scalars(negative))


def test_mse_of_another_batch_size_raises_shape_mismatch():
    """A prediction and a target batched to different sizes raise
    ``ShapeMismatch("mse: batch sizes differ")``, through a tape and as a
    lone op, for scalars and for vectors."""
    for make, a, b in ((Value.batch_scalars, np.ones(4), np.ones(5)),
                       (Value.batch_vectors, np.ones((4, 2)), np.ones((5, 2)))):
        ctx = TapeContext()
        with pytest.raises(ShapeMismatch, match=r"^mse: batch sizes differ$"):
            ctx.mse(ctx.lift(make(a)), make(b))
        with pytest.raises(ShapeMismatch, match=r"^mse: batch sizes differ$"):
            apply_primitive("mse", [make(a), make(b)])
