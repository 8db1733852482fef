import ast
import inspect

import numpy as np
import pytest

from schemegrad import interpreter, runtime
from schemegrad.compiler import compile_source
from schemegrad.errors import DomainViolation, ShapeMismatch, SingularMatrix
from schemegrad.machine import eval_program
from schemegrad.ops import PRIM_NAMES
from schemegrad.runtime import (
    ERROR_POLICY,
    PROPAGATE_POLICY,
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
    return {"spd": spd, "swapping": swapping, "zero_pivot": zero_pivot}


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
    assert readers == {"apply_primitive", "pow_immediate",  # the rule on a lone op
                       "op_det", "op_inv", "matrix_inverse", "_refuse_singular"}
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


@pytest.mark.parametrize("src, leaf", [
    ("(norm v)", Value.vector([])),
    ("(vsum v)", Value.vector([])),
    ("(dot v v)", Value.vector([])),
    ("(trace v)", Value.matrix(np.zeros((0, 0)))),
    ("(norm v)", Value.batch_vectors(np.zeros((3, 0)))),
])
def test_an_empty_sum_is_zero_in_both_engines(src, leaf):
    prog = compile_source(src, inputs=("v",))
    want = np.zeros(leaf.data.shape[:1] if leaf.batched else ())
    for _ in range(3):  # the executor, then a kernel where one is generated
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
