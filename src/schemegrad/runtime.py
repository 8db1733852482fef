"""Forward implementations of the primitive operations.

Reductions (dot, norm, vsum, trace, matvec, matmul, det) accumulate
left-to-right over the trailing axes so that a batched evaluation is
bit-identical to stacking unbatched evaluations regardless of how numpy
would otherwise reassociate sums.

det, inv and the det gradient share one LU, ``lu_factor``, vectorised
across the batch axis.  Each lane does the float operations of an LU of
that matrix alone, in the same order, and an unbatched matrix goes
through it as a batch of one, so for them too a batched evaluation is
bit-identical to stacked unbatched ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, ShapeMismatch, SingularMatrix
from .values import Value

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class SafeDomainPolicy:
    """How partial operations behave outside their domain.

    ``error`` raises DomainViolation/SingularMatrix; ``propagate_nan``
    lets IEEE non-finite values flow through.
    """

    mode: str = "error"

    def __post_init__(self):
        if self.mode not in ("error", "propagate_nan"):
            raise ValueError(f"unknown safe-domain mode {self.mode!r}")

    @property
    def raises(self) -> bool:
        return self.mode == "error"


ERROR_POLICY = SafeDomainPolicy("error")
PROPAGATE_POLICY = SafeDomainPolicy("propagate_nan")

# Ops whose domain is partial; the compiler records their instruction
# indices so evaluation failures can point at the offending instruction.
PARTIAL_OPS = frozenset(["/", "sqrt", "log", "pow", "normalize", "inv", "det"])


def _violation(policy: SafeDomainPolicy, kind: str, mask) -> None:
    if policy.raises:
        where = None
        bad = np.nonzero(np.asarray(mask).ravel())[0]
        if bad.size:
            where = int(bad[0])
        raise DomainViolation(kind, where=where)


# ---------------------------------------------------------------------------
# shape alignment


def _align_elementwise(args: list[Value], op: str):
    """Return (arrays, kind, batched) for an elementwise application.

    Scalars broadcast against vectors/matrices; unbatched values broadcast
    against batched ones.  Anything else must match exactly.  All-scalar
    operands, the common case of small-batch programs, take a fast path
    that only compares batch sizes: their arrays need no reshaping.
    """
    size = None
    arrays = []
    for a in args:
        if a.kind != "scalar":
            break
        if a.batched:
            n = a.data.shape[0]
            if size is not None and n != size:
                raise ShapeMismatch(f"{op}: batch sizes {size} vs {n} differ")
            size = n
        arrays.append(a.data)
    else:
        return arrays, "scalar", size is not None

    kind = "scalar"
    core = None
    batch = None
    for a in args:
        if a.kind != "scalar":
            if kind != "scalar" and a.kind != kind:
                raise ShapeMismatch(f"{op}: mixed kinds {kind}/{a.kind}")
            if core is not None and a.core_shape != core:
                raise ShapeMismatch(
                    f"{op}: core shapes {core} vs {a.core_shape} differ"
                )
            kind = a.kind
            core = a.core_shape
        if a.batched:
            if batch is not None and a.batch_size != batch:
                raise ShapeMismatch(
                    f"{op}: batch sizes {batch} vs {a.batch_size} differ"
                )
            batch = a.batch_size
    batched = batch is not None
    arrays = []
    for a in args:
        arr = a.data
        if batched and a.batched and a.kind == "scalar" and kind != "scalar":
            # batched scalar against batched tensor: (B,) -> (B, 1[, 1])
            arr = arr.reshape((arr.shape[0],) + (1,) * len(core))
        arrays.append(arr)
    return arrays, kind, batched


def _require_kind(a: Value, kind: str, op: str) -> None:
    if a.kind != kind:
        raise ShapeMismatch(f"{op}: expected {kind}, got {a.kind}")


def _batch_of(args: list[Value], op: str) -> int | None:
    batch = None
    for a in args:
        if a.batched:
            if batch is not None and a.batch_size != batch:
                raise ShapeMismatch(f"{op}: batch sizes differ")
            batch = a.batch_size
    return batch


# ---------------------------------------------------------------------------
# ordered reductions


def ordered_sum_last(arr: np.ndarray) -> np.ndarray:
    out = arr[..., 0]
    for i in range(1, arr.shape[-1]):
        out = out + arr[..., i]
    return out


def ordered_sum_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    arr = np.moveaxis(arr, axis, -1)
    return ordered_sum_last(arr)


# ---------------------------------------------------------------------------
# scalar / elementwise ops


def _any(mask) -> bool:
    """np.any without its dispatch overhead; a 0-d mask is a numpy bool."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _result(data, kind: str, batched: bool) -> Value:
    """Wrap an elementwise result.  An all-scalar one skips the Value
    checks, since ``batched`` implies its ndim; ufuncs return numpy scalars
    for 0-d operands, which become 0-d arrays again."""
    if kind == "scalar":
        return Value.trusted(np.asarray(data), "scalar", batched)
    return Value(data, kind, batched)


def _as_float(mask) -> np.ndarray:
    """Truth values as 1.0/0.0; a numpy bool becomes a 0-d array."""
    return np.asarray(mask, dtype=np.float64)


def _folding(op: str, ufunc):
    """An n-ary elementwise op that folds ``ufunc`` left to right."""
    def impl(args, policy):
        arrays, kind, batched = _align_elementwise(args, op)
        out = arrays[0]
        for x in arrays[1:]:
            out = ufunc(out, x)
        return _result(out, kind, batched)
    return impl


def _unary(op: str, ufunc):
    def impl(args, policy):
        arrays, kind, batched = _align_elementwise(args, op)
        return _result(ufunc(arrays[0]), kind, batched)
    return impl


def _comparing(op: str, ufunc):
    """A binary comparison; true is 1.0 and false 0.0."""
    def impl(args, policy):
        arrays, kind, batched = _align_elementwise(args, op)
        return _result(_as_float(ufunc(arrays[0], arrays[1])), kind, batched)
    return impl


def _logical(op: str, ufunc):
    """n-ary and/or over truth values (non-zero is true)."""
    def impl(args, policy):
        arrays, kind, batched = _align_elementwise(args, op)
        out = arrays[0] != 0.0
        for x in arrays[1:]:
            out = ufunc(out, x != 0.0)
        return _result(_as_float(out), kind, batched)
    return impl


_op_add = _folding("+", np.add)
_op_mul = _folding("*", np.multiply)
_op_min = _folding("min", np.minimum)
_op_max = _folding("max", np.maximum)
_op_abs = _unary("abs", np.abs)
_op_sin = _unary("sin", np.sin)
_op_cos = _unary("cos", np.cos)
_op_exp = _unary("exp", np.exp)
_op_eq = _comparing("=", np.equal)
_op_lt = _comparing("<", np.less)
_op_gt = _comparing(">", np.greater)
_op_le = _comparing("<=", np.less_equal)
_op_ge = _comparing(">=", np.greater_equal)
_op_and = _logical("and", np.logical_and)
_op_or = _logical("or", np.logical_or)
_subtract = _folding("-", np.subtract)
_sqrt = _unary("sqrt", np.sqrt)
_log = _unary("log", np.log)


_ZERO = Value.scalar(0.0)  # unary minus is 0 - x; shared, so read-only
_ZERO.data.flags.writeable = False


def _op_sub(args, policy):
    if len(args) == 1:
        return _subtract([_ZERO, args[0]], policy)
    return _subtract(args, policy)


def _op_div(args, policy):
    arrays, kind, batched = _align_elementwise(args, "/")
    out = arrays[0]
    for a in arrays[1:]:
        if policy.raises and _any(a == 0.0):
            _violation(policy, "division by zero", a == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(out, a)
    return _result(out, kind, batched)


def _op_pow(args, policy):
    arrays, kind, batched = _align_elementwise(args, "pow")
    base, ex = np.broadcast_arrays(*arrays)
    if policy.raises:
        frac = (base < 0.0) & (ex != np.trunc(ex))
        if _any(frac):
            _violation(policy, "pow of negative base with non-integer exponent", frac)
        zneg = (base == 0.0) & (ex < 0.0)
        if _any(zneg):
            _violation(policy, "division by zero", zneg)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _result(np.power(arrays[0], arrays[1]), kind, batched)


def pow_immediate(base: Value, exponent: float, policy: SafeDomainPolicy) -> Value:
    """pow with a compile-time constant exponent (no exponent operand)."""
    if policy.raises:
        if exponent != np.trunc(exponent) and _any(base.data < 0.0):
            _violation(policy, "pow of negative base with non-integer exponent",
                       base.data < 0.0)
        if exponent < 0.0 and _any(base.data == 0.0):
            _violation(policy, "division by zero", base.data == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.power(base.data, exponent)
    # the result has the base's shape, so the base's kind and batching fit it
    return Value.trusted(np.asarray(out), base.kind, base.batched)


def _op_modulo(args, policy):
    arrays, kind, batched = _align_elementwise(args, "modulo")
    if policy.raises and _any(arrays[1] == 0.0):
        _violation(policy, "division by zero", arrays[1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _result(np.mod(arrays[0], arrays[1]), kind, batched)


def _op_remainder(args, policy):
    arrays, kind, batched = _align_elementwise(args, "remainder")
    if policy.raises and _any(arrays[1] == 0.0):
        _violation(policy, "division by zero", arrays[1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _result(np.fmod(arrays[0], arrays[1]), kind, batched)


def _op_sqrt(args, policy):
    if policy.raises and _any(args[0].data < 0.0):
        _violation(policy, "sqrt of negative value", args[0].data < 0.0)
    with np.errstate(invalid="ignore"):
        return _sqrt(args, policy)


def _op_log(args, policy):
    if policy.raises and _any(args[0].data <= 0.0):
        _violation(policy, "log of non-positive value", args[0].data <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _log(args, policy)


def _op_not(args, policy):
    arrays, kind, batched = _align_elementwise(args, "not")
    return _result(_as_float(np.equal(arrays[0], 0.0)), kind, batched)


def select(cond: Value, then: Value, orelse: Value) -> Value:
    """Elementwise branch blend: picks `then` where cond is non-zero."""
    arrays, kind, batched = _align_elementwise([cond, then, orelse], "if")
    return _result(np.where(arrays[0] != 0.0, arrays[1], arrays[2]), kind, batched)


def _op_select(args, policy):
    return select(args[0], args[1], args[2])


# ---------------------------------------------------------------------------
# vector ops


def _op_vec(args, policy):
    batch = _batch_of(args, "vec")
    for a in args:
        _require_kind(a, "scalar", "vec")
    if batch is None:
        return Value(np.stack([a.data for a in args], axis=-1), "vector")
    parts = [
        a.data if a.batched else np.broadcast_to(a.data, (batch,))
        for a in args
    ]
    return Value(np.stack(parts, axis=-1), "vector", batched=True)


def _static_index(a: Value, op: str) -> int:
    if a.kind != "scalar" or a.batched:
        raise ShapeMismatch(f"{op}: index must be an unbatched scalar")
    idx = float(a.data)
    if idx != int(idx):
        raise ShapeMismatch(f"{op}: index {idx} is not an integer")
    return int(idx)


def _op_ref(args, policy):
    v, i = args
    _require_kind(v, "vector", "ref")
    idx = _static_index(i, "ref")
    if not 0 <= idx < v.core_shape[-1]:
        raise ShapeMismatch(f"ref: index {idx} out of range for length {v.core_shape[-1]}")
    return Value(v.data[..., idx], "scalar", v.batched)


def _op_dot(args, policy):
    a, b = args
    _require_kind(a, "vector", "dot")
    _require_kind(b, "vector", "dot")
    if a.core_shape != b.core_shape:
        raise ShapeMismatch(f"dot: lengths {a.core_shape} vs {b.core_shape}")
    _batch_of(args, "dot")
    return Value(ordered_sum_last(a.data * b.data), "scalar",
                 a.batched or b.batched)


def _op_cross(args, policy):
    a, b = args
    for x in (a, b):
        _require_kind(x, "vector", "cross")
        if x.core_shape != (3,):
            raise ShapeMismatch("cross: vectors must have length 3")
    _batch_of(args, "cross")
    av, bv = a.data, b.data
    out = np.stack(
        [
            av[..., 1] * bv[..., 2] - av[..., 2] * bv[..., 1],
            av[..., 2] * bv[..., 0] - av[..., 0] * bv[..., 2],
            av[..., 0] * bv[..., 1] - av[..., 1] * bv[..., 0],
        ],
        axis=-1,
    )
    return Value(out, "vector", a.batched or b.batched)


def _op_norm(args, policy):
    v = args[0]
    _require_kind(v, "vector", "norm")
    return Value(np.sqrt(ordered_sum_last(v.data * v.data)), "scalar", v.batched)


def _op_normalize(args, policy):
    v = args[0]
    _require_kind(v, "vector", "normalize")
    n = np.sqrt(ordered_sum_last(v.data * v.data))
    if policy.raises and np.any(n == 0.0):
        _violation(policy, "normalize of zero vector", n == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return Value(v.data / n[..., None], "vector", v.batched)


def _op_vsum(args, policy):
    v = args[0]
    _require_kind(v, "vector", "vsum")
    return Value(ordered_sum_last(v.data), "scalar", v.batched)


def _op_vlen(args, policy):
    v = args[0]
    _require_kind(v, "vector", "vlen")
    return Value.scalar(float(v.core_shape[-1]))


def _op_scale(args, policy):
    s, v = args
    _require_kind(s, "scalar", "scale")
    if v.kind not in ("vector", "matrix"):
        raise ShapeMismatch("scale: second argument must be a vector or matrix")
    _batch_of(args, "scale")
    sv = s.data
    if s.batched:
        sv = sv.reshape((sv.shape[0],) + (1,) * len(v.core_shape))
    return Value(sv * v.data, v.kind, s.batched or v.batched)


# ---------------------------------------------------------------------------
# matrix ops


def _op_mat(args, policy):
    batch = _batch_of(args, "mat")
    n = args[0].core_shape
    for a in args:
        _require_kind(a, "vector", "mat")
        if a.core_shape != n:
            raise ShapeMismatch("mat: rows have differing lengths")
    if batch is None:
        return Value(np.stack([a.data for a in args], axis=-2), "matrix")
    parts = [
        a.data if a.batched else np.broadcast_to(a.data, (batch,) + a.core_shape)
        for a in args
    ]
    return Value(np.stack(parts, axis=-2), "matrix", batched=True)


def _op_matmul(args, policy):
    a, b = args
    _require_kind(a, "matrix", "matmul")
    _require_kind(b, "matrix", "matmul")
    if a.core_shape[-1] != b.core_shape[-2]:
        raise ShapeMismatch(
            f"matmul: inner dims {a.core_shape} x {b.core_shape} do not agree"
        )
    _batch_of(args, "matmul")
    prod = a.data[..., :, :, None] * b.data[..., None, :, :]
    return Value(ordered_sum_axis(prod, -2), "matrix", a.batched or b.batched)


def _op_matvec(args, policy):
    m, v = args
    _require_kind(m, "matrix", "matvec")
    _require_kind(v, "vector", "matvec")
    if m.core_shape[-1] != v.core_shape[-1]:
        raise ShapeMismatch(
            f"matvec: {m.core_shape} x {v.core_shape} do not agree"
        )
    _batch_of(args, "matvec")
    prod = m.data * v.data[..., None, :]
    return Value(ordered_sum_last(prod), "vector", m.batched or v.batched)


def _op_transpose(args, policy):
    m = args[0]
    _require_kind(m, "matrix", "transpose")
    return Value(np.swapaxes(m.data, -1, -2), "matrix", m.batched)


def _op_trace(args, policy):
    m = args[0]
    _require_kind(m, "matrix", "trace")
    if m.core_shape[-1] != m.core_shape[-2]:
        raise ShapeMismatch("trace: matrix must be square")
    diag = np.diagonal(m.data, axis1=-2, axis2=-1)
    return Value(ordered_sum_last(diag), "scalar", m.batched)


def lu_factor(stack: np.ndarray):
    """LU with partial pivoting on a (B, n, n) stack of square matrices.

    Returns (lu, perm, sign, singular) shaped (B, n, n), (B, n), (B,) and
    (B,).  The batch axis is vectorised, but each lane does the same float
    operations in the same order as an LU of its matrix alone: the pivot
    is the first row of largest |a| in the column, rows swap only in the
    lanes whose pivot is off the diagonal, every row below k is updated
    with f = a_ik / piv and a_ij - f * a_kj, and a lane whose pivot is
    exactly zero skips that step.  No lane reads another, so a lane's
    factors are bit-identical whatever the batch around it, and batched ==
    stacked holds bitwise.  A lane is singular when some pivot has
    |piv| <= 1e-12 * max|a| over its matrix; row k is final once step k
    has pivoted, so the pivots are the diagonal of ``lu``.
    """
    b, n, _ = stack.shape
    lu = stack.copy()
    perm = np.tile(np.arange(n), (b, 1))
    sign = np.ones(b)
    scale = np.abs(stack).max(axis=(1, 2)) if n else np.zeros(b)
    threshold = _SINGULAR_RTOL * scale
    for k in range(n):
        below = np.argmax(np.abs(lu[:, k:, k]), axis=1)
        swap = np.nonzero(below)[0]
        if swap.size:
            ps = k + below[swap]
            lu[swap, k], lu[swap, ps] = lu[swap, ps], lu[swap, k]
            perm[swap, k], perm[swap, ps] = perm[swap, ps], perm[swap, k]
            sign[swap] = -sign[swap]
        if k + 1 == n:
            break
        piv = lu[:, k, k]
        if piv.all():
            _eliminate(lu, k, piv)
        else:
            live = piv != 0.0
            part = lu[live]
            _eliminate(part, k, piv[live])
            lu[live] = part
    pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2))
    singular = (pivots <= threshold[:, None]).any(axis=1)
    return lu, perm, sign, singular


def _eliminate(lu: np.ndarray, k: int, piv: np.ndarray) -> None:
    # In-place updates of views: f and the trailing block are written
    # straight into lu.
    f = lu[:, k + 1:, k]
    f /= piv[:, None]
    trailing = lu[:, k + 1:, k + 1:]
    trailing -= f[:, :, None] * lu[:, k, None, k + 1:]


def _lu_inverse(lu: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Solve LU x = P e_col for every unit column of every lane at once.

    Row i of the forward pass subtracts l_ij * y_j for j = 0, 1, ... and of
    the back pass u_ij * x_j for j = i+1, i+2, ..., as the one-matrix
    solve does.  The forward pass applies column j to all rows below it in
    one update, which keeps that order.
    """
    n = lu.shape[-1]
    x = np.eye(n)[perm]
    rows = [x[:, i] for i in range(n)]  # views: in-place updates write x
    for j in range(n - 1):
        below = x[:, j + 1:]
        below -= lu[:, j + 1:, j, None] * rows[j][:, None]
    for i in range(n - 1, -1, -1):
        row = rows[i]
        for j in range(i + 1, n):
            row -= lu[:, i, j, None] * rows[j]
        row /= lu[:, i, i, None]
    return x


def _square_stack(m: Value, op: str) -> np.ndarray:
    """The matrix as a (B, n, n) stack; an unbatched one is a batch of one."""
    _require_kind(m, "matrix", op)
    if m.core_shape[-1] != m.core_shape[-2]:
        raise ShapeMismatch(f"{op}: matrix must be square")
    return m.data if m.batched else m.data[None]


def _refuse_singular(singular: np.ndarray, policy: SafeDomainPolicy, op: str) -> None:
    if policy.raises and singular.any():
        raise SingularMatrix(op, where=int(np.argmax(singular)))


def matrix_inverse(m: Value, policy: SafeDomainPolicy, op: str = "inv") -> np.ndarray:
    """Inverse of a (batched) square matrix through ``lu_factor``, shaped
    like ``m.data``.  Singular lanes raise under the error policy and are
    NaN otherwise; ``op`` names the caller in the error."""
    stack = _square_stack(m, op)
    lu, perm, _, singular = lu_factor(stack)
    _refuse_singular(singular, policy, op)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = _lu_inverse(lu, perm)
    inv[singular] = np.nan
    return inv if m.batched else inv[0]


def _op_det(args, policy):
    m = args[0]
    stack = _square_stack(m, "det")
    lu, _, sign, singular = lu_factor(stack)
    _refuse_singular(singular, policy, "det")
    d = sign
    for k in range(stack.shape[-1]):
        d = d * lu[:, k, k]
    return Value(d if m.batched else d[0], "scalar", m.batched)


def _op_inv(args, policy):
    m = args[0]
    return Value(matrix_inverse(m, policy), "matrix", m.batched)


def _op_outer(args, policy):
    a, b = args
    _require_kind(a, "vector", "outer")
    _require_kind(b, "vector", "outer")
    _batch_of(args, "outer")
    out = a.data[..., :, None] * b.data[..., None, :]
    return Value(out, "matrix", a.batched or b.batched)


def _op_eye(args, policy):
    n = _static_index(args[0], "eye")
    if n <= 0:
        raise ShapeMismatch("eye: size must be positive")
    return Value(np.eye(n), "matrix")


def _op_zeros(args, policy):
    dims = [_static_index(a, "zeros") for a in args]
    if any(d <= 0 for d in dims):
        raise ShapeMismatch("zeros: sizes must be positive")
    if len(dims) == 1:
        return Value(np.zeros(dims[0]), "vector")
    return Value(np.zeros((dims[0], dims[1])), "matrix")


def _op_ones(args, policy):
    dims = [_static_index(a, "ones") for a in args]
    if any(d <= 0 for d in dims):
        raise ShapeMismatch("ones: sizes must be positive")
    if len(dims) == 1:
        return Value(np.ones(dims[0]), "vector")
    return Value(np.ones((dims[0], dims[1])), "matrix")


_IMPLS = {
    "+": _op_add,
    "-": _op_sub,
    "*": _op_mul,
    "/": _op_div,
    "pow": _op_pow,
    "modulo": _op_modulo,
    "remainder": _op_remainder,
    "abs": _op_abs,
    "min": _op_min,
    "max": _op_max,
    "sin": _op_sin,
    "cos": _op_cos,
    "exp": _op_exp,
    "sqrt": _op_sqrt,
    "log": _op_log,
    "=": _op_eq,
    "<": _op_lt,
    ">": _op_gt,
    "<=": _op_le,
    ">=": _op_ge,
    "and": _op_and,
    "or": _op_or,
    "not": _op_not,
    "if": _op_select,
    "vec": _op_vec,
    "ref": _op_ref,
    "dot": _op_dot,
    "cross": _op_cross,
    "norm": _op_norm,
    "normalize": _op_normalize,
    "vsum": _op_vsum,
    "vlen": _op_vlen,
    "scale": _op_scale,
    "mat": _op_mat,
    "matmul": _op_matmul,
    "matvec": _op_matvec,
    "transpose": _op_transpose,
    "trace": _op_trace,
    "det": _op_det,
    "inv": _op_inv,
    "outer": _op_outer,
    "eye": _op_eye,
    "zeros": _op_zeros,
    "ones": _op_ones,
}


def apply_primitive(op: str, args: list[Value], policy: SafeDomainPolicy = ERROR_POLICY) -> Value:
    """Evaluate one primitive application on already-computed values."""
    try:
        impl = _IMPLS[op]
    except KeyError:
        raise ShapeMismatch(f"not an applicable primitive: {op!r}") from None
    return impl(args, policy)
