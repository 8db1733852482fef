"""Forward kernels and vector-Jacobian products of the primitive operations.

Each op's row in the op table (``ops.py``) names its forward kernel here,
an ``op_*(args, policy)`` function, and its VJP, a ``vjp_*(g, args, out,
aux, need)`` function.  ``apply_primitive`` looks an op up by name in
``OPS``, the table's name -> row lookup, and calls its forward; this module
reads nothing else of the table.

Reductions (dot, norm, vsum, trace, matvec, matmul, det) accumulate
left-to-right over the trailing axes so that a batched evaluation is
bit-identical to stacking unbatched evaluations regardless of how numpy
would otherwise reassociate sums.

det, inv and the det gradient share one LU, ``lu_factor``, vectorised
across the batch axis.  Each lane does the float operations of an LU of
that matrix alone, in the same order, and an unbatched matrix goes
through it as a batch of one, so for them too a batched evaluation is
bit-identical to stacked unbatched ones.

Scalar kernels.  The rows of the scalar ops also name a ``scalar_*``
kernel (the table's ``scalar`` column): the op on ``numpy.float64``
operands, returning a ``numpy.float64`` with the bits of the forward on
0-d arrays.  The machine calls them directly in a raw-slot run (see
``machine``).  The forwards take the array path, except that a fold of
two ``numpy.float64`` operands calls the row's kernel: ``TapeContext``
arithmetic on raw-slot outputs does that.  Ufuncs return numpy scalars
for 0-d operands; an elementwise result stays one when an operand was
one, and is a 0-d array when all were 0-d arrays, so a run that holds no
numpy scalars sees the 0-d arrays it always did.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, ShapeMismatch, SingularMatrix
from .values import F64, Value

_SINGULAR_RTOL = 1e-12
_isfinite = math.isfinite


@dataclass(frozen=True)
class SafeDomainPolicy:
    """How partial operations behave outside their domain.

    ``error`` raises DomainViolation/SingularMatrix under the rule of
    ``Violations``; ``propagate_nan`` lets IEEE non-finite values flow
    through.
    """

    mode: str = "error"

    def __post_init__(self):
        if self.mode not in ("error", "propagate_nan"):
            raise ValueError(f"unknown safe-domain mode {self.mode!r}")
        # a plain attribute, not a property: apply_primitive reads it per call
        object.__setattr__(self, "raises", self.mode == "error")


ERROR_POLICY = SafeDomainPolicy("error")
PROPAGATE_POLICY = SafeDomainPolicy("propagate_nan")


def all_finite(data) -> bool:
    """Whether every element of an array (or numpy scalar) is finite."""
    return _isfinite(data) if data.ndim == 0 else bool(np.isfinite(data).all())


class Violations:
    """The safe-domain rule of the error policy.  The first non-finite
    result of a partial op is noted and reported only if the output ends up
    non-finite, so values a select discards never abort.  A program run
    notes every partial instruction (``dest`` is its slot); a lone op
    (``apply_primitive``, ``pow_immediate``) is judged as the one-op
    program: its result is the output.  det and inv also raise at once on
    a singular matrix, in their kernels."""

    __slots__ = ("first",)

    def __init__(self):
        self.first = None

    def check(self, op: str, dest, data) -> None:
        if self.first is None and not all_finite(data):
            bad = np.nonzero(~np.isfinite(data).ravel())[0]
            self.first = (op, dest, int(bad[0]) if bad.size else None)

    def finalize(self, data, output_slot) -> None:
        if all_finite(data):
            return
        if self.first is not None:
            op, dest, where = self.first
            raise DomainViolation(op, where=where, instruction=dest)
        raise DomainViolation("non-finite output", instruction=output_slot)


def _judge(op: str, value: Value) -> Value:
    rule = Violations()
    rule.check(op, None, value.data)
    rule.finalize(value.data, None)
    return value


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
    """The sum over the last axis, folded left to right; over an empty axis,
    the empty sum 0.0."""
    if arr.shape[-1] == 0:
        return np.zeros(arr.shape[:-1])
    out = arr[..., 0]
    for i in range(1, arr.shape[-1]):
        out = out + arr[..., i]
    return out


def ordered_sum_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    arr = np.moveaxis(arr, axis, -1)
    return ordered_sum_last(arr)


# ---------------------------------------------------------------------------
# scalar kernels: the op table's ``scalar`` column
#
# Each takes numpy.float64 operands, an n-ary op two at a time (folded left),
# and returns a numpy.float64 with the bits of the row's forward on 0-d
# arrays.  ``+ - * /`` and sqrt are correctly rounded IEEE operations, so
# numpy's scalar operators and ``math.sqrt`` give the ufuncs' bits; min, max,
# comparisons and truth ops are plain Python with numpy's rules.  exp, sin,
# cos, log, pow, modulo and remainder call their ufuncs: numpy's SIMD
# transcendentals may differ from libm by an ulp, which would break batched
# == stacked.  ``np.errstate`` costs more than the op, so it is entered only
# where a divide or invalid flag can fire.

_T = F64(1.0)
_F = F64(0.0)


def _quiet(ufunc):
    """``ufunc`` with numpy's divide and invalid flags ignored."""
    def call(*xs):
        with np.errstate(divide="ignore", invalid="ignore"):
            return ufunc(*xs)
    return call


_divide, _power, _sqrt, _log = (_quiet(f) for f in (np.divide, np.power, np.sqrt, np.log))
scalar_add, scalar_sub, scalar_mul, scalar_abs = operator.add, operator.sub, operator.mul, abs
scalar_sin, scalar_cos, scalar_exp = np.sin, np.cos, np.exp
scalar_modulo, scalar_remainder = _quiet(np.mod), _quiet(np.fmod)


def scalar_div(a, b):
    return a / b if b != 0.0 and _isfinite(b) else _divide(a, b)  # a finite b: no flag


def scalar_pow(a, b):
    """pow of a base and an exponent; the exponent may be a compile-time float.
    A square is one multiply, bit for bit what np.power returns on 0-d
    arrays, which square the same way."""
    if b == 2.0:
        return a * a
    return np.power(a, b) if a > 0.0 else _power(a, b)  # a positive base raises no flag


def scalar_sqrt(x):
    return F64(math.sqrt(x)) if x >= 0.0 else _sqrt(x)


def scalar_log(x):
    return np.log(x) if x > 0.0 else _log(x)


def scalar_min(a, b):
    """np.minimum's rule: a NaN wins (the first, if both are), and of equal
    operands, 0.0 and -0.0 among them, the second is returned."""
    return a if a < b or a != a else b


def scalar_max(a, b):
    return a if a > b or a != a else b


def scalar_eq(a, b):
    return _T if a == b else _F


def scalar_lt(a, b):
    return _T if a < b else _F


def scalar_gt(a, b):
    return _T if a > b else _F


def scalar_le(a, b):
    return _T if a <= b else _F


def scalar_ge(a, b):
    return _T if a >= b else _F


def scalar_and(a, b):
    return _T if a != 0.0 and b != 0.0 else _F  # NaN is true, as on arrays


def scalar_or(a, b):
    return _T if a != 0.0 or b != 0.0 else _F


def scalar_not(x):
    return _T if x == 0.0 else _F


def scalar_if(c, then, orelse):
    return then if c != 0.0 else orelse


# ---------------------------------------------------------------------------
# elementwise forwards


def _result(data, kind: str, batched: bool, arrays) -> Value:
    """Wrap an elementwise result computed from ``arrays``.  An all-scalar
    one skips the Value checks, since ``batched`` implies its ndim.  Ufuncs
    return numpy scalars for 0-d operands: the result stays one when an
    operand was one, and is a 0-d array again when all were 0-d arrays, so
    runs on 0-d arrays keep the types they always had."""
    if kind == "scalar":
        if type(data) is F64:
            for x in arrays:
                if type(x) is F64:
                    break
            else:
                data = np.asarray(data)
        return Value.trusted(data, "scalar", batched)
    return Value(data, kind, batched)


def _as_float(mask) -> np.ndarray:
    """Truth values as 1.0/0.0; a numpy bool becomes a 0-d array."""
    return np.asarray(mask, dtype=np.float64)


def _folding(op: str, ufunc, scalar):
    """An n-ary elementwise op that folds ``ufunc`` left to right; two numpy
    scalars, such as raw-slot outputs in ``TapeContext`` arithmetic, take
    the row's scalar kernel."""
    def impl(args, policy=None):
        out = args[0].data
        if type(out) is F64 and len(args) == 2:  # the one test a batched run pays
            b = args[1].data
            if type(b) is F64:
                return Value.trusted(scalar(out, b), "scalar", False)
        arrays, kind, batched = _align_elementwise(args, op)
        out = arrays[0]
        for x in arrays[1:]:
            out = ufunc(out, x)
        return _result(out, kind, batched, arrays)
    return impl


def _unary(op: str, ufunc):
    def impl(args, policy=None):
        arrays, kind, batched = _align_elementwise(args, op)
        return _result(ufunc(arrays[0]), kind, batched, arrays)
    return impl


def _comparing(op: str, ufunc):
    """A binary comparison; true is 1.0 and false 0.0."""
    def impl(args, policy):
        arrays, kind, batched = _align_elementwise(args, op)
        return _result(_as_float(ufunc(arrays[0], arrays[1])), kind, batched, arrays)
    return impl


def _logical(op: str, ufunc):
    """n-ary and/or over truth values (non-zero is true)."""
    def impl(args, policy):
        arrays, kind, batched = _align_elementwise(args, op)
        out = arrays[0] != 0.0
        for x in arrays[1:]:
            out = ufunc(out, x != 0.0)
        return _result(_as_float(out), kind, batched, arrays)
    return impl


op_add = _folding("+", np.add, scalar_add)
_subtract = _folding("-", np.subtract, scalar_sub)
op_mul = _folding("*", np.multiply, scalar_mul)
op_div = _folding("/", _divide, scalar_div)
op_pow = _folding("pow", _power, scalar_pow)
op_modulo = _folding("modulo", scalar_modulo, scalar_modulo)
op_remainder = _folding("remainder", scalar_remainder, scalar_remainder)
op_min = _folding("min", np.minimum, scalar_min)
op_max = _folding("max", np.maximum, scalar_max)
op_abs = _unary("abs", np.abs)
op_sin = _unary("sin", np.sin)
op_cos = _unary("cos", np.cos)
op_exp = _unary("exp", np.exp)
op_sqrt = _unary("sqrt", _sqrt)
op_log = _unary("log", _log)
op_eq = _comparing("=", np.equal)
op_lt = _comparing("<", np.less)
op_gt = _comparing(">", np.greater)
op_le = _comparing("<=", np.less_equal)
op_ge = _comparing(">=", np.greater_equal)
op_and = _logical("and", np.logical_and)
op_or = _logical("or", np.logical_or)

# unary minus is 0 - x; shared, so read-only
_ZERO = Value.scalar(0.0)
_ZERO.data.flags.writeable = False


def op_sub(args, policy):
    if len(args) == 1:
        args = [_ZERO, args[0]]
    return _subtract(args)


def pow_immediate(base: Value, exponent: float, policy: SafeDomainPolicy) -> Value:
    """pow with a compile-time constant exponent (no exponent operand),
    judged under the error policy as ``apply_primitive`` judges pow."""
    # the result has the base's shape, so the base's kind and batching fit it
    out = Value.trusted(np.asarray(_power(base.data, exponent)), base.kind, base.batched)
    return _judge("pow", out) if policy.raises else out


def op_not(args, policy):
    arrays, kind, batched = _align_elementwise(args, "not")
    return _result(_as_float(np.equal(arrays[0], 0.0)), kind, batched, arrays)


def select(cond: Value, then: Value, orelse: Value) -> Value:
    """Elementwise branch blend: picks `then` where cond is non-zero."""
    arrays, kind, batched = _align_elementwise([cond, then, orelse], "if")
    return _result(np.where(arrays[0] != 0.0, arrays[1], arrays[2]), kind, batched, arrays)


def op_if(args, policy):
    return select(args[0], args[1], args[2])


# ---------------------------------------------------------------------------
# vector ops


def op_vec(args, policy):
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


def op_ref(args, policy):
    v, i = args
    _require_kind(v, "vector", "ref")
    idx = _static_index(i, "ref")
    if not 0 <= idx < v.core_shape[-1]:
        raise ShapeMismatch(f"ref: index {idx} out of range for length {v.core_shape[-1]}")
    return Value(v.data[..., idx], "scalar", v.batched)


def op_dot(args, policy):
    a, b = args
    _require_kind(a, "vector", "dot")
    _require_kind(b, "vector", "dot")
    if a.core_shape != b.core_shape:
        raise ShapeMismatch(f"dot: lengths {a.core_shape} vs {b.core_shape}")
    _batch_of(args, "dot")
    return Value(ordered_sum_last(a.data * b.data), "scalar",
                 a.batched or b.batched)


def op_cross(args, policy):
    a, b = args
    for x in (a, b):
        _require_kind(x, "vector", "cross")
        if x.core_shape != (3,):
            raise ShapeMismatch("cross: vectors must have length 3")
    _batch_of(args, "cross")
    return Value(_cross(a.data, b.data), "vector", a.batched or b.batched)


def _cross(a, b):
    """a x b over the last axis; also the cross VJP's two products."""
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )


def op_norm(args, policy):
    v = args[0]
    _require_kind(v, "vector", "norm")
    return Value(np.sqrt(ordered_sum_last(v.data * v.data)), "scalar", v.batched)


def op_normalize(args, policy):
    v = args[0]
    _require_kind(v, "vector", "normalize")
    n = np.sqrt(ordered_sum_last(v.data * v.data))
    with np.errstate(divide="ignore", invalid="ignore"):
        return Value(v.data / n[..., None], "vector", v.batched)


def op_vsum(args, policy):
    v = args[0]
    _require_kind(v, "vector", "vsum")
    return Value(ordered_sum_last(v.data), "scalar", v.batched)


def op_vlen(args, policy):
    v = args[0]
    _require_kind(v, "vector", "vlen")
    return Value.scalar(float(v.core_shape[-1]))


def op_scale(args, policy):
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


def op_mat(args, policy):
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


def op_matmul(args, policy):
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


def op_matvec(args, policy):
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


def op_transpose(args, policy):
    m = args[0]
    _require_kind(m, "matrix", "transpose")
    return Value(np.swapaxes(m.data, -1, -2), "matrix", m.batched)


def op_trace(args, policy):
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


def op_det(args, policy):
    m = args[0]
    stack = _square_stack(m, "det")
    lu, _, sign, singular = lu_factor(stack)
    _refuse_singular(singular, policy, "det")
    d = sign
    for k in range(stack.shape[-1]):
        d = d * lu[:, k, k]
    return Value(d if m.batched else d[0], "scalar", m.batched)


def op_inv(args, policy):
    m = args[0]
    return Value(matrix_inverse(m, policy), "matrix", m.batched)


def op_outer(args, policy):
    a, b = args
    _require_kind(a, "vector", "outer")
    _require_kind(b, "vector", "outer")
    _batch_of(args, "outer")
    out = a.data[..., :, None] * b.data[..., None, :]
    return Value(out, "matrix", a.batched or b.batched)


def op_eye(args, policy):
    n = _static_index(args[0], "eye")
    if n <= 0:
        raise ShapeMismatch("eye: size must be positive")
    return Value(np.eye(n), "matrix")


def op_zeros(args, policy):
    dims = [_static_index(a, "zeros") for a in args]
    if any(d <= 0 for d in dims):
        raise ShapeMismatch("zeros: sizes must be positive")
    if len(dims) == 1:
        return Value(np.zeros(dims[0]), "vector")
    return Value(np.zeros((dims[0], dims[1])), "matrix")


def op_ones(args, policy):
    dims = [_static_index(a, "ones") for a in args]
    if any(d <= 0 for d in dims):
        raise ShapeMismatch("ones: sizes must be positive")
    if len(dims) == 1:
        return Value(np.ones(dims[0]), "vector")
    return Value(np.ones((dims[0], dims[1])), "matrix")


# ---------------------------------------------------------------------------
# vector-Jacobian products


def _aligned(arg: Value, out_value: Value) -> np.ndarray:
    """Mirror the forward elementwise alignment of a batched scalar against
    a batched tensor so gradient arithmetic broadcasts the same way."""
    arr = arg.data
    if (
        out_value.batched
        and arg.batched
        and arg.kind == "scalar"
        and out_value.kind != "scalar"
    ):
        arr = arr.reshape((arr.shape[0],) + (1,) * len(out_value.core_shape))
    return arr


def _swap(m):
    return np.swapaxes(m, -1, -2)


# Each VJP returns a list of raw per-argument gradients, shaped like the op
# output; backward reduces them to argument shapes.  ``need`` holds one
# bool per argument: an argument that reaches no root of the backward pass
# gets None, and its gradient is never computed.  Unary VJPs run only with
# need == (True,) and ignore it.


def vjp_add(g, args, out, aux, need):
    return [g if n else None for n in need]


def vjp_sub(g, args, out, aux, need):
    if len(args) == 1:
        return [-g]
    return [g if need[0] else None] + [-g if n else None for n in need[1:]]


def vjp_mul(g, args, out, aux, need):
    outs = []
    for i, n in enumerate(need):
        p = None
        if n:
            p = g
            for j, other in enumerate(args):
                if j != i:
                    p = p * _aligned(other, out)
        outs.append(p)
    return outs


def vjp_div(g, args, out, aux, need):
    grads = [None]
    if need[0]:
        denom = None
        for a in args[1:]:
            arr = _aligned(a, out)
            denom = arr if denom is None else denom * arr
        grads[0] = g / denom
    for a, n in zip(args[1:], need[1:]):
        grads.append(-g * out.data / _aligned(a, out) if n else None)
    return grads


def vjp_pow(g, args, out, aux, need):
    if aux is not None:  # immediate exponent
        a = args[0].data
        return [g * aux * np.power(a, aux - 1.0)]
    a = _aligned(args[0], out)
    b = _aligned(args[1], out)
    with np.errstate(divide="ignore", invalid="ignore"):
        da = g * b * np.power(a, b - 1.0) if need[0] else None
        db = g * out.data * np.log(a) if need[1] else None
    return [da, db]


def vjp_modulo(g, args, out, aux, need):
    db = None
    if need[1]:
        db = -g * np.floor(_aligned(args[0], out) / _aligned(args[1], out))
    return [g if need[0] else None, db]


def vjp_remainder(g, args, out, aux, need):
    db = None
    if need[1]:
        db = -g * np.trunc(_aligned(args[0], out) / _aligned(args[1], out))
    return [g if need[0] else None, db]


def vjp_abs(g, args, out, aux, need):
    return [g * np.sign(args[0].data)]


def vjp_minmax(g, args, out, aux, need):
    # an argument takes the gradient where it is the first to equal the
    # output, so the mask runs over every argument, needed or not
    avail = np.ones(out.data.shape, dtype=bool)
    grads = []
    for a, n in zip(args, need):
        take = (_aligned(a, out) == out.data) & avail
        grads.append(g * take if n else None)
        avail = avail & ~take
    return grads


def vjp_sin(g, args, out, aux, need):
    return [g * np.cos(args[0].data)]


def vjp_cos(g, args, out, aux, need):
    return [-g * np.sin(args[0].data)]


def vjp_exp(g, args, out, aux, need):
    return [g * out.data]


def vjp_sqrt(g, args, out, aux, need):
    return [g * 0.5 / out.data]


def vjp_log(g, args, out, aux, need):
    return [g / args[0].data]


def vjp_none(g, args, out, aux, need):
    return [None for _ in args]


def vjp_if(g, args, out, aux, need):
    c = _aligned(args[0], out)
    return [None, g * (c != 0.0) if need[1] else None, g * (c == 0.0) if need[2] else None]


def vjp_vec(g, args, out, aux, need):
    return [g[..., i] if n else None for i, n in enumerate(need)]


def vjp_ref(g, args, out, aux, need):
    if not need[0]:
        return [None, None]
    v = args[0]
    idx = int(float(args[1].data))
    gv = np.zeros_like(v.data)
    gv[..., idx] = np.broadcast_to(g, gv[..., idx].shape)
    return [gv, None]


def vjp_dot(g, args, out, aux, need):
    a, b = args
    ge = np.asarray(g)[..., None]
    return [ge * b.data if need[0] else None, ge * a.data if need[1] else None]


def vjp_cross(g, args, out, aux, need):
    a, b = args
    return [_cross(b.data, g) if need[0] else None,
            _cross(g, a.data) if need[1] else None]


def vjp_norm(g, args, out, aux, need):
    v = args[0]
    n = np.asarray(out.data)[..., None]
    return [np.asarray(g)[..., None] * v.data / n]


def vjp_normalize(g, args, out, aux, need):
    v = args[0].data
    n = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    u = out.data
    inner = (u * g).sum(axis=-1, keepdims=True)
    return [(g - u * inner) / n]


def vjp_vsum(g, args, out, aux, need):
    v = args[0]
    return [np.broadcast_to(np.asarray(g)[..., None], v.data.shape)]


def vjp_scale(g, args, out, aux, need):
    s, v = args
    gs = None
    if need[0]:
        core = tuple(range(g.ndim - len(v.core_shape), g.ndim))
        gs = (g * v.data).sum(axis=core) if core else g * v.data
    return [gs, _aligned(s, out) * g if need[1] else None]


def vjp_mat(g, args, out, aux, need):
    return [g[..., i, :] if n else None for i, n in enumerate(need)]


def vjp_matmul(g, args, out, aux, need):
    a, b = args
    return [np.matmul(g, _swap(b.data)) if need[0] else None,
            np.matmul(_swap(a.data), g) if need[1] else None]


def vjp_matvec(g, args, out, aux, need):
    m, v = args
    ge = np.asarray(g)[..., :, None]
    return [ge * v.data[..., None, :] if need[0] else None,
            (m.data * ge).sum(axis=-2) if need[1] else None]


def vjp_transpose(g, args, out, aux, need):
    return [_swap(g)]


def vjp_trace(g, args, out, aux, need):
    n = args[0].core_shape[-1]
    return [np.asarray(g)[..., None, None] * np.eye(n)]


def vjp_det(g, args, out, aux, need):
    inv_t = _swap(matrix_inverse(args[0], ERROR_POLICY, "det backward"))
    return [np.asarray(g)[..., None, None] * np.asarray(out.data)[..., None, None] * inv_t]


def vjp_inv(g, args, out, aux, need):
    it = _swap(out.data)
    return [-np.matmul(np.matmul(it, g), it)]


def vjp_outer(g, args, out, aux, need):
    a, b = args
    return [(g * b.data[..., None, :]).sum(axis=-1) if need[0] else None,
            (g * a.data[..., :, None]).sum(axis=-2) if need[1] else None]


# ---------------------------------------------------------------------------
# dispatch by name

# name -> Op row for every row with kernels.  The rows are declared in
# ``ops.py``, which fills this lookup when the package is imported;
# ``apply_primitive``, the machine, ``Tape.replay`` and ``backward`` read it.
OPS: dict = {}


def apply_primitive(op: str, args: list[Value], policy: SafeDomainPolicy = ERROR_POLICY) -> Value:
    """Evaluate one primitive application on already-computed values.  Under
    the error policy a partial op is judged as the one-op program (see
    ``Violations``); det and inv judge their matrix in the kernel."""
    try:
        row = OPS[op]
    except KeyError:
        raise ShapeMismatch(f"not an applicable primitive: {op!r}") from None
    if policy.raises and row.partial and not row.eager:
        return _judge(op, row.forward(args, policy))
    return row.forward(args, policy)
