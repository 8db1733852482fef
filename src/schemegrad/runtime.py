"""The numeric core under the op table: the safe-domain rule, the scalar
kernels, the helpers of the generated code, and the entry points that
apply one op.

The array forward and VJP of every language row are generated from its
emit forms (``kernels``), which call numpy and the helpers here:
``ref_index`` and ``sizes`` check a ``ref``'s index and the sizes of an
``eye``, ``zeros`` or ``ones`` and ``observed`` an ``mse``'s operands
where the code runs, and ``det_inv`` is det and inv on a matrix's
``factors``, told by the code whether the error policy raises.
``apply_primitive`` looks an op up by name in ``OPS``, the table's name ->
row lookup, and calls its forward; this module reads nothing else of the
table.

Reductions (dot, norm, vsum, trace, matvec, matmul, det) accumulate
left-to-right over the trailing axes (``ordered_sum_last``) so that a
batched evaluation is bit-identical to stacking unbatched evaluations
regardless of how numpy would otherwise reassociate sums.

det, inv and the det gradient share one LU, ``lu_factor``, vectorised
across the batch axis.  It copies the stack once into lane-minor order,
(n, n, B), so that each step works on contiguous (B,) lane vectors, and
``_lu_inverse`` solves on those arrays.  Each lane does the float
operations of an LU of that matrix alone, in the same order, and an
unbatched matrix goes through it as a batch of one, so for them too a
batched evaluation is bit-identical to stacked unbatched ones.  The
generated code calls ``factors`` and then ``det_inv`` on its result; a
taped kernel keeps a det's factors, and the det's VJP in its ``fused``
record reads them instead of factoring again.  A det that the executor
records has no kept factors, and its VJP factors the matrix again.

Scalar kernels.  The rows of the scalar ops also name a ``scalar_*``
kernel (the table's ``scalar`` column): the op on ``numpy.float64``
operands, returning a ``numpy.float64`` with the bits of the forward on
0-d arrays.  A raw-slot run calls them directly, through its program's raw
kernel (see ``machine`` and ``kernels``).

Floating-point errors.  Runs, lone ops and backward work with numpy's
floating-point errors ignored (``quiet``), entered once per run, per
``apply_primitive`` or ``pow_immediate`` call and per backward pass, so no
numpy ``RuntimeWarning`` leaves the library: the error policy judges
non-finite values instead (``Violations``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (ConfigError, DomainViolation, EmptyObservations, ShapeMismatch,
                     SingularMatrix)
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
            raise ConfigError(f"unknown safe-domain mode {self.mode!r}")
        # a plain attribute, not a property: apply_primitive reads it per call
        object.__setattr__(self, "raises", self.mode == "error")


ERROR_POLICY = SafeDomainPolicy("error")
PROPAGATE_POLICY = SafeDomainPolicy("propagate_nan")


def all_finite(data) -> bool:
    """Whether every element of an array is finite."""
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


try:  # numpy >= 2: np.errstate sets a context variable; set it without building one
    from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj

    # ``quiet()`` ignores numpy's floating-point errors, as under
    # ``np.errstate(all="ignore")``, and returns a token; ``restore(token)``
    # sets back the state it replaced.  Both are C calls.
    quiet = partial(_extobj_contextvar.set, _make_extobj(all="ignore"))
    restore = _extobj_contextvar.reset
    # Set once to its own value, the state is an entry of this context, which
    # ``quiet`` and ``restore`` replace: a run does not grow the context.
    _extobj_contextvar.set(_extobj_contextvar.get())
except ImportError:  # numpy 1: the same through the global error state
    def quiet():
        return np.seterr(all="ignore")

    def restore(saved):
        np.seterr(**saved)


# ---------------------------------------------------------------------------
# helpers of the generated code


def ordered_sum_last(arr: np.ndarray) -> np.ndarray:
    """The sum over the last axis, folded left to right; over an empty axis,
    the empty sum 0.0."""
    if arr.shape[-1] == 0:
        return np.zeros(arr.shape[:-1])
    out = arr[..., 0]
    for i in range(1, arr.shape[-1]):
        out = out + arr[..., i]
    return out


def _integer(op: str, x) -> int:
    idx = float(x)
    if not _isfinite(idx) or idx != int(idx):
        raise ShapeMismatch(f"{op}: index {idx} is not an integer")
    return int(idx)


def ref_index(i, n: int) -> int:
    """The position a ``ref`` reads in a vector of length ``n``: its index
    ``i`` (a number or an unbatched scalar's array), which must be an
    integer in range."""
    idx = _integer("ref", i)
    if not 0 <= idx < n:
        raise ShapeMismatch(f"ref: index {idx} out of range for length {n}")
    return idx


def sizes(op: str, dims) -> tuple:
    """The sizes of an ``eye``, ``zeros`` or ``ones`` (numbers or unbatched
    scalars' arrays), which must be positive integers."""
    dims = tuple([_integer(op, d) for d in dims])
    if min(dims) <= 0:
        raise ShapeMismatch("eye: size must be positive" if op == "eye"
                            else f"{op}: sizes must be positive")
    return dims


def observed(pred, target):
    """An ``mse``'s prediction, found to be shaped like its target and not empty."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"mse: prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise EmptyObservations("mse: the batch is empty")
    return pred


_EXACT_EXPONENTS = (2.0, 0.5, -1.0)


def power_lanes(a, b: np.ndarray) -> np.ndarray:
    """``np.power(a, b)`` for a batched scalar exponent ``b`` (shaped (B,) or,
    against a vector or matrix base, (B, 1[, 1])), bitwise each lane's unbatched
    run.  numpy computes an exponent of 2, 0.5 or -1 given as a scalar as a
    square, a square root or a reciprocal, and as an array another way that
    differs in the last bit in a few percent of lanes; those lanes are
    redone with the exponent as a scalar.  ``a`` is batched when it has the
    result's rank."""
    out = np.power(a, b)
    lane_exponents = b.reshape(b.shape[0])
    for e in _EXACT_EXPONENTS:
        lanes = np.nonzero(lane_exponents == e)[0]
        if lanes.size:
            out[lanes] = np.power(a[lanes] if np.ndim(a) == out.ndim else a, e)
    return out


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
# == stacked.  A raw kernel calls them with numpy's errors ignored.

_T = F64(1.0)
_F = F64(0.0)

scalar_add, scalar_sub, scalar_mul, scalar_div = (operator.add, operator.sub, operator.mul,
                                                  operator.truediv)
scalar_abs, scalar_sin, scalar_cos, scalar_exp, scalar_log = abs, np.sin, np.cos, np.exp, np.log
scalar_modulo, scalar_remainder = np.mod, np.fmod


def scalar_pow(a, b):
    """pow of a base and an exponent; the exponent may be a compile-time float.
    A square is one multiply, bit for bit what np.power returns on 0-d
    arrays, which square the same way."""
    return a * a if b == 2.0 else np.power(a, b)


def scalar_sqrt(x):
    return F64(math.sqrt(x)) if x >= 0.0 else np.sqrt(x)


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
# det and inv: one LU


def lu_factor(stack: np.ndarray):
    """LU with partial pivoting on a (B, n, n) stack of square matrices.

    Returns (lu, perm, sign, singular) shaped (B, n, n), (B, n), (B,) and
    (B,); lu and perm are views of lane-minor arrays, (n, n, B) and (n, B),
    made from one copy of the stack, so that every pivot search, row swap
    and row update works on contiguous (B,) lane vectors.  Each lane does
    the same float operations in the same order as an LU of its matrix
    alone: the pivot is the first row of largest |a| in the column (the
    first NaN, if any), rows swap only in the lanes whose pivot is off the
    diagonal, every row below k is updated with f = a_ik / piv and
    a_ij - f * a_kj, and a lane whose pivot is exactly zero skips that
    step.  No lane reads another, so a lane's factors are bit-identical
    whatever the batch around it, and batched == stacked holds bitwise.  A
    lane is singular when some pivot has |piv| <= 1e-12 * max|a| over its
    matrix; row k is final once step k has pivoted, so the pivots are the
    diagonal of ``lu``.
    """
    b, n, _ = stack.shape
    # a copy even where the transpose is contiguous (B=1): the elimination
    # writes into it
    a = np.array(stack.transpose(1, 2, 0), order="C")
    perm = np.repeat(np.arange(n), b).reshape(n, b)
    sign = np.ones(b)
    rows = a.reshape(n * n, b)  # row i * n + j is entry (i, j) of every lane
    threshold = _SINGULAR_RTOL * np.abs(rows).max(axis=0, initial=0.0)  # 0 when n is 0
    for k in range(n - 1):  # the last step has one row to pivot on and none to update
        below = np.argmax(np.abs(a[k:, k]), axis=0)
        if below.any():
            _swap(a, perm, k, below)
            np.negative(sign, out=sign, where=below != 0)
        piv, f, trailing = a[k, k], a[k + 1:, k], a[k + 1:, k + 1:]
        if piv.all():
            f /= piv
            trailing -= f[:, None] * a[k, None, k + 1:]
        else:
            live = piv != 0.0
            np.divide(f, piv, out=f, where=live)
            np.subtract(trailing, f[:, None] * a[k, None, k + 1:], out=trailing, where=live)
    singular = (np.abs(rows[::n + 1]) <= threshold).any(axis=0)
    return a.transpose(2, 0, 1), perm.T, sign, singular


def _swap(a: np.ndarray, perm: np.ndarray, k: int, below: np.ndarray) -> None:
    """Swap row k with row k + below in the lanes where below > 0."""
    row, p = a[k].copy(), perm[k].copy()
    for r in range(1, len(a) - k):
        lanes = below == r
        np.copyto(a[k], a[k + r], where=lanes)
        np.copyto(a[k + r], row, where=lanes)
        np.copyto(perm[k], perm[k + r], where=lanes)
        np.copyto(perm[k + r], p, where=lanes)


def _lu_inverse(lu: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Solve LU x = P e_col for every unit column of every lane at once,
    returning a C-contiguous (B, n, n) array.

    It works on the lane-minor arrays that ``lu_factor``'s views are of,
    on x as (n, n, B).  Row i of the forward pass subtracts l_ij * y_j for
    j = 0, 1, ... and of the back pass u_ij * x_j for j = i+1, i+2, ..., as
    the one-matrix solve does.  The forward pass applies column j to all
    rows below it in one update, which keeps that order.
    """
    n = lu.shape[-1]
    a = lu.transpose(1, 2, 0)
    x = (perm.T[:, None] == np.arange(n)[:, None]).astype(np.float64)  # x[i, c] = (perm_i == c)
    for j in range(n - 1):
        x[j + 1:] -= a[j + 1:, j, None] * x[j]
    for i in range(n - 1, -1, -1):
        row = x[i]
        for j in range(i + 1, n):
            row -= a[i, j] * x[j]
        row /= a[i, i]
    return np.ascontiguousarray(x.transpose(2, 0, 1))  # x is ours: a view at B=1 is fine


def factors(m: np.ndarray, batched: bool):
    """``lu_factor`` of a square matrix, or of each of a batch, an unbatched
    one as a batch of one."""
    return lu_factor(m if batched else m[None])


def det_inv(op: str, factored: tuple, batched: bool, raises: bool) -> np.ndarray:
    """The determinant (``op`` "det") or the inverse ("inv", "det backward")
    of a square matrix, or of each of a batch, from its ``factors``.  A
    singular lane raises SingularMatrix naming ``op`` when ``raises``, and
    is NaN in an inverse otherwise.  The generated code of det and inv
    calls it, with numpy's errors ignored; det's VJP in a fused record
    passes the factors its forward kept."""
    lu, perm, sign, singular = factored
    if raises and singular.any():
        raise SingularMatrix(op, where=int(np.argmax(singular)))
    if op == "det":
        out = sign
        for k in range(lu.shape[-1]):
            out = out * lu[:, k, k]
    else:
        out = _lu_inverse(lu, perm)
        out[singular] = np.nan
    return out if batched else out[0]


# ---------------------------------------------------------------------------
# applying one op

# name -> Op row for every row with kernels.  The rows are declared in
# ``ops.py``, which fills this lookup when the package is imported;
# ``apply_primitive``, the machine, ``Tape.replay`` and ``backward`` read it.
OPS: dict = {}


def apply_primitive(op: str, args: list[Value], policy: SafeDomainPolicy = ERROR_POLICY,
                    aux=None) -> Value:
    """Evaluate one primitive application on already-computed values.  A row
    that takes compile-time constants as ``aux`` (pow's exponent, ref's
    index, the sizes of eye, zeros and ones) is given them in place of
    those operands.  Under the error policy a
    partial op is judged as the one-op program (see ``Violations``); det and
    inv judge their matrix in the kernel."""
    try:
        row = OPS[op]
    except KeyError:
        raise ShapeMismatch(f"not an applicable primitive: {op!r}") from None
    saved = quiet()
    try:
        out = row.forward(args, policy) if aux is None else row.forward(args, policy, aux)
    finally:
        restore(saved)
    if policy.raises and row.partial and not row.eager:
        return _judge(op, out)
    return out


def pow_immediate(base: Value, exponent: float, policy: SafeDomainPolicy) -> Value:
    """pow with a compile-time constant exponent (no exponent operand)."""
    return apply_primitive("pow", [base], policy, exponent)


def select(cond: Value, then: Value, orelse: Value) -> Value:
    """Elementwise branch blend: the ``if`` row on its three operands."""
    return OPS["if"].forward([cond, then, orelse])
