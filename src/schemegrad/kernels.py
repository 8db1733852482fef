"""The emit forms of the ops, and the code generated from them.

The emit forms are columns of the op table (``ops.py``) and the one array
definition of every row but ``fused``.  ``emit(ops, types, aux)``
returns the source of the op's result from its operands' sources and
static types, with its static type;
``emit_vjp(g, ops, out, types, out_type, aux, need)`` returns statements to
run first and, per operand, the source and static shape of its raw
gradient (shaped like the output for an elementwise row, like the operand
otherwise, as ``_reduce`` reduces them) or None.  A static type is
``(kind, batched, core)``; a static shape is ``(batched, core)``; ``B`` is
the batch size in the generated source, and ``raises`` whether the error
policy raises, which only det and inv read.  ``aux`` is the source of a
row's constant operands (pow's exponent, ref's index, the sizes of eye,
zeros and ones, shooting_mse's weight), or None: a kernel splices a finite
one as its literal, and a one-op function takes a number as ``aux`` and
sizes as operands.
det, which has none, takes as ``aux`` in a taped forward and in the reverse
sweep of a ``fused`` record the name of the local that keeps its factors.  A
form raises the ``ShapeMismatch`` its op raises, with its message, on
operands the op rejects; the core of an eye, zeros or ones of computed
sizes is None.

One-op functions.  A row's ``forward`` and ``vjp`` columns call a function
generated from its form for the static types of the operands (and, for a
VJP, its ``need`` mask), made once per process and kept in ``_ONE_OPS``;
each row also remembers which function and batch size go with the
operands' shapes.  A VJP returns each gradient reduced to its operand's
shape.  The functions run with numpy's floating-point errors ignored: their
callers (``apply_primitive``, ``pow_immediate``, the executor and
``backward``) enter that state once.

Kernels.  One writer (``Kernel``) generates the source of a whole program,
branches, loops and calls included, for every run but a taped run of a
program with control flow: a raw-slot run (see ``machine``) calls the rows'
scalar kernels on floats, and an array run the emit forms, for one
signature of its leaves (each leaf's batchedness and core shape).  A
kernel makes the executor's calls in its order, so its values are bitwise
the executor's.  Where an array run meets what the writer cannot type, the
writer puts an abandon: an emit form's ``ShapeMismatch``, a computed size,
a branch on a batched or non-scalar condition, a ``recur`` whose values'
types differ from the loop variables', an exit whose type differs from its
body's first exit, or a call whose function's result type is not yet known
there; a call past the depth limit abandons too.  A run that abandons, goes
past Python's stack limit, or in which det or inv raises SingularMatrix
returns None from ``quietly``, and the executor redoes it and raises or
finishes as it always has; under the error policy the machine tests a
kernel's output alone, and redoes a non-finite run so too.

A taped run of a straight-line program (a top-level block of prims whose
output is an op's result) goes through a kernel unless its forward
abandons.  It appends its input and parameter leaves and one ``fused``
record, whose value is the output and which keeps only the values its
reverse sweep reads, a det's LU factors among them, so that its VJP does not
factor again (the to-be-recorded analysis of Hascoet, Naumann &
Pascual, FGCS 21(8), 2005).  Its arguments are the tape ids of the leaves,
one per use of a leaf, in the order a reverse sweep over one record per
instruction reaches those uses.  Its VJP, emitted per ``need`` mask on
first use from the rows' VJP emit forms, makes the calls ``backward``
would make and returns one reduced contribution per use, which
``backward`` adds one by one: every gradient is the sum of the same terms
in the same order as over one record per instruction, bitwise.

The shared table.  One process-wide table, ``_SHARED``, keeps kernels of
every kind, keyed by the program's source text, input and parameter names
and depth limit, and by the run's signature and kind (untaped, taped or
raw), and ``lookup`` is the one way to them.  A kernel is generated on its
key's first run in the process, and every later run of every program
compiled from that text takes it, a fresh program's first run too: a
formula compiled for another fit, the Lotka-Volterra experiment's two
programs for every fit, one program per op in ``scalar_programs``.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

from . import runtime as rt
from .errors import EvalError, ShapeMismatch, SingularMatrix
from .values import F64, Value

FUSED = "fused"  # the op name of a taped kernel run's record

_SCALAR = ("scalar", False, ())
_KINDS = ("scalar", "vector", "matrix")


class _Abandoned(Exception):
    """A kernel run reached an abandon (see the module docstring)."""


_quiet, _restore = rt.quiet, rt.restore
_ABANDONED = (_Abandoned, RecursionError, SingularMatrix)


def quietly(fn, *args):
    """``fn(*args)`` with numpy's floating-point errors ignored, as every
    generated function runs, or None for a kernel run that the executor
    redoes: one that abandons, goes past Python's stack limit, or in which
    det or inv raises SingularMatrix."""
    saved = _quiet()
    try:
        return fn(*args)
    except _ABANDONED:
        return None
    finally:
        _restore(saved)


def _as_float(mask) -> np.ndarray:
    """Truth values as 1.0/0.0; a numpy bool becomes a 0-d array."""
    return np.asarray(mask, dtype=np.float64)


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


_ZERO = np.zeros(())  # unary minus is 0 - x; shared, so read-only
_ZERO.flags.writeable = False

# The globals of every generated function, besides its constants: the numpy
# functions the emit forms call, by their numpy names, and the helpers.
_NAMESPACE = {name: getattr(np, name) for name in (
    "add", "subtract", "multiply", "divide", "power", "mod", "fmod", "minimum", "maximum",
    "abs", "sin", "cos", "exp", "sqrt", "log", "equal", "less", "greater", "less_equal",
    "greater_equal", "logical_and", "logical_or", "where", "stack", "ones", "sign", "floor",
    "trunc", "asarray", "broadcast_to", "swapaxes", "moveaxis", "diagonal", "matmul", "eye",
    "zeros", "tanh", "mean", "outer", "ascontiguousarray")}
_NAMESPACE.update(_as_float=_as_float, _osl=rt.ordered_sum_last, _ZERO=_ZERO, _cross=_cross,
                  _pow_lanes=rt.power_lanes, _ref_index=rt.ref_index, _sizes=rt.sizes,
                  _factors=rt.factors, _det_inv=rt.det_inv, _observed=rt.observed,
                  _Abandoned=_Abandoned)


def _define(ns: dict, name: str, params: str, body: list, defs=()):
    """A function of ``params`` running ``body`` with globals ``ns``, after
    the functions ``defs``; a body that is one ``return`` compiles as a
    lambda, which costs less to compile."""
    for src in defs:
        exec(compile(src, "<kernel>", "exec", dont_inherit=True), ns)
    if len(body) == 1 and body[0].startswith("return "):
        return eval(compile(f"lambda {params}: ({body[0][7:]})", f"<kernel {name}>", "eval",
                            dont_inherit=True), ns)
    src = "\n".join([f"def {name}({params}):"] + ["    " + line for line in body])
    exec(compile(src, f"<kernel {name}>", "exec", dont_inherit=True), ns)
    return ns[name]


def _holes(n: int) -> tuple:
    """Placeholders ``{0}``, ``{1}``, ... for the sources of n operands."""
    return tuple([f"{{{i}}}" for i in range(n)])


def _shape_src(batched: bool, core: tuple) -> str:
    dims = (["B"] if batched else []) + [str(d) for d in core]
    return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"


def _aligned(o: str, t: tuple, out: tuple) -> str:
    """The alignment of a batched scalar against a batched vector or
    matrix: (B,) -> (B, 1[, 1])."""
    if out[1] and t[1] and t[0] == "scalar" and out[0] != "scalar":
        return f"{o}.reshape((B{', 1' * len(out[2])}))"
    return o


def _elementwise(op: str, types: list) -> tuple:
    """The result type of an elementwise op: scalars broadcast against
    vectors and matrices, unbatched values against batched ones, and
    anything else must match exactly."""
    kind, core = "scalar", None
    for k, _, c in types:
        if k != "scalar":
            if kind != "scalar" and k != kind:
                raise ShapeMismatch(f"{op}: mixed kinds {kind}/{k}")
            if core is not None and c != core:
                raise ShapeMismatch(f"{op}: core shapes {core} vs {c} differ")
            kind, core = k, c
    return kind, any(t[1] for t in types), core or ()


def _expect(op: str, t: tuple, kind: str) -> None:
    if t[0] != kind:
        raise ShapeMismatch(f"{op}: expected {kind}, got {t[0]}")


# ---------------------------------------------------------------------------
# forward emit forms: (ops, types, aux) -> (source, static type)


def fold(op: str, ufunc: str):
    """An n-ary elementwise op folding ``ufunc`` left to right; one operand
    is the result itself."""
    def emit(ops, types, aux):
        out = _elementwise(op, types)
        src, *rest = [_aligned(o, t, out) for o, t in zip(ops, types)]
        for x in rest:
            src = f"{ufunc}({src}, {x})"
        return src, out
    return emit


_subtract = fold("-", "subtract")


def emit_sub(ops, types, aux):
    if len(ops) == 1:  # unary minus is 0 - x
        ops, types = ["_ZERO", *ops], [_SCALAR, *types]
    return _subtract(ops, types, aux)


def _power_of(exponent: tuple) -> str:
    """np.power, or for a batched scalar exponent runtime's ``power_lanes``,
    which keeps each lane bitwise its unbatched run."""
    return "_pow_lanes" if exponent[:2] == ("scalar", True) else "power"


def emit_pow(ops, types, aux):
    if aux is not None:  # a constant exponent: pow_immediate, on the base as it is
        return f"power({ops[0]}, {aux})", types[0]
    out = _elementwise("pow", types)
    a, b = [_aligned(o, t, out) for o, t in zip(ops, types)]
    return f"{_power_of(types[1])}({a}, {b})", out


def unary(ufunc: str):
    def emit(ops, types, aux):
        return f"{ufunc}({ops[0]})", types[0]
    return emit


def compare(op: str, ufunc: str):
    """A binary comparison; true is 1.0 and false 0.0."""
    def emit(ops, types, aux):
        out = _elementwise(op, types)
        a, b = [_aligned(o, t, out) for o, t in zip(ops, types)]
        return f"_as_float({ufunc}({a}, {b}))", out
    return emit


def logical(op: str, ufunc: str):
    """n-ary and/or over truth values (non-zero is true)."""
    def emit(ops, types, aux):
        out = _elementwise(op, types)
        src, *rest = [f"({_aligned(o, t, out)} != 0.0)" for o, t in zip(ops, types)]
        for x in rest:
            src = f"{ufunc}({src}, {x})"
        return f"_as_float({src})", out
    return emit


def emit_not(ops, types, aux):
    return f"_as_float(equal({ops[0]}, 0.0))", types[0]


def emit_if(ops, types, aux):
    """Elementwise branch blend: picks the second operand where the first
    is non-zero."""
    out = _elementwise("if", types)
    c, t, e = [_aligned(o, t, out) for o, t in zip(ops, types)]
    return f"where(({c} != 0.0), {t}, {e})", out


def emit_vec(ops, types, aux):
    for t in types:
        _expect("vec", t, "scalar")
    batched = any(t[1] for t in types)
    if batched:
        ops = [o if t[1] else f"broadcast_to({o}, (B,))" for o, t in zip(ops, types)]
    return f"stack([{', '.join(ops)}], axis=-1)", ("vector", batched, (len(ops),))


def _ref_position(ops, types, aux) -> str:
    """The source of a ``ref``'s checked position: its index is ``aux`` when
    it is a constant, else its second operand, an unbatched scalar.  A
    literal index is checked here, any other where the function runs."""
    _expect("ref", types[0], "vector")
    n = types[0][2][-1]
    if aux is None:
        if types[1][0] != "scalar" or types[1][1]:
            raise ShapeMismatch("ref: index must be an unbatched scalar")
        aux = ops[1]
    elif not aux.isidentifier():
        return str(rt.ref_index(float(aux), n))
    return f"_ref_index({aux}, {n})"


def emit_ref(ops, types, aux):
    return f"{ops[0]}[..., {_ref_position(ops, types, aux)}]", ("scalar", types[0][1], ())


def emit_dot(ops, types, aux):
    (a, b), (ta, tb) = ops, types
    _expect("dot", ta, "vector")
    _expect("dot", tb, "vector")
    if ta[2] != tb[2]:
        raise ShapeMismatch(f"dot: lengths {ta[2]} vs {tb[2]}")
    return f"_osl(({a} * {b}))", ("scalar", ta[1] or tb[1], ())


def emit_cross(ops, types, aux):
    for t in types:
        _expect("cross", t, "vector")
        if t[2] != (3,):
            raise ShapeMismatch("cross: vectors must have length 3")
    return f"_cross({ops[0]}, {ops[1]})", ("vector", types[0][1] or types[1][1], (3,))


def emit_norm(ops, types, aux):
    _expect("norm", types[0], "vector")
    return f"sqrt(_osl(({ops[0]} * {ops[0]})))", ("scalar", types[0][1], ())


def emit_normalize(ops, types, aux):
    _expect("normalize", types[0], "vector")
    v = ops[0]
    return f"({v} / sqrt(_osl(({v} * {v})))[..., None])", types[0]


def emit_vsum(ops, types, aux):
    _expect("vsum", types[0], "vector")
    return f"_osl({ops[0]})", ("scalar", types[0][1], ())


def emit_vlen(ops, types, aux):
    _expect("vlen", types[0], "vector")
    return f"asarray({float(types[0][2][-1])!r})", _SCALAR


def emit_scale(ops, types, aux):
    (s, v), (ts, tv) = ops, types
    _expect("scale", ts, "scalar")
    if tv[0] not in ("vector", "matrix"):
        raise ShapeMismatch("scale: second argument must be a vector or matrix")
    if ts[1]:
        s = f"{s}.reshape((B{', 1' * len(tv[2])}))"
    return f"({s} * {v})", (tv[0], ts[1] or tv[1], tv[2])


def emit_mat(ops, types, aux):
    n = types[0][2]
    for t in types:
        _expect("mat", t, "vector")
        if t[2] != n:
            raise ShapeMismatch("mat: rows have differing lengths")
    batched = any(t[1] for t in types)
    if batched:
        ops = [o if t[1] else f"broadcast_to({o}, {_shape_src(True, n)})"
               for o, t in zip(ops, types)]
    return f"stack([{', '.join(ops)}], axis=-2)", ("matrix", batched, (len(ops),) + n)


def emit_matmul(ops, types, aux):
    (a, b), (ta, tb) = ops, types
    _expect("matmul", ta, "matrix")
    _expect("matmul", tb, "matrix")
    if ta[2][-1] != tb[2][-2]:
        raise ShapeMismatch(f"matmul: inner dims {ta[2]} x {tb[2]} do not agree")
    # the products summed over the inner axis, moved last, left to right
    return (f"_osl(moveaxis(({a}[..., :, :, None] * {b}[..., None, :, :]), -2, -1))",
            ("matrix", ta[1] or tb[1], (ta[2][0], tb[2][1])))


def emit_matvec(ops, types, aux):
    (m, v), (tm, tv) = ops, types
    _expect("matvec", tm, "matrix")
    _expect("matvec", tv, "vector")
    if tm[2][-1] != tv[2][-1]:
        raise ShapeMismatch(f"matvec: {tm[2]} x {tv[2]} do not agree")
    return f"_osl(({m} * {v}[..., None, :]))", ("vector", tm[1] or tv[1], tm[2][:1])


def emit_transpose(ops, types, aux):
    t = types[0]
    _expect("transpose", t, "matrix")
    return f"swapaxes({ops[0]}, -1, -2)", ("matrix", t[1], t[2][::-1])


def emit_trace(ops, types, aux):
    t = types[0]
    _expect("trace", t, "matrix")
    if t[2][-1] != t[2][-2]:
        raise ShapeMismatch("trace: matrix must be square")
    return f"_osl(diagonal({ops[0]}, axis1=-2, axis2=-1))", ("scalar", t[1], ())


def emit_outer(ops, types, aux):
    (a, b), (ta, tb) = ops, types
    _expect("outer", ta, "vector")
    _expect("outer", tb, "vector")
    return f"({a}[..., :, None] * {b}[..., None, :])", ("matrix", ta[1] or tb[1], ta[2] + tb[2])


def eager(op: str):
    """det and inv, through runtime's ``factors`` and ``det_inv``, which
    raises on a singular matrix when the function's ``raises`` argument is
    true.  A taped forward gives det an ``aux``: the name of a local in
    which it keeps its factors for its VJP (``vjp_det``)."""
    def emit(ops, types, aux):
        t = types[0]
        _expect(op, t, "matrix")
        if t[2][-1] != t[2][-2]:
            raise ShapeMismatch(f"{op}: matrix must be square")
        lu = f"_factors({ops[0]}, {t[1]})"
        if aux is not None:
            lu = f"({aux} := {lu})"
        return f"_det_inv({op!r}, {lu}, {t[1]}, raises)", ("scalar", t[1], ()) if op == "det" else t
    return emit


def sized(op: str):
    """eye, zeros and ones: an eye of n is n x n, zeros and ones of one size
    a vector and of two a matrix.  Literal sizes (``aux``) are checked
    here, and sizes read from operands where the function runs."""
    def emit(ops, types, aux):
        if aux is not None:
            dims = rt.sizes(op, ast.literal_eval(aux))
            src = repr(dims)
        elif any(t != _SCALAR for t in types):
            raise ShapeMismatch(f"{op}: index must be an unbatched scalar")
        else:
            dims, src = None, f"_sizes({op!r}, ({''.join(o + ', ' for o in ops)}))"
        if op == "eye":
            return f"eye(*{src})", ("matrix", False, dims and dims * 2)
        return f"{op}({src})", (_KINDS[len(dims or ops)], False, dims)
    return emit


def emit_linear(ops, types, aux):
    (x, w, b), (tx, tw, tb) = ops, types
    if ((tx[0], tw[:2], tb[:2]) != ("vector", ("matrix", False), ("vector", False))
            or tx[2] + tb[2] != tw[2]):
        raise ShapeMismatch(f"linear: {tx} x {tw} + {tb} do not agree")
    return f"(matmul({x}, {w}) + {b})", ("vector", tx[1], tb[2])


def emit_relu(ops, types, aux):
    return f"maximum({ops[0]}, 0.0)", types[0]


def emit_mse(ops, types, aux):
    p, t = ops
    return f"mean(((_d := (_observed({p}, {t}) - {t})) * _d))", _SCALAR


def emit_shooting_mse(ops, types, aux):
    """The loss over residuals (B, k * d), as the step-by-step loss takes it:
    each column's mean square, summed left to right, weighted by ``aux``."""
    r = ops[0]
    if types[0][:2] != ("vector", True):
        raise ShapeMismatch("shooting_mse: expects a batch of residual vectors")
    columns = f"ascontiguousarray(swapaxes(({r} * {r}), -1, -2))"
    return f"({aux} * _osl((add.reduce({columns}, axis=1) / {r}.shape[0])))", _SCALAR


# ---------------------------------------------------------------------------
# VJP emit forms: (g, ops, out, types, out_type, aux, need) ->
# (statements, [(source, static shape) or None per operand]).  ``need``
# holds one bool per operand: an operand that reaches no root of the
# backward pass gets None.  Unary forms run only with need == [True].


def _each(out_t, srcs) -> tuple:
    """Elementwise raw gradients, shaped like the output."""
    return [], [None if s is None else (s, out_t[1:]) for s in srcs]


def vjp_add(g, ops, out, types, out_t, aux, need):
    return _each(out_t, [g if n else None for n in need])


def vjp_sub(g, ops, out, types, out_t, aux, need):
    if len(ops) == 1:
        return _each(out_t, [f"(-{g})"])
    return _each(out_t, [g if need[0] else None] + [f"(-{g})" if n else None for n in need[1:]])


def vjp_mul(g, ops, out, types, out_t, aux, need):
    al = [_aligned(o, t, out_t) for o, t in zip(ops, types)]
    srcs = []
    for i, n in enumerate(need):
        p = None
        if n:
            p = g
            for j, a in enumerate(al):
                if j != i:
                    p = f"({p} * {a})"
        srcs.append(p)
    return _each(out_t, srcs)


def vjp_div(g, ops, out, types, out_t, aux, need):
    al = [_aligned(o, t, out_t) for o, t in zip(ops, types)]
    srcs = [None]
    if need[0]:
        denom, *rest = al[1:]
        for a in rest:
            denom = f"({denom} * {a})"
        srcs[0] = f"({g} / {denom})"
    srcs += [f"(-{g} * {out} / {a})" if n else None for a, n in zip(al[1:], need[1:])]
    return _each(out_t, srcs)


def vjp_pow(g, ops, out, types, out_t, aux, need):
    if aux is not None:
        return _each(out_t, [f"(({g} * {aux}) * power({ops[0]}, ({aux} - 1.0)))"])
    a, b = [_aligned(o, t, out_t) for o, t in zip(ops, types)]
    return _each(out_t, [
        f"(({g} * {b}) * {_power_of(types[1])}({a}, ({b} - 1.0)))" if need[0] else None,
        f"(({g} * {out}) * log({a}))" if need[1] else None])


def rounding_vjp(rounder: str):
    """modulo (floor) and remainder (trunc)."""
    def vjp(g, ops, out, types, out_t, aux, need):
        a, b = [_aligned(o, t, out_t) for o, t in zip(ops, types)]
        return _each(out_t, [g if need[0] else None,
                             f"(-{g} * {rounder}(({a} / {b})))" if need[1] else None])
    return vjp


def vjp_minmax(g, ops, out, types, out_t, aux, need):
    # an operand takes the gradient where it is the first to equal the
    # output, so the mask runs over every operand, needed or not
    avail = f"m{out}"
    lines = [f"{avail} = ones({_shape_src(*out_t[1:])}, dtype=bool)"]
    srcs = []
    for i, (o, t, n) in enumerate(zip(ops, types, need)):
        take = f"m{out}_{i}"
        lines += [f"{take} = (({_aligned(o, t, out_t)} == {out}) & {avail})",
                  f"{avail} = ({avail} & ~{take})"]
        srcs.append(f"({g} * {take})" if n else None)
    return lines, _each(out_t, srcs)[1]


def unary_vjp(template: str):
    """A one-operand VJP: ``template`` formatted with g, x and out."""
    def vjp(g, ops, out, types, out_t, aux, need):
        return _each(out_t, [template.format(g=g, x=ops[0], out=out)])
    return vjp


def vjp_none(g, ops, out, types, out_t, aux, need):
    return [], [None] * len(ops)


def vjp_if(g, ops, out, types, out_t, aux, need):
    c = _aligned(ops[0], types[0], out_t)
    return _each(out_t, [None, f"({g} * ({c} != 0.0))" if need[1] else None,
                         f"({g} * ({c} == 0.0))" if need[2] else None])


def vjp_vec(g, ops, out, types, out_t, aux, need):
    return [], [(f"{g}[..., {i}]", (out_t[1], ())) if n else None for i, n in enumerate(need)]


def vjp_ref(g, ops, out, types, out_t, aux, need):
    if not need[0]:
        return [], [None] * len(ops)
    t, gv = types[0], f"r{out}"
    return ([f"{gv} = zeros({_shape_src(*t[1:])})",
             f"{gv}[..., {_ref_position(ops, types, aux)}] = {g}"],
            [(gv, t[1:])] + [None] * (len(ops) - 1))


def vjp_dot(g, ops, out, types, out_t, aux, need):
    (a, b), (ta, tb) = ops, types
    ge = f"asarray({g})[..., None]"
    return [], [(f"({ge} * {b})", (out_t[1], ta[2])) if need[0] else None,
                (f"({ge} * {a})", (out_t[1], tb[2])) if need[1] else None]


def vjp_cross(g, ops, out, types, out_t, aux, need):
    a, b = ops
    return [], [(f"_cross({b}, {g})", out_t[1:]) if need[0] else None,
                (f"_cross({g}, {a})", out_t[1:]) if need[1] else None]


def vjp_norm(g, ops, out, types, out_t, aux, need):
    v = ops[0]
    return [], [(f"((asarray({g})[..., None] * {v}) / asarray({out})[..., None])",
                 types[0][1:])]


def vjp_normalize(g, ops, out, types, out_t, aux, need):
    v = ops[0]
    return [], [(f"(({g} - ({out} * add.reduce(({out} * {g}), axis=-1, keepdims=True)))"
                 f" / sqrt(add.reduce(({v} * {v}), axis=-1, keepdims=True)))", types[0][1:])]


def vjp_vsum(g, ops, out, types, out_t, aux, need):
    t = types[0]
    return [], [(f"broadcast_to(asarray({g})[..., None], {_shape_src(*t[1:])})", t[1:])]


def vjp_scale(g, ops, out, types, out_t, aux, need):
    (s, v), (ts, tv) = ops, types
    nd = out_t[1] + len(tv[2])
    axes = tuple(range(nd - len(tv[2]), nd))
    return [], [(f"add.reduce(({g} * {v}), axis={axes!r})", (out_t[1], ())) if need[0] else None,
                (f"({_aligned(s, ts, out_t)} * {g})", out_t[1:]) if need[1] else None]


def vjp_mat(g, ops, out, types, out_t, aux, need):
    return [], [(f"{g}[..., {i}, :]", (out_t[1], out_t[2][1:])) if n else None
                for i, n in enumerate(need)]


def vjp_matmul(g, ops, out, types, out_t, aux, need):
    (a, b), (ta, tb) = ops, types
    return [], [(f"matmul({g}, swapaxes({b}, -1, -2))", (out_t[1], ta[2])) if need[0] else None,
                (f"matmul(swapaxes({a}, -1, -2), {g})", (out_t[1], tb[2])) if need[1] else None]


def vjp_matvec(g, ops, out, types, out_t, aux, need):
    (m, v), (tm, tv) = ops, types
    ge = f"asarray({g})[..., :, None]"
    return [], [(f"({ge} * {v}[..., None, :])", (out_t[1], tm[2])) if need[0] else None,
                (f"add.reduce(({m} * {ge}), axis=-2)", (out_t[1], tv[2])) if need[1] else None]


def vjp_transpose(g, ops, out, types, out_t, aux, need):
    return [], [(f"swapaxes({g}, -1, -2)", types[0][1:])]


def vjp_trace(g, ops, out, types, out_t, aux, need):
    t = types[0]
    return [], [(f"(asarray({g})[..., None, None] * eye({t[2][-1]}))", t[1:])]


def vjp_det(g, ops, out, types, out_t, aux, need):
    """g * det * inv(M)^T, the inverse from the factors that the forward
    kept in the local ``aux`` (in a fused record's sweep), or else from an LU
    of its own, which raises on a singular matrix whatever the policy."""
    t = types[0]
    lu = aux or f"_factors({ops[0]}, {t[1]})"
    inv_t = f"swapaxes(_det_inv('det backward', {lu}, {t[1]}, True), -1, -2)"
    return [], [(f"((asarray({g})[..., None, None] * asarray({out})[..., None, None]) * {inv_t})",
                 t[1:])]


def vjp_inv(g, ops, out, types, out_t, aux, need):
    it = f"swapaxes({out}, -1, -2)"
    return [], [(f"(-matmul(matmul({it}, {g}), {it}))", types[0][1:])]


def vjp_outer(g, ops, out, types, out_t, aux, need):
    (a, b), (ta, tb) = ops, types
    return [], [(f"add.reduce(({g} * {b}[..., None, :]), axis=-1)", (out_t[1], ta[2]))
                if need[0] else None,
                (f"add.reduce(({g} * {a}[..., :, None]), axis=-2)", (out_t[1], tb[2]))
                if need[1] else None]


def vjp_linear(g, ops, out, types, out_t, aux, need):
    """The bias's gradient is ``g``, whose batch axis ``_reduce`` sums."""
    (x, w, b), (tx, tw, tb) = ops, types
    gw = f"matmul(swapaxes({x}, -1, -2), {g})" if tx[1] else f"outer({x}, {g})"
    return [], [(f"matmul({g}, swapaxes({w}, -1, -2))", tx[1:]) if need[0] else None,
                (gw, tw[1:]) if need[1] else None, (g, out_t[1:]) if need[2] else None]


def vjp_mse(g, ops, out, types, out_t, aux, need):
    (p, t), gd = ops, f"d{out}"
    return [f"{gd} = ({g} * ((2.0 * ({p} - {t})) / {p}.size))"], [
        (gd, types[0][1:]) if need[0] else None, (f"(-{gd})", types[1][1:]) if need[1] else None]


def vjp_shooting_mse(g, ops, out, types, out_t, aux, need):
    r = ops[0]
    return [], [(f"(({g} * {aux}) * ((2.0 * {r}) / {r}.shape[0]))", types[0][1:])]


def _reduce(c: tuple, arg: tuple, out: tuple, elementwise: bool) -> str:
    """The source of a raw gradient ``c`` (source, static shape) reduced to
    its argument's shape, resolved at generation: an elementwise row's
    gradient is output-shaped and undoes the broadcast, another row's may
    have a batch axis to sum.  An unbatched scalar's is a 0-d array.
    ``add.reduce`` is the ufunc reduction that ``ndarray.sum`` calls."""
    src, (b, core) = c
    if (b, core) == (False, ()):
        src = f"asarray({src})"
    if (b, core) == arg[1:]:
        return src
    if not elementwise:
        if b + len(core) == arg[1] + len(arg[2]) + 1:
            return f"add.reduce({src}, axis=0)"
        return f"broadcast_to({src}, {_shape_src(*arg[1:])})"
    n = len(out[2])
    if arg[0] == "scalar" and n:
        nd = b + len(core)
        axes = tuple(range(nd - n, nd))
        src, core = f"add.reduce({src}, axis={axes!r})", core[:len(core) - n]
    if out[1] and not arg[1]:
        src, b = f"add.reduce({src}, axis=0)", False
    if (b, core) != arg[1:]:
        src = f"broadcast_to({src}, {_shape_src(*arg[1:])})"
    return src


# ---------------------------------------------------------------------------
# one-op functions: the forward and VJP columns of the rows with emit forms

# (row name, operand types, whether aux is given, need or None) ->
# (generated function, out type)
_ONE_OPS: dict = {}
_SEEN_MAX = 512  # operand shapes a row remembers before it forgets them all


def _one_op(row, types: tuple, aux: bool, need=None) -> tuple:
    """The generated forward (``need`` None) or VJP of ``row`` for operands
    of these static types, and the out type: ``forward(o0, .., aux, B,
    raises)`` returns the result array, ``vjp(g, o0, .., out, aux, B)`` the
    list of gradients, each reduced to its operand's shape, or None."""
    key = (row.name, types, aux, need)
    made = _ONE_OPS.get(key)
    if made is None:
        names = [f"o{i}" for i in range(len(types))]
        aux_src = "aux" if aux else None
        src, out = row.emit(_holes(len(types)), list(types), aux_src)
        if need is None:
            fn = _define(dict(_NAMESPACE), "forward", ", ".join(names + ["aux", "B", "raises"]),
                         [f"return {src.format(*names)}"])
        else:
            pre, raw = row.emit_vjp("g", names, "out", list(types), out, aux_src, list(need))
            ret = ", ".join("None" if r is None else _reduce(r, t, out, row.elementwise)
                            for r, t in zip(raw, types))
            fn = _define(dict(_NAMESPACE), "vjp", ", ".join(["g", *names, "out", "aux", "B"]),
                         pre + [f"return [{ret}]"])
        made = _ONE_OPS[key] = (fn, out)
    return made


def _static_types(row, args) -> tuple:
    """The operands' static types and batch size, once their batch sizes
    are found to agree."""
    types, batch = [], None
    for a in args:
        shape = a.data.shape
        if a.batched:
            if batch is not None and shape[0] != batch:
                raise ShapeMismatch(f"{row.name}: batch sizes {batch} vs {shape[0]} differ"
                                    if row.category == "scalar"
                                    else f"{row.name}: batch sizes differ")
            batch, shape = shape[0], shape[1:]
        types.append((a.kind, a.batched, shape))
    return tuple(types), batch


def _shapes(args) -> tuple:
    if len(args) == 2:  # the common arity, without a comprehension
        a, b = args
        return a.batched, a.data.shape, b.batched, b.data.shape
    return tuple([(a.batched, a.data.shape) for a in args])


def _remember(memo: dict, key, made) -> tuple:
    if len(memo) >= _SEEN_MAX:
        memo.clear()
    memo[key] = made
    return made


def forward_of(row):
    """The ``forward`` column of a row with emit forms: ``forward(args,
    policy, aux)`` -> Value, through the one-op function for the operands'
    static types.  It passes the function whether the policy raises (only
    det and inv read it; the row's caller judges), and literal sizes (an
    eye's, zeros' or ones' tuple ``aux``) as operands."""
    plain, immediate = {}, {}  # operand shapes -> (fn, out kind, out batched, B)

    def miss(memo, key, args, aux):
        types, batch = _static_types(row, args)
        n = len(args) + (aux is not None)  # aux stands for an operand
        if n < row.min_arity or row.max_arity is not None and n > row.max_arity:
            hi = "unbounded" if row.max_arity is None else row.max_arity
            raise EvalError(f"{row.name} takes {row.min_arity}..{hi} operands, got {n}")
        fn, out = _one_op(row, types, aux is not None)
        return _remember(memo, key, (fn, out[0], out[1], batch))

    def forward(args, policy=rt.PROPAGATE_POLICY, aux=None):
        if type(aux) is tuple:  # literal sizes
            args, aux = [Value.scalar(d) for d in aux], None
        memo = plain if aux is None else immediate
        if len(args) == 2:
            a, b = args
            x, y = a.data, b.data
            key = (a.batched, x.shape, b.batched, y.shape)
            fn, kind, batched, batch = memo.get(key) or miss(memo, key, args, aux)
            data = fn(x, y, aux, batch, policy.raises)
        else:
            key = _shapes(args)
            fn, kind, batched, batch = memo.get(key) or miss(memo, key, args, aux)
            data = fn(*[a.data for a in args], aux, batch, policy.raises)
        if type(data) is F64:  # a ufunc's result on 0-d arrays; a Value holds a 0-d array
            data = np.asarray(data)
        return Value.trusted(data, kind, batched)

    return forward


def vjp_of(row):
    """The ``vjp`` column of a row with emit forms: ``vjp(g, args, out,
    aux, need)`` -> one gradient, reduced to its argument's shape, or None
    per argument, through the one-op VJP for the operands' static types and
    ``need``."""
    seen = {}  # (need, aux given, operand shapes) -> (fn, B)

    def vjp(g, args, out, aux, need):
        key = (need, aux is not None, _shapes(args))
        hit = seen.get(key)
        if hit is None:
            types, batch = _static_types(row, args)
            hit = _remember(seen, key, (_one_op(row, types, aux is not None, need)[0], batch))
        return hit[0](g, *[a.data for a in args], out.data, aux, hit[1])

    return vjp


# ---------------------------------------------------------------------------
# the shared table and a program's memo

# key -> its kernel or None, in the order they were made: the oldest is
# dropped when the table is full.  Generating a kernel costs one to two times
# compiling the program.
_SHARED: dict = {}
_SHARED_MAX = 256
RAW, UNTAPED, TAPED = "raw", "untaped", "taped"  # the kinds of run; a raw one's signature is None
_UNSEEN = object()


def key(prog, sig, kind: str) -> tuple:
    """The shared table's key of the runs of ``prog`` of a signature and kind."""
    return (prog.source_text, prog.input_names, prog.param_names, prog.max_recursion_depth,
            sig, kind)


def lookup(prog, sig, kind: str):
    """The ``Kernel`` of the runs of ``prog`` of this signature and kind, or
    None for runs that take the executor, made on its key's first run in
    the process and kept in the shared table and the program's memo."""
    memo, run = prog.kernels, (sig, kind)
    got = memo.get(run, _UNSEEN)
    if got is _UNSEEN:
        k = key(prog, sig, kind)
        got = _SHARED.get(k, _UNSEEN)
        if got is _UNSEEN:
            got = _make(prog, sig, kind)
            if len(_SHARED) >= _SHARED_MAX:
                del _SHARED[next(iter(_SHARED))]
            _SHARED[k] = got
        memo[run] = got
    return got


def _make(prog, sig, kind: str):
    """The kernel of ``prog`` for ``sig`` and ``kind``, shared with the other
    array kind's, or None: Python cannot compile it, or it is taped and its
    forward abandons."""
    other = kind != RAW and _SHARED.get(key(prog, sig, UNTAPED if kind == TAPED else TAPED))
    try:
        k = other or Kernel(prog, sig)
        if kind == TAPED:
            k.define_taped()
    except (SyntaxError, RecursionError):  # source nested deeper than Python compiles
        return None
    return None if kind == TAPED and k.taped is None else k


# ---------------------------------------------------------------------------
# the kernel writer

# Scalar kernels written as their Python operator: the same call on the same operands.
_OPERATORS = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/"}
# Brackets an inlined source may nest: Python's parser refuses 200.
_NESTING_MAX = 64


def _indent(lines: list) -> list:
    return ["    " + line for line in lines]


def _reads(block) -> set:
    """The slots that a block and the arms of its branch tails read."""
    got = set()
    for ins in block.instrs:
        if ins[0] == "prim":
            got.update(ins[3])
        elif ins[0] == "loop" or ins[0] == "call":
            got.update(ins[3] + ins[4])
    tail = block.tail
    if tail[0] == "branch":
        got |= {tail[1]} | _reads(tail[2]) | _reads(tail[3])
    else:
        got.update(tail[1] if tail[0] == "recur" else (tail[1],))
    return got


class _Body:
    """The writer's state of one body: its number, each slot's source and
    static type, the depth its calls pass, its variables' slots, the
    template of an ``exit`` tail and its first exit's type.  ``name`` names
    a local (``s3`` at the top level, ``s2_3`` in body 2) or a constant."""

    __slots__ = ("n", "ref", "types", "depth", "variables", "exit", "result")

    def __init__(self, n: int, depth: str, exit_: str, result):
        self.n, self.depth, self.exit, self.result = n, depth, exit_, result
        self.ref, self.types, self.variables = {}, {}, ()

    def name(self, prefix: str, slot: int) -> str:
        return f"{prefix}{slot}" if self.n == 0 else f"{prefix}{self.n}_{slot}"


class Kernel:
    """The code of one program for one signature of its leaves (``sig``
    None: a raw-slot run), and its writer, which walks the top level, the
    arms of each branch tail, each loop body where its loop runs, as a
    ``while True:`` that a ``recur`` tail continues and an ``exit`` tail
    breaks, and each function body, once per static type of its arguments
    and captures, as a function ``f<i>(args, captures, d)`` of its call
    depth around such a loop.  Run kinds differ only in ``_prim``.
    ``forward(leaf arrays, B, raises)`` returns the output; a straight-line
    program's ``taped`` returns it with the values its reverse sweep,
    ``vjp(need)``, reads."""

    def __init__(self, prog, sig):
        self.block, self.out, self.limit = prog.block, prog.output_slot, prog.max_recursion_depth
        self.sig, self.raw = sig, sig is None
        self.leaf_slots = [ins[1] for ins in prog.leaves]
        self.ns, self.kernels = dict(_NAMESPACE), {}  # scalar kernel -> the name of its global
        self.taped, self.vjps = None, {}
        self.kept = ()  # names of the values the reverse sweep reads, set with the taped forward
        self.forward = _define(self.ns, "forward", "L, B, raises", self._write(None), self.defs)
        self.out_kind, self.out_batched = (self.top.result or (None, None))[:2]

    # -- the writer ------------------------------------------------------------

    def _write(self, keep) -> list:
        """The forward's statements, and the functions they call in ``defs``;
        a taped one also returns the top-level locals named in ``keep``."""
        self.keep = {int(name[1:]) for name in keep or () if name[0] == "s"}  # slots
        self.defs, self.fns, self.bodies, self.abandons = [], {}, 0, False
        self.top = self._body("1", "return {}" + (
            "" if keep is None else f", ({''.join(name + ', ' for name in keep)})"))
        return self._block(self.block, self.top)

    def _body(self, depth: str, exit_: str, ir=None, types=(), captures=None) -> _Body:
        """A new body; a loop's or function's names its variables and captures."""
        self.bodies += 1
        b = _Body(self.bodies - 1, depth, exit_, _SCALAR if self.raw else None)
        if ir is not None:
            b.variables = ir.var_slots
            slots, n = ir.var_slots + ir.capture_slots, len(ir.var_slots)
            names = [b.name("s", s) for s in slots]
            b.ref.update(zip(slots, names[:n] + (captures or names[n:])))
            b.types.update(zip(slots, types))
        return b

    def _block(self, block, b: _Body) -> list:
        """A block's statements, unindented, up to an abandon if any."""
        pinned = set(self.keep) if b.n == 0 else set()  # slots read where nothing is inlined
        for ins in block.instrs:
            if ins[0] == "loop" or ins[0] == "call":
                pinned.update(ins[3] + ins[4])
        tail = block.tail
        if tail[0] == "branch":
            pinned |= _reads(tail[2]) | _reads(tail[3])
        items, end = [], None
        try:
            for ins in block.instrs:
                items.append(self._instr(ins, b))
            end = self._tail(tail, b)
        except (_Abandoned, ShapeMismatch):
            self.abandons = True
            items.append(["raise _Abandoned"])
        return self._render(items, end, b, pinned)

    def _instr(self, ins, b: _Body):
        """A prim's (dest, row, operands, aux source, template), or the
        statements of any other instruction."""
        kind, dest = ins[0], ins[1]
        local = b.name("s", dest)
        if kind == "prim":
            return self._prim(ins, b, local)
        if kind == "const":
            b.ref[dest], b.types[dest] = b.name("c", dest), _SCALAR
            self.ns[b.ref[dest]] = ins[4] if self.raw else ins[3].data
            return []
        if kind == "input" or kind == "param":  # the leaf's array; a raw run reads its float
            i = self.leaf_slots.index(dest)
            if self.raw:  # as a prim of no operands, so that a leaf read once is inlined
                b.ref[dest], b.types[dest] = local, _SCALAR
                return dest, None, (), None, f"L[{i}][()]"
            batched, core = self.sig[i]
            b.ref[dest], b.types[dest] = f"L[{i}]", (_KINDS[len(core)], batched, core)
            return []
        _, _, ir, outer, caps = ins
        passed = [b.ref[o] for o in outer + caps]
        types = tuple([b.types[o] for o in outer + caps])
        if kind == "call":
            fn, body = self.fns.get((id(ir), types)) or self._function(ir, types)
            lines = [f"{local} = {fn}({''.join(p + ', ' for p in passed)}{b.depth}"
                     f"{'' if self.raw else ', B, raises'})"]
        else:  # loop: its body, written here
            body = self._body(b.depth, f"{local} = {{}}\nbreak", ir, types,
                              passed[len(ir.var_slots):])
            lines = ([f"{body.ref[v]} = {p}" for v, p in zip(body.variables, passed)]
                     + ["while True:"]
                     + _indent(self._block(ir.block, body)))
        if body.result is None:  # no exit of the body is written: it never returns
            raise _Abandoned
        b.ref[dest], b.types[dest] = local, body.result
        return lines

    def _function(self, ir, types: tuple) -> tuple:
        """The name and body of a function for arguments and captures of these
        types, registered before its body is written, for the calls in it."""
        name, body = f"f{len(self.fns)}", self._body("d + 1", "return {}", ir, types)
        params = [body.ref[s] for s in ir.var_slots + ir.capture_slots]
        made = self.fns[(id(ir), types)] = name, body
        lines = self._block(ir.block, body)
        self.defs.append("\n".join([
            f"def {name}({''.join(p + ', ' for p in params)}d{'' if self.raw else ', B, raises'}):",
            f"    if d > {self.limit}:", "        raise _Abandoned", "    while True:",
            *_indent(_indent(lines))]))
        return made

    def _prim(self, ins, b: _Body, local: str) -> tuple:
        _, dest, _, ops, aux, row = ins
        if aux is not None:  # constant operands, spliced as their literal when finite
            if type(aux) is tuple or type(aux) in (float, int) and math.isfinite(aux):
                aux = repr(aux)
            else:
                self.ns[b.name("a", dest)], aux = aux, b.name("a", dest)
        if f"lu{dest}" in self.kept:  # det in a taped forward keeps its factors
            aux = f"lu{dest}"
        if self.raw:
            template, t = self._scalar(row, len(ops), aux), _SCALAR
        else:
            template, t = row.emit(_holes(len(ops)), [b.types[o] for o in ops], aux)
            if t[2] is None:  # an eye, zeros or ones of computed sizes
                raise _Abandoned
        b.ref[dest], b.types[dest] = local, t
        return dest, row, ops, aux, template

    def _scalar(self, row, n: int, aux) -> str:
        """A raw run's template of a prim: the row's scalar kernel (or its
        Python operator), folded left over an n-ary op's operands."""
        fn = self.kernels.get(row.scalar)
        if fn is None:
            fn = self.kernels[row.scalar] = f"k{len(self.kernels)}"
            self.ns[fn] = row.scalar
        holes = _holes(n) if aux is None else ("{0}", aux)
        if len(holes) != 2 and row.max_arity is not None:  # unary, or if
            return f"{fn}({', '.join(holes)})"
        op, src = _OPERATORS.get(row.scalar), holes[0]
        for h in holes[1:]:
            src = f"({src} {op} {h})" if op else f"{fn}({src}, {h})"
        return src

    def _tail(self, tail, b: _Body) -> tuple:
        """A block's tail: its operands, its statements as a template over
        their sources, and the statements after them."""
        if tail[0] == "branch":
            if b.types[tail[1]] != _SCALAR:  # the executor raises for it
                raise _Abandoned
            return ((tail[1],), "if {0} != 0.0:", _indent(self._block(tail[2], b)) + ["else:"]
                    + _indent(self._block(tail[3], b)))
        if tail[0] == "recur":
            ops = tail[1]
            if [b.types[o] for o in ops] != [b.types[v] for v in b.variables]:
                raise _Abandoned
            names = ", ".join([b.ref[v] for v in b.variables])
            assign = f"{names} = {', '.join(_holes(len(ops)))}\n" if ops else ""
            return ops, assign + "continue", []
        slot = tail[1]
        t = b.types[slot]
        if b.result is None:
            b.result = t
        elif t != b.result:
            raise _Abandoned
        src = "{0}"
        if b.n == 0 and not self.raw and t[:2] == ("scalar", False) and slot not in self.keep:
            src = "asarray({0})"  # a 0-d array, as a Value holds it
        return (slot,), b.exit.format(src), []

    def _render(self, items: list, end, b: _Body, pinned: set) -> list:
        """A block's statements: a result that nothing reads is left out, one
        read once and not pinned is inlined into its reader while its source
        nests at most ``_NESTING_MAX`` brackets, and any other is named and
        deleted after the statement that reads it last."""
        end_ops, end_src, after = end or ((), "", [])
        prims = [item for item in items if type(item) is tuple]
        live = pinned | set(end_ops)
        for dest, _, ops, _, _ in reversed(prims):
            if dest in live:
                live.update(ops)
        prims = [p for p in prims if p[0] in live]
        if b.n == 0:
            self.prims = prims
        uses = {}  # slot -> times the sources read it (norm's reads its operand twice)
        for _, _, ops, _, template in prims + [(None, None, end_ops, None, end_src)]:
            for o, hole in zip(ops, _holes(len(ops))):
                uses[o] = uses.get(o, 0) + template.count(hole)
        ref, reads_of, left, lines = b.ref, {}, {}, []
        nests = {}  # inlined slot -> the brackets its source nests
        for item in items:
            if type(item) is list:
                lines += item
                continue
            dest, _, ops, _, template = item
            if dest not in live:
                continue
            src = template.format(*[ref[o] for o in ops])
            reads = [r for o, hole in zip(ops, _holes(len(ops))) if o in reads_of
                     for r in reads_of[o] * template.count(hole)]
            if dest not in pinned and uses.get(dest) == 1:
                # at most the template's brackets around its deepest operand
                nest = (template.count("(") + template.count("[")
                        + max([nests.get(o, 0) for o in ops], default=0))
                if nest <= _NESTING_MAX:
                    ref[dest], reads_of[dest], nests[dest] = src, reads, nest
                    continue
            if dest in self.keep and b.n == 0 and b.types[dest][:2] == ("scalar", False):
                # a 0-d array: the reverse sweep's Python operators on a numpy
                # scalar would take numpy's scalar math, not the ufunc
                src = f"asarray({src})"
            ref[dest], reads_of[dest], left[dest] = b.name("s", dest), [dest], uses.get(dest, 0)
            lines.append(f"{ref[dest]} = {src}")
            dead = []
            for r in reads:
                left[r] -= 1
                if left[r] == 0 and r not in pinned:
                    dead.append(ref[r])
            if dead:
                lines.append("del " + ", ".join(dead))
        if end is not None:
            lines += end_src.format(*[ref[o] for o in end_ops]).split("\n") + after
        return lines

    def define_taped(self) -> None:
        """A straight-line program's taped forward, unless it abandons: it also
        returns the values that the reverse sweep with every leaf active reads."""
        if self.taped is not None or self.abandons:
            return
        live = {p[0] for p in self.prims}
        self.ref = {o: r for o, r in self.top.ref.items() if o not in live}  # leaves, constants
        leaf_index = {s: i for i, s in enumerate(self.leaf_slots)}
        self.types = self.top.types
        # (consumer slot, operand position, leaf index): the fused record's
        # arguments, in the order the reverse sweep reaches them
        self.uses = [(dest, pos, leaf_index[o]) for dest, _, ops, _, _ in reversed(self.prims)
                     for pos, o in enumerate(ops) if o in leaf_index]
        self.use_leaf = tuple(u[2] for u in self.uses)
        sweep = "\n".join(self._vjp_body((True,) * len(self.leaf_slots)))
        self.kept = tuple(sorted(set(re.findall(r"\b(?:s|lu)\d+\b", sweep))))
        self.taped = _define(self.ns, "taped", "L, B, raises", self._write(self.kept), self.defs)

    # -- the reverse sweep ---------------------------------------------------------

    def _vjp_body(self, active_leaves) -> list:
        """The reverse sweep's statements for the given leaf activity."""
        active = dict(zip(self.leaf_slots, active_leaves))
        for dest, _, ops, _, _ in self.prims:
            active[dest] = any(active.get(o, False) for o in ops)
        use_of = {(dest, pos): k for k, (dest, pos, _) in enumerate(self.uses)}
        has, lines, ret = {self.out}, [], ["None"] * len(self.uses)
        for dest, row, ops, aux, _ in reversed(self.prims):
            if not active[dest] or dest not in has:
                continue
            types = [self.types[o] for o in ops]
            if row.eager:  # det's VJP reads the factors its taped forward keeps
                aux = f"lu{dest}"
            pre, raw = row.emit_vjp(f"g{dest}", [self.ref.get(o, f"s{o}") for o in ops], f"s{dest}",
                                    types, self.types[dest], aux,
                                    [active.get(o, False) for o in ops])
            lines += pre
            for pos, (o, c) in enumerate(zip(ops, raw)):
                if c is None:
                    continue
                src = _reduce(c, self.types[o], self.types[dest], row.elementwise)
                if (dest, pos) in use_of:
                    k = use_of[(dest, pos)]
                    lines.append(f"u{k} = {src}")
                    ret[k] = f"u{k}"
                elif o in has:
                    lines.append(f"g{o} = g{o} + {src}")
                else:
                    lines.append(f"g{o} = {src}")
                    has.add(o)
            lines.append(f"del g{dest}")
        lines.append(f"return ({''.join(r + ', ' for r in ret)})")
        return lines

    def vjp(self, need: tuple):
        """The reverse sweep of a ``fused`` record for ``need``, one flag
        per use: fn(g, leaf arrays, kept values, B) -> one contribution or
        None per use."""
        fn = self.vjps.get(need)
        if fn is None:
            active = [False] * len(self.leaf_slots)
            for n, li in zip(need, self.use_leaf):
                active[li] = n
            unpack = [f"{''.join(name + ', ' for name in self.kept)}= K"] if self.kept else []
            lines = self._vjp_body(active)
            fn = self.vjps[need] = _define(self.ns, "vjp", f"g{self.out}, L, K, B", unpack + lines)
        return fn


class Fused:
    """The ``aux`` of a ``fused`` tape record: its kernel, the run's leaf
    arrays, the internal values its reverse sweep reads, and the batch size."""

    __slots__ = ("kernel", "leaves", "kept", "batch")

    def __init__(self, kernel, leaves, kept, batch):
        self.kernel, self.leaves, self.kept, self.batch = kernel, leaves, kept, batch

    def replay(self, args: list):
        """The record's output recomputed through the taped forward from its
        argument values (one per use)."""
        k = self.kernel
        leaves = [None] * len(k.leaf_slots)  # a leaf with no use is read by nothing
        for li, v in zip(k.use_leaf, args):
            leaves[li] = v.data
        out = quietly(k.taped, leaves, self.batch, False)[0]
        return Value.trusted(out, k.out_kind, k.out_batched)


def vjp_fused(g, args, out, aux, need):
    return aux.kernel.vjp(need)(g, aux.leaves, aux.kept, aux.batch)  # backward runs it quietly
