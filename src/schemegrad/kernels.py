"""The emit forms of the ops, and the code generated from them.

The emit forms are columns of the op table (``ops.py``) and the one array
definition of every language row with kernels.  ``emit(ops, types, aux)``
returns the source of the op's result from its operands' sources and
static types, with its static type;
``emit_vjp(g, ops, out, types, out_type, aux, need)`` returns statements to
run first and, per operand, the source and static shape of its raw
gradient (shaped like the output for an elementwise row, like the operand
otherwise, as ``backward`` reduces them) or None.  A static type is
``(kind, batched, core)``; a static shape is ``(batched, core)``; ``B`` is
the batch size in the generated source, and ``raises`` whether the error
policy raises, which only det and inv read.  ``aux`` is the source of a
row's constant operands (pow's exponent, ref's index, the sizes of eye,
zeros and ones), or None: a finite one is spliced into a whole-program
kernel as its literal, and a one-op function takes a number as the
argument ``aux`` and sizes as operands.  A form raises the
``ShapeMismatch`` its op raises, with its message, on operands the op
rejects; the core of an eye, zeros or ones of computed sizes is None.

One-op functions.  A row's ``forward`` and ``vjp`` columns call a function
generated from its form for the static types of the operands (and, for a
VJP, its ``need`` mask), made once per process and kept in ``_ONE_OPS``;
each row also remembers which function and batch size go with the
operands' shapes, so a call with shapes it has seen builds one tuple and
looks it up.  A call with shapes it has not seen checks the batch sizes
first.  The functions run with numpy's floating-point errors ignored: their
callers (``apply_primitive``, ``pow_immediate``, the executor and
``backward``) enter that state once.

Whole-program kernels.  A straight-line program is a top-level block with
an ``exit`` tail whose output is an op's result and that holds no ``loop``
or ``call`` instruction and no eye, zeros or ones of a computed size.  Its
array runs (every run that is not a raw-slot one, see ``machine``) can go
through Python source generated for it here:

- the signature of a run is each input's and parameter's batchedness and
  core shape (its kind follows from the core's rank); batch sizes are
  checked equal at entry, not keyed;
- an untaped run and a taped run each get their kernel from the shared
  table below, and the program keeps it in its ``kernels`` memo; every run
  of a program or signature that gets no kernel (a program that raises a
  ``ShapeMismatch``, or nests deeper than Python compiles) takes the
  executor.

The forward kernel keeps slots as locals, inlines a result read once into
the expression that reads it and deletes every other temporary after its
last use.  Its sources are the one-op functions' sources, so its values are
bitwise the executor's; an unbatched scalar it returns or keeps is a 0-d
array, as in a Value.  The machine tests only the output under the error
policy and redoes a non-finite run through the executor, which raises the
error such a run has always raised; a run in which det or inv raises
SingularMatrix is redone so too, and the error then names its
instruction.

A taped run through a kernel appends its input and parameter leaves and
then one ``fused`` record, whose value is the output.  The record keeps
only the values its reverse sweep reads (the to-be-recorded analysis of
Hascoet, Naumann & Pascual, FGCS 21(8), 2005).  Its arguments are the tape
ids of the leaves, one entry per use of a leaf, in the order a reverse
sweep over one record per instruction reaches those uses.  Its VJP is
emitted per ``need`` mask on first use, from the rows' VJP emit forms; it
makes the calls ``backward`` would make, and returns one contribution per
use, already reduced to the leaf's shape.  ``backward`` adds them to its
running sums one by one, so every gradient is the sum of the same terms in
the same order as over one record per instruction, and bitwise the same.

Raw kernels.  A raw-slot run (see ``machine``) of a scalar-closed program
goes through one Python function generated for the whole program, its
loops, branches and calls included (``RawWriter``).  It calls the op
table's scalar kernels in the executor's order, so its output is bitwise
the executor's; under the error policy the machine tests its output alone,
as for array kernels.

The shared table.  One process-wide table, ``_SHARED``, keeps kernels of
every kind, keyed by the program's source text, input and parameter names
and depth limit, and by the run's signature and kind (untaped, taped or
raw), and ``lookup`` is the one way to them.  One rule holds for every
kind: a kernel is generated on its key's first run in the process, and
every later run of every program compiled from that text takes it, a
fresh program's first run too.  Programs are often compiled again from the
same text: a formula for another fit, the Lotka-Volterra experiment's two
programs for every fit, and one program per op in the benchmark's
``scalar_programs``.
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


def quietly(fn, *args):
    """``fn(*args)`` with numpy's floating-point errors ignored, as under
    ``np.errstate(all="ignore")``: every generated function runs so.  A
    kernel run that raises SingularMatrix returns None: the executor redoes
    it and names the instruction."""
    saved = rt.quiet()
    try:
        return fn(*args)
    except SingularMatrix:
        return None
    finally:
        rt.restore(saved)


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
    "zeros")}
_NAMESPACE.update(_as_float=_as_float, _osl=rt.ordered_sum_last, _ZERO=_ZERO, _cross=_cross,
                  _pow_lanes=rt.power_lanes, _ref_index=rt.ref_index, _sizes=rt.sizes,
                  _lu=rt.det_inv)


def _define(ns: dict, name: str, params: str, body: list):
    """A function of ``params`` running ``body`` with globals ``ns``; a body
    that is one ``return`` compiles as a lambda, which costs less to
    compile."""
    if len(body) == 1 and body[0].startswith("return "):
        return eval(compile(f"lambda {params}: ({body[0][7:]})", f"<kernel {name}>", "eval",
                            dont_inherit=True), ns)
    src = "\n".join([f"def {name}({params}):"] + ["    " + line for line in body])
    exec(compile(src, f"<kernel {name}>", "exec", dont_inherit=True), ns)
    return ns[name]


_HOLES = tuple(f"{{{i}}}" for i in range(16))


def _holes(n: int) -> tuple:
    """Placeholders ``{0}``, ``{1}``, ... for the sources of n operands."""
    return _HOLES[:n] if n <= len(_HOLES) else tuple(f"{{{i}}}" for i in range(n))


def _names_in(src: str, prefix: str) -> set:
    """The numbers n of the names ``<prefix>n`` that ``src`` reads: slots
    (``s``) and leaves (``l``)."""
    return {int(d) for d in re.findall(rf"\b{prefix}(\d+)\b", src)}


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
    """det and inv, through runtime's ``det_inv``, which raises on a
    singular matrix when the function's ``raises`` argument is true."""
    def emit(ops, types, aux):
        t = types[0]
        _expect(op, t, "matrix")
        if t[2][-1] != t[2][-2]:
            raise ShapeMismatch(f"{op}: matrix must be square")
        return f"_lu({op!r}, {ops[0]}, {t[1]}, raises)", ("scalar", t[1], ()) if op == "det" else t
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
    """g * det * inv(M)^T, the inverse from an LU of its own, which raises
    on a singular matrix whatever the policy."""
    t = types[0]
    inv_t = f"swapaxes(_lu('det backward', {ops[0]}, {t[1]}, True), -1, -2)"
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


def _reduce(src: str, shape: tuple, arg: tuple, out: tuple, elementwise: bool) -> str:
    """``backward``'s reduction of a raw gradient to its argument's shape,
    resolved at generation: ``_reduce_elementwise`` or
    ``_reduce_structural``.  ``add.reduce`` is the ufunc reduction that
    ``ndarray.sum`` calls, without the Python wrapper."""
    b, core = shape
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
    list of raw gradients."""
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
            ret = ", ".join("None" if r is None else r[0] for r in raw)
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
    aux, need)`` -> one raw gradient or None per argument, through the
    one-op VJP for the operands' static types and ``need``."""
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

# key -> its kernel, or None if it gets none, in the order they were made:
# the oldest is dropped when the table is full, and made again on its key's
# next run.  Generating a kernel costs one to two times compiling the
# program.
_SHARED: dict = {}
_SHARED_MAX = 256
RAW, UNTAPED, TAPED = "raw", "untaped", "taped"  # the kinds of run; a raw one's signature is None
_UNSEEN = object()


def key(prog, sig, kind: str) -> tuple:
    """The shared table's key of the runs of ``prog`` of a signature and kind."""
    return (prog.source_text, prog.input_names, prog.param_names, prog.max_recursion_depth,
            sig, kind)


def lookup(prog, sig, kind: str):
    """The kernel of the runs of ``prog`` of this signature and kind, or
    None for runs that take the executor: a raw kernel, or a ``Kernel``
    with its forward (untaped) or taped forward defined.  It is made on its
    key's first run in the process and kept in the shared table and the
    program's memo."""
    memo, run = prog.kernels, (sig, kind)
    got = memo.get(run, _UNSEEN)
    if got is _UNSEEN:
        k = key(prog, sig, kind)
        got = _SHARED.get(k, _UNSEEN)
        if got is _UNSEEN:
            got = _make_raw(prog) if kind == RAW else _array_kernel(prog, sig, kind == TAPED)
            if len(_SHARED) >= _SHARED_MAX:
                del _SHARED[next(iter(_SHARED))]
            _SHARED[k] = got
        memo[run] = got
    return got


# What Python cannot compile: source nested deeper than its parser or
# compiler allows.
_TOO_DEEP = (SyntaxError, RecursionError)


def _array_kernel(prog, sig, taped: bool):
    """The kernel of a straight-line ``prog`` for ``sig``, shared with the
    other run kind's, or None if it gets none: the program raises a
    ``ShapeMismatch`` (the executor raises it) or nests too deep."""
    other = _SHARED.get(key(prog, sig, UNTAPED if taped else TAPED))
    try:
        k = other or Kernel(prog, sig)
        k.define_taped() if taped else k.define_forward()
    except (ShapeMismatch, *_TOO_DEEP):
        return None
    return k


def _make_raw(prog):
    try:
        return RawWriter(prog).define()
    except _TOO_DEEP:
        return None


# ---------------------------------------------------------------------------
# raw kernels


class _Abandoned(Exception):
    """A raw kernel's call went past the program's depth limit."""


# Scalar kernels that are Python operators, emitted as the operator: the
# same call on the same operands.
_OPERATORS = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/"}


class RawWriter:
    """The Python source of a scalar-closed program's raw-slot runs,
    control flow included, calling the op table's scalar kernels (the
    ``scalar`` column) in the executor's order.

    ``raw(A)`` runs the top level, with ``A`` the arrays of the program's
    leaves in order (``machine._leaves``), each 0-d, and returns the
    output's ``numpy.float64``, or None when the run is abandoned: when a
    call goes past the program's depth limit or Python's stack limit, the
    executor redoes the run and raises ``DepthLimitExceeded``, or finishes
    a recursion deeper than Python's stack.  It runs with numpy's
    floating-point errors ignored.  Each function body is a function
    ``f<i>(vars, captures, d)`` of its call depth ``d``, around a ``while
    True:`` that a ``recur`` tail continues and an ``exit`` tail leaves by
    ``return``; each loop body is such a ``while True:`` where its loop
    runs, which an ``exit`` tail breaks.  Every body names its slots
    ``s<body>_<slot>``, as the executor gives each body fresh slots; a
    constant is a global, and a loop body's capture is the source of the
    value it imports.
    """

    def __init__(self, prog):
        self.prog = prog
        self.ns = {"_quiet": rt.quiet, "_restore": rt.restore, "_Abandoned": _Abandoned,
                   "_ABANDONED": (_Abandoned, RecursionError)}
        self.names = {}  # id of a constant or scalar kernel -> its global's name
        self.fns = {id(ir): f"f{i}" for i, ir in enumerate(prog.functions)}
        self.leaves = {ins[1]: i for i, ins in enumerate(prog.leaves)}  # slot -> index in A
        self.bodies = 0
        self.lines = []
        self.depth = "1"  # the depth the running function's calls pass

    def define(self):
        """The generated ``raw``."""
        emit = self.lines.append
        for i, ir in enumerate(self.prog.functions):
            body = self._body()
            params = [f"s{body}_{s}" for s in ir.var_slots + ir.capture_slots]
            emit(f"def f{i}({''.join(p + ', ' for p in params)}d):")
            emit(f"    if d > {self.prog.max_recursion_depth}:")
            emit("        raise _Abandoned")
            emit("    while True:")  # a recur tail continues it
            self.depth = "d + 1"
            self._block(ir.block, dict(zip(ir.var_slots + ir.capture_slots, params)), body,
                        params[:len(ir.var_slots)], " " * 8, ("return {}",))
        self.depth = "1"
        emit("def raw(A):")
        emit("    saved = _quiet()")
        emit("    try:")
        self._block(self.prog.block, {}, self._body(), (), " " * 8, ("return {}",))
        emit("    except _ABANDONED:")
        emit("        return None")
        emit("    finally:")
        emit("        _restore(saved)")
        exec(compile("\n".join(self.lines), "<raw kernel>", "exec", dont_inherit=True), self.ns)
        return self.ns["raw"]

    def _body(self) -> int:
        self.bodies += 1
        return self.bodies - 1

    def _global(self, obj, prefix: str) -> str:
        name = self.names.get(id(obj))
        if name is None:
            name = self.names[id(obj)] = f"{prefix}{len(self.names)}"
            self.ns[name] = obj
        return name

    def _prim(self, ins, ref: dict, local: str) -> list:
        """The statements that set ``local`` to a prim's result."""
        _, _, _, operands, aux, row = ins
        fn, args = self._global(row.scalar, "k"), [ref[o] for o in operands]
        op = _OPERATORS.get(row.scalar)

        def call(a, b):
            return f"{a} {op} {b}" if op else f"{fn}({a}, {b})"

        if len(args) == 2:
            src = call(*args)
        elif aux is not None:  # a constant operand: pow's exponent
            finite = type(aux) in (float, int) and math.isfinite(aux)
            src = call(args[0], repr(aux) if finite else self._global(aux, "a"))
        elif len(args) == 1:
            src = f"{fn}({args[0]})"
        elif row.max_arity is None:  # n-ary: fold left, one statement a step
            return [f"{local} = {call(args[0], args[1])}"] + [
                f"{local} = {call(local, a)}" for a in args[2:]]
        else:  # fixed arity three (if)
            src = f"{fn}({', '.join(args)})"
        return [f"{local} = {src}"]

    def _block(self, block, ref: dict, body: int, variables: list, pad: str, exit_: tuple):
        """A block's statements: ``ref`` maps the body's slots to their
        sources, ``variables`` are its variables' names, and ``exit_`` the
        statements of an exit tail, formatted with the value's source."""
        emit = self.lines.append
        for ins in block.instrs:
            kind, dest = ins[0], ins[1]
            if kind == "const":
                ref[dest] = self._global(ins[4], "c")
                continue
            local = f"s{body}_{dest}"
            if kind == "prim":
                self.lines += [pad + line for line in self._prim(ins, ref, local)]
            elif kind == "input" or kind == "param":  # top level only: others capture them
                emit(f"{pad}{local} = A[{self.leaves[dest]}][()]")
            elif kind == "call":
                _, _, ir, args, caps = ins
                passed = "".join(ref[o] + ", " for o in args + caps)
                emit(f"{pad}{local} = {self.fns[id(ir)]}({passed}{self.depth})")
            else:  # loop: its body, written here
                _, _, ir, inits, caps = ins
                inner = self._body()
                names = [f"s{inner}_{s}" for s in ir.var_slots]
                for name, o in zip(names, inits):
                    emit(f"{pad}{name} = {ref[o]}")
                sources = dict(zip(ir.var_slots, names))
                sources.update(zip(ir.capture_slots, [ref[o] for o in caps]))
                emit(f"{pad}while True:")
                self._block(ir.block, sources, inner, names, pad + "    ",
                            (f"{local} = {{}}", "break"))
            ref[dest] = local
        tail = block.tail
        if tail[0] == "branch":
            emit(f"{pad}if {ref[tail[1]]} != 0.0:")
            self._block(tail[2], ref, body, variables, pad + "    ", exit_)
            emit(f"{pad}else:")
            self._block(tail[3], ref, body, variables, pad + "    ", exit_)
        elif tail[0] == "recur":
            if variables:
                emit(f"{pad}{', '.join(variables)} = {', '.join(ref[s] for s in tail[1])}")
            emit(f"{pad}continue")
        else:
            for line in exit_:
                emit(pad + line.format(ref[tail[1]]))


class Kernel:
    """The generated code of one straight-line program for one leaf
    signature: ``forward(*leaf arrays, B, raises)`` returns the output
    array; ``taped(*leaf arrays, B, raises)`` returns it with the values the
    reverse sweep reads; ``vjp(need)`` is the reverse sweep for one ``need``
    mask of a ``fused`` record."""

    def __init__(self, prog, sig):
        self.ns = dict(_NAMESPACE)
        self.forward = self.taped = None
        self.vjps = {}
        ref, types, self.leaf_slots, prims = {}, {}, [], []
        for ins in prog.block.instrs:
            kind, dest = ins[0], ins[1]
            if kind == "const":
                ref[dest] = f"c{dest}"
                self.ns[ref[dest]] = ins[3].data
                types[dest] = _SCALAR
            elif kind == "prim":
                aux = ins[4]
                if aux is not None:
                    if type(aux) is tuple or type(aux) in (float, int) and math.isfinite(aux):
                        aux = repr(aux)  # a constant operand is spliced as its literal
                    else:
                        self.ns[f"a{dest}"], aux = aux, f"a{dest}"
                ops = ins[3]
                # the forward's source as a template over the operands' sources
                src, types[dest] = ins[5].emit(_holes(len(ops)), [types[o] for o in ops], aux)
                prims.append((dest, ins[5], ops, aux, src))
            else:  # input or param
                batched, core = sig[len(self.leaf_slots)]
                ref[dest] = f"l{len(self.leaf_slots)}"
                types[dest] = (_KINDS[len(core)], batched, core)
                self.leaf_slots.append(dest)
        self.out = prog.output_slot
        live = {self.out}
        for dest, _, ops, _, _ in reversed(prims):
            if dest in live:
                live.update(ops)
        self.prims = [p for p in prims if p[0] in live]
        self.ref, self.types = ref, types
        self.out_kind, self.out_batched = types[self.out][:2]
        leaf_index = {s: i for i, s in enumerate(self.leaf_slots)}
        # (consumer slot, operand position, leaf index): the fused record's
        # arguments, in the order the reverse sweep reaches them
        self.uses = [(dest, pos, leaf_index[o]) for dest, _, ops, _, _ in reversed(self.prims)
                     for pos, o in enumerate(ops) if o in leaf_index]
        self.use_leaf = tuple(u[2] for u in self.uses)
        self.kept = self.kept_leaves = ()  # read by the reverse sweep, set with the taped forward

    # -- code generation -----------------------------------------------------

    def _forward_body(self, keep) -> tuple:
        """The forward's statements and the source of its output.  Results
        read once are inlined unless kept; other temporaries are deleted
        after the statement that reads them last."""
        uses = {}  # slot -> times the sources read it (norm's reads its operand twice)
        for _, _, ops, _, template in self.prims:
            for o, hole in zip(ops, _holes(len(ops))):
                uses[o] = uses.get(o, 0) + template.count(hole)
        ref, reads_of, left, lines = dict(self.ref), {}, {}, []
        for dest, _, ops, _, template in self.prims:
            src = template.format(*[ref[o] for o in ops])
            reads = [r for o, hole in zip(ops, _holes(len(ops))) if o in reads_of
                     for r in reads_of[o] * template.count(hole)]
            if dest != self.out and dest not in keep and uses.get(dest) == 1:
                ref[dest], reads_of[dest] = src, reads
                continue
            if (dest == self.out or dest in keep) and self.types[dest][:2] == ("scalar", False):
                # a 0-d array, as a Value holds it.  Inside the forward a ufunc's numpy
                # scalar gives the same bits, but Python's operators in the reverse
                # sweep would take numpy's scalar math on it, not the ufunc.
                src = f"asarray({src})"
            if dest == self.out and dest not in keep:
                return lines, src
            lines.append(f"s{dest} = {src}")
            ref[dest], reads_of[dest], left[dest] = f"s{dest}", [dest], uses.get(dest, 0)
            dead = []
            for r in reads:
                left[r] -= 1
                if left[r] == 0 and r not in keep:
                    dead.append(f"s{r}")
            if dead:
                lines.append("del " + ", ".join(dead))
        return lines, f"s{self.out}"

    def _leaf_params(self) -> str:
        return "".join(f"l{i}, " for i in range(len(self.leaf_slots))) + "B, raises"

    def define_forward(self) -> None:
        if self.forward is not None:
            return
        lines, out = self._forward_body(())
        self.forward = _define(self.ns, "forward", self._leaf_params(), lines + [f"return {out}"])

    def define_taped(self) -> None:
        """The taped forward, which also returns the internal values the
        reverse sweep reads with every leaf active; a sweep with fewer
        active reads fewer."""
        if self.taped is not None:
            return
        sweep = "\n".join(self._vjp_body((True,) * len(self.leaf_slots)))
        kept = tuple(sorted(_names_in(sweep, "s")))
        lines, out = self._forward_body(set(kept))
        self.taped = _define(self.ns, "taped", self._leaf_params(),
                             lines + [f"return {out}, ({''.join(f's{s}, ' for s in kept)})"])
        self.kept, self.kept_leaves = kept, tuple(sorted(_names_in(sweep, "l")))

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
            pre, raw = row.emit_vjp(f"g{dest}", [self.ref.get(o, f"s{o}") for o in ops], f"s{dest}",
                                    types, self.types[dest], aux,
                                    [active.get(o, False) for o in ops])
            lines += pre
            for pos, (o, c) in enumerate(zip(ops, raw)):
                if c is None:
                    continue
                src = c[0] if c[1] != (False, ()) else f"asarray({c[0]})"  # as backward does
                src = _reduce(src, c[1], self.types[o], self.types[dest], row.elementwise)
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
            unpack = [names + "= " + src for names, src in (
                ("".join(f"l{i}, " for i in self.kept_leaves), "L"),
                ("".join(f"s{s}, " for s in self.kept), "K")) if names]
            lines = self._vjp_body(active)
            fn = self.vjps[need] = _define(self.ns, "vjp", f"g{self.out}, L, K, B", unpack + lines)
        return fn


class Fused:
    """The ``aux`` of a ``fused`` tape record: its kernel, the leaf arrays
    and internal values its reverse sweep reads, and the batch size."""

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
        out = quietly(k.taped, *leaves, self.batch, False)[0]
        return Value.trusted(out, k.out_kind, k.out_batched)


def vjp_fused(g, args, out, aux, need):
    return aux.kernel.vjp(need)(g, aux.leaves, aux.kept, aux.batch)  # backward runs it quietly
