"""The op table: one ``Op`` row per primitive.

A row holds everything the package knows about an op: its name, category
and arity, which the parser checks; its two emit forms (``emit``,
``emit_vjp``, in ``kernels``), the source of its forward and of its VJP;
for the 24 scalar ops, its scalar kernel (``scalar``, in ``runtime``), the
op on ``numpy.float64`` operands, which a program's raw kernel calls; its
forward and VJP columns; and three flags.  ``elementwise`` tells
``backward`` to undo broadcasting on the VJP's gradients, ``partial`` puts
the op under the error policy's safe-domain rule (``runtime.Violations``),
and ``eager`` has the executor pass the error policy to the op, whose
generated code then raises at once (det and inv, on a singular matrix).

The emit forms are the one array definition of every row but ``fused``.
Their forward and VJP columns are filled in by the row itself, with
callers of the one-op functions generated from the forms
(``kernels.forward_of``, ``kernels.vjp_of``); a caller checks the row's
arity when it first sees its operands' shapes.

Six rows take compile-time constant operands as ``aux``, in place of the
operands: pow a literal exponent, ref a literal index, eye, zeros and ones
their literal sizes, as one tuple, and shooting_mse its weight.  Their
forms, the executor, ``apply_primitive`` and ``TapeContext.prim`` treat it
alike.

Four categories of language names: scalar arithmetic (24), vector (9),
matrix (11) and control flow (7).  Control forms are parsed structurally,
not as prim applications, so their rows have no kernels; they are here so
their names are reserved and the category counts are checkable.

``REGISTRY`` maps the 51 language names to their rows; the parser reads
it.  ``OPS`` (``runtime.OPS``) also holds the rows that are no language
name: a network's layers (linear, relu, tanh; see ``nn``), the losses mse
and shooting_mse, and ``fused``; ``apply_primitive``, the machine,
``Tape.replay`` and ``backward`` read it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import kernels as kn
from . import runtime as rt


@dataclass(frozen=True, slots=True)
class Op:
    name: str
    category: str  # scalar | vector | matrix | control | nn | tape
    min_arity: int
    max_arity: int | None  # None = unbounded
    emit: Callable | None = None  # (ops, types, aux) -> (source, type), in a kernel
    emit_vjp: Callable | None = None  # (g, ops, out, types, out_type, aux, need) -> ...
    scalar: Callable | None = None  # on numpy.float64 operands, two at a time if n-ary
    elementwise: bool = False  # gradients are output-shaped; backward undoes broadcasting
    partial: bool = False  # partial domain
    eager: bool = False  # raises at once under the error policy
    forward: Callable | None = None  # (args, policy) -> Value; None for control forms
    vjp: Callable | None = None  # (g, args, out, aux, need) -> raw gradient per argument

    def __post_init__(self):
        # A row with emit forms gets its forward and VJP generated from them;
        # a copy made by dataclasses.replace keeps the columns it is given.
        if self.emit is not None and self.forward is None:
            object.__setattr__(self, "forward", kn.forward_of(self))
            object.__setattr__(self, "vjp", kn.vjp_of(self))


_ROWS = (
    Op("+", "scalar", 1, None, kn.fold("+", "add"), kn.vjp_add, rt.scalar_add, elementwise=True),
    Op("-", "scalar", 1, None, kn.emit_sub, kn.vjp_sub, rt.scalar_sub, elementwise=True),
    Op("*", "scalar", 1, None, kn.fold("*", "multiply"), kn.vjp_mul, rt.scalar_mul,
       elementwise=True),
    Op("/", "scalar", 2, None, kn.fold("/", "divide"), kn.vjp_div, rt.scalar_div, elementwise=True,
       partial=True),
    Op("pow", "scalar", 2, 2, kn.emit_pow, kn.vjp_pow, rt.scalar_pow, elementwise=True,
       partial=True),
    Op("modulo", "scalar", 2, 2, kn.fold("modulo", "mod"), kn.rounding_vjp("floor"),
       rt.scalar_modulo, elementwise=True, partial=True),
    Op("remainder", "scalar", 2, 2, kn.fold("remainder", "fmod"), kn.rounding_vjp("trunc"),
       rt.scalar_remainder, elementwise=True, partial=True),
    Op("abs", "scalar", 1, 1, kn.unary("abs"), kn.unary_vjp("({g} * sign({x}))"), rt.scalar_abs,
       elementwise=True),
    Op("min", "scalar", 1, None, kn.fold("min", "minimum"), kn.vjp_minmax, rt.scalar_min,
       elementwise=True),
    Op("max", "scalar", 1, None, kn.fold("max", "maximum"), kn.vjp_minmax, rt.scalar_max,
       elementwise=True),
    Op("sin", "scalar", 1, 1, kn.unary("sin"), kn.unary_vjp("({g} * cos({x}))"), rt.scalar_sin,
       elementwise=True),
    Op("cos", "scalar", 1, 1, kn.unary("cos"), kn.unary_vjp("(-{g} * sin({x}))"), rt.scalar_cos,
       elementwise=True),
    Op("exp", "scalar", 1, 1, kn.unary("exp"), kn.unary_vjp("({g} * {out})"), rt.scalar_exp,
       elementwise=True),
    Op("sqrt", "scalar", 1, 1, kn.unary("sqrt"), kn.unary_vjp("(({g} * 0.5) / {out})"),
       rt.scalar_sqrt, elementwise=True, partial=True),
    Op("log", "scalar", 1, 1, kn.unary("log"), kn.unary_vjp("({g} / {x})"), rt.scalar_log,
       elementwise=True, partial=True),
    Op("=", "scalar", 2, 2, kn.compare("=", "equal"), kn.vjp_none, rt.scalar_eq),
    Op("<", "scalar", 2, 2, kn.compare("<", "less"), kn.vjp_none, rt.scalar_lt),
    Op(">", "scalar", 2, 2, kn.compare(">", "greater"), kn.vjp_none, rt.scalar_gt),
    Op("<=", "scalar", 2, 2, kn.compare("<=", "less_equal"), kn.vjp_none, rt.scalar_le),
    Op(">=", "scalar", 2, 2, kn.compare(">=", "greater_equal"), kn.vjp_none, rt.scalar_ge),
    Op("and", "scalar", 1, None, kn.logical("and", "logical_and"), kn.vjp_none, rt.scalar_and),
    Op("or", "scalar", 1, None, kn.logical("or", "logical_or"), kn.vjp_none, rt.scalar_or),
    Op("not", "scalar", 1, 1, kn.emit_not, kn.vjp_none, rt.scalar_not),
    Op("if", "scalar", 3, 3, kn.emit_if, kn.vjp_if, rt.scalar_if, elementwise=True),

    Op("vec", "vector", 1, None, kn.emit_vec, kn.vjp_vec),
    Op("ref", "vector", 2, 2, kn.emit_ref, kn.vjp_ref),
    Op("dot", "vector", 2, 2, kn.emit_dot, kn.vjp_dot),
    Op("cross", "vector", 2, 2, kn.emit_cross, kn.vjp_cross),
    Op("norm", "vector", 1, 1, kn.emit_norm, kn.vjp_norm),
    Op("normalize", "vector", 1, 1, kn.emit_normalize, kn.vjp_normalize, partial=True),
    Op("vsum", "vector", 1, 1, kn.emit_vsum, kn.vjp_vsum),  # the parser desugars n-ary
    Op("vlen", "vector", 1, 1, kn.emit_vlen, kn.vjp_none),
    Op("scale", "vector", 2, 2, kn.emit_scale, kn.vjp_scale),

    Op("mat", "matrix", 1, None, kn.emit_mat, kn.vjp_mat),
    Op("matmul", "matrix", 2, 2, kn.emit_matmul, kn.vjp_matmul),
    Op("matvec", "matrix", 2, 2, kn.emit_matvec, kn.vjp_matvec),
    Op("transpose", "matrix", 1, 1, kn.emit_transpose, kn.vjp_transpose),
    Op("trace", "matrix", 1, 1, kn.emit_trace, kn.vjp_trace),
    Op("det", "matrix", 1, 1, kn.eager("det"), kn.vjp_det, partial=True, eager=True),
    Op("inv", "matrix", 1, 1, kn.eager("inv"), kn.vjp_inv, partial=True, eager=True),
    Op("outer", "matrix", 2, 2, kn.emit_outer, kn.vjp_outer),
    Op("eye", "matrix", 1, 1, kn.sized("eye"), kn.vjp_none),
    Op("zeros", "matrix", 1, 2, kn.sized("zeros"), kn.vjp_none),
    Op("ones", "matrix", 1, 2, kn.sized("ones"), kn.vjp_none),

    # Structural forms.  Arities describe the surface syntax: (let <bindings>
    # <body>), (loop <bindings> <body>), (letrec <bindings> <body>), (call f a...).
    Op("let", "control", 2, 2),
    Op("let*", "control", 2, 2),
    Op("begin", "control", 1, None),
    Op("loop", "control", 2, 2),
    Op("recur", "control", 1, None),
    Op("letrec", "control", 2, 2),
    Op("call", "control", 1, None),
)

# Rows no program text names; shooting_mse's weight (aux) counts as an operand.
_UNNAMED_ROWS = (
    Op("linear", "nn", 3, 3, kn.emit_linear, kn.vjp_linear),
    Op("relu", "nn", 1, 1, kn.emit_relu, kn.unary_vjp("({g} * ({x} > 0.0))")),
    Op("tanh", "nn", 1, 1, kn.unary("tanh"), kn.unary_vjp("({g} * (1.0 - ({out} * {out})))")),
    Op("mse", "nn", 2, 2, kn.emit_mse, kn.vjp_mse),
    Op("shooting_mse", "tape", 2, 2, kn.emit_shooting_mse, kn.vjp_shooting_mse),
)

REGISTRY: dict[str, Op] = {op.name: op for op in _ROWS}

assert len(REGISTRY) == 51

OPS = rt.OPS
OPS.update((op.name, op) for op in _ROWS + _UNNAMED_ROWS if op.forward is not None)
# The one record of a taped run through a generated kernel (see ``kernels``):
# its VJP returns one contribution per argument, already argument-shaped.
OPS[kn.FUSED] = Op(kn.FUSED, "tape", 0, None, vjp=kn.vjp_fused)


# Names that appear as Prim nodes in the AST (everything except the
# structural forms and `if`, which parses to a dedicated node).
PRIM_NAMES = frozenset(
    op.name for op in _ROWS if op.category != "control" and op.name != "if"
)

RESERVED_NAMES = frozenset(REGISTRY)


def category_counts() -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in REGISTRY.values():
        counts[op.category] = counts.get(op.category, 0) + 1
    return counts
