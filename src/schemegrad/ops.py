"""The op table: one ``Op`` row per primitive.

A row holds everything the package knows about an op: its name, category
and arity, which the parser checks; its forward kernel and its VJP, both
in ``runtime``; for the 24 scalar ops, its scalar kernel (``scalar``, also
in ``runtime``), the op on ``numpy.float64`` operands, which the machine
calls in a raw-slot run and a two-operand fold calls on two numpy
scalars; and three flags.  ``elementwise`` tells ``backward`` to undo
broadcasting on the VJP's gradients, ``partial`` puts the op under the
error policy's safe-domain rule (``runtime.Violations``), and ``eager``
passes the error policy to the kernel, so the op raises at once (det and
inv, on a singular matrix).

Four categories of language names: scalar arithmetic (24), vector (9),
matrix (11) and control flow (7).  Control forms are parsed structurally,
not as prim applications, so their rows have no kernels; they are here so
their names are reserved and the category counts are checkable.

``REGISTRY`` maps the 51 language names to their rows; the parser reads
it.  ``OPS`` (``runtime.OPS``) maps the name of every row with kernels to
its row; ``apply_primitive``, the machine, ``Tape.replay`` and
``backward`` read it.  ``register`` adds a tape-only row, such as the
dense-layer records in ``nn``, to ``OPS`` alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import runtime as rt


@dataclass(frozen=True, slots=True)
class Op:
    name: str
    category: str  # scalar | vector | matrix | control | nn
    min_arity: int
    max_arity: int | None  # None = unbounded
    forward: Callable | None = None  # (args, policy) -> Value; None for control forms
    vjp: Callable | None = None  # (g, args, out, aux, need) -> raw gradient per argument
    scalar: Callable | None = None  # on numpy.float64 operands, two at a time if n-ary
    elementwise: bool = False  # gradients are output-shaped; backward undoes broadcasting
    partial: bool = False  # partial domain
    eager: bool = False  # raises at once under the error policy


_ROWS = (
    Op("+", "scalar", 1, None, rt.op_add, rt.vjp_add, rt.scalar_add, elementwise=True),
    Op("-", "scalar", 1, None, rt.op_sub, rt.vjp_sub, rt.scalar_sub, elementwise=True),
    Op("*", "scalar", 1, None, rt.op_mul, rt.vjp_mul, rt.scalar_mul, elementwise=True),
    Op("/", "scalar", 2, None, rt.op_div, rt.vjp_div, rt.scalar_div,
       elementwise=True, partial=True),
    Op("pow", "scalar", 2, 2, rt.op_pow, rt.vjp_pow, rt.scalar_pow,
       elementwise=True, partial=True),
    Op("modulo", "scalar", 2, 2, rt.op_modulo, rt.vjp_modulo, rt.scalar_modulo,
       elementwise=True, partial=True),
    Op("remainder", "scalar", 2, 2, rt.op_remainder, rt.vjp_remainder, rt.scalar_remainder,
       elementwise=True, partial=True),
    Op("abs", "scalar", 1, 1, rt.op_abs, rt.vjp_abs, rt.scalar_abs, elementwise=True),
    Op("min", "scalar", 1, None, rt.op_min, rt.vjp_minmax, rt.scalar_min, elementwise=True),
    Op("max", "scalar", 1, None, rt.op_max, rt.vjp_minmax, rt.scalar_max, elementwise=True),
    Op("sin", "scalar", 1, 1, rt.op_sin, rt.vjp_sin, rt.scalar_sin, elementwise=True),
    Op("cos", "scalar", 1, 1, rt.op_cos, rt.vjp_cos, rt.scalar_cos, elementwise=True),
    Op("exp", "scalar", 1, 1, rt.op_exp, rt.vjp_exp, rt.scalar_exp, elementwise=True),
    Op("sqrt", "scalar", 1, 1, rt.op_sqrt, rt.vjp_sqrt, rt.scalar_sqrt,
       elementwise=True, partial=True),
    Op("log", "scalar", 1, 1, rt.op_log, rt.vjp_log, rt.scalar_log,
       elementwise=True, partial=True),
    Op("=", "scalar", 2, 2, rt.op_eq, rt.vjp_none, rt.scalar_eq),
    Op("<", "scalar", 2, 2, rt.op_lt, rt.vjp_none, rt.scalar_lt),
    Op(">", "scalar", 2, 2, rt.op_gt, rt.vjp_none, rt.scalar_gt),
    Op("<=", "scalar", 2, 2, rt.op_le, rt.vjp_none, rt.scalar_le),
    Op(">=", "scalar", 2, 2, rt.op_ge, rt.vjp_none, rt.scalar_ge),
    Op("and", "scalar", 1, None, rt.op_and, rt.vjp_none, rt.scalar_and),
    Op("or", "scalar", 1, None, rt.op_or, rt.vjp_none, rt.scalar_or),
    Op("not", "scalar", 1, 1, rt.op_not, rt.vjp_none, rt.scalar_not),
    Op("if", "scalar", 3, 3, rt.op_if, rt.vjp_if, rt.scalar_if, elementwise=True),

    Op("vec", "vector", 1, None, rt.op_vec, rt.vjp_vec),
    Op("ref", "vector", 2, 2, rt.op_ref, rt.vjp_ref),
    Op("dot", "vector", 2, 2, rt.op_dot, rt.vjp_dot),
    Op("cross", "vector", 2, 2, rt.op_cross, rt.vjp_cross),
    Op("norm", "vector", 1, 1, rt.op_norm, rt.vjp_norm),
    Op("normalize", "vector", 1, 1, rt.op_normalize, rt.vjp_normalize, partial=True),
    Op("vsum", "vector", 1, None, rt.op_vsum, rt.vjp_vsum),
    Op("vlen", "vector", 1, 1, rt.op_vlen, rt.vjp_none),
    Op("scale", "vector", 2, 2, rt.op_scale, rt.vjp_scale),

    Op("mat", "matrix", 1, None, rt.op_mat, rt.vjp_mat),
    Op("matmul", "matrix", 2, 2, rt.op_matmul, rt.vjp_matmul),
    Op("matvec", "matrix", 2, 2, rt.op_matvec, rt.vjp_matvec),
    Op("transpose", "matrix", 1, 1, rt.op_transpose, rt.vjp_transpose),
    Op("trace", "matrix", 1, 1, rt.op_trace, rt.vjp_trace),
    Op("det", "matrix", 1, 1, rt.op_det, rt.vjp_det, partial=True, eager=True),
    Op("inv", "matrix", 1, 1, rt.op_inv, rt.vjp_inv, partial=True, eager=True),
    Op("outer", "matrix", 2, 2, rt.op_outer, rt.vjp_outer),
    Op("eye", "matrix", 1, 1, rt.op_eye, rt.vjp_none),
    Op("zeros", "matrix", 1, 2, rt.op_zeros, rt.vjp_none),
    Op("ones", "matrix", 1, 2, rt.op_ones, rt.vjp_none),

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

REGISTRY: dict[str, Op] = {op.name: op for op in _ROWS}

assert len(REGISTRY) == 51

OPS = rt.OPS
OPS.update((op.name, op) for op in _ROWS if op.forward is not None)


def register(op: Op) -> None:
    """Add a tape-only row: a record that ``TapeContext`` code writes to a
    tape and that is no language name.  Its VJP must return None for every
    argument whose ``need`` entry is false; ``backward`` calls it only when
    at least one entry is true."""
    OPS[op.name] = op


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
