"""Slot-machine evaluation of compiled programs.

One executor runs every program, straight-line or with loops and function
calls.  It keeps the running block's instructions, program counter and
slots in locals; entering a loop body or a function suspends the caller on
an explicit frame stack, so loop iteration count and recursion depth never
grow the Python stack.  ``eval_program`` and ``run_on_tape`` share it; with
a tape it also records every value for reverse-mode differentiation.

A run whose inputs are all unbatched scalars holds its unbatched scalars
as ``numpy.float64`` (``values.numpy_scalar``): input and parameter leaves
are converted as they are fetched, and constants come in that form from
emission.  The runtime's elementwise kernels then compute on numpy scalars
directly.  Every other run takes its constants, inputs and parameters as
0-d arrays, because a ufunc given a numpy scalar next to an array converts
the scalar on every call.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import TapeRef
from .errors import DepthLimitExceeded, DomainViolation, EvalError, MissingInput, SingularMatrix
from .ops import OPS
from .runtime import (
    ERROR_POLICY,
    PROPAGATE_POLICY,
    SafeDomainPolicy,
    apply_primitive,
    pow_immediate,
    select,
)
from .values import F64, Value, frozen_scalar, numpy_scalar


def _param_value(params, name: str) -> Value:
    if params is None:
        raise MissingInput(f"missing parameter {name!r}")
    getter = getattr(params, "value_of", None)
    if getter is not None:
        return getter(name)
    try:
        return Value.of(params[name])
    except KeyError:
        raise MissingInput(f"missing parameter {name!r}") from None


def _all_finite(data: np.ndarray) -> bool:
    return math.isfinite(data) if data.ndim == 0 else bool(np.isfinite(data).all())


class _Violations:
    """Collects deferred domain violations (error mode only).  A violation
    is reported only if the program output ends up non-finite, so values
    discarded by a select never abort evaluation."""

    __slots__ = ("first",)

    def __init__(self):
        self.first = None

    def check(self, op: str, dest: int, value: Value) -> None:
        if self.first is None and not _all_finite(value.data):
            bad = np.nonzero(~np.isfinite(value.data).ravel())[0]
            where = int(bad[0]) if bad.size else None
            self.first = (op, dest, where)

    def finalize(self, out: Value, output_slot: int) -> None:
        if _all_finite(out.data):
            return
        if self.first is not None:
            op, dest, where = self.first
            raise DomainViolation(op, where=where, instruction=dest)
        raise DomainViolation("non-finite output", instruction=output_slot)


def _fetch_input(inputs, name, tape):
    try:
        v = inputs[name]
    except KeyError:
        raise MissingInput(f"missing input {name!r}") from None
    if tape is not None and hasattr(v, "tape_id"):
        return v.value, v.tape_id
    return Value.of(v), None


def _run(prog, inputs, params, policy, tape, store, scalar):
    """Execute ``prog``; returns (output value, its tape id or None).

    ``scalar`` marks an all-scalar run (see the module docstring).

    Ops run under the propagate policy, except that eager rows (det, inv)
    get ``policy`` and so raise at once, naming their instruction.  In
    error mode the non-finite results of partial rows are noted and
    reported only if the output is non-finite.
    """
    violations = _Violations() if policy.raises else None
    taping = tape is not None
    const_at = 4 if scalar else 3  # a const's numpy-scalar or 0-d array Value
    slots = [None] * prog.slot_count
    ids = [None] * prog.slot_count if taping else None
    block = prog.block
    instrs, tail, pc, n = block.instrs, block.tail, 0, len(block.instrs)
    body = None      # LoopBodyIR or FnIR of the running frame; None at top level
    frames = []      # suspended callers: (slots, ids, instrs, tail, pc, body, dest, called)
    depth = 0
    try:
        while True:
            while pc < n:
                ins = instrs[pc]
                pc += 1
                kind = ins[0]
                if kind == "prim":
                    _, dest, op, operands, aux = ins
                    row = OPS[op]
                    if aux is not None:  # pow with a constant exponent
                        out = pow_immediate(slots[operands[0]], aux, PROPAGATE_POLICY)
                    else:
                        if len(operands) == 2:  # the common arity, without a comprehension
                            args = [slots[operands[0]], slots[operands[1]]]
                        else:
                            args = [slots[i] for i in operands]
                        out = apply_primitive(
                            op, args, policy if row.eager else PROPAGATE_POLICY)
                    if violations is not None and row.partial:
                        violations.check(op, dest, out)
                    slots[dest] = out
                    if taping:
                        ids[dest] = tape.record(op, tuple([ids[i] for i in operands]), out, aux)
                elif kind == "const":
                    v = slots[ins[1]] = ins[const_at]
                    if taping:
                        ids[ins[1]] = tape.leaf(v)
                elif kind == "input":
                    v, ref = _fetch_input(inputs, ins[2], tape)
                    if scalar:
                        v = numpy_scalar(v)
                    slots[ins[1]] = v
                    if taping:
                        ids[ins[1]] = ref if ref is not None else tape.input_leaf(ins[2], v)
                elif kind == "param":
                    v = _param_value(params, ins[2])
                    if scalar:
                        v = numpy_scalar(v)
                    slots[ins[1]] = v
                    if taping:
                        ids[ins[1]] = tape.param_leaf(store if store is not None else params,
                                                      ins[2], v)
                elif kind == "select":
                    _, dest, c, t, e = ins
                    out = slots[dest] = select(slots[c], slots[t], slots[e])
                    if taping:
                        ids[dest] = tape.record("if", (ids[c], ids[t], ids[e]), out, None)
                else:  # loop or call: suspend this frame and enter the body
                    _, dest, ir, outer, caps = ins
                    if kind == "call":
                        if depth >= prog.max_recursion_depth:
                            raise DepthLimitExceeded(ir.user_name, prog.max_recursion_depth)
                        depth += 1
                        inner = ir.param_slots
                    else:
                        inner = ir.var_slots
                    frames.append((slots, ids, instrs, tail, pc, body, dest, kind == "call"))
                    # Iterated, not kept: tuple(zip(...)) per call fills CPython's
                    # tuple free list, which tracemalloc counts as live memory.
                    caller, slots = slots, [None] * ir.slot_count
                    for s, o in zip(inner + ir.capture_slots, outer + caps):
                        slots[s] = caller[o]
                    if taping:
                        caller, ids = ids, [None] * ir.slot_count
                        for s, o in zip(inner + ir.capture_slots, outer + caps):
                            ids[s] = caller[o]
                    body = ir
                    instrs, tail, pc, n = ir.block.instrs, ir.block.tail, 0, len(ir.block.instrs)

            # Instructions exhausted: resolve the tail.
            if tail[0] == "branch":
                cond = slots[tail[1]]
                if cond.kind != "scalar" or cond.batched:
                    raise EvalError(
                        "recur cannot be guarded by a batched or non-scalar condition"
                    )
                chosen = tail[2] if float(cond.data) != 0.0 else tail[3]
            elif tail[0] == "recur":
                new_vals = [slots[s] for s in tail[1]]
                for s, v in zip(body.var_slots, new_vals):
                    slots[s] = v
                if taping:
                    new_ids = [ids[s] for s in tail[1]]
                    for s, i in zip(body.var_slots, new_ids):
                        ids[s] = i
                chosen = body.block
            else:  # exit
                value = slots[tail[1]]
                value_id = ids[tail[1]] if taping else None
                if not frames:
                    break
                slots, ids, instrs, tail, pc, body, dest, called = frames.pop()
                if called:
                    depth -= 1
                n = len(instrs)
                slots[dest] = value
                if taping:
                    ids[dest] = value_id
                continue
            instrs, tail, pc, n = chosen.instrs, chosen.tail, 0, len(chosen.instrs)
    except SingularMatrix as err:
        raise SingularMatrix(err.op, where=err.where, instruction=ins[1]) from None

    if violations is not None:
        violations.finalize(value, prog.output_slot)
    return value, value_id


# ---------------------------------------------------------------------------
# public entry points


def _unbatched_scalar(v) -> bool:
    """Whether an input other than a Value or a TapeRef (a number or an
    array) is an unbatched scalar."""
    if isinstance(v, (float, int)):  # numpy.ndim would build an array
        return True
    if isinstance(v, Value):
        return not v.batched and v.kind == "scalar"
    return np.ndim(v) == 0


def _check_inputs(prog, inputs) -> bool:
    """Raise MissingInput for an absent input; return whether every input
    is an unbatched scalar, which makes the run an all-scalar one.  The
    test stops at the first input that is not, so a batched run whose
    first input is batched pays it once."""
    scalar = True
    for name in prog.input_slots:
        try:
            v = inputs[name]
        except KeyError:
            raise MissingInput(f"missing input {name!r}") from None
        if scalar:
            if type(v) is TapeRef:  # a TapeRef holds its Value
                v = v.value
            if type(v) is Value:
                scalar = not v.batched and v.kind == "scalar"
            else:
                scalar = _unbatched_scalar(v)
    return scalar


def eval_program(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY) -> Value:
    """Evaluate a compiled program on concrete values.  An unbatched scalar
    result is returned as a read-only 0-d array, as constants are."""
    scalar = _check_inputs(prog, inputs)
    out = _run(prog, inputs, params, policy, None, None, scalar)[0]
    return frozen_scalar(out.data) if type(out.data) is F64 else out


def run_on_tape(prog, inputs, params, tape, policy: SafeDomainPolicy = ERROR_POLICY,
                store=None):
    """Evaluate while appending records to an existing tape.  Inputs may be
    Values or tape references; returns (value, tape node id)."""
    scalar = _check_inputs(prog, inputs)
    return _run(prog, inputs, params, policy, tape, store, scalar)


def eval_with_tape(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY):
    """Evaluate and return (value, tape) ready for a backward pass."""
    from .autodiff import Tape

    tape = Tape()
    out, out_id = run_on_tape(prog, inputs, params, tape, policy)
    tape.output_id = out_id
    return out, tape
