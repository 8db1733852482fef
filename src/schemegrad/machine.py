"""Slot-machine evaluation of compiled programs.

One executor runs every program, straight-line or with loops and function
calls.  It keeps the running block's instructions, program counter and
slots in locals; entering a loop body or a function suspends the caller on
an explicit frame stack, so loop iteration count and recursion depth never
grow the Python stack.  A ``recur`` tail, a loop's or a function's call to
itself in tail position, restarts the running body in place and takes no
depth.  ``eval_program`` and ``run_on_tape`` share the executor; with a
tape it also records every value for reverse-mode differentiation.

Run kinds.  A run of a scalar-closed program (every prim in every block
has a scalar kernel, noted at emission) whose inputs and parameters are
all unbatched scalars is a raw-slot run: it fetches each leaf's float
once, its slots hold bare ``numpy.float64`` values, a prim calls its row's
``scalar`` kernel, and a ``Value`` is built only where one leaves the run:
the output, and the records of a tape.  Every other run takes its
constants, inputs and parameters as 0-d arrays, because a ufunc given a
numpy scalar next to an array converts the scalar on every call.  The
values, tapes and errors of the two are bitwise the same.
"""

from __future__ import annotations

import numpy as np

from .autodiff import TapeRef
from .errors import DepthLimitExceeded, EvalError, MissingInput, SingularMatrix
from .runtime import (
    ERROR_POLICY,
    PROPAGATE_POLICY,
    SafeDomainPolicy,
    Violations,
    apply_primitive,
    pow_immediate,
    scalar_if,
    select,
)
from .values import F64, Value, frozen_scalar


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


def _run(prog, inputs, params, policy, tape, store, leaves):
    """Execute ``prog``; returns (output, its tape id or None).  The output
    is a Value, or a ``numpy.float64`` from a raw-slot run.

    ``leaves`` holds the floats of a raw-slot run by name (see the module
    docstring), None in any other run.

    Ops run under the propagate policy, except that eager rows (det, inv)
    get ``policy`` and so raise at once, naming their instruction.  In
    error mode the run applies the rule of ``runtime.Violations``.
    """
    violations = Violations() if policy.raises else None
    taping = tape is not None
    raw = leaves is not None
    const_at = 4 if raw else 3  # a const's bare float64 or 0-d array Value
    slots = [None] * prog.slot_count
    ids = [None] * prog.slot_count if taping else None
    block = prog.block
    instrs, tail, pc, n = block.instrs, block.tail, 0, len(block.instrs)
    body = None      # BodyIR of the running loop or function; None at top level
    frames = []      # suspended callers: (slots, ids, instrs, tail, pc, body, dest, called)
    depth = 0
    try:
        while True:
            while pc < n:
                ins = instrs[pc]
                pc += 1
                kind = ins[0]
                if kind == "prim":
                    _, dest, op, operands, aux, row = ins
                    if raw:
                        fn = row.scalar
                        if len(operands) == 2:
                            out = fn(slots[operands[0]], slots[operands[1]])
                        elif aux is not None:  # pow with a constant exponent
                            out = fn(slots[operands[0]], aux)
                        elif len(operands) == 1:
                            out = fn(slots[operands[0]])
                        else:  # n-ary: fold left
                            out = slots[operands[0]]
                            for i in operands[1:]:
                                out = fn(out, slots[i])
                    elif aux is not None:
                        out = pow_immediate(slots[operands[0]], aux, PROPAGATE_POLICY)
                    else:
                        if len(operands) == 2:  # the common arity, without a comprehension
                            args = [slots[operands[0]], slots[operands[1]]]
                        else:
                            args = [slots[i] for i in operands]
                        out = apply_primitive(
                            op, args, policy if row.eager else PROPAGATE_POLICY)
                    if violations is not None and row.partial:
                        violations.check(op, dest, out if raw else out.data)
                    slots[dest] = out
                    if taping:
                        ids[dest] = tape.record(
                            op, tuple([ids[i] for i in operands]),
                            Value.trusted(out, "scalar", False) if raw else out, aux)
                elif kind == "const":
                    slots[ins[1]] = ins[const_at]
                    if taping:
                        ids[ins[1]] = tape.leaf(ins[3])
                elif kind == "input" or kind == "param":
                    dest, name = ins[1], ins[2]
                    if raw:
                        v = leaves[name]
                    elif kind == "param":
                        v = _param_value(params, name)
                    else:
                        v = inputs[name]  # present: _check_inputs raised for an absent input
                        v = v.value if type(v) is TapeRef else Value.of(v)
                    slots[dest] = v
                    if taping:
                        if raw:
                            v = Value.trusted(v, "scalar", False)
                        if kind == "param":
                            ids[dest] = tape.param_leaf(
                                store if store is not None else params, name, v)
                        elif type(inputs[name]) is TapeRef:
                            ids[dest] = inputs[name].tape_id
                        else:
                            ids[dest] = tape.input_leaf(name, v)
                elif kind == "select":
                    _, dest, c, t, e = ins
                    if raw:
                        out = scalar_if(slots[c], slots[t], slots[e])
                    else:
                        out = select(slots[c], slots[t], slots[e])
                    slots[dest] = out
                    if taping:
                        ids[dest] = tape.record(
                            "if", (ids[c], ids[t], ids[e]),
                            Value.trusted(out, "scalar", False) if raw else out, None)
                else:  # loop or call: suspend this frame and enter the body
                    _, dest, ir, outer, caps = ins
                    called = kind == "call"
                    if called:
                        if depth >= prog.max_recursion_depth:
                            raise DepthLimitExceeded(ir.user_name, prog.max_recursion_depth)
                        depth += 1
                    frames.append((slots, ids, instrs, tail, pc, body, dest, called))
                    # Iterated, not kept: tuple(zip(...)) per call fills CPython's
                    # tuple free list, which tracemalloc counts as live memory.
                    caller, slots = slots, [None] * ir.slot_count
                    for s, o in zip(ir.var_slots + ir.capture_slots, outer + caps):
                        slots[s] = caller[o]
                    if taping:
                        caller, ids = ids, [None] * ir.slot_count
                        for s, o in zip(ir.var_slots + ir.capture_slots, outer + caps):
                            ids[s] = caller[o]
                    body = ir
                    instrs, tail, pc, n = ir.block.instrs, ir.block.tail, 0, len(ir.block.instrs)

            # Instructions exhausted: resolve the tail.
            if tail[0] == "branch":
                cond = slots[tail[1]]
                if not raw:
                    if cond.kind != "scalar" or cond.batched:
                        raise EvalError(
                            "recur cannot be guarded by a batched or non-scalar condition"
                        )
                    cond = float(cond.data)
                chosen = tail[2] if cond != 0.0 else tail[3]
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
        violations.finalize(value if raw else value.data, prog.output_slot)
    return value, value_id


# ---------------------------------------------------------------------------
# public entry points


def _scalar_float(v):
    """The ``numpy.float64`` of an input or parameter that is an unbatched
    scalar (a Value, a TapeRef's Value, a number or a 0-d array), else None."""
    if type(v) is TapeRef:
        v = v.value
    if type(v) is Value:
        if v.batched or v.kind != "scalar":
            return None
        return v.data if type(v.data) is F64 else v.data[()]
    if isinstance(v, (float, int)) or np.ndim(v) == 0:  # numpy.ndim would build an array
        return F64(v)
    return None


def _check_inputs(prog, inputs, params):
    """Raise MissingInput for an absent input.  When the program is
    scalar-closed and every input and parameter it reads is an unbatched
    scalar, which makes the run a raw-slot one, return their floats by
    name; else None.  The test stops at the first leaf that is not, so a
    batched run whose first input is batched pays it once."""
    leaves = {} if prog.scalar_closed else None
    for name in prog.input_slots:
        try:
            v = inputs[name]
        except KeyError:
            raise MissingInput(f"missing input {name!r}") from None
        if leaves is not None:
            x = leaves[name] = _scalar_float(v)
            if x is None:
                leaves = None
    if leaves is not None:
        for name in prog.param_slots:
            try:
                x = leaves[name] = _scalar_float(_param_value(params, name))
            except MissingInput:  # raised where the run reads it, as in other runs
                return None
            if x is None:
                return None
    return leaves


def eval_program(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY) -> Value:
    """Evaluate a compiled program on concrete values.  An unbatched scalar
    result is returned as a read-only 0-d array, as constants are."""
    out = _run(prog, inputs, params, policy, None, None, _check_inputs(prog, inputs, params))[0]
    if type(out) is F64:  # a raw-slot run's output
        return frozen_scalar(out)
    return frozen_scalar(out.data) if type(out.data) is F64 else out


def run_on_tape(prog, inputs, params, tape, policy: SafeDomainPolicy = ERROR_POLICY,
                store=None):
    """Evaluate while appending records to an existing tape.  Inputs may be
    Values or tape references; returns (value, tape node id)."""
    out, out_id = _run(prog, inputs, params, policy, tape, store,
                       _check_inputs(prog, inputs, params))
    return (Value.trusted(out, "scalar", False) if type(out) is F64 else out), out_id


def eval_with_tape(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY):
    """Evaluate and return (value, tape) ready for a backward pass."""
    from .autodiff import Tape

    tape = Tape()
    out, out_id = run_on_tape(prog, inputs, params, tape, policy)
    tape.output_id = out_id
    return out, tape
