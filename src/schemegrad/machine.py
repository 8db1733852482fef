"""Slot-machine evaluation of compiled programs.

One executor runs every program, straight-line or with loops and function
calls.  It keeps the running block's instructions, program counter and
slots in locals; entering a loop body or a function suspends the caller on
an explicit frame stack, so loop iteration count and recursion depth never
grow the Python stack.  A ``recur`` tail, a loop's or a function's call to
itself in tail position, restarts the running body in place and takes no
depth.  ``eval_program`` and ``run_on_tape`` share the executor; with a
tape it also records every value for reverse-mode differentiation.  Every
op, a value-position ``if`` included, is a ``prim`` instruction of its row,
applied through ``apply_primitive`` to Values around 0-d or larger arrays.

Generated kernels (see ``kernels``).  An untaped run of a scalar-closed
program (every prim in every block has a scalar kernel, noted at emission)
whose inputs and parameters are all unbatched scalars is a raw-slot run.
It goes through the raw kernel of the program's source text, one generated
Python function with the program's loops, branches and calls, made on the
text's first such run: it takes each leaf's float, calls the rows' scalar
kernels on bare ``numpy.float64`` values and returns the output's float,
or None when a call goes past the depth limit or Python's stack limit.
The executor redoes an abandoned run, and runs a program whose raw kernel
Python cannot compile.

Every other run is an array run.  An array run of a straight-line program
(one block, no loop, call, branch or eager row) can go through Python
source generated for that program and that signature of its leaves:
``eval_program`` calls the generated forward, and ``run_on_tape`` appends
the run's leaves and one ``fused`` record whose VJP is generated too.  The
first run of a source text's run kind and signature in the process takes
the executor and is noted; from the second on, every program compiled
from that text takes the kernel.  Under the error policy a kernel run, raw
or array, tests only its output; a non-finite one is redone by the
executor, which raises.  Values, gradients and errors are bitwise the
executor's.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from . import kernels
from .autodiff import TapeRef
from .errors import DepthLimitExceeded, EvalError, MissingInput, SingularMatrix
# The kernels are called through these module globals, which the traced
# benchmark run (perfbench/spans.py) rebinds; pow_immediate and select are
# bound here for it.
from .runtime import (ERROR_POLICY, PROPAGATE_POLICY, SafeDomainPolicy,  # noqa: F401
                      Violations, all_finite, apply_primitive, pow_immediate, quiet, restore,
                      select)
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


def _run(prog, inputs, params, policy, tape, store):
    """Execute ``prog``; returns (output Value, its tape id or None).

    Ops run under the propagate policy, except that eager rows (det, inv)
    get ``policy`` and so raise at once, naming their instruction.  In
    error mode the run applies the rule of ``runtime.Violations``.  The run
    ignores numpy's floating-point errors (``runtime.quiet``).
    """
    violations = Violations() if policy.raises else None
    taping = tape is not None
    slots = [None] * prog.slot_count
    ids = [None] * prog.slot_count if taping else None
    block = prog.block
    instrs, tail, pc, n = block.instrs, block.tail, 0, len(block.instrs)
    body = None      # BodyIR of the running loop or function; None at top level
    frames = []      # suspended callers: (slots, ids, instrs, tail, pc, body, dest, called)
    depth = 0
    saved = quiet()
    try:
        while True:
            while pc < n:
                ins = instrs[pc]
                pc += 1
                kind = ins[0]
                if kind == "prim":
                    _, dest, op, operands, aux, row = ins
                    if len(operands) == 2:  # the common arity, without a comprehension
                        args = [slots[operands[0]], slots[operands[1]]]
                    else:
                        args = [slots[i] for i in operands]
                    out = apply_primitive(op, args, policy if row.eager else PROPAGATE_POLICY, aux)
                    if violations is not None and row.partial:
                        violations.check(op, dest, out.data)
                    slots[dest] = out
                    if taping:
                        ids[dest] = tape.record(op, tuple([ids[i] for i in operands]), out, aux)
                elif kind == "const":
                    slots[ins[1]] = ins[3]
                    if taping:
                        ids[ins[1]] = tape.leaf(ins[3])
                elif kind == "input" or kind == "param":
                    dest, name = ins[1], ins[2]
                    if kind == "param":
                        v = _param_value(params, name)
                    else:
                        v = inputs[name]  # present: _check_inputs raised for an absent input
                        v = v.value if type(v) is TapeRef else Value.of(v)
                    slots[dest] = v
                    if taping:
                        if kind == "param":
                            ids[dest] = tape.param_leaf(
                                store if store is not None else params, name, v)
                        elif type(inputs[name]) is TapeRef:
                            ids[dest] = inputs[name].tape_id
                        else:
                            ids[dest] = tape.input_leaf(name, v)
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
                if cond.kind != "scalar" or cond.batched:
                    raise EvalError("recur cannot be guarded by a batched or non-scalar condition")
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
    finally:
        restore(saved)

    if violations is not None:
        violations.finalize(value.data, prog.output_slot)
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
        return v.data[()]
    if isinstance(v, (float, int)) or np.ndim(v) == 0:  # numpy.ndim would build an array
        return F64(v)
    return None


def _check_inputs(prog, inputs, params):
    """Raise MissingInput for an absent input.  When the program is
    scalar-closed and every input and parameter it reads is an unbatched
    scalar, which makes an untaped run a raw-slot one, return their floats
    by name; else None.  The test stops at the first leaf that is not, so a
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


def _kernel(prog, inputs, params, taped: bool):
    """(kernel, leaf Values, leaf arrays, batch size) for an array run that
    goes through the generated kernel of the program's text, else None (see
    ``kernels``): raw-slot runs, the first run of a text's kind and
    signature, everything a kernel does not cover, and a missing input or
    parameter, whose error the executor raises.  The leaves are the
    program's inputs and parameters in instruction order; their signature
    keys the kernel."""
    cache = prog.kernels
    if cache is None:
        cache = prog.kernels = kernels.Cache(prog)
    leaves = cache.leaves
    if leaves is None:
        return None
    values, arrays, sig, batch = [], [], [], None
    value_of = getattr(params, "value_of", None)
    try:
        for is_param, name in leaves:
            if not is_param:
                v = inputs[name]
                if type(v) is not Value:
                    v = v.value if type(v) is TapeRef else Value.of(v)
            else:
                v = value_of(name) if value_of is not None else _param_value(params, name)
            d = v.data
            if v.batched:
                if batch is None:
                    batch = d.shape[0]
                elif d.shape[0] != batch:  # the executor raises ShapeMismatch
                    return None
                sig.append((True, d.shape[1:]))
            else:
                sig.append((False, d.shape))
            values.append(v)
            arrays.append(d)
    except (KeyError, MissingInput):
        return None
    if not taped and batch is None and prog.scalar_closed and not any(s[1] for s in sig):
        return None  # a raw-slot run
    k = cache.get(prog, tuple(sig), taped)
    return None if k is None else (k, values, arrays, batch)


def eval_program(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY) -> Value:
    """Evaluate a compiled program on concrete values.  A raw-slot run's
    result and a constant are read-only 0-d arrays; an array run returns its
    output slot's Value, writable for ``(+ (dot v v) 1)``.  A raw-slot run
    goes through its text's raw kernel, and an array run of a straight-line
    program through its text's kernel for that signature from the second
    such run in the process on; under the error policy a non-finite output
    is redone through the executor, which raises."""
    if prog.kernels is None:  # no array run yet: a raw-slot run, or the first array run
        leaves = _check_inputs(prog, inputs, params)
        if leaves is not None:
            return _eval_raw(prog, inputs, params, policy, leaves)
    run = _kernel(prog, inputs, params, False)
    if run is not None:
        k, _, arrays, batch = run
        out = kernels.quietly(k.forward, *arrays, batch)
        if not policy.raises or all_finite(out):
            return Value.trusted(out, k.out_kind, k.out_batched)
    leaves = _check_inputs(prog, inputs, params)
    if leaves is not None:
        return _eval_raw(prog, inputs, params, policy, leaves)
    return _run(prog, inputs, params, policy, None, None)[0]


def _eval_raw(prog, inputs, params, policy, leaves) -> Value:
    """A raw-slot run: through the raw kernel of the program's text, or the
    executor, which also redoes an abandoned run and, under the error
    policy, a non-finite output."""
    raw = kernels.raw_kernel(prog)
    if raw is not None:
        out = raw(leaves)  # None when abandoned
        if out is not None and (not policy.raises or isfinite(out)):
            return frozen_scalar(out)
    return frozen_scalar(_run(prog, inputs, params, policy, None, None)[0].data)


def run_on_tape(prog, inputs, params, tape, policy: SafeDomainPolicy = ERROR_POLICY,
                store=None):
    """Evaluate while appending records to an existing tape.  Inputs may be
    Values or tape references; returns (value, tape node id).  A run through
    a generated kernel appends its input and parameter leaves and one
    ``fused`` record (see ``kernels``); any other run takes the executor."""
    run = _kernel(prog, inputs, params, True)
    if run is not None:
        k, values, arrays, batch = run
        out, kept = kernels.quietly(k.taped, *arrays, batch)
        if not policy.raises or all_finite(out):
            ids = []
            for (is_param, name), v in zip(prog.kernels.leaves, values):
                if is_param:
                    ids.append(tape.param_leaf(store if store is not None else params, name, v))
                elif type(inputs[name]) is TapeRef:
                    ids.append(inputs[name].tape_id)
                else:
                    ids.append(tape.input_leaf(name, v))
            value = Value.trusted(out, k.out_kind, k.out_batched)
            aux = kernels.Fused(k, [arrays[i] for i in k.kept_leaves], kept, batch)
            return value, tape.record(kernels.FUSED, tuple([ids[i] for i in k.use_leaf]),
                                      value, aux)
    _check_inputs(prog, inputs, params)  # raises MissingInput for an absent input
    return _run(prog, inputs, params, policy, tape, store)


def eval_with_tape(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY):
    """Evaluate and return (value, tape) ready for a backward pass."""
    from .autodiff import Tape

    tape = Tape()
    out, out_id = run_on_tape(prog, inputs, params, tape, policy)
    tape.output_id = out_id
    return out, tape
