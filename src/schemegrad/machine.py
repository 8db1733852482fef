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

One way into a run.  ``eval_program`` and ``run_on_tape`` first read each
input and parameter once, in the program's leaf order (``_leaves``), and
that pass picks the run's path; each path's kernel is generated (see
``kernels``) on its key's first run in the process, and every program
compiled from the same text takes it from then on:

- An untaped run of a scalar-closed program (every prim in every block has
  a scalar kernel, noted at compilation) whose leaves are all unbatched
  scalars is a raw-slot run: its kernel takes each leaf's float, calls the
  rows' scalar kernels on bare ``numpy.float64`` values and returns the
  output's float.
- Every other untaped run is an array run, through the kernel of its
  program and of that signature of its leaves, branches, loops and calls
  included.
- A taped run of a straight-line program (one block of prims, noted at
  compilation) goes through its kernel, which appends the run's leaves and
  one ``fused`` record whose VJP is generated too.
- The executor takes every other run: a taped run of a program with
  control flow, a program whose kernel Python cannot compile, and a run
  with a missing parameter or differing batch sizes, which it raises where
  it reads them.

A kernel is called one way, through ``kernels.quietly``, which returns
None for a run that abandons (see ``kernels``) or in which det or inv
raises SingularMatrix; under the error policy a kernel run also tests only
its output, and a non-finite one is redone too.  The executor redoes such a
run, and raises naming the instruction, or finishes it.  Values, gradients
and errors are bitwise the executor's.  The executor takes the Values that
the leaf pass read, when it completed.
"""

from __future__ import annotations

from math import isfinite

from . import kernels
from .autodiff import TapeRef, param_value
from .errors import DepthLimitExceeded, EvalError, MissingInput, SingularMatrix
# The kernels are called through these module globals, which the traced
# benchmark run (perfbench/spans.py) rebinds; pow_immediate and select are
# bound here for it.
from .runtime import (ERROR_POLICY, PROPAGATE_POLICY, SafeDomainPolicy,  # noqa: F401
                      Violations, all_finite, apply_primitive, pow_immediate, quiet, restore,
                      select)
from .values import Value, frozen_scalar

_SCALAR = (False, ())  # the signature entry of an unbatched scalar


def _run(prog, inputs, params, policy, tape, store, leaves=None):
    """Execute ``prog``; returns (output Value, its tape id or None).

    ``leaves`` are the Values of the program's leaves that ``_leaves`` read,
    if its pass completed: an ``input`` or ``param`` instruction takes its
    Value from them (an input still reads the feed, for a TapeRef).  Ops
    run under the propagate policy, except that eager rows (det, inv) get
    ``policy`` and so raise at once, naming their instruction.  In error
    mode the run applies the rule of ``runtime.Violations``.  The run
    ignores numpy's floating-point errors (``runtime.quiet``).
    """
    violations = Violations() if policy.raises else None
    taping = tape is not None
    slots = [None] * prog.slot_count
    for ins, v in zip(prog.leaves, leaves or ()):
        slots[ins[1]] = v
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
                elif kind == "param":
                    dest, name = ins[1], ins[2]
                    slots[dest] = v = slots[dest] or param_value(params, name)
                    if taping:
                        ids[dest] = tape.param_leaf(store if store is not None else params,
                                                    name, v)
                elif kind == "input":
                    dest, x = ins[1], inputs[ins[2]]  # present: _leaves raised for an absent one
                    if type(x) is TapeRef:
                        slots[dest] = x.value
                        if taping:
                            ids[dest] = x.tape_id
                    else:
                        slots[dest] = v = slots[dest] or Value.of(x)
                        if taping:
                            ids[dest] = tape.input_leaf(ins[2], v)
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


def _leaves(prog, inputs, params):
    """One read of each input and parameter the program reads, in its leaf
    order: (their Values, their arrays, the run's signature, its batch size
    or None), or None for a run that only the executor takes, one with a
    missing parameter or with differing batch sizes, which it raises where
    it reads them.  An absent input raises MissingInput before anything
    runs."""
    values, arrays, sig, batch = [], [], [], None
    value_of = getattr(params, "value_of", None)
    for kind, _, name in prog.leaves:
        try:
            if kind == "param":
                v = value_of(name) if value_of is not None else param_value(params, name)
            else:
                v = inputs[name]
                if type(v) is not Value:
                    v = v.value if type(v) is TapeRef else Value.of(v)
        except (KeyError, MissingInput):
            break
        d = v.data
        if v.batched:
            if batch is None:
                batch = d.shape[0]
            elif d.shape[0] != batch:
                break
            sig.append((True, d.shape[1:]))
        else:
            sig.append((False, d.shape))
        values.append(v)
        arrays.append(d)
    else:
        return values, arrays, tuple(sig), batch
    for kind, _, name in prog.leaves:
        if kind == "input" and name not in inputs:
            raise MissingInput(f"missing input {name!r}")
    return None


def eval_program(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY) -> Value:
    """Evaluate a compiled program on concrete values.  A raw-slot run's
    result and a constant are read-only 0-d arrays; an array run returns its
    output slot's Value, writable for ``(+ (dot v v) 1)``.  A run goes
    through its text's raw kernel or its kernel for the run's signature; one
    that the kernel abandons, and under the error policy a non-finite
    output, is redone through the executor."""
    run = _leaves(prog, inputs, params)
    raw, values = False, None
    if run is not None:
        values, arrays, sig, batch = run
        raw = batch is None and prog.scalar_closed and sig.count(_SCALAR) == len(sig)
        k = kernels.lookup(prog, None, kernels.RAW) if raw else kernels.lookup(
            prog, sig, kernels.UNTAPED)
        out = None if k is None else kernels.quietly(k.forward, arrays, batch, policy.raises)
        if out is not None and (not policy.raises or (isfinite(out) if raw else all_finite(out))):
            return frozen_scalar(out) if raw else Value.trusted(out, k.out_kind, k.out_batched)
    out = _run(prog, inputs, params, policy, None, None, values)[0]
    return frozen_scalar(out.data) if raw else out


def run_on_tape(prog, inputs, params, tape, policy: SafeDomainPolicy = ERROR_POLICY,
                store=None):
    """Evaluate while appending records to an existing tape.  Inputs may be
    Values or tape references; returns (value, tape node id).  A run of a
    straight-line program through its generated kernel appends its input
    and parameter leaves and one ``fused`` record (see ``kernels``); any
    other run takes the executor."""
    run = _leaves(prog, inputs, params)
    values = None if run is None else run[0]
    if run is not None and prog.straight_line:
        _, arrays, sig, batch = run
        k = kernels.lookup(prog, sig, kernels.TAPED)
        if k is not None:
            got = kernels.quietly(k.taped, arrays, batch, policy.raises)
            if got is not None and (not policy.raises or all_finite(got[0])):
                out, kept = got
                ids = []
                for (kind, _, name), v in zip(prog.leaves, values):
                    if kind == "param":
                        ids.append(tape.param_leaf(store if store is not None else params, name, v))
                    else:
                        x = inputs[name]
                        ids.append(x.tape_id if type(x) is TapeRef else tape.input_leaf(name, v))
                value = Value.trusted(out, k.out_kind, k.out_batched)
                aux = kernels.Fused(k, arrays, kept, batch)
                return value, tape.record(kernels.FUSED, tuple([ids[i] for i in k.use_leaf]),
                                          value, aux)
    return _run(prog, inputs, params, policy, tape, store, values)


def eval_with_tape(prog, inputs, params=None, policy: SafeDomainPolicy = ERROR_POLICY):
    """Evaluate and return (value, tape) ready for a backward pass."""
    from .autodiff import Tape

    tape = Tape()
    out, out_id = run_on_tape(prog, inputs, params, tape, policy)
    tape.output_id = out_id
    return out, tape
