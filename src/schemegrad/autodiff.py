"""Reverse-mode automatic differentiation over executed instructions.

The tape is a flat record of every operation in execution order (loop
iterations append one group per pass).  Backward walks it strictly in
reverse, with numpy's floating-point errors ignored, calling the
vector-Jacobian product of each record's op row (``ops.OPS``; all but
``fused``'s are generated from the rows' emit forms, see ``kernels``) and
accumulating into input leaves and named parameters.  Every VJP returns
each gradient already reduced to its argument's shape, and backward adds
it as it is.
``Tape.replay`` recomputes every record through its row's forward.

A taped run through a generated kernel (see ``kernels``) is one ``fused``
record in place of one record per instruction.  Its arguments list a leaf
once per use, and its emitted VJP returns one contribution per use, in
the order the per-instruction records would give them; the loop below
adds them one at a time, so the sums are the same.
``Tape.replay`` recomputes a fused record through its kernel.

Backward differentiates only the *active* part of the tape (activity
analysis).  Its roots are every parameter leaf on the tape, trainable or
frozen, and every input name or ``TapeRef`` in ``wrt_inputs``; a record
is active when any of its arguments is.  Data inputs that were not asked
for, constants and everything computed from them alone get no gradient:
their records are not visited, and a VJP is told through its ``need``
mask which arguments to skip.  Every gradient it does compute is the sum
of the same terms in the same order as a full pass, so it is
bit-identical to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingGradient, MissingInput, ShapeMismatch
from .kernels import FUSED
from .ops import OPS
# The kernels are called through these module globals, which the traced
# benchmark run (perfbench/spans.py) rebinds; pow_immediate and select are
# bound here for it.
from .runtime import (ERROR_POLICY, PROPAGATE_POLICY, apply_primitive,  # noqa: F401
                      pow_immediate, quiet, restore, select)
from .values import Value, bit_equal


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ParamEntry:
    value: Value
    grad: np.ndarray | None = None
    trainable: bool = True


class ParameterStore:
    """Named trainable values with gradient buffers."""

    def __init__(self):
        self.entries: dict[str, ParamEntry] = {}

    def add(self, name: str, value, trainable: bool = True) -> None:
        self.entries[name] = ParamEntry(Value.of(value), None, trainable)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> ParamEntry:
        return self.entries[name]

    def names(self):
        return list(self.entries)

    def trainable_names(self):
        return [n for n, e in self.entries.items() if e.trainable]

    @property
    def num_trainable(self) -> int:
        return sum(e.value.data.size for e in self.entries.values() if e.trainable)

    def value_of(self, name: str) -> Value:
        try:
            return self.entries[name].value
        except KeyError:
            raise MissingInput(f"missing parameter {name!r}") from None

    def set_value(self, name: str, data) -> None:
        e = self.entries[name]
        shape = e.value.data.shape
        try:
            data = np.asarray(data, dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as err:
            raise ShapeMismatch(f"parameter {name!r} of shape {shape}: {err}") from None
        e.value = Value(data, e.value.kind, e.value.batched)

    def zero_grads(self) -> None:
        for e in self.entries.values():
            e.grad = np.zeros_like(e.value.data)

    def accumulate_grad(self, name: str, g: np.ndarray) -> None:
        e = self.entries[name]
        if e.grad is None:
            e.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            e.grad = e.grad + g

    def require_grad(self, name: str) -> np.ndarray:
        g = self.entries[name].grad
        if g is None:
            raise MissingGradient(f"parameter {name!r} has no gradient")
        return g

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: e.value.data.copy() for n, e in self.entries.items()}


def param_value(params, name: str) -> Value:
    """The parameter ``name`` of a store or a mapping; a missing store or
    parameter raises ``MissingInput``."""
    getter = getattr(params, "value_of", None)
    if getter is not None:
        return getter(name)
    if params is None or name not in params:
        raise MissingInput(f"missing parameter {name!r}")
    return Value.of(params[name])


# ---------------------------------------------------------------------------
# tape


@dataclass
class TapeRef:
    """Handle to a tape node; feeds one computation's output into another."""

    tape_id: int
    value: Value


class Tape:
    """Execution record: (op, arg ids, value, aux) per node."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.output_id: int | None = None
        self.input_ids: dict[str, int] = {}
        self._param_memo: dict[tuple[int, str], int] = {}
        self.param_entries: list[tuple[ParameterStore, str, int]] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def record(self, op: str, args: tuple, value: Value, aux=None) -> int:
        self.nodes.append((op, args, value, aux))
        return len(self.nodes) - 1

    def leaf(self, value: Value) -> int:
        return self.record("leaf", (), value)

    def input_leaf(self, name: str, value: Value) -> int:
        nid = self.leaf(value)
        self.input_ids[name] = nid
        return nid

    def param_leaf(self, store, name: str, value: Value) -> int:
        key = (id(store), name)
        nid = self._param_memo.get(key)
        if nid is None:
            nid = self.leaf(value)
            self._param_memo[key] = nid
            if isinstance(store, ParameterStore):
                self.param_entries.append((store, name, nid))
        return nid

    def value_of(self, nid: int) -> Value:
        return self.nodes[nid][2]

    def replay(self) -> bool:
        """Recompute every record through its op row (a fused record through
        its kernel) from its stored operands and compare bit-for-bit
        against the recorded outputs."""
        for op, args, value, aux in self.nodes:
            if op == "leaf":
                continue
            vals = [self.nodes[a][2] for a in args]
            if op == FUSED:
                redo = aux.replay(vals)
            else:
                redo = apply_primitive(op, vals, PROPAGATE_POLICY, aux)
            if not bit_equal(redo, value):
                return False
        return True


@dataclass
class GradResult:
    output: Value
    input_grads: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, seed, wrt_inputs=(), output_id: int | None = None) -> GradResult:
    """Walk the active part of the tape in reverse, accumulating gradients.

    The roots are every parameter leaf in ``tape.param_entries`` and each
    entry of ``wrt_inputs``: an input name, or a ``TapeRef`` for any node
    on the tape (a ``TapeContext.constant``, a program's output).  One
    forward sweep marks a record active when any of its arguments is.  The
    reverse loop visits only active records, and a VJP computes
    contributions only for its active arguments.  Parameter gradients are
    summed into their stores; the gradients of the ``wrt_inputs`` are
    returned in ``input_grads``, keyed by input name or by ``tape_id``.  An
    output that no root reaches gives no gradients.  The seed must match
    the output shape.
    """
    out_id = output_id if output_id is not None else tape.output_id
    if out_id is None:
        raise ShapeMismatch("tape has no output to differentiate")
    out_value = tape.value_of(out_id)
    seed = Value.of(seed) if not isinstance(seed, Value) else seed
    if seed.data.shape != out_value.data.shape:
        raise ShapeMismatch(
            f"seed shape {seed.data.shape} != output shape {out_value.data.shape}"
        )

    nodes = tape.nodes
    active = [False] * (out_id + 1)
    roots = [nid for _, _, nid in tape.param_entries]
    wrt = [(w.tape_id, w.tape_id) if type(w) is TapeRef else (w, tape.input_ids.get(w))
           for w in wrt_inputs]  # (result key, node id)
    roots += [nid for _, nid in wrt if nid is not None]
    for nid in roots:
        if nid <= out_id:
            active[nid] = True
    visit = []  # active records with arguments, in tape order
    for nid in range(out_id + 1):
        for a in nodes[nid][1]:
            if active[a]:
                active[nid] = True
                visit.append(nid)
                break

    result = GradResult(output=out_value)
    if not active[out_id]:
        return result
    saved = quiet()  # the VJPs and the sums run with numpy's errors ignored
    try:
        grads = _sweep(nodes, visit, active, out_id, seed.data)
        for store, name, nid in tape.param_entries:
            g = grads.get(nid)
            if g is not None:
                store.accumulate_grad(name, g)
    finally:
        restore(saved)

    for key, nid in wrt:
        if nid is not None and nid in grads:
            result.input_grads[key] = Value(grads[nid], tape.value_of(nid).kind,
                                            tape.value_of(nid).batched)
    return result


def _sweep(nodes, visit, active, out_id, seed) -> dict:
    """The reverse loop of ``backward``: node id -> summed gradient."""
    grads: dict[int, np.ndarray] = {out_id: seed}
    for nid in reversed(visit):
        g = grads.get(nid)
        if g is None:
            continue
        op, args, value, aux = nodes[nid]
        row = OPS.get(op)
        if row is None:
            raise MissingGradient(f"no gradient rule for op {op!r}")
        arg_values = [nodes[a][2] for a in args]
        for a_id, contrib in zip(args, row.vjp(g, arg_values, value, aux,
                                               tuple([active[a] for a in args]))):
            if contrib is not None:
                prev = grads.get(a_id)
                grads[a_id] = contrib if prev is None else prev + contrib
    return grads


# ---------------------------------------------------------------------------
# tape context: composing programs, layers and losses on one tape


class TapeContext:
    """Builds composite differentiable computations (programs, dense
    layers, losses) on a single tape."""

    def __init__(self, policy=PROPAGATE_POLICY):
        self.tape = Tape()
        self.policy = policy

    def constant(self, value) -> TapeRef:
        v = value if isinstance(value, Value) else Value.of(value)
        return TapeRef(self.tape.leaf(v), v)

    def constant_batch(self, arr) -> TapeRef:
        v = Value.batch_scalars(arr)
        return TapeRef(self.tape.leaf(v), v)

    def lift(self, x) -> TapeRef:
        if isinstance(x, TapeRef):
            return x
        return self.constant(x)

    def run(self, prog, inputs: dict, store=None) -> TapeRef:
        from .machine import run_on_tape

        feed = {}
        for name, v in inputs.items():
            feed[name] = v if isinstance(v, TapeRef) else Value.of(v)
        out, out_id = run_on_tape(prog, feed, store, self.tape, self.policy, store=store)
        return TapeRef(out_id, out)

    def prim(self, op: str, *args, aux=None) -> TapeRef:
        refs = [self.lift(a) for a in args]
        value = apply_primitive(op, [r.value for r in refs], self.policy, aux)
        nid = self.tape.record(op, tuple(r.tape_id for r in refs), value, aux)
        return TapeRef(nid, value)

    def add(self, *args) -> TapeRef:
        return self.prim("+", *args)

    def mul(self, *args) -> TapeRef:
        return self.prim("*", *args)

    def param(self, store: ParameterStore, name: str) -> TapeRef:
        v = param_value(store, name)
        return TapeRef(self.tape.param_leaf(store, name, v), v)

    def mse(self, pred: TapeRef, target) -> TapeRef:
        from .nn import mse_record

        return mse_record(self, pred, target)

    def backward(self, loss: TapeRef, seed=None, wrt_inputs=()) -> GradResult:
        if seed is None:
            seed = Value(np.ones_like(loss.value.data), loss.value.kind, loss.value.batched)
        return backward(self.tape, seed, wrt_inputs=wrt_inputs, output_id=loss.tape_id)


# ---------------------------------------------------------------------------
# finite differences


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    per_name: dict
    h: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def finite_diff_check(prog, inputs, params=None, h: float = 1e-5, tol: float = 1e-6,
                      policy=None) -> FiniteDiffReport:
    """Central-difference check of backward gradients for every input and
    trainable parameter, at one evaluation point.

    Relative error uses a unit floor in the denominator so coordinates with
    near-zero gradients are judged on an absolute scale.
    """
    from .machine import eval_program, eval_with_tape

    policy = policy or ERROR_POLICY
    inputs = {k: Value.of(v) for k, v in inputs.items()}
    store = params if isinstance(params, ParameterStore) else None
    if params is not None and store is None:
        store = ParameterStore()
        for k, v in params.items():
            store.add(k, v)

    if store is not None:
        store.zero_grads()
    out, tape = eval_with_tape(prog, inputs, store, policy)
    seed = Value(np.ones_like(out.data), out.kind, out.batched)
    result = backward(tape, seed, wrt_inputs=list(inputs))

    def scalar_out(ins, st):
        v = eval_program(prog, ins, st, policy)
        return float(np.sum(v.data))

    per_name = {}
    worst = 0.0

    def check_array(name, base_arr, set_fn, ad_grad):
        nonlocal worst
        fd = np.zeros_like(base_arr)
        flat = base_arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            set_fn(base_arr)
            up = scalar_out(inputs, store)
            flat[i] = orig - h
            set_fn(base_arr)
            down = scalar_out(inputs, store)
            flat[i] = orig
            set_fn(base_arr)
            fd.ravel()[i] = (up - down) / (2.0 * h)
        err = np.abs(ad_grad - fd) / np.maximum(np.maximum(np.abs(fd), np.abs(ad_grad)), 1.0)
        m = float(err.max()) if err.size else 0.0
        per_name[name] = m
        worst = max(worst, m)

    for name, v in inputs.items():
        ad = result.input_grads.get(name)
        ad_arr = ad.data if ad is not None else np.zeros_like(v.data)
        arr = np.array(v.data, dtype=np.float64)  # a writable copy

        def setter(a, _name=name, _v=v):
            inputs[_name] = Value(a, _v.kind, _v.batched)

        check_array(f"input:{name}", arr, setter, ad_arr)
        inputs[name] = v

    if store is not None:
        for pname in store.trainable_names():
            entry = store[pname]
            ad_arr = entry.grad if entry.grad is not None else np.zeros_like(entry.value.data)
            arr = np.array(entry.value.data, dtype=np.float64)
            original = entry.value

            def psetter(a, _p=pname):
                store.set_value(_p, a)

            check_array(f"param:{pname}", arr, psetter, ad_arr)
            store.entries[pname].value = original

    return FiniteDiffReport(max_rel_err=worst, per_name=per_name, h=h, tol=tol)
