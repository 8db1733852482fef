"""Reverse-mode automatic differentiation over executed instructions.

The tape is a flat record of every operation in execution order (loop
iterations append one group per pass).  Backward walks it strictly in
reverse, dispatching per-operation vector-Jacobian products and
accumulating into input leaves and named parameters.

Backward differentiates only the *active* part of the tape (activity
analysis).  Its roots are every parameter leaf on the tape, trainable or
frozen, and every input named in ``wrt_inputs``; a record is active when
any of its arguments is.  Data inputs that were not asked for, constants
and everything computed from them alone get no gradient: their records are
not visited, and a VJP is told through its ``need`` mask which arguments
to skip.  Every gradient it does compute is the sum of the same terms in
the same order as a full pass, so it is bit-identical to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingGradient, ShapeMismatch
from .runtime import (ERROR_POLICY, PROPAGATE_POLICY, apply_primitive, matrix_inverse,
                      pow_immediate, select)
from .values import Value


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
            from .errors import MissingInput

            raise MissingInput(f"missing parameter {name!r}") from None

    def set_value(self, name: str, data) -> None:
        e = self.entries[name]
        e.value = Value(np.asarray(data, dtype=np.float64).reshape(e.value.data.shape),
                        e.value.kind, e.value.batched)

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
        """Recompute every record from its stored operands and compare
        bit-for-bit against the recorded outputs."""
        from .values import bit_equal

        for op, args, value, aux in self.nodes:
            if op == "leaf":
                continue
            vals = [self.nodes[a][2] for a in args]
            if op == "select":
                redo = select(*vals)
            elif op == "pow" and aux is not None:
                redo = pow_immediate(vals[0], aux, PROPAGATE_POLICY)
            elif op in ("linear", "relu", "tanh", "mse"):
                from . import nn

                redo = nn.forward_record(op, vals)
            else:
                redo = apply_primitive(op, vals, PROPAGATE_POLICY)
            if not bit_equal(redo, value):
                return False
        return True


@dataclass
class GradResult:
    output: Value
    input_grads: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# vjp helpers


def _aligned(arg: Value, out_value: Value) -> np.ndarray:
    """Mirror the forward elementwise alignment of a batched scalar against
    a batched tensor so gradient arithmetic broadcasts the same way."""
    arr = arg.data
    if (
        out_value.batched
        and arg.batched
        and arg.kind == "scalar"
        and out_value.kind != "scalar"
    ):
        arr = arr.reshape((arr.shape[0],) + (1,) * len(out_value.core_shape))
    return arr


# Elementwise ops produce raw gradients shaped like the op output and need
# the full broadcast undo; structural ops (vec, dot, matvec, ...) already
# return argument-shaped gradients, possibly with a leading batch to sum.
_ELEMENTWISE_VJP_OPS = frozenset(
    ["+", "-", "*", "/", "pow", "modulo", "remainder", "abs", "min", "max",
     "sin", "cos", "exp", "sqrt", "log", "select"]
)


def _reduce_elementwise(g: np.ndarray, arg: Value, out: Value) -> np.ndarray:
    if g.shape == arg.data.shape:
        return g  # no sum or broadcast applies
    core = len(out.core_shape)
    if arg.kind == "scalar" and core > 0:
        g = g.sum(axis=tuple(range(g.ndim - core, g.ndim)))
    if out.batched and not arg.batched:
        g = g.sum(axis=0)
    if g.shape != arg.data.shape:
        g = np.broadcast_to(g, arg.data.shape)
    return g


def _reduce_structural(g: np.ndarray, arg: Value) -> np.ndarray:
    if g.shape == arg.data.shape:
        return g
    if g.ndim == arg.data.ndim + 1:
        return g.sum(axis=0)  # batched output feeding an unbatched argument
    return np.broadcast_to(g, arg.data.shape)


def _cross_raw(a, b):
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )


def _swap(m):
    return np.swapaxes(m, -1, -2)


# Each VJP returns a list of raw per-argument gradients, shaped like the op
# output; backward reduces them to argument shapes.  ``need`` holds one
# bool per argument: an argument that reaches no root of the backward pass
# gets None, and its gradient is never computed.  Unary VJPs run only with
# need == (True,) and ignore it.


def _vjp_add(g, args, out, aux, need):
    return [g if n else None for n in need]


def _vjp_sub(g, args, out, aux, need):
    if len(args) == 1:
        return [-g]
    return [g if need[0] else None] + [-g if n else None for n in need[1:]]


def _vjp_mul(g, args, out, aux, need):
    outs = []
    for i, n in enumerate(need):
        p = None
        if n:
            p = g
            for j, other in enumerate(args):
                if j != i:
                    p = p * _aligned(other, out)
        outs.append(p)
    return outs


def _vjp_div(g, args, out, aux, need):
    grads = [None]
    if need[0]:
        denom = None
        for a in args[1:]:
            arr = _aligned(a, out)
            denom = arr if denom is None else denom * arr
        grads[0] = g / denom
    for a, n in zip(args[1:], need[1:]):
        grads.append(-g * out.data / _aligned(a, out) if n else None)
    return grads


def _vjp_pow(g, args, out, aux, need):
    if aux is not None:  # immediate exponent
        a = args[0].data
        return [g * aux * np.power(a, aux - 1.0)]
    a = _aligned(args[0], out)
    b = _aligned(args[1], out)
    with np.errstate(divide="ignore", invalid="ignore"):
        da = g * b * np.power(a, b - 1.0) if need[0] else None
        db = g * out.data * np.log(a) if need[1] else None
    return [da, db]


def _vjp_modulo(g, args, out, aux, need):
    db = None
    if need[1]:
        db = -g * np.floor(_aligned(args[0], out) / _aligned(args[1], out))
    return [g if need[0] else None, db]


def _vjp_remainder(g, args, out, aux, need):
    db = None
    if need[1]:
        db = -g * np.trunc(_aligned(args[0], out) / _aligned(args[1], out))
    return [g if need[0] else None, db]


def _vjp_abs(g, args, out, aux, need):
    return [g * np.sign(args[0].data)]


def _vjp_minmax(g, args, out, aux, need):
    # an argument takes the gradient where it is the first to equal the
    # output, so the mask runs over every argument, needed or not
    avail = np.ones(out.data.shape, dtype=bool)
    grads = []
    for a, n in zip(args, need):
        take = (_aligned(a, out) == out.data) & avail
        grads.append(g * take if n else None)
        avail = avail & ~take
    return grads


def _vjp_sin(g, args, out, aux, need):
    return [g * np.cos(args[0].data)]


def _vjp_cos(g, args, out, aux, need):
    return [-g * np.sin(args[0].data)]


def _vjp_exp(g, args, out, aux, need):
    return [g * out.data]


def _vjp_sqrt(g, args, out, aux, need):
    return [g * 0.5 / out.data]


def _vjp_log(g, args, out, aux, need):
    return [g / args[0].data]


def _vjp_none(g, args, out, aux, need):
    return [None for _ in args]


def _vjp_select(g, args, out, aux, need):
    c = _aligned(args[0], out)
    return [None, g * (c != 0.0) if need[1] else None, g * (c == 0.0) if need[2] else None]


def _vjp_vec(g, args, out, aux, need):
    return [g[..., i] if n else None for i, n in enumerate(need)]


def _vjp_ref(g, args, out, aux, need):
    if not need[0]:
        return [None, None]
    v = args[0]
    idx = int(float(args[1].data))
    gv = np.zeros_like(v.data)
    gv[..., idx] = np.broadcast_to(g, gv[..., idx].shape)
    return [gv, None]


def _vjp_dot(g, args, out, aux, need):
    a, b = args
    ge = np.asarray(g)[..., None]
    return [ge * b.data if need[0] else None, ge * a.data if need[1] else None]


def _vjp_cross(g, args, out, aux, need):
    a, b = args
    return [_cross_raw(b.data, g) if need[0] else None,
            _cross_raw(g, a.data) if need[1] else None]


def _vjp_norm(g, args, out, aux, need):
    v = args[0]
    n = np.asarray(out.data)[..., None]
    return [np.asarray(g)[..., None] * v.data / n]


def _vjp_normalize(g, args, out, aux, need):
    v = args[0].data
    n = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    u = out.data
    inner = (u * g).sum(axis=-1, keepdims=True)
    return [(g - u * inner) / n]


def _vjp_vsum(g, args, out, aux, need):
    v = args[0]
    return [np.broadcast_to(np.asarray(g)[..., None], v.data.shape)]


def _vjp_scale(g, args, out, aux, need):
    s, v = args
    gs = None
    if need[0]:
        core = tuple(range(g.ndim - len(v.core_shape), g.ndim))
        gs = (g * v.data).sum(axis=core) if core else g * v.data
    return [gs, _aligned(s, out) * g if need[1] else None]


def _vjp_mat(g, args, out, aux, need):
    return [g[..., i, :] if n else None for i, n in enumerate(need)]


def _vjp_matmul(g, args, out, aux, need):
    a, b = args
    return [np.matmul(g, _swap(b.data)) if need[0] else None,
            np.matmul(_swap(a.data), g) if need[1] else None]


def _vjp_matvec(g, args, out, aux, need):
    m, v = args
    ge = np.asarray(g)[..., :, None]
    return [ge * v.data[..., None, :] if need[0] else None,
            (m.data * ge).sum(axis=-2) if need[1] else None]


def _vjp_transpose(g, args, out, aux, need):
    return [_swap(g)]


def _vjp_trace(g, args, out, aux, need):
    n = args[0].core_shape[-1]
    return [np.asarray(g)[..., None, None] * np.eye(n)]


def _vjp_det(g, args, out, aux, need):
    inv_t = _swap(matrix_inverse(args[0], ERROR_POLICY, "det backward"))
    return [np.asarray(g)[..., None, None] * np.asarray(out.data)[..., None, None] * inv_t]


def _vjp_inv(g, args, out, aux, need):
    it = _swap(out.data)
    return [-np.matmul(np.matmul(it, g), it)]


def _vjp_outer(g, args, out, aux, need):
    a, b = args
    return [(g * b.data[..., None, :]).sum(axis=-1) if need[0] else None,
            (g * a.data[..., :, None]).sum(axis=-2) if need[1] else None]


_VJPS = {
    "+": _vjp_add,
    "-": _vjp_sub,
    "*": _vjp_mul,
    "/": _vjp_div,
    "pow": _vjp_pow,
    "modulo": _vjp_modulo,
    "remainder": _vjp_remainder,
    "abs": _vjp_abs,
    "min": _vjp_minmax,
    "max": _vjp_minmax,
    "sin": _vjp_sin,
    "cos": _vjp_cos,
    "exp": _vjp_exp,
    "sqrt": _vjp_sqrt,
    "log": _vjp_log,
    "=": _vjp_none,
    "<": _vjp_none,
    ">": _vjp_none,
    "<=": _vjp_none,
    ">=": _vjp_none,
    "and": _vjp_none,
    "or": _vjp_none,
    "not": _vjp_none,
    "select": _vjp_select,
    "vec": _vjp_vec,
    "ref": _vjp_ref,
    "dot": _vjp_dot,
    "cross": _vjp_cross,
    "norm": _vjp_norm,
    "normalize": _vjp_normalize,
    "vsum": _vjp_vsum,
    "vlen": _vjp_none,
    "scale": _vjp_scale,
    "mat": _vjp_mat,
    "matmul": _vjp_matmul,
    "matvec": _vjp_matvec,
    "transpose": _vjp_transpose,
    "trace": _vjp_trace,
    "det": _vjp_det,
    "inv": _vjp_inv,
    "outer": _vjp_outer,
    "eye": _vjp_none,
    "zeros": _vjp_none,
    "ones": _vjp_none,
}


def register_vjp(op: str, fn) -> None:
    """Extension hook for non-primitive tape records (dense layers etc.).

    ``fn(g, args, out, aux, need)`` gets the output gradient ``g``, the
    argument Values, the output Value, the record's aux and ``need``, a
    tuple with one bool per argument.  It returns one raw gradient per
    argument and must return None wherever ``need`` is false: such an
    argument reaches no parameter or requested input.  It is called only
    when at least one ``need`` entry is true.
    """
    _VJPS[op] = fn


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, seed, wrt_inputs=(), output_id: int | None = None) -> GradResult:
    """Walk the active part of the tape in reverse, accumulating gradients.

    The roots are every parameter leaf in ``tape.param_entries`` and the
    input leaves named in ``wrt_inputs``; one forward sweep marks a record
    active when any of its arguments is.  The reverse loop visits only
    active records, and a VJP computes contributions only for its active
    arguments.  Parameter gradients are summed into their stores;
    gradients for the requested input names are returned.  An output that
    no root reaches gives no gradients.  The seed must match the output
    shape.
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
    roots += [tape.input_ids[name] for name in wrt_inputs if name in tape.input_ids]
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
    grads: dict[int, np.ndarray] = {out_id: seed.data}
    for nid in reversed(visit):
        g = grads.get(nid)
        if g is None:
            continue
        op, args, value, aux = nodes[nid]
        vjp = _VJPS.get(op)
        if vjp is None:
            raise MissingGradient(f"no gradient rule for op {op!r}")
        arg_values = [nodes[a][2] for a in args]
        raw = vjp(g, arg_values, value, aux, tuple([active[a] for a in args]))
        elementwise = op in _ELEMENTWISE_VJP_OPS
        for a_id, contrib in zip(args, raw):
            if contrib is None:
                continue
            contrib = np.asarray(contrib)
            if elementwise:
                reduced = _reduce_elementwise(contrib, nodes[a_id][2], value)
            else:
                reduced = _reduce_structural(contrib, nodes[a_id][2])
            prev = grads.get(a_id)
            grads[a_id] = reduced if prev is None else prev + reduced

    for store, name, nid in tape.param_entries:
        g = grads.get(nid)
        if g is not None:
            store.accumulate_grad(name, g)

    for name in wrt_inputs:
        nid = tape.input_ids.get(name)
        if nid is not None and nid in grads:
            result.input_grads[name] = Value(grads[nid], tape.value_of(nid).kind,
                                             tape.value_of(nid).batched)
    return result


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
        if op == "pow" and aux is not None:
            value = pow_immediate(refs[0].value, aux, self.policy)
        else:
            value = apply_primitive(op, [r.value for r in refs], self.policy)
        nid = self.tape.record(op, tuple(r.tape_id for r in refs), value, aux)
        return TapeRef(nid, value)

    def add(self, *args) -> TapeRef:
        return self.prim("+", *args)

    def sub(self, a, b) -> TapeRef:
        return self.prim("-", a, b)

    def mul(self, *args) -> TapeRef:
        return self.prim("*", *args)

    def scale(self, s, v) -> TapeRef:
        return self.prim("scale", s, v)

    def param(self, store: ParameterStore, name: str) -> TapeRef:
        v = store.value_of(name)
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
        arr = np.array(v.data, dtype=np.float64)  # a writable copy, also of a numpy scalar

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
