"""A digest of what schemegrad computes, to compare two source trees bit for bit.

    python tools/parity_digest.py > digest.txt

It imports ``src/`` and ``tests/corpus.py`` of the tree it lives in and
prints one line per case: the program id, the batch size, the policy, the
run number, the run's kind (untaped or taped) and a hash.  The hash covers
the output's bits, dtype and writability, or the error's class, message and
position; a taped run's hash also covers its parameter and input gradients.
Cases: every program of ``tests/corpus.py`` and every ``BENCH_PROGRAMS``
entry at B=1 and B=3, the recursion-guard probe, a non-tail recursion at
n=3000 and n=20000, a loop ending in 120 nested ``if``s, ``det``, ``inv``
and ``(det (inv ...))`` on a singular matrix, on a stack of three with one
singular lane, on a matrix that pivots off the diagonal and on a stack of
four whose lanes pivot at different steps, with an exact zero pivot in one
lane and another lane singular, ``eye`` and ``zeros`` of bad and computed
sizes, and control flow in array runs at B=1 and B=3: a loop over a vector,
a non-tail recursion that returns a vector, a loop variable that turns
batched on its first ``recur``, and a ``ShapeMismatch`` in an arm that no
run takes.  Linked RK4 programs (``ode.link_rk4``, over a store holding the
case's parameters, which a run feeds from a fresh store) are cases too: the
Lotka-Volterra and pendulum step and 3-step shooting segment, and the step and
segment of a system whose ``sqrt`` leaves its domain in stage three, each at
B=1 and B=3.  Each runs three times under each policy, from an emptied table
of kernels and, for a linked program, an emptied table of linked programs.
Network cases run each on a fresh tape and take a backward, hashing the loss
or output with every parameter's gradient: ``mlp_forward`` then ``ctx.mse``
on a relu network, a tanh one and a tanh one built with ``zero_output``, on
an unbatched and a batched input (with the input's gradient too); one
linked RK4 step of the pendulum hybrid right-hand side (its compiled
gravity term plus a tanh correction, ``pendulum.make_hybrid_system``) and of
``make_mlp_rhs`` on a relu network, at B=1 and B=3; and one Lotka-Volterra
``multiple_shooting_loss`` epoch over two ragged trajectories, whose loss is
a ``shooting_mse`` record.  Last come the linked shooting segment cases of
the two network right-hand sides: a ``multiple_shooting_loss`` epoch with
its backward over two ragged pendulum trajectories, linked and then stage
by stage (the same right-hand side called through a plain function), so
that each pair of lines must hash alike.
Run it in both trees and ``diff`` the two outputs; identical files mean
bitwise-identical results on every case.
"""

import hashlib
import sys
import zlib
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import CORPUS, integer_inputs  # noqa: E402
from schemegrad import kernels, ode  # noqa: E402
from schemegrad.autodiff import TapeContext  # noqa: E402
from schemegrad.compiler import compile_source  # noqa: E402
from schemegrad.errors import SchemegradError  # noqa: E402
from schemegrad.experiments import lotka_volterra, pendulum  # noqa: E402
from schemegrad.experiments.registry import BENCH_PROGRAMS  # noqa: E402
from schemegrad.machine import eval_program  # noqa: E402
from schemegrad.nn import MlpModel, mlp_forward  # noqa: E402
from schemegrad.runtime import ERROR_POLICY, PROPAGATE_POLICY  # noqa: E402
from schemegrad.training import truth_store  # noqa: E402
from schemegrad.values import Value, stack_batch  # noqa: E402

RUNS = 3
_ERROR_FIELDS = ("kind", "op", "instruction", "where", "fn_name", "limit", "pos")
_NON_TAIL = "(letrec ((s (lambda (k) (if (< k 1) 0 (+ 1 (call s (- k 1))))))) (call s n))"


# three 3x3 matrices; the middle one is singular (its second row is twice its first)
_STACK = np.array([[[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
                   [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
                   [[2.0, -1.0, 0.5], [0.0, 1.5, 1.0], [1.0, 0.0, 3.0]]])
# a 3x3 that swaps rows at both steps, and four lanes: one that swaps at
# steps 0 and 1, one at step 1 only, one whose first column is zero (an exact
# zero pivot, so the step is skipped) and one singular (pivot ~1e-16)
_PIVOTING = np.array([[1.0, 2.0, 0.5], [3.0, -1.0, 2.0], [0.5, 4.0, 1.0]])
_PIVOTING_STACK = np.array([[[1.0, 0.5, 2.0], [4.0, 1.0, 0.0], [2.0, 3.0, 1.0]],
                            [[4.0, 1.0, 2.0], [1.0, 0.5, 3.0], [2.0, 3.0, 1.0]],
                            [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 7.0]],
                            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]])
_LINALG = (("det", "(det M)", {}), ("inv", "(trace (inv M))", {}),
           ("detinv", "(det (inv (scale s M)))", {"s": 0.8}))
_SIZES = (("eye_fraction", "(trace (eye 2.5))"), ("zeros_zero", "(vsum (zeros 0))"),
          ("eye_computed", "(trace (scale x (eye n)))"))
_V = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0], [2.0, 2.0, 2.0]])
_CONTROL = (  # (id, source, inputs), each fed v0 and x0 as above
    ("vector_loop", "(loop ((k 0) (v v0)) (if (< k 10) (recur (+ k 1) (scale 0.5 v)) (norm v)))",
     ("v0",)),
    ("vector_recursion",
     "(letrec ((f (lambda (k v) (if (< k 1) v (scale 2 (call f (- k 1) v)))))) (call f n v0))",
     ("n", "v0")),
    ("turns_batched", "(loop ((k 0) (x 0)) (if (< k 3) (recur (+ k 1) (+ x x0)) x))", ("x0",)),
    ("untaken_mismatch",
     "(loop ((k 0) (x x0)) (if (< k 2) (recur (+ k 1) (* x 2)) (if (> k 5) (dot x x) x)))",
     ("x0",)),
)


def _nested_ifs() -> str:
    body = "i"
    for j in range(120):  # tail ifs in a loop body: 120 nested Python blocks
        body = f"(if (< x {j}) {j} {body})"
    return f"(loop ((i 0)) (if (< i 2) (recur (+ i 1)) {body}))"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode() if not isinstance(p, np.ndarray) else
                 repr((p.dtype.str, p.shape, p.flags.writeable)).encode() + p.tobytes())
    return h.hexdigest()[:20]


def _error(err) -> tuple:
    return (type(err).__name__, str(err), *[getattr(err, a, None) for a in _ERROR_FIELDS])


def _leaf_feed(store, leaves, ctx=None) -> dict:
    """A linked program's parameter inputs, read from ``store``."""
    return ode._linked_feed((), [(store, name) for name in leaves], ctx)


def _untaped(prog, leaves, feed, params, policy) -> str:
    store = truth_store(params) if params else None
    try:
        out = eval_program(prog, {**feed, **_leaf_feed(store, leaves)}, store, policy)
    except SchemegradError as err:
        return _digest(*_error(err))
    return _digest(out.kind, out.batched, type(out.data).__name__, out.data)


def _taped(prog, leaves, feed, params, policy) -> str:
    store = truth_store(params) if params else None
    ctx = TapeContext(policy)
    try:
        out = ctx.run(prog, {**feed, **_leaf_feed(store, leaves, ctx)}, store)
        result = ctx.backward(out, wrt_inputs=list(feed))
        out = out.value
    except SchemegradError as err:
        return _digest(*_error(err))
    grads = [store[n].grad for n in store.names()] if store else []
    # inputs by their place in the feed, not by name: a linked program's
    # inputs take names of the linker's, which may change
    wrt = [i for i, n in enumerate(feed) if n in result.input_grads]
    inputs = [result.input_grads[n].data for n in feed if n in result.input_grads]
    return _digest(out.kind, out.batched, type(out.data).__name__, out.data, *grads,
                   wrt, *inputs)


def _corpus_feed(p, batch: int) -> dict:
    """B=1: one draw of unbatched values; B=3: three draws stacked, but a
    loop's trip count and a value equal in every draw stay unbatched."""
    rng = np.random.default_rng(zlib.crc32(p.id.encode()))
    points = [integer_inputs(p, p.sampler(rng, 1)) for _ in range(batch)]
    feed = {}
    for name in points[0]:
        vals = [pt[name] for pt in points]
        shared = len({v.data.tobytes() for v in vals}) == 1
        feed[name] = vals[0] if shared or p.has_loops and name == "n" else stack_batch(vals)
    return feed


def _bench_feed(bid: str, names, batch: int) -> dict:
    rng = np.random.default_rng(zlib.crc32(bid.encode()))
    feed = {}
    for n in names:
        lo, hi = (4.5, 6.0) if n == "b" else (1.0, 2.0)  # discriminant: b*b >= 4ac
        x = rng.uniform(lo, hi, batch)
        feed[n] = Value.scalar(x[0]) if batch == 1 else Value.batch_scalars(x)
    return feed


def _sqrt_programs():
    # stage 3 reads y = 1 + 0.05 * (-12 / 0.4) = -0.5 from (1, 1), where sqrt fails
    return [compile_source("(sqrt y)", inputs=("x", "y")),
            compile_source("(/ (- 0 a) y)", inputs=("x", "y"), params=("a",))]


_LINKED_SYSTEMS = (  # (id, programs, state names, parameters, initial states of 3 lanes)
    ("lotka_volterra", lotka_volterra._programs, ("x", "y"),
     lotka_volterra.TRUE_PARAMS, _V[:, :2] + 2.5),
    ("pendulum", lambda: [pendulum._dtheta_prog(), pendulum._domega_prog()],
     ("theta", "omega"), pendulum.TRUE_PARAMS, _V[:, 1:]),
    ("sqrt", _sqrt_programs, ("x", "y"), {"a": 12.0}, np.array([[1.0, 1.0], [2.0, 3.0],
                                                                 [1.0, 0.5]])),
)


def _linker(programs, names, params, steps):
    """A program made by linking ``programs`` anew, with the names of the
    parameters its ``__p<n>`` inputs take."""
    def make():
        ode._LINKED.clear()
        progs = programs()
        store = truth_store(params)
        rhs = ode.make_compiled_rhs(progs, [store] * len(progs), names)
        prog, pairs = ode.link_rk4(rhs, 0.1, steps)
        return prog, [name for _, name in pairs]
    return make


def _linked_cases():
    """(id, B, make, params, feed) of every linked program."""
    for sid, programs, names, params, y0 in _LINKED_SYSTEMS:
        for steps in (None, 3):
            for batch in (1, 3):
                feed = {f"__y{i}": Value.scalar(y0[0, i]) if batch == 1 else
                        Value.batch_scalars(np.ascontiguousarray(y0[:, i]))
                        for i in range(len(names))}
                if steps is not None:
                    rows = 1.0 + 0.1 * np.arange(3 * steps * 2).reshape(3, -1)
                    masks = (rows < 2.5).astype(np.float64)  # a ragged tail on the third lane
                    for k, v in (("__T", rows), ("__M", masks)):
                        feed[k] = Value.vector(v[0]) if batch == 1 else Value.batch_vectors(v)
                yield (f"linked:{sid}:{steps or 'step'}", batch,
                       _linker(programs, names, params, steps), params, feed)


def _compiler(src, inputs, params):
    """A program made by compiling ``src`` anew; it has no parameter inputs."""
    return lambda: (compile_source(src, inputs=inputs, params=tuple(params)), ())


def cases():
    """(id, B, make, params, feed) for every case, ``make`` making the
    program anew, with the names of its parameter inputs."""
    for cid, batch, src, inputs, params, feed in _source_cases():
        yield cid, batch, _compiler(src, inputs, params), params, feed
    yield from _linked_cases()


def _source_cases():
    """(id, B, source, inputs, params, feed) for every compiled source."""
    for p in CORPUS:
        for batch in (1, 3):
            yield p.id, batch, p.source, p.inputs, p.params, _corpus_feed(p, batch)
    for bid in sorted(BENCH_PROGRAMS):
        src, names = BENCH_PROGRAMS[bid]
        for batch in (1, 3):
            yield f"bench:{bid}", batch, src, names, {}, _bench_feed(bid, names, batch)
    yield ("guard_probe", 1,
           "(letrec ((f (lambda (n) (+ 1 (if (< n 1) 0 (call f (- n 1))))))) (call f 3))",
           (), {}, {})
    for n in (3000, 20_000):
        yield f"non_tail:{n}", 1, _NON_TAIL, ("n",), {}, {"n": Value.scalar(float(n))}
    yield "nested_ifs", 1, _nested_ifs(), ("x",), {}, {"x": Value.scalar(200.0)}
    for name, src, params in _LINALG:
        yield f"singular:{name}", 1, src, ("M",), params, {"M": Value.matrix(_STACK[1])}
        yield f"singular:{name}", 3, src, ("M",), params, {"M": Value.batch_matrices(_STACK)}
        yield f"pivoting:{name}", 1, src, ("M",), params, {"M": Value.matrix(_PIVOTING)}
        yield (f"pivoting:{name}", 4, src, ("M",), params,
               {"M": Value.batch_matrices(_PIVOTING_STACK)})
    for name, src in _SIZES:
        yield (f"sizes:{name}", 1, src, ("x", "n"), {},
               {"x": Value.scalar(1.5), "n": Value.scalar(3.0)})
    for name, src, inputs in _CONTROL:
        for batch, v0, x0 in ((1, Value.vector(_V[0]), Value.scalar(1.5)),
                              (3, Value.batch_vectors(_V), Value.batch_scalars(_V[:, 0]))):
            feed = {"n": Value.scalar(4.0), "v0": v0, "x0": x0}
            yield f"control:{name}", batch, src, inputs, {}, {n: feed[n] for n in inputs}


def _network_loss(activation, zero_output, batch, ctx):
    model = MlpModel([3, 8, 8, 2], activation=activation, rng=np.random.default_rng(5),
                     zero_output=zero_output)
    x = _V if batch == 3 else _V[0]
    x = ctx.constant(Value.batch_vectors(x) if batch == 3 else Value.vector(x))
    target = Value.batch_vectors(_V[:, :2]) if batch == 3 else Value.vector(_V[0, :2])
    return ctx.mse(mlp_forward(ctx, model, x), target), [model.store], [x]


def _hybrid_rhs():
    """The pendulum's scenario 2 right-hand side: omega, and the compiled
    gravity term plus a tanh correction of (theta, omega)."""
    store = truth_store({"g_L": 9.0})
    model = MlpModel([2, 33, 33, 1], activation="tanh", rng=np.random.default_rng(9))
    return pendulum.make_hybrid_system(store, model).rhs, [store, model.store]


def _mlp_rhs():
    model = MlpModel([2, 16, 16, 2], activation="relu", rng=np.random.default_rng(3))
    return ode.make_mlp_rhs(model, 2), [model.store]


def _rk4_loss(make_rhs, batch, ctx):
    rhs, stores = make_rhs()
    y0 = _V[:, 1:] if batch == 3 else _V[:1, 1:]
    state = tuple(ctx.constant(Value.batch_scalars(np.ascontiguousarray(y0[:, i])) if batch == 3
                               else Value.scalar(y0[0, i])) for i in range(2))
    out = ode.rk4_step(ctx, ode.OdeSystem(rhs, 2, 0.1), state, 0.0, 0.1)
    loss = ctx.mse(out[0], out[1].value)
    return ctx.add(loss, ctx.mse(out[1], state[0].value)), stores, list(state)


def _shooting_loss(ctx):
    store = truth_store({"alpha": 1.4, "beta": 0.9, "delta": 1.1, "gamma": 2.8})
    system = lotka_volterra.make_system(store)
    rows = ode.rollout(lotka_volterra.make_system(truth_store(lotka_volterra.TRUE_PARAMS)),
                       (1.0, 1.0), 24)
    cfg = ode.ShootingConfig(5, [rows, rows[:13] * 1.01])
    return ode.multiple_shooting_loss(ctx, system, cfg), [store], []


def _segment_loss(make_rhs, staged, ctx):
    library, stores = make_rhs()
    rhs = library
    if staged:  # a plain function has no linked programs
        rhs = lambda ctx, state, t: library(ctx, state, t)  # noqa: E731
    rows = ode.rollout(pendulum.make_system(truth_store(pendulum.TRUE_PARAMS)), (1.2, 0.4), 24)
    cfg = ode.ShootingConfig(5, [rows, rows[:13] * 1.01])
    return ode.multiple_shooting_loss(ctx, ode.OdeSystem(rhs, 2, 0.1), cfg), stores, []


def _network_cases():
    """(id, B, loss) for every network case, ``loss(ctx)`` returning the
    loss, its stores and the refs whose gradients are hashed too."""
    for activation, zero_output in (("relu", False), ("tanh", False), ("tanh", True)):
        for batch in (1, 3):
            yield (f"network:mlp_mse:{activation}{':zero_output' * zero_output}", batch,
                   partial(_network_loss, activation, zero_output, batch))
    for name, make_rhs in (("hybrid", _hybrid_rhs), ("mlp", _mlp_rhs)):
        for batch in (1, 3):
            yield f"network:rk4_step:{name}", batch, partial(_rk4_loss, make_rhs, batch)
    yield "network:lv_shooting", 8, _shooting_loss


def _segment_cases():
    """(id, B, loss) of the linked segment cases, each followed by its
    stage-by-stage twin."""
    for name, make_rhs in (("hybrid", _hybrid_rhs), ("mlp", _mlp_rhs)):
        for staged in (False, True):
            yield (f"network:segment:{name}{':staged' * staged}", 8,
                   partial(_segment_loss, make_rhs, staged))


def _network_run(loss_fn, policy) -> str:
    ctx = TapeContext(policy)
    try:
        loss, stores, refs = loss_fn(ctx)
        for store in stores:
            store.zero_grads()
        result = ctx.backward(loss, wrt_inputs=refs)
    except SchemegradError as err:
        return _digest(*_error(err))
    grads = [store[n].grad for store in stores for n in store.names()]
    inputs = [result.input_grads[r.tape_id].data for r in refs]
    return _digest(loss.value.kind, loss.value.batched, loss.value.data, *grads, *inputs)


def _print_network(cases) -> None:
    for cid, batch, loss_fn in cases:
        for policy in (ERROR_POLICY, PROPAGATE_POLICY):
            kernels._SHARED.clear()
            ode._LINKED.clear()
            for i in range(RUNS):
                print(cid, batch, policy.mode, i, "network", _network_run(loss_fn, policy))


def main() -> None:
    _print_network(_network_cases())
    for cid, batch, make, params, feed in cases():
        for policy in (ERROR_POLICY, PROPAGATE_POLICY):
            for kind, run in (("untaped", _untaped), ("taped", _taped)):
                kernels._SHARED.clear()
                prog, leaves = make()
                for i in range(RUNS):
                    print(cid, batch, policy.mode, i, kind, run(prog, leaves, feed, params, policy))
    _print_network(_segment_cases())


if __name__ == "__main__":
    main()
