"""A digest of what schemegrad computes, to compare two source trees bit for bit.

    python tools/parity_digest.py > digest.txt

It imports ``src/`` and ``tests/corpus.py`` of the tree it lives in and
prints one line per case: the program id, the batch size, the policy, the
run number, the run's kind (untaped or taped) and a hash.  The hash covers
the output's bits, dtype and writability, or the error's class, message and
position; a taped run's hash also covers its parameter and input
gradients.  Cases: every program of ``tests/corpus.py`` and every
``BENCH_PROGRAMS`` entry at B=1 and B=3, the recursion-guard probe, a
non-tail recursion at n=3000 and n=20000, a loop ending in 120 nested
``if``s, ``det`` and ``inv`` on a singular matrix and on a stack of three
with one singular lane, ``eye`` and ``zeros`` of bad and computed sizes,
and control flow in array runs at B=1 and B=3: a loop over a vector, a
non-tail recursion that returns a vector, a loop variable that turns
batched on its first ``recur``, and a ``ShapeMismatch`` in an arm that no
run takes.  Linked RK4 programs (``ode.link_rk4``) are cases too: the
Lotka-Volterra and pendulum step and 3-step shooting segment, and the step and
segment of a system whose ``sqrt`` leaves its domain in stage three, each at
B=1 and B=3.  Each runs three times under each policy, from an emptied table of
kernels and, for a linked program, an emptied table of linked programs.  Run
it in both trees and ``diff`` the two outputs; identical files mean
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
from schemegrad.autodiff import Tape, backward  # noqa: E402
from schemegrad.compiler import compile_source  # noqa: E402
from schemegrad.errors import SchemegradError  # noqa: E402
from schemegrad.experiments import lotka_volterra, pendulum  # noqa: E402
from schemegrad.experiments.registry import BENCH_PROGRAMS  # noqa: E402
from schemegrad.machine import eval_program, run_on_tape  # noqa: E402
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


def _untaped(prog, feed, params, policy) -> str:
    store = truth_store(params) if params else None
    try:
        out = eval_program(prog, feed, store, policy)
    except SchemegradError as err:
        return _digest(*_error(err))
    return _digest(out.kind, out.batched, type(out.data).__name__, out.data)


def _taped(prog, feed, params, policy) -> str:
    store = truth_store(params) if params else None
    tape = Tape()
    try:
        out, out_id = run_on_tape(prog, feed, store, tape, policy, store=store)
        tape.output_id = out_id
        result = backward(tape, Value(np.ones_like(out.data), out.kind, out.batched),
                          wrt_inputs=list(feed))
    except SchemegradError as err:
        return _digest(*_error(err))
    grads = [store[n].grad for n in store.names()] if store else []
    # inputs by their place in the feed: a linked segment's target and mask
    # inputs are named apart from the state's names, by a name that may change
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


def _linker(programs, names, steps):
    """A program made by linking ``programs`` anew."""
    def make():
        ode._LINKED.clear()
        progs = programs()
        return ode.link_rk4(progs, [None] * len(progs), names, 0.1, steps)
    return make


def _linked_cases():
    """(id, B, make, params, feed): the feed's -2 and -1 keys name the
    segment's target and mask inputs, whatever their names."""
    for sid, programs, names, params, y0 in _LINKED_SYSTEMS:
        for steps in (None, 3):
            for batch in (1, 3):
                feed = {n: Value.scalar(y0[0, i]) if batch == 1 else
                        Value.batch_scalars(np.ascontiguousarray(y0[:, i]))
                        for i, n in enumerate(names)}
                if steps is not None:
                    rows = 1.0 + 0.1 * np.arange(3 * steps * 2).reshape(3, -1)
                    masks = (rows < 2.5).astype(np.float64)  # a ragged tail on the third lane
                    for k, v in ((-2, rows), (-1, masks)):
                        feed[k] = Value.vector(v[0]) if batch == 1 else Value.batch_vectors(v)
                yield (f"linked:{sid}:{steps or 'step'}", batch,
                       _linker(programs, names, steps), params, feed)


def cases():
    """(id, B, make, params, feed) for every case, ``make`` making the
    program anew."""
    for cid, batch, src, inputs, params, feed in _source_cases():
        yield cid, batch, partial(compile_source, src, inputs=inputs, params=tuple(params)), \
            params, feed
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
    for name, src in _SIZES:
        yield (f"sizes:{name}", 1, src, ("x", "n"), {},
               {"x": Value.scalar(1.5), "n": Value.scalar(3.0)})
    for name, src, inputs in _CONTROL:
        for batch, v0, x0 in ((1, Value.vector(_V[0]), Value.scalar(1.5)),
                              (3, Value.batch_vectors(_V), Value.batch_scalars(_V[:, 0]))):
            feed = {"n": Value.scalar(4.0), "v0": v0, "x0": x0}
            yield f"control:{name}", batch, src, inputs, {}, {n: feed[n] for n in inputs}


def main() -> None:
    for cid, batch, make, params, feed in cases():
        for policy in (ERROR_POLICY, PROPAGATE_POLICY):
            for kind, run in (("untaped", _untaped), ("taped", _taped)):
                kernels._SHARED.clear()
                prog = make()
                named = {prog.input_names[k] if type(k) is int else k: v
                         for k, v in feed.items()}
                for i in range(RUNS):
                    print(cid, batch, policy.mode, i, kind, run(prog, named, params, policy))


if __name__ == "__main__":
    main()
