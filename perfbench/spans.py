"""Spans for the traced run, recorded from the benchmark's own code.

A traced run rebinds public schemegrad functions, in the module namespaces
their callers look them up in, to timing wrappers. Spans nest strictly (one
thread), so a span's self time is its duration minus the durations of its
direct children. Self times and counts are aggregated as spans close; the
raw spans (name, start, end, parent, op id) are also kept in memory, up to
a cap, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from schemegrad import anf, autodiff, compiler, graph, lowering, machine, nn, ode, optim, sexpr, training

_now = time.perf_counter_ns

# det/inv run the per-matrix Python LU; their kernel time is also reported
# on its own as runtime.linalg_ms.
LINALG_OPS = frozenset(["det", "inv"])

KERNEL_SPANS = ("runtime.kernel", "runtime.linalg")
MACHINE_SPANS = ("machine.eval_program", "machine.run_on_tape")
COMPILE_PHASES = ("sexpr.parse", "sexpr.scope", "anf.to_anf", "lowering.lower",
                  "graph.build", "graph.toposort")

# (module, attribute, span name): the calls each traced run wraps.
_WRAPPED = (
    (compiler, "compile_source", "compiler.compile_source"),
    (machine, "eval_program", "machine.eval_program"),
    (machine, "run_on_tape", "machine.run_on_tape"),  # TapeContext.run imports it per call
    (autodiff, "backward", "autodiff.backward"),      # TapeContext.backward calls this global
    (nn, "mse_record", "nn.mse_record"),              # TapeContext.mse imports it per call
    (optim, "adam_step", "optim.adam_step"),
    (ode, "rk4_step", "ode.rk4_step"),                # multiple_shooting_loss calls this global
    (ode, "multiple_shooting_loss", "ode.multiple_shooting_loss"),
    (training, "draw_inputs", "training.draw_inputs"),
)
# Runtime kernels, as bound in the two modules that call them.
_KERNELS = ("apply_primitive", "pow_immediate", "select")
_KERNEL_HOSTS = (machine, autodiff)


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans = []       # (id, name, start_ns, end_ns, parent id, op id)
        self.dropped = 0
        self._stack = []      # [span id, child ns]
        self._next_id = 0
        self.op_id = -1
        self.reset()
        self._saved = []

    def reset(self) -> None:
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.out_bytes = 0

    def snapshot(self) -> dict:
        return {"self_ns": dict(self.self_ns), "total_ns": dict(self.total_ns),
                "calls": dict(self.calls), "out_bytes": self.out_bytes}

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, t0, t1):
        self._stack.pop()
        d = t1 - t0
        self.self_ns[name] += d - frame[1]
        self.total_ns[name] += d
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += d
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], name, t0, t1, parent, self.op_id))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame, parent = self._open()
        t0 = _now()
        try:
            yield
        finally:
            self._close(name, frame, parent, t0, _now())

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame, parent = self._open()
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, t0, _now())

        return traced

    def wrap_kernel(self, fn):
        """apply_primitive / pow_immediate / select: also counts output bytes."""
        is_apply = fn.__name__ == "apply_primitive"

        def traced(*args, **kwargs):
            name = "runtime.linalg" if is_apply and args[0] in LINALG_OPS else "runtime.kernel"
            frame, parent = self._open()
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, t0, _now())
            self.out_bytes += out.data.nbytes
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for mod, attr, name in _WRAPPED:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for mod in _KERNEL_HOSTS:
            for attr in _KERNELS:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap_kernel(getattr(mod, attr)))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({**header, "spans_kept": len(self.spans),
                                "spans_dropped": self.dropped}) + "\n")
            for sid, name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                                    "parent": parent, "op": op}) + "\n")


def instruction_count(prog) -> int:
    """Instructions in every block of a compiled program: the top block,
    branch arms, loop bodies and function bodies, each body counted once."""
    seen = set()

    def body(ir) -> int:
        if id(ir) in seen:
            return 0
        seen.add(id(ir))
        return block(ir.block)

    def block(b) -> int:
        n = len(b.instrs) + sum(body(ins[2]) for ins in b.instrs if ins[0] in ("loop", "call"))
        if b.tail[0] == "branch":
            n += block(b.tail[2]) + block(b.tail[3])
        return n

    return block(prog.block) + sum(body(fn) for fn in prog.functions)


def compile_counts(tokens, anf_prog, g, prog) -> dict:
    return {"sexpr.tokens": len(tokens), "anf.bindings": anf.count_bindings(anf_prog),
            "graph.nodes": len(g.nodes), "compiler.instructions": instruction_count(prog)}


class Compiler:
    """Compiles the workloads' programs through compile_source, recording
    each call's latency and what was compiled."""

    def __init__(self):
        self.sources = []     # (source, inputs, params) of every compile
        self.latencies = []   # seconds per compile_source call

    def __call__(self, source: str, inputs=(), params=()):
        inputs, params = tuple(inputs), tuple(params)
        self.sources.append((source, inputs, params))
        t0 = time.perf_counter()
        prog = compiler.compile_source(source, inputs=inputs, params=params)
        self.latencies.append(time.perf_counter() - t0)
        return prog


def phased_compile(tracer: Tracer, source: str, inputs: tuple, params: tuple) -> dict:
    """Call the compile phases in compile_source's order, each in its own
    span, then compile_source itself in a span, and check that both built
    the same graph. Returns the compile counts (None on a mismatch)."""
    span = tracer.span
    with span("sexpr.parse"):
        tokens = sexpr.tokenize(source)
        ast = sexpr.parse_tokens(tokens)
    with span("sexpr.scope"):
        sexpr.check_scope(ast, inputs, params)
    with span("anf.to_anf"):
        a = anf.to_anf(ast)
    with span("lowering.lower"):
        a = lowering.lower_tail_calls(a)
    with span("graph.build"):
        g = graph.build_graph(a, inputs, params)
    with span("graph.toposort"):
        graph.toposort(g)
    with span("compiler.compile_source"):
        prog = compiler.compile_source(source, inputs=inputs, params=params)
    if (len(g.nodes), g.output, len(g.functions)) != (
            prog.node_count, prog.output_slot, len(prog.functions)):
        return None
    return compile_counts(tokens, a, g, prog)


def structural_counts(source: str, inputs=(), params=()) -> dict:
    """The compile counts of one program, from untraced calls."""
    tokens = sexpr.tokenize(source)
    a = lowering.lower_tail_calls(anf.to_anf(sexpr.parse_tokens(tokens)))
    g = graph.build_graph(a, inputs, params)
    prog = compiler.compile_source(source, inputs=inputs, params=params)
    return compile_counts(tokens, a, g, prog)
