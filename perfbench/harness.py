"""Runs one workload in one process and thread, in a closed loop with one
client: set-up, the timed loop with its interleaved measurements, and the
untimed passes after it.

Untraced, it reports the end-to-end metrics. Traced, it times half of the
run untraced and half with spans, and reports the per-layer metrics. Ops
run in whole cycles, so per-op counts are exact and repeat between runs.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
import traceback

import numpy as np
from schemegrad.compiler import compile_source

import calibrate
from spans import (COMPILE_PHASES, KERNEL_SPANS, MACHINE_SPANS, Compiler, Tracer, phased_compile,
                   structural_counts)
from workloads import FEYNMAN

SETUP_REPEATS = 5
MIN_OPS = 100
MIN_PAIR_SAMPLES = 3
CALIBRATE_EVERY_S = 0.05
COMPILE_EVERY_S = 0.1
PEAK_PASSES, PAGE = 3, 4096
COMPILE_ROUNDS = 5   # traced compile pass: the first round warms, the rest are measured

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "vs_closure": "ratio", "peak_mb": "MB", "compile_us_p50": "us",
}
COMPILE_COUNTS = ("sexpr.tokens", "anf.bindings", "graph.nodes", "compiler.instructions")
TAPE_COUNTS = ("autodiff.tape_nodes", "autodiff.tape_mb")
PER_LAYER_UNITS = {
    "sexpr.parse_us": "us", "sexpr.scope_us": "us", "sexpr.tokens": "count",
    "anf.to_anf_us": "us", "anf.bindings": "count", "lowering.lower_us": "us",
    "graph.build_us": "us", "graph.toposort_us": "us", "graph.nodes": "count",
    "compiler.compile_us": "us", "compiler.emit_us": "us", "compiler.instructions": "count",
    "machine.self_ms": "ms", "machine.dispatch_us_per_call": "us",
    "machine.loop_iter_us": "us", "machine.tape_overhead_ms": "ms",
    "runtime.kernel_ms": "ms", "runtime.calls": "count", "runtime.out_mb": "MB",
    "runtime.linalg_ms": "ms",
    "autodiff.backward_ms": "ms", "autodiff.tape_nodes": "count", "autodiff.tape_mb": "MB",
    "nn.mse_us": "us", "optim.adam_us": "us",
    "ode.rk4_step_ms": "ms", "ode.shooting_loss_ms": "ms",
    "training.draw_ms": "ms",
    **{f"eval.{eid}.vs_closure": "ratio" for eid in FEYNMAN},
    "trace.overhead_share": "share",
}
# per-layer metric -> (spans whose self time it sums per op, unit per ns)
_SELF_TIME_PER_OP = {
    "machine.self_ms": (MACHINE_SPANS, 1e-6),
    "runtime.kernel_ms": (KERNEL_SPANS, 1e-6),
    "runtime.linalg_ms": (("runtime.linalg",), 1e-6),
    "autodiff.backward_ms": (("autodiff.backward",), 1e-6),
    "nn.mse_us": (("nn.mse_record",), 1e-3),
    "optim.adam_us": (("optim.adam_step",), 1e-3),
    "ode.rk4_step_ms": (("ode.rk4_step",), 1e-6),
    "ode.shooting_loss_ms": (("ode.multiple_shooting_loss",), 1e-6),
    "training.draw_ms": (("training.draw_inputs",), 1e-6),
}
_PHASE_METRICS = dict(zip(COMPILE_PHASES, ("sexpr.parse_us", "sexpr.scope_us", "anf.to_anf_us",
                                           "lowering.lower_us", "graph.build_us",
                                           "graph.toposort_us")))


class Result:
    def __init__(self):
        self.metrics = {}     # name -> (value, unit)
        self.info = {}        # printed, not part of the result line
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def count_checks(self, bad: list, cases: int) -> None:
        self.attempted += cases
        self.failed += len(bad)
        self.errors.extend(bad)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def _median(xs) -> float:
    return statistics.median(xs)


def _geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def _distinct(sources) -> list:
    return list(dict.fromkeys(sources))


def item_name(item) -> str:
    return str(getattr(item, "name", None) or item[0])


class TapeCounter:
    """Sums tape sizes over op results: (loss, tapes) from the fit workloads."""

    def __init__(self):
        self.ops = self.nodes = self.nbytes = 0

    def __call__(self, result) -> None:
        self.ops += 1
        for tape in result[1] if isinstance(result, tuple) else ():
            self.nodes += len(tape.nodes)
            self.nbytes += sum(node[2].data.nbytes for node in tape.nodes)

    def per_op(self) -> dict:
        return {"autodiff.tape_nodes": self.nodes / self.ops,
                "autodiff.tape_mb": self.nbytes / self.ops / 1e6}


def run_checks(wl) -> list:
    """The workload's output checks; one that raises counts as a mismatch."""
    try:
        return wl.checks()
    except Exception:
        return ["output checks raised:\n" + traceback.format_exc(limit=3)]


def setup(cls, seed: int, compile_fn, result: Result):
    """Compile the programs, make the inputs, run the output checks and warm
    up with one cycle. Returns the workload and the seconds it took."""
    t0 = time.perf_counter()
    wl = cls(seed, compile_fn)
    bad = run_checks(wl)
    for item in wl.cycle:
        try:
            ok = wl.verify(item, wl.op(item))
        except Exception:
            ok = False
            bad.append(traceback.format_exc(limit=3))
        if not ok:
            bad.append(f"warm-up op on {item_name(item)} failed")
    elapsed = time.perf_counter() - t0
    if bad:
        result.fail("set-up checks: " + "; ".join(bad))
    return wl, elapsed


def closed_loop(wl, seconds: float, result: Result, slices, op=None, on_result=None) -> list:
    """Run whole cycles until `seconds` have passed, at least MIN_OPS ops ran
    and `slices` has what it needs; return the per-op latencies in seconds.
    Each op is checked after its timing ends, and `slices` runs after each
    cycle."""
    op = op or wl.op
    lat = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    cycle = 0
    while len(lat) < MIN_OPS or time.perf_counter() < deadline or not slices.done():
        for item in wl.cycle:
            t0 = time.perf_counter()
            try:
                res = op(item)
            except Exception:  # a failed op is counted and the loop goes on
                res = None
                err = traceback.format_exc(limit=3)
            lat.append(time.perf_counter() - t0)
            slices.tick(len(lat))
            result.attempted += 1
            if res is None:
                result.failed += 1
                result.errors.append(f"op on {item_name(item)} raised:\n{err}")
            elif not wl.verify(item, res):
                result.failed += 1
                result.errors.append(f"op on {item_name(item)} failed its check")
            elif on_result is not None:
                on_result(res)
        slices(cycle)
        cycle += 1
    return lat


class Slices:
    """Measurements made between ops, so that they see the same host
    conditions as the ops: the host-speed scale (calibrate.py), at most
    every CALIBRATE_EVERY_S, and after each cycle:

    - one of the `pairs` (name, call a, call b) on the same inputs,
      round-robin, each call timed over RATIO_INNER calls, alternating which
      goes first, until every pair has MIN_PAIR_SAMPLES;
    - unless the ops compile, compile_source of each of the workload's
      programs, in a burst at most every COMPILE_EVERY_S.
    """

    def __init__(self, wl, compiler: Compiler, pairs=()):
        self.wl, self.compiler = wl, compiler
        self.scales = []      # (ops done before it, nominal / kernel time)
        self._last_scale_at = self._last_burst_at = -math.inf
        self.pairs = list(pairs)
        self.pair_times = [([], []) for _ in self.pairs]
        self.sources = _distinct(compiler.sources)
        self.compile_lat = []  # scaled seconds
        self._seen_compiles = len(compiler.latencies)
        self.ops_compile = False

    def tick(self, ops: int) -> None:
        now = time.perf_counter()
        if now - self._last_scale_at >= CALIBRATE_EVERY_S:
            self.scales.append((ops, calibrate.scale()))
            self._last_scale_at = time.perf_counter()

    def __call__(self, cycle: int) -> None:
        scale = self.scales[-1][1]
        new = self.compiler.latencies[self._seen_compiles:]
        self._seen_compiles = len(self.compiler.latencies)
        self.ops_compile = self.ops_compile or bool(new)
        self.compile_lat.extend(t * scale for t in new)
        if not self.ops_compile and time.perf_counter() - self._last_burst_at >= COMPILE_EVERY_S:
            for src, inputs, params in self.sources:
                t0 = time.perf_counter()
                compile_source(src, inputs=inputs, params=params)
                self.compile_lat.append((time.perf_counter() - t0) * scale)
            self._last_burst_at = time.perf_counter()

        if self.pairs:
            k = cycle % len(self.pairs)
            _, comp, clos = self.pairs[k]
            order = ((comp, self.pair_times[k][0]), (clos, self.pair_times[k][1]))
            for fn, times in order if (cycle // len(self.pairs)) % 2 == 0 else order[::-1]:
                t0 = time.perf_counter()
                for _ in range(self.wl.RATIO_INNER):
                    fn()
                times.append((time.perf_counter() - t0) / self.wl.RATIO_INNER)

    def done(self) -> bool:
        return all(len(tc) >= MIN_PAIR_SAMPLES for tc, _ in self.pair_times)

    def scaled(self, lat: list) -> list:
        """Op latencies, each times the first scale measured after it."""
        out, k = [], 0
        for i, t in enumerate(lat):
            while self.scales[k][0] <= i and k + 1 < len(self.scales):
                k += 1
            out.append(t * self.scales[k][1])
        return out

    def scale_values(self) -> list:
        return [s for _, s in self.scales]

    def medians(self) -> dict:
        """Per pair: (median time of call a, median time of call b)."""
        return {name: (_median(ta), _median(tb))
                for (name, _, _), (ta, tb) in zip(self.pairs, self.pair_times)}


def peak_mb(wl) -> float:
    """Largest tracemalloc peak of one op over a cycle, above what was
    allocated before it, in MB of whole 4 KiB pages. Each op starts after a
    full collection; an op's peak is its least over PEAK_PASSES passes,
    because Python's free lists move single ops by up to a few KiB."""
    least = {}
    tracemalloc.start()
    try:
        for _ in range(PEAK_PASSES):
            for i, item in enumerate(wl.cycle):
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                res = wl.op(item)
                peak = tracemalloc.get_traced_memory()[1] - base
                least[i] = min(least.get(i, peak), peak)
                del res
    finally:
        tracemalloc.stop()
    return math.ceil(max(least.values()) / PAGE) * PAGE / 1e6


def count_pass(wl, compiler: Compiler) -> dict:
    """Untraced counts: tape sizes per op over one cycle, and compile counts
    averaged over the distinct programs the workload compiled."""
    tapes = TapeCounter()
    for item in wl.cycle:
        tapes(wl.op(item))
    per = [structural_counts(*s) for s in _distinct(compiler.sources)]
    return {**tapes.per_op(), **{k: sum(p[k] for p in per) / len(per) for k in COMPILE_COUNTS}}


def _slot_medians(wl, lat) -> list:
    """Median latency of each position in the cycle (an item listed twice
    has two positions)."""
    n = len(wl.cycle)
    return [_median(lat[i::n]) for i in range(n)]


# ---------------------------------------------------------------------------


def _timed_setup(cls, seed: int, compiler: Compiler, result: Result):
    wl, elapsed = setup(cls, seed, compiler, result)
    return wl, elapsed * calibrate.scale()


def run_untraced(cls, seed: int, seconds: float) -> Result:
    result = Result()
    compiler = Compiler()
    wl, first_setup = _timed_setup(cls, seed, compiler, result)
    slices = Slices(wl, compiler, wl.closure_pairs())
    raw = closed_loop(wl, seconds, result, slices)
    result.count_checks(run_checks(wl), len(wl.cycle))

    lat = slices.scaled(raw)
    slot_medians = _slot_medians(wl, lat)
    ratios = {name: a / b for name, (a, b) in slices.medians().items()}
    ms = np.asarray(lat) * 1e3
    values = {
        # the cycle's ops over the sum of each position's median latency: the
        # closed-loop rate at typical latencies, unmoved by a few slow seconds
        "ops_per_s": len(slot_medians) / sum(slot_medians),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "vs_closure": _geomean(ratios.values()),
        "peak_mb": peak_mb(wl),
        "compile_us_p50": _median(slices.compile_lat) * 1e6,
    }
    info = {
        "ops": len(lat), "raw_ops_per_busy_s": len(raw) / sum(raw),
        "raw_op_ms_p50": float(np.percentile(raw, 50)) * 1e3,
        "host_scale_p50": _median(slices.scale_values()),
        "compile_samples": len(slices.compile_lat),
        **{f"op_ms_p50.{item_name(item)}": t * 1e3 for item, t in zip(wl.cycle, slot_medians)},
        **{f"eval.{k}.vs_closure": v for k, v in ratios.items()},
        **{f"count.{k}": v for k, v in count_pass(wl, compiler).items()},
    }

    # The other set-ups come after the timed loop, so that building
    # workloads does not reshape the heap under the timed ops.
    wl = None
    setup_s = [first_setup]
    for _ in range(SETUP_REPEATS - 1):
        setup_s.append(_timed_setup(cls, seed, Compiler(), result)[1])
    values["setup_s"] = _median(setup_s)

    result.metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    result.info = {**info, "setup_runs_s": setup_s,
                   "fail_share": result.failed / max(result.attempted, 1)}
    return result


def _compile_pass(sources, result: Result) -> dict:
    """Phase spans and counts per compile over COMPILE_ROUNDS rounds of the
    distinct programs; the first round only warms up."""
    tracer = Tracer(keep=0)
    totals = dict.fromkeys(COMPILE_COUNTS, 0)
    n = 0
    for r in range(COMPILE_ROUNDS):
        if r == 1:
            tracer.reset()
        for src in sources:
            counts = phased_compile(tracer, *src)
            if counts is None:
                result.fail(f"phased compile != compile_source for {src[0]!r}")
            elif r > 0:
                n += 1
                for k in COMPILE_COUNTS:
                    totals[k] += counts[k]
    m = {k: v / n for k, v in totals.items()}
    phase_ns = 0
    for span, metric in _PHASE_METRICS.items():
        phase_ns += tracer.total_ns[span]
        m[metric] = tracer.total_ns[span] / n / 1e3
    compile_ns = tracer.total_ns["compiler.compile_source"]
    m["compiler.compile_us"] = compile_ns / n / 1e3
    m["compiler.emit_us"] = (compile_ns - phase_ns) / n / 1e3
    return m


def run_traced(cls, seed: int, seconds: float, spans_path=None, header=None) -> Result:
    """Half the run untraced, half traced; per-layer metrics from the spans.
    Span times are raw; trace.overhead_share compares scaled throughputs."""
    result = Result()
    compiler = Compiler()
    wl, _ = setup(cls, seed, compiler, result)
    tape_pairs = [(f"tape:{i}", ev, tape) for i, (ev, tape) in enumerate(wl.tape_pairs())]
    untraced = Slices(wl, compiler, wl.closure_pairs() + tape_pairs)
    untraced_lat = untraced.scaled(closed_loop(wl, seconds / 2, result, untraced))

    tracer = Tracer()

    def traced_op(item):
        tracer.op_id += 1
        with tracer.span("bench.op"):
            return wl.op(item)

    tapes = TapeCounter()
    traced = Slices(wl, compiler)
    tracer.install()
    try:
        raw = closed_loop(wl, seconds / 2, result, traced, op=traced_op, on_result=tapes)
        agg = tracer.snapshot()
        result.count_checks(run_checks(wl), len(wl.cycle))  # with the wrappers in place
    finally:
        tracer.uninstall()
    lat = traced.scaled(raw)

    ops = len(lat)
    m = {metric: sum(agg["self_ns"].get(n, 0) for n in names) / ops * unit
         for metric, (names, unit) in _SELF_TIME_PER_OP.items()}
    kernel_calls = sum(agg["calls"].get(n, 0) for n in KERNEL_SPANS)
    machine_ns = sum(agg["self_ns"].get(n, 0) for n in MACHINE_SPANS)
    m["machine.dispatch_us_per_call"] = machine_ns / kernel_calls / 1e3 if kernel_calls else 0.0
    m["runtime.calls"] = kernel_calls / ops
    m["runtime.out_mb"] = agg["out_bytes"] / ops / 1e6
    m.update(tapes.per_op())
    m.update(_compile_pass(_distinct(compiler.sources), result))

    medians = untraced.medians()
    m["machine.tape_overhead_ms"] = sum(medians[name][1] - medians[name][0]
                                        for name, _, _ in tape_pairs) * 1e3
    probe = getattr(wl, "loop_probe", None)
    if probe is None:
        m["machine.loop_iter_us"] = 0.0
    else:
        fn, iterations = probe()
        fn()
        runs = []
        for _ in range(7):
            t0 = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - t0)
        m["machine.loop_iter_us"] = _median(runs) / iterations * 1e6
    for eid in FEYNMAN:
        a, b = medians.get(eid, (0.0, 1.0))
        m[f"eval.{eid}.vs_closure"] = a / b
    m["trace.overhead_share"] = 1.0 - (sum(untraced_lat) / len(untraced_lat)) / (sum(lat) / ops)

    counts = count_pass(wl, compiler)
    for k in COMPILE_COUNTS + TAPE_COUNTS:
        if counts[k] != m[k]:
            result.fail(f"count {k}: traced {m[k]!r} != untraced {counts[k]!r}")

    result.metrics = {k: (m[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
    result.info = {"ops": ops, "untraced_ops": len(untraced_lat),
                   "fail_share": result.failed / max(result.attempted, 1),
                   "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
                   **{f"count.{k}": v for k, v in counts.items()}}
    if spans_path is not None:
        tracer.write(spans_path, header or {})
    return result
