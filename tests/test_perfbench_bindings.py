"""The benchmark under perfbench/ binds schemegrad names by attribute
(the traced run rebinds ``machine.select``, ``autodiff.pow_immediate``,
...; its compile pass calls ``lowering.lower_tail_calls`` and
``graph.toposort``).  These tests import its span module as the benchmark
does, so removing a name it binds fails here, not only in a benchmark run."""

import importlib
import pathlib

import pytest

from schemegrad import autodiff, machine, runtime

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_traced_run_installs_and_uninstalls(spans):
    tracer = spans.Tracer(keep=0)
    tracer.install()
    try:
        assert machine.apply_primitive is not runtime.apply_primitive
        assert machine.select is not runtime.select
        assert autodiff.pow_immediate is not runtime.pow_immediate
    finally:
        tracer.uninstall()
    for mod in (machine, autodiff):
        for name in ("apply_primitive", "pow_immediate", "select"):
            assert getattr(mod, name) is getattr(runtime, name)


PROGRAMS = [
    ("(* 2 (if (> x 0) (sqrt x) (- 0 x)))", ("x",), ()),
    ("(loop ((i 0) (acc 0)) (if (< i n) (recur (+ i 1) (+ acc (* k i))) acc))", ("n",), ("k",)),
    ("(letrec ((fib (lambda (k) (if (< k 2) k (+ (call fib (- k 1)) (call fib (- k 2)))))))"
     " (call fib n))", ("n",), ()),
]


@pytest.mark.parametrize("source, inputs, params", PROGRAMS, ids=["value_if", "loop", "letrec"])
def test_phased_compile_counts_what_compile_source_builds(spans, source, inputs, params):
    counts = spans.phased_compile(spans.Tracer(keep=0), source, inputs, params)
    assert counts is not None, "the compile phases built another graph than compile_source"
    assert counts == spans.structural_counts(source, inputs, params)
    assert set(counts) == {"sexpr.tokens", "anf.bindings", "graph.nodes",
                           "compiler.instructions"}
    assert all(n > 0 for n in counts.values())
