"""Command-line interface: compile/eval/grad one-off programs, run the
training driver from a JSON config, and reproduce the experiment suite.

Exit codes: 0 all acceptance rows pass, 1 an acceptance row failed,
2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .autodiff import ParameterStore, backward
from .compiler import DEFAULT_MAX_DEPTH, CompileConfig, compile_source, disassemble
from .errors import ConfigError, SchemegradError
from .machine import eval_program, eval_with_tape
from .values import Value


def _read_source(args) -> str:
    if args.source and args.expr:
        raise ConfigError("pass either --source or --expr, not both")
    if args.source:
        try:
            with open(args.source) as f:
                return f.read()
        except OSError as e:
            raise ConfigError(f"cannot read {args.source!r}: {e}") from e
    if args.expr:
        return args.expr
    raise ConfigError("a program is required (--source file.scm or --expr '(...)')")


def _names(s: str | None) -> tuple:
    return tuple(x for x in (s or "").replace(",", " ").split() if x)


def _json_arg(s: str | None, flag: str) -> dict:
    if not s:
        return {}
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON for {flag}: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{flag} must be a JSON object of name: value")
    return obj


def _value_of(v) -> Value:
    try:
        arr = np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"not a number or an array of numbers: {v!r}") from e
    return Value.of(arr)


def _compile_from_args(args):
    cfg = CompileConfig(max_recursion_depth=args.max_recursion_depth)
    return compile_source(_read_source(args), inputs=_names(args.inputs),
                          params=_names(args.params), config=cfg)


def cmd_compile(args) -> int:
    prog = _compile_from_args(args)
    print(disassemble(prog))
    print(f"; {prog.node_count} nodes, compiled in {prog.compile_seconds * 1e6:.0f} us")
    return 0


def _store_from_args(args) -> ParameterStore | None:
    values = _json_arg(args.param_values, "--param-values")
    if not values:
        return None
    store = ParameterStore()
    for name, v in values.items():
        store.add(name, _value_of(v))
    return store


def cmd_eval(args) -> int:
    prog = _compile_from_args(args)
    inputs = {k: _value_of(v) for k, v in _json_arg(args.at, "--at").items()}
    out = eval_program(prog, inputs, _store_from_args(args))
    print(json.dumps(out.data.tolist()))
    return 0


def cmd_grad(args) -> int:
    prog = _compile_from_args(args)
    inputs = {k: _value_of(v) for k, v in _json_arg(args.at, "--at").items()}
    store = _store_from_args(args)
    if store is not None:
        store.zero_grads()
    out, tape = eval_with_tape(prog, inputs, store)
    seed = Value(np.ones_like(out.data), out.kind, out.batched)
    result = backward(tape, seed, wrt_inputs=list(inputs))
    report = {
        "output": out.data.tolist(),
        "inputs": {k: v.data.tolist() for k, v in result.input_grads.items()},
    }
    if store is not None:
        report["params"] = {n: store[n].grad.tolist() for n in store.names()
                            if store[n].grad is not None}
    print(json.dumps(report, indent=2))
    return 0


def cmd_train(args) -> int:
    from .training import DataSpec, OptimSpec, train_coefficients

    if not args.config:
        raise ConfigError("train requires --config pointing at a task JSON")
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON config: {e}") from e
    for key in ("source", "inputs", "params", "ranges"):
        if key not in cfg:
            raise ConfigError(f"config is missing {key!r}")
    prog = compile_source(cfg["source"], inputs=tuple(cfg["inputs"]),
                          params=tuple(cfg["params"]) + tuple(cfg.get("frozen", {})))
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    epochs = int(round(cfg.get("epochs", 3000) * args.epochs_scale))
    data = DataSpec(
        ranges={k: tuple(v) for k, v in cfg["ranges"].items()},
        noise=cfg.get("noise", 0.02),
        batch=cfg.get("batch", 10_000),
    )
    optim = OptimSpec(lr0=cfg.get("lr0", 1e-2), lr1=cfg.get("lr1", 1e-4))
    store, report = train_coefficients(
        prog, cfg["params"], data, epochs=epochs, seed=seed, optim=optim,
        frozen_params=cfg.get("frozen"),
        prior_scales=cfg.get("priors"),
        polish_samples=cfg.get("polish_samples", 0),
    )
    payload = {
        "final_params": report.final_params,
        "recovery_errors": report.recovery_errors,
        "test_mse": report.test_mse,
        "extrap_mse": report.extrap_mse,
        "epochs": report.epochs,
        "seed": report.seed,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        import csv
        import os

        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "training_report.json"), "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        with open(os.path.join(args.out, "loss_curve.csv"), "w") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["epoch", "train_loss", "test_loss"])
            for epoch, loss in report.loss_curve:
                w.writerow([epoch, repr(loss), ""])
    return 0


def _finish_rows(rows, out_dir: str | None) -> int:
    from .experiments.report import emit_markdown, rows_passed

    failed = [r for r in rows if not r.passed]
    print(emit_markdown(rows))
    if failed:
        print(f"{len(failed)} acceptance row(s) FAILED", file=sys.stderr)
    return 0 if rows_passed(rows) else 1


def cmd_experiment(args) -> int:
    from .experiments.runner import load_spec, run_experiment

    spec = load_spec(args.id, config_path=args.config, out_dir=args.out,
                     seed=args.seed, epochs_scale=args.epochs_scale)
    if args.parallel:
        spec.options["parallel"] = args.parallel
    rows = run_experiment(spec)
    return _finish_rows(rows, args.out)


def cmd_bench(args) -> int:
    from .experiments.runner import ExperimentSpec, run_experiment

    spec = ExperimentSpec(id="bench", out_dir=args.out, seed=args.seed,
                          epochs_scale=args.epochs_scale)
    rows = run_experiment(spec)
    return _finish_rows(rows, args.out)


def cmd_all(args) -> int:
    from .experiments.runner import run_all

    rows, ok = run_all(out_dir=args.out, seed=args.seed,
                       epochs_scale=args.epochs_scale)
    return _finish_rows(rows, args.out)


def _add_program_args(p):
    p.add_argument("--source", help="path to a .scm source file")
    p.add_argument("--expr", help="program text given inline")
    p.add_argument("--inputs", help="comma- or space-separated input names")
    p.add_argument("--params", help="comma- or space-separated parameter names")
    p.add_argument("--max-recursion-depth", type=int, default=DEFAULT_MAX_DEPTH)


def _add_common(p, default_out=None):
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=default_out,
                   help="output directory for reports"
                        + (f" (default: {default_out})" if default_out else ""))
    p.add_argument("--epochs-scale", type=float, default=1.0,
                   help="multiplier on every training budget")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schemegrad",
        description="compile, evaluate, differentiate and train Scheme-syntax programs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="print the instruction-sequence disassembly")
    _add_program_args(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a program at a point")
    _add_program_args(p)
    p.add_argument("--at", help='JSON input values, e.g. \'{"x": 2.0}\'')
    p.add_argument("--param-values", help='JSON parameter values, e.g. \'{"G": 6.674}\'')
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grad", help="evaluate and report gradients at a point")
    _add_program_args(p)
    p.add_argument("--at", help="JSON input values")
    p.add_argument("--param-values", help="JSON parameter values")
    p.set_defaults(fn=cmd_grad)

    p = sub.add_parser("train", help="fit program parameters from a task config")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("experiment", help="run one canned experiment")
    p.add_argument("id", choices=("feynman", "lotka_volterra", "pendulum", "heat",
                                  "vector3d", "composition", "bench"))
    _add_common(p, default_out="results")
    p.add_argument("--parallel", type=int, default=0,
                   help="worker processes for independent fits")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("bench", help="run the batch-amortization benchmark")
    _add_common(p, default_out="results")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("all", help="run every experiment and the benchmark")
    _add_common(p, default_out="results")
    p.set_defaults(fn=cmd_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except SchemegradError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
