"""Benchmark launcher for schemegrad.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout: it imports schemegrad from
``src/`` of that checkout and exits with code 2, printing no result, when
that tree is missing. It pins the BLAS/OpenMP thread pools to one thread
before numpy is imported, then runs one workload (or each in turn) in this
one process. It prints the environment, every metric with its unit, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics. With ``--trace 1`` the metrics are the per-layer ones, and the
spans are written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schemegrad" / "__init__.py").is_file():
        print(f"error: no schemegrad source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import schemegrad

    if Path(schemegrad.__file__).resolve().parent != (SRC / "schemegrad").resolve():
        print(f"error: imported schemegrad from {schemegrad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    env = environment()
    print("# env " + json.dumps(env))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print(f"# workload {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            header = {"workload": name, "seed": args.seed, "env": env}
            res = harness.run_traced(WORKLOADS[name], args.seed, args.seconds,
                                     out_dir / f"spans-{name}-seed{args.seed}.jsonl", header)
        else:
            res = harness.run_untraced(WORKLOADS[name], args.seed, args.seconds)
        for key, (value, unit) in res.metrics.items():
            print(f"metric {key} {value!r} {unit}")
        for key, value in res.info.items():
            print(f"info {key} {value!r}")
        for err in res.errors[:20]:
            print(f"error {err}")
        line = {"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}}
        if len(names) > 1:
            print(json.dumps(line))
        summary["correct"] &= line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in line["metrics"].items()})
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
