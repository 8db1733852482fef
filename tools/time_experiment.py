"""Wall time of each phase of the pendulum experiment, in two source trees.

    python tools/time_experiment.py OLD_TREE NEW_TREE --epochs-scale 0.1 --pairs 3

Each run is a fresh Python process with ``PYTHONPATH=<tree>/src``, so it
imports that tree's ``schemegrad`` and generates its kernels anew.  The
trees alternate, the first tree first in odd pairs and the second tree
first in even ones, so that a drift of the host's speed falls on both.  A
run repeats ``experiments.pendulum.run`` phase by phase at the given
``--epochs-scale``, timing each with ``time.perf_counter``:

- ``fit_s1``: scenario 1's Adam fit and Gauss-Newton polish;
- ``fit_mlp_baseline``: the dense-network ODE baseline's fit;
- ``fit_s2_hybrid``: scenario 2's hybrid fit;
- ``rollout_s1``, ``rollout_mlp``, ``rollout_hybrid``: the trajectory error
  of each fitted system, two rollouts each;
- ``total``: the sum of the phases.

It prints one line per run (pair, tree, phase times in seconds), then each
phase's median per tree and the ratio of the second tree's median to the
first's.  Only the pendulum experiment is timed; its phases are the
public functions of ``schemegrad.experiments.pendulum``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PHASES = ("fit_s1", "fit_mlp_baseline", "fit_s2_hybrid", "rollout_s1", "rollout_mlp",
          "rollout_hybrid")

# The child process: pendulum.run's phases, each timed, printed as JSON.
CHILD = """
import json, sys, time
from schemegrad.experiments import pendulum as p

scale = float(sys.argv[1])
epochs = max(50, int(round(p.ADAM_EPOCHS * scale)))
mlp_epochs = max(50, int(round(p.MLP_EPOCHS * scale)))
n = int(round(p.T_END / p.DT))
times = {}


def timed(phase, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times[phase] = time.perf_counter() - t0
    return out


store = timed("fit_s1", p.fit_s1, epochs=epochs)[0]
mlp_sys = timed("fit_mlp_baseline", p.fit_mlp_baseline, epochs=mlp_epochs)[1]
h_sys = timed("fit_s2_hybrid", p.fit_s2_hybrid, epochs=epochs)[2]
timed("rollout_s1", p.trajectory_mse, p.make_system(store), n)
timed("rollout_mlp", p.trajectory_mse, mlp_sys, n)
timed("rollout_hybrid", p.trajectory_mse, h_sys, n)
print(json.dumps(times))
"""


def run_tree(tree: Path, scale: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, str(scale)], env=env, cwd=tree,
                         capture_output=True, text=True, check=True)
    times = json.loads(out.stdout.strip().splitlines()[-1])
    times["total"] = sum(times[phase] for phase in PHASES)
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path, help="two source trees, each with a src/")
    ap.add_argument("--epochs-scale", type=float, required=True,
                    help="multiplier on every training budget, as in `schemegrad experiment`")
    ap.add_argument("--pairs", type=int, default=3, help="alternating pairs of runs")
    args = ap.parse_args()
    trees = [tree.resolve() for tree in args.trees]
    columns = PHASES + ("total",)
    print("pair tree " + " ".join(columns))
    runs = {0: [], 1: []}
    for pair in range(1, args.pairs + 1):
        for which in ((0, 1) if pair % 2 else (1, 0)):
            times = run_tree(trees[which], args.epochs_scale)
            runs[which].append(times)
            print(pair, which + 1, " ".join(f"{times[c]:.3f}" for c in columns), flush=True)
    print("median per phase: first tree, second tree, second / first")
    for c in columns:
        first, second = (statistics.median(t[c] for t in runs[w]) for w in (0, 1))
        print(f"{c} {first:.3f} {second:.3f} {second / first:.3f}")


if __name__ == "__main__":
    main()
