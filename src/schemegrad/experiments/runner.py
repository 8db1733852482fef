"""Experiment dispatch: canned configurations, result/report writing, and
the pass/fail exit contract."""

from __future__ import annotations

import inspect
import json
import os
import time
from dataclasses import dataclass, field

from ..errors import ConfigError
from . import bench, composition, feynman, gravity3d, heat, lotka_volterra, pendulum
from .report import ResultRow, rows_passed, write_reports

EXPERIMENT_IDS = ("feynman", "lotka_volterra", "pendulum", "heat", "vector3d",
                  "composition", "bench")

_RUNNERS = {
    "feynman": feynman.run,
    "lotka_volterra": lotka_volterra.run,
    "pendulum": pendulum.run,
    "heat": heat.run,
    "vector3d": gravity3d.run,
    "composition": composition.run,
    "bench": bench.run,
}

DEFAULT_SEEDS = {
    "feynman": 0,
    "lotka_volterra": lotka_volterra.DEFAULT_SEED,
    "pendulum": pendulum.DEFAULT_SEED,
    "heat": heat.DEFAULT_SEED,
    "vector3d": gravity3d.DEFAULT_SEED,
    "composition": composition.DEFAULT_SEED,
    "bench": 0,
}


@dataclass
class ExperimentSpec:
    id: str
    out_dir: str | None = None
    seed: int | None = None
    epochs_scale: float = 1.0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in EXPERIMENT_IDS:
            raise ConfigError(
                f"unknown experiment {self.id!r}; expected one of {EXPERIMENT_IDS}"
            )


def load_spec(experiment_id: str, config_path: str | None = None,
              out_dir: str | None = None, seed: int | None = None,
              epochs_scale: float | None = None) -> ExperimentSpec:
    options = {}
    cfg_scale = None
    cfg_seed = None
    if config_path:
        try:
            with open(config_path) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {config_path!r}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {config_path!r}: {e}") from e
        if "id" in raw and raw["id"] != experiment_id:
            raise ConfigError(
                f"config is for experiment {raw['id']!r}, not {experiment_id!r}"
            )
        cfg_seed = raw.get("seed")
        cfg_scale = raw.get("epochs_scale")
        options = raw.get("options", {})
    return ExperimentSpec(
        id=experiment_id,
        out_dir=out_dir,
        seed=seed if seed is not None else cfg_seed,
        epochs_scale=epochs_scale if epochs_scale is not None else (cfg_scale or 1.0),
        options=options,
    )


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run one experiment, write reports if an output directory is set, and
    return the rows.

    Reports land in <out>/<experiment>/<timestamp>/; report contents are
    deterministic for a given spec, only the directory name varies.
    """
    runner = _RUNNERS[spec.id]
    unknown = set(spec.options) - set(inspect.signature(runner).parameters)
    if unknown:
        raise ConfigError(f"experiment {spec.id!r} takes no option {sorted(unknown)}")
    seed = spec.seed if spec.seed is not None else DEFAULT_SEEDS[spec.id]
    kwargs = {"seed": seed, "epochs_scale": spec.epochs_scale}
    kwargs.update(spec.options)
    rows, curves = runner(**kwargs)
    if spec.out_dir:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        out = os.path.join(spec.out_dir, spec.id, stamp)
        write_reports(rows, out, loss_curves=curves)
    return rows


def run_all(out_dir: str | None = None, seed: int | None = None,
            epochs_scale: float = 1.0, ids=EXPERIMENT_IDS) -> tuple[list[ResultRow], bool]:
    all_rows: list[ResultRow] = []
    for eid in ids:
        spec = ExperimentSpec(id=eid, out_dir=out_dir, seed=seed,
                              epochs_scale=epochs_scale)
        t0 = time.perf_counter()
        rows = run_experiment(spec)
        elapsed = time.perf_counter() - t0
        n_fail = sum(1 for r in rows if not r.passed)
        status = "ok" if n_fail == 0 else f"{n_fail} FAILED"
        print(f"[{eid}] {len(rows)} rows in {elapsed:.1f}s: {status}")
        all_rows.extend(rows)
    return all_rows, rows_passed(all_rows)
