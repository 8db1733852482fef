"""Every demo in ``demos/`` runs to completion with no float warning.

Each runs as its own process under ``-W error::RuntimeWarning`` and must
exit 0.  The three fitting demos take seconds each and run with the
acceptance suite."""

import os
import subprocess
import sys

import pytest

import schemegrad

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(schemegrad.__file__)))
_DEMOS = os.path.join(os.path.dirname(_SRC), "demos")
_SLOW = {"03_fit_constant.py", "04_ode_shooting.py", "05_heat_pde.py"}


def _demos():
    for name in sorted(os.listdir(_DEMOS)):
        if name.endswith(".py"):
            marks = [pytest.mark.acceptance] if name in _SLOW else []
            yield pytest.param(name, marks=marks, id=name[:-3])


@pytest.mark.parametrize("name", _demos())
def test_demo_runs_without_a_float_warning(name):
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          os.path.join(_DEMOS, name)],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": _SRC})
    assert run.returncode == 0, run.stderr
