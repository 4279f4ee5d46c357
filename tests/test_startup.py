"""Start-up boundaries on the numpy side: the solving commands load numpy
and only the layers they run, and the lazily loaded layers behave as
before. What must run without numpy is a row of numpy_free_cases.py, and
test_numpy_free_case runs every row.

Which modules are loaded can only be seen in a fresh interpreter, so each
case runs in its own child process.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import gkpforge
from gkpforge import cli, montecarlo
from gkpforge.resources import resource_path
from numpy_free_cases import CASES, run_case

# prints main(argv)'s exit code, whether numpy loaded, and the layers loaded
RUN_MAIN = """
import contextlib, io, sys
from gkpforge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
layers = sorted(name.split(".", 1)[1] for name in sys.modules if name.startswith("gkpforge."))
print(code, "numpy" in sys.modules, *layers)
"""


def _child(code: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_numpy_free_case(case):
    assert run_case(case) is None


@pytest.mark.parametrize("argv, unused", [
    (["condition", "--samples", "16"], {"barriers"}),
    (["extract", "--rhs", str(resource_path("synthetic-rhs-noiseless-v1"))], {"montecarlo"}),
], ids=["condition", "extract"])
def test_solving_commands_load_numpy_and_only_the_layers_they_run(argv, unused):
    code, numpy, *loaded = _child(RUN_MAIN, *argv, "--format", "json").split()
    assert (code, numpy) == ("0", "True")
    assert unused.isdisjoint(loaded), sorted(unused.intersection(loaded))


def test_lazy_submodules_resolve_after_bare_import():
    code = (
        "import gkpforge\n"
        "names = [getattr(gkpforge, name).__name__ for name in gkpforge._LAZY_SUBMODULES]\n"
        "from gkpforge import topology\n"
        "print(*names, gkpforge.gkp.solvable is topology.solvable)"
    )
    assert _child(code) == ("gkpforge.angular gkpforge.barriers gkpforge.budget gkpforge.gkp "
                            "gkpforge.montecarlo gkpforge.nucdata gkpforge.topology True")


def test_package_namespace_unchanged():
    assert gkpforge.__all__ == [
        "__version__", "angular", "barriers", "budget", "gkp", "montecarlo", "nucdata", "topology",
        "GkpforgeError", "ValidationError", "RefusalError",
        "UnderdeterminedError", "RankDeficiencyError", "NumericalError",
    ]
    assert all(hasattr(gkpforge, name) for name in gkpforge.__all__)
    for module in (gkpforge.angular, gkpforge.barriers, gkpforge.budget, gkpforge.gkp,
                   gkpforge.montecarlo, gkpforge.nucdata, gkpforge.topology):
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    assert gkpforge.gkp.solvability_verdict is gkpforge.topology.solvability_verdict
    assert gkpforge.gkp.Topology is gkpforge.topology.Topology
    with pytest.raises(AttributeError, match="no attribute 'no_such_layer'"):
        gkpforge.no_such_layer


def test_linalg_error_in_condition_exits_3(capsys, monkeypatch):
    def kernel_failure(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(montecarlo, "kappa_draws", kernel_failure)
    code = cli.main(["condition", "--samples", "16", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical failure: SVD did not converge" in captured.err
