"""Start-up boundaries: each command loads only the layers it runs, the
closed-form commands run without numpy, and the lazily loaded layers
behave as before.

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

RUN_MAIN = """
import sys
from gkpforge import cli
code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

# the gkpforge submodules loaded in the child, as a sorted list
LOADED = "sorted(name.split('.', 1)[1] for name in sys.modules if name.startswith('gkpforge.'))"

RUN_MAIN_QUIET = f"""
import contextlib, io, sys
from gkpforge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *{LOADED})
"""

UNUSED_BY_CLOSED_FORM_PLANS = {"nucdata", "angular", "barriers", "topology", "gkp", "montecarlo"}


def _child(code: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1]


@pytest.mark.parametrize("module", ["gkpforge", "gkpforge.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert _child(f"import sys, {module}; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("module, loaded", [
    ("gkpforge", ["errors"]),
    ("gkpforge.cli", ["cli", "errors", "resources"]),
], ids=["gkpforge", "gkpforge.cli"])
def test_import_loads_no_layer(module, loaded):
    assert _child(f"import sys, {module}; print({LOADED})") == str(loaded)


@pytest.mark.parametrize("argv, unused", [
    (["ramsey", "--half-life", "15.5", "--tr", "1"], UNUSED_BY_CLOSED_FORM_PLANS),
    (["milestones", "--target", "1e-17"], UNUSED_BY_CLOSED_FORM_PLANS),
    (["solvability", "--transitions", "2"], {"barriers", "budget", "gkp", "montecarlo"}),
    (["budget"], {"topology", "gkp", "montecarlo"}),
    (["condition", "--samples", "16"], {"barriers"}),
    (["extract", "--rhs", str(resource_path("synthetic-rhs-noiseless-v1"))], {"montecarlo"}),
], ids=["ramsey", "milestones", "solvability", "budget", "condition", "extract"])
def test_commands_load_only_the_layers_they_run(argv, unused):
    code, *loaded = _child(RUN_MAIN_QUIET, *argv, "--format", "json").split()
    assert code == "0"
    assert unused.isdisjoint(loaded), sorted(unused.intersection(loaded))


@pytest.mark.parametrize("argv, code", [
    (["budget"], 0),
    (["budget", "--anchors", "no-such-anchors"], 2),
    (["solvability", "--transitions", "2"], 0),
    (["solvability", "--nbkg", "-1"], 2),
    (["milestones", "--target", "1e-17"], 0),
    (["milestones", "--target", "-1"], 2),
    (["ramsey", "--half-life", "15.5", "--tr", "1"], 0),
    (["ramsey", "--tr", "1", "--reps", "0"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_closed_form_commands_run_without_numpy(argv, code):
    assert _child(RUN_MAIN, *argv, "--format", "json") == f"{code} False"


@pytest.mark.parametrize("argv", [
    ["condition", "--samples", "16"],
    ["extract", "--rhs", str(resource_path("synthetic-rhs-noiseless-v1"))],
], ids=["condition", "extract"])
def test_solving_commands_load_numpy(argv):
    assert _child(RUN_MAIN, *argv, "--format", "json") == "0 True"


def test_lazy_submodules_resolve_after_bare_import():
    code = (
        "import gkpforge\n"
        "names = [getattr(gkpforge, name).__name__ for name in gkpforge._LAZY_SUBMODULES]\n"
        "from gkpforge import topology\n"
        "print(*names, gkpforge.gkp.solvable is topology.solvable)"
    )
    assert _child(code) == ("gkpforge.angular gkpforge.barriers gkpforge.budget gkpforge.gkp "
                            "gkpforge.montecarlo gkpforge.nucdata gkpforge.topology True")


def test_bare_import_reads_topology_alone():
    code = f"import sys, gkpforge; top = gkpforge.topology; print(top.__name__, 'numpy' in sys.modules, *{LOADED})"
    assert _child(code) == "gkpforge.topology False errors topology"


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
