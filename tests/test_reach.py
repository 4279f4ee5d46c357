"""Reachability gate: every function under src/gkpforge/ is reached by a
command, or is kept in ALLOWED with the reason it stays.

A fixed matrix of gkpforge.cli.main calls runs in a fresh interpreter
under sys.setprofile, which records the code object of every Python call
made while a command runs. The matrix is every golden case of
golden_cases.py in json, csv and table with --out, a few more flag
combinations, a CSV chain, and refusals of every nonzero exit code.
The interpreter is fresh so that the functools caches and the loaders'
memo of validated files start empty, and so that no call a test made
counts as a command reaching a function.

A function is matched by its file and its first line, its decorators
included (the co_firstlineno of its code object), and named in ALLOWED
and in failures as "module.Qualified.name". To keep a function that no
command reaches, add it to ALLOWED with a one-line reason: the
acceptance criterion, the gkpbench workload, the gkpbench/spans.py
TRACED name or the ROADMAP item that pins it. Otherwise delete it. An
entry that a command now reaches, or that names no function, fails the
test too.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from gkpforge.cli import ENV_TIMESTAMP
from gkpforge.nucdata import IsotopeChain, chain_to_csv
from gkpforge.resources import ENV_DATA_DIR, resource_path
from golden_cases import CASES
from test_golden import FORMATS, GOLDEN, TIMESTAMP

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gkpforge"

ALLOWED = {
    "angular.triangle_ok": "criterion 08's selection rule",
    "angular.wigner_6j": "criterion 08; gkpbench angular_tables; TRACED; ROADMAP item 9",
    "angular._racah": "the Racah sum of wigner_6j (criterion 08)",
    "angular.HyperfineLevel.weight": "the 2F+1 weight of centroid (criterion 08)",
    "angular.hfs_e2_levels": "criterion 08; gkpbench angular_tables; TRACED; ROADMAP item 9",
    "angular._ladder": "the B-free ladder of hfs_e2_levels (criterion 08)",
    "angular.centroid": "criterion 08's centroid cancellation; TRACED; ROADMAP item 9",
    "gkp.alpha_t_uncertainty": "ROADMAP item 5 gives it a reader",
    "gkp.condition_number": "TRACED",
    "gkp.solve_many": "criterion 07's injection campaign; gkpbench injection",
    "montecarlo._block_noise": "criterion 07's injection campaign; gkpbench injection",
    "montecarlo.injection_recovery": "criterion 07; gkpbench injection; TRACED",
    "montecarlo.sample_kappa": "criterion 05; TRACED (ROADMAP items 1 and 11)",
    "nucdata.IsotopeChain.with_isotope": "ROADMAP item 6",
    "nucdata.chain_to_json": "criterion 10's JSON round trip",
    "nucdata._measured_to_json": "criterion 10's JSON round trip, through chain_to_json",
    "nucdata.chain_to_csv": "criterion 10's CSV round trip",
    "nucdata.format_measured": "criterion 10's CSV round trip, through chain_to_csv",
    "resources.schema_path": "the shipped report schemas that JSON reports validate against",
}

# runs each command with stdout and stderr captured and the profiler on,
# then prints the exit codes and the (file, first line) of every code
# object called
CHILD = """
import contextlib, io, json, sys
import gkpforge.cli

calls = set()

def record(frame, event, arg):
    if event == "call":
        calls.add(frame.f_code)

codes = []
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(record)
        try:
            codes.append(gkpforge.cli.main(argv))
        finally:
            sys.setprofile(None)
print(json.dumps({"codes": codes, "calls": sorted({(c.co_filename, c.co_firstlineno) for c in calls})}))
"""


def _functions() -> dict[tuple[str, int], str]:
    """(file relative to the package, first line) -> qualified name of
    every def, methods and nested functions included."""
    found = {}

    def visit(node, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[file, first] = prefix + child.name
                visit(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        file = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), file, file[:-3].replace("/", ".") + ".")
    return found


def _matrix(tmp_path: Path, chain: IsotopeChain) -> tuple[list[list[str]], list[int]]:
    """The command lines and the exit code each must give."""
    places = {"<data>": str(resource_path("mo-chain-v1").parent), "<golden>": str(GOLDEN)}
    runs = []
    for case, argv in sorted(CASES.items()):
        for old, new in places.items():
            argv = [arg.replace(old, new) for arg in argv]
        runs += [(argv + ["--format", fmt, "--out", str(tmp_path / f"{case}-{fmt}")], 0) for fmt in FORMATS]

    csv_chain = tmp_path / "chain.csv"
    csv_chain.write_text(chain_to_csv(chain), encoding="utf-8")
    noiseless = json.loads(resource_path("synthetic-rhs-noiseless-v1").read_text(encoding="utf-8"))
    underdetermined = tmp_path / "rhs_underdetermined.json"
    underdetermined.write_text(json.dumps({"rows": [
        row for row in noiseless["rows"] if row["transition"] == "1s-2p3/2" and row["A"] in (95, 97)]}),
        encoding="utf-8")
    coeffs = json.loads(resource_path("mo41-coeffs-v1").read_text(encoding="utf-8"))
    next(t for t in coeffs["transitions"] if t["label"] == "1s-2p3/2")["G_eV_per_lever"] = 0.0
    zero_g = tmp_path / "coeffs_zero_g.json"
    zero_g.write_text(json.dumps(coeffs), encoding="utf-8")
    nan_rhs = tmp_path / "rhs_nan.json"
    nan_rhs.write_text('{"rows": [{"A": 95, "transition": "1s-2p3/2", "delta_eV": NaN, "sigma_eV": 1e-13}]}',
                       encoding="utf-8")
    runs += [
        (["budget", "--probe", "97", "--scenario", "projected"], 0),
        (["solvability", "--transitions", "2", "--add-isotope", "91"], 0),
        (["budget", "--chain", str(csv_chain)], 0),
        (["extract", "--rhs", str(underdetermined)], 1),
        (["condition", "--samples", "64", "--coeffs", str(zero_g)], 1),  # a column no draw changes is zero
        (["budget", "--probe", "99"], 2),
        (["extract", "--rhs", str(nan_rhs)], 2),
        (["ramsey", "--tr", "1e-320"], 3),
    ]
    return [argv for argv, _ in runs], [code for _, code in runs]


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path, mo_chain):
    argvs, expected_codes = _matrix(tmp_path, mo_chain)
    env = {key: value for key, value in os.environ.items() if key != ENV_DATA_DIR}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    env[ENV_TIMESTAMP] = TIMESTAMP
    child = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs), capture_output=True,
                           text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["codes"] == expected_codes

    functions = _functions()
    reached = set()
    for filename, first in result["calls"]:
        path = Path(filename).resolve()
        if path.is_relative_to(PACKAGE):
            reached.add((path.relative_to(PACKAGE).as_posix(), first))
    unreached = {name for key, name in functions.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == [], "reached by no command: delete, or add to ALLOWED with its reason"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed but reached by a command, or no such function"
