"""The numpy-free cases, listed once. A row (Case) gives what to run, a
statement or an argv for gkpforge.cli.main; its exit code (0 for a
statement); whether stdout must be empty; the gkpforge layers that load,
exactly (importlib.resources counts as one, and no row allows it); and
files, {name: text}, written in the working directory first.

run_case runs a row in a fresh `python -S` child whose import system
refuses numpy, so a row behaves the same whether numpy is missing or
installed. test_startup.py runs every row; so does this module as a
script, before numpy is installed in CI, and prints how many pass:

    PYTHONPATH=src python -S tests/numpy_free_cases.py

A new check of what runs without numpy is one more row. The module
imports nothing outside the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# the child: numpy refused, the row run with stdout captured, then
# [exit code, whether stdout is empty, the layers and importlib.resources loaded]
CHILD = """
import contextlib, io, json, sys
class RefuseNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, RefuseNumpy)
run, out, code = json.loads(sys.argv[1]), io.StringIO(), 0
with contextlib.redirect_stdout(out):
    if isinstance(run, str):
        exec(run)
    else:
        import gkpforge.cli
        try:
            code = gkpforge.cli.main(run)
        except SystemExit as exc:
            code = exc.code
loaded = [name.removeprefix("gkpforge.") for name in sys.modules
          if name.startswith("gkpforge.") or name == "importlib.resources"]
print(json.dumps([code, not out.getvalue(), sorted(loaded)]))
"""


class Case(NamedTuple):
    run: str | list[str]
    code: int
    quiet: bool
    layers: str
    files: dict = {}

    def __str__(self) -> str:
        return self.run if isinstance(self.run, str) else " ".join(self.run)


NO_LAYER = "cli errors resources"  # what import gkpforge.cli loads
PLANS = f"{NO_LAYER} budget constants"
SOLVABILITY = f"{NO_LAYER} angular nucdata topology"
BUDGET = f"{NO_LAYER} angular barriers budget constants nucdata"

ANCHORS = (Path(__file__).resolve().parents[1] / "src/gkpforge/data/mo41_anchors_v1.json").read_text(encoding="utf-8")
CHAIN = """A,Z,I,parity,r_ch,beta2,Qs,BE2_up,delta_r2,half_life_s
92,42,0,+1,4.315(3),0.15,,7.9(3),0.0,
95,42,5/2,+1,4.330(4),0.16,-0.022(1),~8(1),0.130(6),
"""  # two rows of mo-chain-v1, as CSV

CASES = [
    Case("import gkpforge", 0, True, "errors"),
    Case("import gkpforge.cli", 0, True, NO_LAYER),
    Case("import gkpforge; gkpforge.topology", 0, True, "errors topology"),
    # what no command's own parser takes whole goes to the top-level parser
    Case(["--version"], 0, False, NO_LAYER),
    Case(["budget", "--help"], 0, False, NO_LAYER),
    Case(["bogus"], 2, True, NO_LAYER),
    Case(["budget", "--bogus"], 2, True, NO_LAYER),
    Case(["budget", "--format", "json"], 0, False, BUDGET),
    Case(["budget", "--anchors", "no-such-anchors", "--format", "json"], 2, True, BUDGET),
    Case(["budget", "--anchors", "repeated-key.json"], 2, True, BUDGET,
         {"repeated-key.json": ANCHORS.replace('"fs_gap_eV":', '"fs_gap_eV": 1.0, "fs_gap_eV":', 1)}),
    Case(["budget", "--chain", "9_5.csv"], 2, True, BUDGET, {"9_5.csv": CHAIN.replace("\n95,", "\n9_5,", 1)}),
    Case(["budget", "--chain", "repeated-r_ch.csv"], 2, True, BUDGET,
         {"repeated-r_ch.csv": CHAIN.replace(",half_life_s\n", ",half_life_s,r_ch\n").replace(",\n", ",,9.9(1)\n")}),
    Case(["budget", "--chain", "overflowing-r_ch.csv"], 2, True, BUDGET,
         {"overflowing-r_ch.csv": CHAIN.replace("4.330(4)", "9" * 400)}),
    Case(["solvability", "--transitions", "2", "--format", "json"], 0, False, SOLVABILITY),
    Case(["solvability", "--add-isotope", "91", "--transitions", "2", "--format", "json"], 0, False, SOLVABILITY),
    Case(["solvability", "--nbkg", "-1", "--format", "json"], 2, True, SOLVABILITY),
    Case(["milestones", "--target", "1e-17", "--format", "json"], 0, False, PLANS),
    Case(["milestones", "--target", "-1", "--format", "json"], 2, True, PLANS),
    Case(["ramsey", "--half-life", "15.5", "--tr", "1", "--format", "json"], 0, False, PLANS),
    Case(["ramsey", "--tr", "1", "--reps", "0", "--format", "json"], 2, True, PLANS),
    Case(["ramsey", "--tr", "3e307"], 3, True, PLANS),  # the sensitivity underflows
]


def run_case(case: Case) -> str | None:
    """None if the case holds, else what its child did instead."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.abspath(p) for p in sys.path if p)}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case.files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        child = subprocess.run([sys.executable, "-S", "-c", CHILD, json.dumps(case.run)], cwd=tmp, env=env,
                               capture_output=True, text=True, timeout=120)
    if child.returncode:
        return f"the child failed: {child.stderr}"
    code, empty, loaded = json.loads(child.stdout)
    if (code, empty or not case.quiet, loaded) == (case.code, True, sorted(case.layers.split())):
        return None
    return f"exit {code}, stdout {'empty' if empty else 'written'}, loaded {' '.join(loaded)}; stderr {child.stderr!r}"


def main() -> int:
    failed = [f"{case}: {failure}\n" for case in CASES if (failure := run_case(case))]
    sys.stderr.writelines(failed)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} numpy-free cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
