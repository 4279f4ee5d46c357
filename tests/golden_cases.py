"""The golden cases, listed once: each case's directory under tests/golden
and the command line that makes it, with the one placeholder rule and the
one pinned timestamp that every run of them uses. In a command line or a
golden file, <data> stands for the bundled data directory and <golden>
for tests/golden.

test_golden.py and test_reach.py run every case in process. Run as a
script, this module diffs one group of cases through the real entry
point, `python -m gkpforge.cli`: each case's stdout in every format, and
the files that --out writes. Run it with gkpforge importable:

    PYTHONPATH=src python tests/golden_cases.py closed-form

closed-form runs the commands that start without numpy (budget,
solvability, milestones, ramsey), numerical the others (condition,
extract). The module imports nothing outside the standard library, so
the closed-form group runs before numpy is installed.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = {
    "budget": ["budget"],
    "solvability": ["solvability"],
    "condition": ["condition"],
    "condition-samples-1-seed-7": ["condition", "--samples", "1", "--seed", "7"],
    "condition-samples-2-seed-3": ["condition", "--samples", "2", "--seed", "3"],
    "condition-samples-21-seed-3": ["condition", "--samples", "21", "--seed", "3"],
    "condition-samples-2048-seed-5": ["condition", "--samples", "2048", "--seed", "5"],
    "condition-samples-5000-seed-7": ["condition", "--samples", "5000", "--seed", "7"],
    "condition-samples-2048-seed-2p64p1": ["condition", "--samples", "2048", "--seed", "18446744073709551617"],
    "condition-gaussian-loguniform": ["condition", "--spec", "<golden>/spec_mo91_gaussian_loguniform.json",
                                      "--samples", "3000", "--seed", "11"],
    "extract": ["extract", "--rhs", "<data>/synthetic_rhs_noiseless_v1.json"],
    "extract-mo-chain-v1": ["extract", "--chain", "mo-chain-v1", "--rhs", "<golden>/rhs_mo_chain_v1.json"],
    "milestones": ["milestones"],
    "milestones-target": ["milestones", "--target", "1e-15"],
    "ramsey-stable": ["ramsey", "--half-life", "stable", "--tr", "10", "--reps", "1000"],
    "ramsey-decaying": ["ramsey", "--half-life", "930", "--tr", "2000", "--reps", "100"],
}

CLOSED_FORM = {"budget", "solvability", "milestones", "ramsey"}
FORMATS = ("json", "csv", "table")
GOLDEN = Path(__file__).resolve().parent / "golden"
TIMESTAMP = "2026-08-09T00:00:00+00:00"  # every golden report's, as GKPFORGE_TIMESTAMP


def _placeholders() -> dict[str, str]:
    from gkpforge.resources import resource_path

    return {"<data>": str(resource_path("mo-chain-v1").parent), "<golden>": str(GOLDEN)}


def with_paths(text: str) -> str:
    """text with each placeholder replaced by the directory it stands for."""
    for placeholder, path in _placeholders().items():
        text = text.replace(placeholder, path)
    return text


def with_placeholders(text: str) -> str:
    """text with each directory replaced by its placeholder."""
    for placeholder, path in _placeholders().items():
        text = text.replace(path, placeholder)
    return text


def _differs(expected: Path, got: str) -> bool:
    want = expected.read_text(encoding="utf-8")
    sys.stderr.writelines(difflib.unified_diff(want.splitlines(True), got.splitlines(True), str(expected), "got"))
    return want != got


def _same_as_golden(case: str, root: Path) -> bool:
    """Whether case's stdout in every format and its --out files are the
    golden bytes, run through `python -m gkpforge.cli` from root."""
    argv = [sys.executable, "-m", "gkpforge.cli", *map(with_paths, CASES[case])]
    env = {**os.environ, "GKPFORGE_TIMESTAMP": TIMESTAMP}

    def run(*extra: str) -> str | None:
        child = subprocess.run([*argv, *extra], cwd=root, env=env, capture_output=True, text=True, timeout=300)
        sys.stderr.write(child.stderr)
        return None if child.returncode else with_placeholders(child.stdout)

    golden = GOLDEN / case
    stdouts = [run("--format", fmt) for fmt in FORMATS]
    if None in stdouts:
        return False
    same = [not _differs(golden / f"stdout.{fmt}", stdout) for fmt, stdout in zip(FORMATS, stdouts)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / case
        if run("--format", "json", "--out", str(out)) is None:
            return False
        names = sorted(p.name for p in out.iterdir())
        if names != sorted(p.name for p in (golden / "out").iterdir()):
            print(f"{case}: --out wrote {names}", file=sys.stderr)
            return False
        same += [not _differs(golden / "out" / name, with_placeholders((out / name).read_text(encoding="utf-8")))
                 for name in names]
    return all(same)


def main(argv: list[str]) -> int:
    if argv not in (["closed-form"], ["numerical"]):
        print("usage: golden_cases.py closed-form|numerical", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parents[1]
    cases = [case for case, command in CASES.items() if (command[0] in CLOSED_FORM) == (argv[0] == "closed-form")]
    failed = [case for case in cases if not _same_as_golden(case, root)]
    print(f"{len(cases) - len(failed)} of {len(cases)} {argv[0]} golden cases match"
          + (f"; these differ: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
