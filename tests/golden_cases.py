"""The golden cases, listed once: each case's directory under tests/golden
and the command line that makes it. In a command line, <data> stands for
the bundled data directory and <golden> for tests/golden.

test_golden.py and test_reach.py run every case in process. Run as a
script, this module diffs one group of cases through the real entry
point with same_as_golden.sh, from the repository root with gkpforge
importable and the timestamp pinned:

    GKPFORGE_TIMESTAMP=2026-08-09T00:00:00+00:00 PYTHONPATH=src python tests/golden_cases.py closed-form

closed-form runs the commands that start without numpy (budget,
solvability, milestones, ramsey), numerical the others (condition,
extract). The module imports nothing outside the standard library, so
the closed-form group runs before numpy is installed.
"""

from __future__ import annotations

import subprocess
import sys
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


def main(argv: list[str]) -> int:
    if argv not in (["closed-form"], ["numerical"]):
        print("usage: golden_cases.py closed-form|numerical", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parents[1]
    cases = [case for case, command in CASES.items() if (command[0] in CLOSED_FORM) == (argv[0] == "closed-form")]
    failed = [case for case in cases
              if subprocess.run(["bash", "tests/same_as_golden.sh", case, *CASES[case]], cwd=root).returncode]
    print(f"{len(cases) - len(failed)} of {len(cases)} {argv[0]} golden cases match"
          + (f"; these differ: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
