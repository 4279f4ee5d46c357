"""Seeded fuzz of every shipped JSON data file through the CLI.

Each case replaces one random leaf of one shipped file with a value from a
fixed menu of wrong types and extreme numbers, then runs every command
that reads that file. A case passes when the command refuses with exit 1,
2 or 3 and prints nothing, or succeeds with finite JSON that validates
against its report schema; a traceback, a NaN or Infinity in a report, or
a hang fails it. The loop runs in one child process under a timeout, so a
hang fails the test instead of stalling the suite.

    PYTHONPATH=src python tests/test_fuzz.py    # prints the failing cases
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SEED = 20260818
CASES_PER_FILE = 120
# replacement leaves, as JSON text: 1e400 parses to inf without reaching
# parse_constant, and 1e-320 is subnormal
MENU = ('"x"', "null", "true", "[]", "{}", "0", "-1", "1e308", "-1e308", "1e400", "1e-320", "NaN", "Infinity")
RHS = "synthetic-rhs-noiseless-v1"

# resource -> the commands that read it, with {} standing for the mutated file
COMMANDS = {
    "mo-chain-v1": [
        ["budget", "--chain", "{}"],
        ["solvability", "--chain", "{}"],
        ["condition", "--chain", "{}", "--samples", "64"],
        ["extract", "--chain", "{}", "--rhs", RHS],
    ],
    "mo-chain-frib-synthetic-v1": [
        ["budget", "--chain", "{}"],
        ["solvability", "--chain", "{}"],
        ["condition", "--chain", "{}", "--samples", "64"],
        ["extract", "--chain", "{}", "--rhs", RHS],
    ],
    "mo41-anchors-v1": [["budget", "--anchors", "{}"], ["extract", "--anchors", "{}", "--rhs", RHS]],
    "mo41-coeffs-v1": [
        ["condition", "--coeffs", "{}", "--samples", "64"],
        ["extract", "--coeffs", "{}", "--rhs", RHS],
    ],
    "mo91-sampling-v1": [["condition", "--spec", "{}", "--samples", "64"]],
    "milestones-v1": [["milestones", "--ladder", "{}"], ["milestones", "--ladder", "{}", "--target", "1e-15"]],
    RHS: [["extract", "--rhs", "{}"]],
}


def _leaves(obj, path=()):
    """Paths of every scalar and empty container in a parsed JSON value."""
    if not (isinstance(obj, (dict, list)) and obj):
        yield path
        return
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield from _leaves(value, path + (key,))


def _replaced(obj, path, text: str) -> str:
    """JSON text of obj with the leaf at path replaced by raw JSON text."""
    marker = "\x00leaf\x00"
    copy = json.loads(json.dumps(obj))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = marker
    return json.dumps(copy, ensure_ascii=False, indent=1).replace(json.dumps(marker), text)


def _refuse_constant(name):
    raise ValueError(f"report contains {name}")


def fuzz() -> list[str]:
    import jsonschema

    from gkpforge.cli import main
    from gkpforge.resources import resource_path, schema_path

    validators = {}
    failures = []
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        for resource, commands in COMMANDS.items():
            source = resource_path(resource)
            obj = json.loads(source.read_text(encoding="utf-8"))
            leaves = list(_leaves(obj))
            target = Path(tmp) / source.name
            for case in range(CASES_PER_FILE):
                path, text = rng.choice(leaves), rng.choice(MENU)
                target.write_text(_replaced(obj, path, text), encoding="utf-8")
                for command in commands:
                    argv = [str(target) if arg == "{}" else arg for arg in command] + ["--format", "json"]
                    where = f"{resource} case {case}: {'/'.join(map(str, path))} = {text}; {command[0]}"
                    stdout = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                            code = main(argv)
                        if code == 0:
                            report = json.loads(stdout.getvalue(), parse_constant=_refuse_constant)
                            if command[0] not in validators:
                                schema = json.loads(schema_path(f"{command[0]}_report").read_text(encoding="utf-8"))
                                validators[command[0]] = jsonschema.validators.validator_for(schema)(schema)
                            validators[command[0]].validate(report)
                        elif code not in (1, 2, 3) or stdout.getvalue():
                            failures.append(f"{where}: exit {code} with {len(stdout.getvalue())} bytes on stdout")
                    except Exception as exc:  # noqa: BLE001 - every escape is a finding
                        failures.append(f"{where}: {type(exc).__name__}: {str(exc)[:200]}")
    return failures


def test_fuzz_shipped_data_files():
    pytest.importorskip("jsonschema")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=240)
    assert child.returncode == 0, child.stderr[-2000:]
    failures = json.loads(child.stdout)
    assert failures == [], "\n".join(failures[:40])


if __name__ == "__main__":
    print(json.dumps(fuzz(), indent=1))
