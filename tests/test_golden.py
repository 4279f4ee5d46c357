"""Golden reports: every command's stdout and --out files, byte for byte.

Each case of golden_cases.py runs in json, csv and table format, once
to stdout and once with --out, with the report timestamp pinned.
Manifest paths into the bundled data directory and into tests/golden
are written as <data> and <golden>, so the files do not depend on the
checkout's location.

After a deliberate change to report bytes, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from gkpforge.cli import ENV_TIMESTAMP, main
from gkpforge.resources import ENV_DATA_DIR
from golden_cases import CASES, FORMATS, GOLDEN, TIMESTAMP, with_paths, with_placeholders


def _run(argv: list[str], fmt: str, out_dir: Path | None) -> tuple[str, dict[str, str]]:
    """stdout and the --out files of one run, with placeholders for paths."""
    argv = [with_paths(arg) for arg in argv] + ["--format", fmt] + (["--out", str(out_dir)] if out_dir else [])
    stdout = io.StringIO()
    with mock.patch.dict(os.environ, {ENV_TIMESTAMP: TIMESTAMP}), contextlib.redirect_stdout(stdout):
        os.environ.pop(ENV_DATA_DIR, None)
        assert main(argv) == 0
    files = {p.name: with_placeholders(p.read_text(encoding="utf-8")) for p in out_dir.iterdir()} if out_dir else {}
    return with_placeholders(stdout.getvalue()), files


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, fmt, tmp_path):
    expected_stdout = (GOLDEN / case / f"stdout.{fmt}").read_text(encoding="utf-8")
    expected_files = {p.name: p.read_text(encoding="utf-8") for p in (GOLDEN / case / "out").iterdir()}

    stdout, _ = _run(CASES[case], fmt, None)
    assert stdout == expected_stdout
    stdout, files = _run(CASES[case], fmt, tmp_path)
    assert stdout == expected_stdout
    assert files == expected_files


def _is_scalar(value) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None


def _shown(value, fmt: str) -> list[str]:
    """A scalar's cells in a table or csv row: floats in the table to six
    significant digits, null as an empty csv cell and no table cell."""
    if value is None:
        return [""] if fmt == "csv" else []
    return [f"{value:.5e}" if fmt == "table" and isinstance(value, float) else str(value)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_and_csv_show_every_field_of_the_json_report(case):
    """Table, csv and json are three views of one report: each top-level
    scalar or list of scalars is a row [key, *values] of csv and table, and
    each list of objects or object of scalars a group whose header row is
    [key, *columns], the columns in any order (json sorts them).
    condition's csv is its κ histogram instead."""
    report = json.loads(_run(CASES[case], "json", None)[0])
    del report["manifest"]
    for fmt in ("table", "csv"):
        if fmt == "csv" and CASES[case][0] == "condition":
            continue
        text = _run(CASES[case], fmt, None)[0]
        rows = list(csv.reader(io.StringIO(text))) if fmt == "csv" else [
            re.split(r" {2,}", line) for line in text.splitlines()]
        by_key = {row[0]: row[1:] for row in rows if row and row[0]}
        for key, value in report.items():
            if isinstance(value, dict) and all(map(_is_scalar, value.values())):
                value = [value]
            if _is_scalar(value):
                assert by_key.get(key) == _shown(value, fmt), f"{fmt} row {key}"
            elif isinstance(value, list) and all(map(_is_scalar, value)):
                assert by_key.get(key) == [cell for v in value for cell in _shown(v, fmt)], f"{fmt} row {key}"
            elif isinstance(value, list) and all(isinstance(row, dict) for row in value):
                assert sorted(by_key.get(key, [])) == sorted(value[0]), f"{fmt} group {key}"


def regenerate() -> None:
    for case, argv in sorted(CASES.items()):
        target = GOLDEN / case
        (target / "out").mkdir(parents=True, exist_ok=True)
        for old in (target / "out").iterdir():
            old.unlink()
        for fmt in FORMATS:
            stdout, _ = _run(argv, fmt, None)
            (target / f"stdout.{fmt}").write_text(stdout, encoding="utf-8")
        with tempfile.TemporaryDirectory() as out_dir:
            _, files = _run(argv, "json", Path(out_dir))
        for name, text in files.items():
            (target / "out" / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
