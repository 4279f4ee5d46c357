from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gkpforge import __version__, cli, montecarlo
from gkpforge.cli import main
from gkpforge.errors import NumericalError
from gkpforge.nucdata import chain_to_csv, load_bundled_chain
from gkpforge.resources import resource_path, schema_path
from golden_cases import CASES
from test_golden import FORMATS, GOLDEN

jsonschema = pytest.importorskip("jsonschema")

RHS_FIXTURE = str(resource_path("synthetic-rhs-noiseless-v1"))


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("GKPFORGE_TIMESTAMP", "2026-08-09T00:00:00+00:00")


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = _run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def _validate(report: dict, schema_name: str) -> None:
    schema = json.loads(schema_path(schema_name).read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)


# ---------------------------------------------------------------------------
# budget

def test_budget_default(capsys):
    code, report = _run_json(capsys, "budget")
    assert code == 0
    _validate(report, "budget_report")
    assert report["scenario"] == "current"
    assert report["dominant"] == "TNP"
    assert 0.7e-13 <= report["combined_eV"] <= 2e-13
    assert report["manifest"]["command"] == "budget"
    assert report["manifest"]["config_versions"]["anchors"] == "mo41-anchors-v1"


def test_budget_projected(capsys):
    code, report = _run_json(capsys, "budget", "--scenario", "projected")
    assert code == 0
    assert 0.7e-14 <= report["combined_eV"] <= 2e-14


def test_budget_table_output(capsys):
    code, out, _ = _run(capsys, "budget")
    assert code == 0
    assert "TNP" in out
    assert "Resolved: use j >= 3/2" in out
    assert "e-13" in out
    # scientific notation with a period decimal separator, locale-proof
    assert "," not in out.replace(", ", " ")


def test_a_budget_request_builds_one_signal_model_and_reports_build_budgets_fields(capsys, monkeypatch):
    from gkpforge import barriers

    built, from_anchors = [], barriers.SignalModel.from_anchors
    monkeypatch.setattr(barriers.SignalModel, "from_anchors",
                        staticmethod(lambda anchors, chain: built.append(1) or from_anchors(anchors, chain)))
    code, report = _run_json(capsys, "budget")
    assert (code, len(built)) == (0, 1)
    assert set(report) - {"manifest"} == {f.name for f in dataclasses.fields(barriers.BarrierBudget)}


def test_budget_missing_anchors_file_exit2(capsys):
    code, _, err = _run(capsys, "budget", "--anchors", "missing_anchors.json")
    assert code == 2
    assert "missing_anchors.json" in err


def test_budget_writes_artifact(capsys, tmp_path):
    code, _, _ = _run(capsys, "budget", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "budget.json").read_text(encoding="utf-8"))
    _validate(payload, "budget_report")


# ---------------------------------------------------------------------------
# solvability

def test_solvability_default_table(capsys):
    code, out, _ = _run(capsys, "solvability")
    assert code == 0
    assert "No (2 < 3)" in out
    assert "Yes (3 = 3)" in out
    assert "Yes (4 > 3)" in out
    assert "Yes (6 ≫ 3)" in out


def test_solvability_selected_variants(capsys):
    code, report = _run_json(capsys, "solvability")
    assert code == 0
    _validate(report, "solvability_report")
    assert report["selected"]["verdict"] == "No (2 < 3)"

    code, report = _run_json(capsys, "solvability", "--add-isotope", "91")
    assert report["selected"]["verdict"] == "Yes (3 = 3)"

    code, report = _run_json(capsys, "solvability", "--transitions", "2")
    assert report["selected"]["verdict"] == "Yes (4 > 3)"

    code, report = _run_json(capsys, "solvability", "--add-isotope", "91", "--transitions", "2")
    assert report["selected"]["verdict"] == "Yes (6 ≫ 3)"


@pytest.mark.parametrize("argv, row", [
    (["--transitions", "3"], ",4,2,3,True,6,3,Yes (6 ≫ 3),2"),
    (["--add-isotope", "91"], ",4,3,1,True,3,3,Yes (3 = 3),2"),
    (["--transitions", "5", "--add-isotope", "93"], ",4,3,5,True,15,3,Yes (15 ≫ 3),2"),
])
def test_solvability_csv_writes_the_selected_topology(capsys, argv, row):
    # the golden solvability csv pins the group's header and the default row
    code, out, _ = _run(capsys, "solvability", *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == row


def test_solvability_enumeration_labels(capsys):
    code, report = _run_json(capsys, "solvability")
    labels = [row["label"] for row in report["topologies"]]
    assert labels == ["Stable, 1 trans.", "+ FRIB 91Mo", "Stable, 2 trans.", "+ FRIB + 2 trans."]
    verdicts = [row["verdict"] for row in report["topologies"]]
    assert verdicts == ["No (2 < 3)", "Yes (3 = 3)", "Yes (4 > 3)", "Yes (6 ≫ 3)"]


def test_solvability_stable_rows_count_stable_isotopes(capsys):
    _, default = _run_json(capsys, "solvability")
    code, frib = _run_json(capsys, "solvability", "--chain", "mo-chain-frib-synthetic-v1")
    assert code == 0
    # the FRIB chain's 91Mo is radioactive: the "Stable" rows must not count it
    assert frib["topologies"] == default["topologies"]
    assert frib["selected"]["N_odd"] == 3


@pytest.mark.parametrize("argv", [
    ["--add-isotope", "95"],  # already in the chain
    ["--add-isotope", "91", "--add-isotope", "91"],  # given twice
    ["--add-isotope", "102"],  # even Z and even A: I = 0
], ids=["in-chain", "repeated", "even-even"])
def test_solvability_add_isotope_refuses_what_it_cannot_add(capsys, argv):
    code, out, err = _run(capsys, "solvability", *argv)
    assert code == 2
    assert out == ""
    assert f"--add-isotope {argv[-1]}" in err


@pytest.mark.parametrize("A", ["1", "-5", "41"], ids=["one", "negative", "odd-below-Z"])
def test_solvability_add_isotope_refuses_an_A_below_Z(capsys, A):
    code, out, err = _run(capsys, "solvability", f"--add-isotope={A}")
    assert code == 2
    assert out == ""
    assert f"--add-isotope {A}: A={A} is below Z=42" in err


# ---------------------------------------------------------------------------
# condition

def test_condition_small_run(capsys):
    code, report = _run_json(capsys, "condition", "--samples", "2000", "--seed", "11")
    assert code == 0
    _validate(report, "condition_report")
    summary = report["summary"]
    assert summary["sample_count"] == 2000
    assert summary["p5"] <= summary["median"] <= summary["p95"]


def test_condition_single_sample(capsys):
    code, report = _run_json(capsys, "condition", "--samples", "1", "--seed", "11")
    assert code == 0
    s = report["summary"]
    assert s["mean"] == s["median"] == s["p5"] == s["p95"]
    assert s["std"] == 0.0


def test_condition_deterministic_bytes(capsys, tmp_path):
    args = ["condition", "--samples", "1500", "--seed", "77", "--format", "json"]
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args[:-2] + ["--out", str(out_a)]) == 0
    assert main(args[:-2] + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "condition_histogram.csv").read_bytes() == (out_b / "condition_histogram.csv").read_bytes()
    assert (out_a / "condition.json").read_bytes() == (out_b / "condition.json").read_bytes()


def test_condition_histogram_schema(capsys, tmp_path):
    code, _, _ = _run(capsys, "condition", "--samples", "500", "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "condition_histogram.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 1 + 48 + 2  # header, bins, overflow, rank-deficient
    assert lines[-1].startswith("rank_deficient,")
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 500


def test_histogram_csv_counts_are_numpys_histogram():
    """Bins are half-open [left, right) but the last, closed at 1000.0;
    above it is overflow, and a non-finite κ is rank deficient."""
    edges = np.logspace(0.0, 3.0, 49)
    special = [1000.0, np.nextafter(1000.0, np.inf), 1e6, 0.5, np.nextafter(1.0, 0.0),
               np.inf, np.inf, np.nan, -np.inf]
    rng = np.random.default_rng(28)
    kappas = np.concatenate([edges, edges[::3], special, 10 ** rng.uniform(-0.5, 3.5, 500)])
    rng.shuffle(kappas)
    rows = [line.split(",") for line in montecarlo.kappa_histogram_csv(kappas).splitlines()]
    finite = kappas[np.isfinite(kappas)]
    counts, _ = np.histogram(finite, bins=edges)
    assert rows[1:-2] == [[repr(float(left)), repr(float(right)), str(count)]
                          for left, right, count in zip(edges[:-1], edges[1:], counts)]
    assert counts[-1] >= 3  # edges[-1] twice and the special 1000.0: the last bin is closed
    overflow = int((finite > edges[-1]).sum())
    assert overflow >= 2 and rows[-2] == ["1000.0", "inf", str(overflow)]
    assert rows[-1] == ["rank_deficient", "", "4"]


@pytest.mark.parametrize("argv, builds", [
    (["--format", "json"], 0),
    (["--format", "table"], 0),
    (["--format", "csv"], 1),
    (["--format", "table", "--out", "OUT"], 1),
])
def test_condition_builds_the_histogram_only_for_csv_and_out(capsys, tmp_path, monkeypatch, argv, builds):
    calls = []
    histogram_csv = montecarlo.kappa_histogram_csv
    monkeypatch.setattr(montecarlo, "kappa_histogram_csv", lambda kappas: calls.append(1) or histogram_csv(kappas))
    argv = [str(tmp_path) if a == "OUT" else a for a in argv]
    code, _, _ = _run(capsys, "condition", "--samples", "64", *argv)
    assert code == 0
    assert len(calls) == builds


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "-5", "sample_count must be at least 1"),
    ("--samples", "0", "sample_count must be at least 1"),
    ("--seed", "-1", "seed must be a non-negative integer, got -1"),
])
def test_condition_rejects_out_of_range_flags(capsys, flag, value, message):
    code, out, err = _run(capsys, "condition", flag, value)
    assert (code, out) == (2, "")
    assert err == f"invalid input: {message}\n"


def test_condition_refuses_a_sample_count_too_large_to_allocate(capsys, tmp_path):
    # numpy refuses 2**62 float64s before it allocates anything
    spec = _edited_resource(tmp_path, "mo91-sampling-v1", lambda obj: obj.__setitem__("sample_count", 2**62))
    for argv in (["--samples", str(2**62)], ["--spec", spec]):
        code, out, err = _run(capsys, "condition", *argv, "--format", "json")
        assert (code, out) == (2, "")
        assert f"sample_count {2**62} is too large" in err


def test_condition_csv_out_refuses_a_non_finite_summary(capsys, tmp_path, monkeypatch):
    import gkpforge.montecarlo as montecarlo

    summarize = montecarlo.summarize_kappa
    monkeypatch.setattr(montecarlo, "summarize_kappa",
                        lambda *a, **kw: dataclasses.replace(summarize(*a, **kw), std=math.inf))
    out_dir = tmp_path / "D"
    code, out, err = _run(capsys, "condition", "--samples", "16", "--format", "csv", "--out", str(out_dir))
    assert code == 3
    assert out == ""
    assert "numerical failure:" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["ramsey", "--tr", "1"], ["condition", "--samples", "16"]])
@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "below-a-file"])
def test_an_out_that_cannot_be_written_exits_2_naming_it(capsys, tmp_path, argv, fmt, below):
    existing = tmp_path / "report"
    existing.write_text("kept", encoding="utf-8")
    out_dir = existing / below if below else existing
    code, out, err = _run(capsys, *argv, "--format", fmt, "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: --out cannot write") and str(out_dir) in err
    assert existing.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("argv", [["budget"], ["condition", "--samples", "64"]])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path, argv, fmt):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is printed
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out_dir = tmp_path / "out"
    try:
        child = subprocess.run([sys.executable, "-m", "gkpforge.cli", *argv, "--format", fmt, "--out", str(out_dir)],
                               stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (cli.EXIT_CLOSED_OUTPUT, "")
    assert json.loads((out_dir / f"{argv[0]}.json").read_text(encoding="utf-8"))["manifest"]  # --out came first


# ---------------------------------------------------------------------------
# extract

def test_extract_noiseless_fixture_recovers(capsys):
    code, report = _run_json(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                             "--rhs", RHS_FIXTURE)
    assert code == 0
    _validate(report, "extract_report")
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    truth = fixture["truth"]
    assert report["alpha_manko_hat"] == pytest.approx(truth["alpha_manko"], rel=1e-10)
    by_name = {b["name"]: b["value"] for b in report["background_estimates"]}
    assert by_name["qs_background"] == pytest.approx(truth["qs_background"], rel=1e-10)
    assert by_name["alpha_t_background"] == pytest.approx(truth["alpha_t_background"], rel=1e-10)


def test_extract_underdetermined_refused(capsys, tmp_path):
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    rows = [r for r in fixture["rows"] if r["A"] in (95, 97) and r["transition"] == "1s-2p3/2"]
    rhs_file = tmp_path / "stable_only.json"
    rhs_file.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    code, _, err = _run(capsys, "extract", "--chain", "mo-chain-v1", "--rhs", str(rhs_file))
    assert code == 1
    assert "N_odd >= 3" in err


def _p12_inputs(tmp_path, isotopes) -> tuple[str, str]:
    """Coefficients with an added 1s-2p1/2 transition (upper j = 1/2, zero
    coefficients, so no design row), and an rhs file with 1s-2p3/2 and
    1s-2p1/2 rows for the given isotopes."""
    coeffs = _edited_resource(tmp_path, "mo41-coeffs-v1", lambda obj: obj["transitions"].append({
        "label": "1s-2p1/2", "upper": {"n": 2, "l": 1, "j": "1/2"},
        "H_eV_per_b": 0.0, "P_eV_per_wu": 0.0, "G_eV_per_lever": 0.0,
    }))
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    rows = [r for r in fixture["rows"] if r["A"] in isotopes and r["transition"] == "1s-2p3/2"]
    rhs_file = tmp_path / "with_p12.json"
    rhs_file.write_text(json.dumps({"rows": rows + [dict(r, transition="1s-2p1/2") for r in rows]}),
                        encoding="utf-8")
    return coeffs, str(rhs_file)


def test_extract_stable_pair_with_j_half_rows_refused_with_the_hint(capsys, tmp_path):
    # four rhs rows, but only the two 1s-2p3/2 rows are equations
    coeffs, rhs = _p12_inputs(tmp_path, (95, 97))
    code, out, err = _run(capsys, "extract", "--chain", "mo-chain-v1", "--coeffs", coeffs, "--rhs", rhs)
    assert code == 1
    assert out == ""
    assert "2 equations for 3 unknowns" in err and "N_odd >= 3" in err


def test_extract_refuses_rhs_rows_no_design_row_uses(capsys, tmp_path):
    coeffs, rhs = _p12_inputs(tmp_path, (91, 95, 97))
    code, out, err = _run(capsys, "extract", "--coeffs", coeffs, "--rhs", rhs, "--format", "json")
    assert code == 2
    assert out == ""
    assert ("rhs file has entries that no design row uses: "
            "[(91, '1s-2p1/2'), (95, '1s-2p1/2'), (97, '1s-2p1/2')]") in err


def test_extract_chi_bound_scale(capsys, tmp_path):
    # perturb the noiseless fixture with a seeded 1e-13 noise vector
    import numpy as np

    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    rows = [dict(r) for r in fixture["rows"] if r["transition"] == "1s-2p3/2"]
    rng = np.random.default_rng(99)
    for r in rows:
        r["delta_eV"] = float(r["delta_eV"] + rng.normal(0.0, 1e-13))
        r["sigma_eV"] = 1e-13
    rhs_file = tmp_path / "noisy.json"
    rhs_file.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    code, report = _run_json(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                             "--rhs", str(rhs_file))
    assert code == 0
    assert 1e7 <= report["chi_bound"] <= 1e9  # order 1e8 coupling bound
    assert report["chi_bound"] == pytest.approx(report["alpha_manko_se"], rel=1e-9)


@pytest.mark.parametrize("upper, message", [
    ({"n": 1, "l": 0, "j": "5/2"}, "upper state of channel '1s-2p3/2': j=5/2 incompatible with l=0"),
    ({"n": 1, "l": 1, "j": "3/2"}, "upper state of channel '1s-2p3/2': requires n > l >= 0"),
    ({"j": "3/2"}, "transition 0 upper is missing the 'n' key"),
    ({"n": 2, "j": "3/2"}, "transition 0 upper is missing the 'l' key"),
])
def test_extract_refuses_an_upper_state_that_cannot_be(capsys, tmp_path, upper, message):
    coeffs = _edited_resource(tmp_path, "mo41-coeffs-v1", lambda obj: obj["transitions"][0].__setitem__("upper", upper))
    code, out, err = _run(capsys, "extract", "--rhs", RHS_FIXTURE, "--coeffs", coeffs, "--format", "json")
    assert (code, out) == (2, "")
    assert f"coefficients file {coeffs}: {message}" in err


@pytest.mark.parametrize("j, message", [
    ("abc", "cannot parse spin 'abc' as a half-integer"),
    ("7/4", "spin 7/4 is not a half-integer"),
])
def test_extract_refuses_an_upper_spin_naming_file_and_transition(capsys, tmp_path, j, message):
    coeffs = _edited_resource(tmp_path, "mo41-coeffs-v1", lambda obj: obj["transitions"][0]["upper"].__setitem__("j", j))
    code, out, err = _run(capsys, "extract", "--rhs", RHS_FIXTURE, "--coeffs", coeffs, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"invalid input: coefficients file {coeffs}: transition 0 upper field j: {message}\n"


@pytest.mark.parametrize("j", ["1_5/10", "٣/2"])
def test_an_upper_spin_is_written_in_ascii_digits(capsys, tmp_path, j):
    coeffs = _edited_resource(tmp_path, "mo41-coeffs-v1", lambda obj: obj["transitions"][0]["upper"].__setitem__("j", j))
    code, out, err = _run(capsys, "condition", "--samples", "64", "--coeffs", coeffs, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"invalid input: coefficients file {coeffs}: transition 0 upper field j: cannot parse spin {j!r} as a half-integer\n"


def test_extract_missing_rhs_file(capsys):
    code, _, err = _run(capsys, "extract", "--rhs", "nowhere.json")
    assert code == 2
    assert "nowhere.json" in err


def test_extract_bad_sigma_rejected(capsys, tmp_path):
    rhs_file = tmp_path / "bad.json"
    rhs_file.write_text(json.dumps({"rows": [
        {"A": 95, "transition": "1s-2p3/2", "delta_eV": 1e-13, "sigma_eV": 0.0}
    ]}), encoding="utf-8")
    code, _, err = _run(capsys, "extract", "--rhs", str(rhs_file))
    assert code == 2
    assert "sigma" in err


def test_extract_non_finite_rhs_rejected(capsys, tmp_path):
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    fixture["rows"][0]["delta_eV"] = float("nan")
    rhs_file = tmp_path / "nan.json"
    rhs_file.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, err = _run(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                          "--rhs", str(rhs_file), "--format", "json")
    assert code == 2
    assert out == ""
    assert "non-finite delta_eV" in err


def test_extract_repeated_rhs_row_rejected(capsys, tmp_path):
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    rows = fixture["rows"]
    rows.append(dict(rows[0], delta_eV=100 * rows[0]["delta_eV"]))
    rhs_file = tmp_path / "repeated.json"
    rhs_file.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, err = _run(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                          "--rhs", str(rhs_file), "--format", "json")
    assert code == 2
    assert out == ""
    assert f"row {len(rows) - 1} repeats row 0: A={rows[0]['A']}" in err


@pytest.mark.parametrize("key, value", [("delta_eV", "abc"), ("A", "x")])
def test_extract_mistyped_rhs_rejected(capsys, tmp_path, key, value):
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    fixture["rows"][0][key] = value
    rhs_file = tmp_path / "mistyped.json"
    rhs_file.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, err = _run(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                          "--rhs", str(rhs_file), "--format", "json")
    assert code == 2
    assert out == ""
    assert f"row 0 has {key} = {value!r}" in err


def test_extract_overflowing_rhs_exit3(capsys, tmp_path):
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    for row in fixture["rows"]:
        row["delta_eV"], row["sigma_eV"] = 1e308, 1e-300
    rhs_file = tmp_path / "extreme.json"
    rhs_file.write_text(json.dumps(fixture), encoding="utf-8")
    code, out, err = _run(capsys, "extract", "--rhs", str(rhs_file), "--format", "json")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_extract_rhs_row_not_an_object(capsys, tmp_path):
    rhs_file = tmp_path / "number_row.json"
    rhs_file.write_text(json.dumps({"rows": [95]}), encoding="utf-8")
    code, _, err = _run(capsys, "extract", "--rhs", str(rhs_file))
    assert code == 2
    assert "row 0 is not an object" in err


def test_extract_manifest_hashes_anchors(capsys, tmp_path):
    anchors = json.loads(resource_path("mo41-anchors-v1").read_text(encoding="utf-8"))
    anchors["signal_anchor"]["anchor_output_eV"] *= 2
    edited = tmp_path / "anchors.json"
    edited.write_text(json.dumps(anchors), encoding="utf-8")
    manifests, signals = [], []
    for extra in ((), ("--anchors", str(edited))):
        code, report = _run_json(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                                 "--rhs", RHS_FIXTURE, *extra)
        assert code == 0
        _validate(report, "extract_report")
        manifests.append(report["manifest"])
        signals.append(report["signal_at_chi1_eV"])
    default, changed = (m["inputs"]["anchors"] for m in manifests)
    assert default["path"] == str(resource_path("mo41-anchors-v1"))
    assert changed["path"] == str(edited)
    assert default["sha256"] != changed["sha256"]
    assert signals == [2e-21, 4e-21]
    # extract draws nothing at random, so no seed is recorded
    assert [m["seed"] for m in manifests] == [None, None]


# ---------------------------------------------------------------------------
# milestones / ramsey

def test_milestones_lookup(capsys):
    code, report = _run_json(capsys, "milestones", "--target", "1e-16")
    assert code == 0
    _validate(report, "milestones_report")
    assert report["target"]["required_advance"] == "Qs ratios to 0.01% (muonic atoms)"
    assert report["target"]["era"] == "electromagnetic subtraction"

    code, report = _run_json(capsys, "milestones", "--target", "1e-19")
    assert report["target"]["era"] == "quantum metrology"


def test_milestones_out_of_range(capsys):
    code, _, err = _run(capsys, "milestones", "--target", "1e-5")
    assert code == 2
    assert "outside" in err


def test_ramsey_decay_limited(capsys):
    code, report = _run_json(capsys, "ramsey", "--half-life", "930", "--tr", "671")
    assert code == 0
    _validate(report, "ramsey_report")
    assert 666.0 <= report["T_R_opt_s"] <= 676.0
    assert 2.2e-4 <= report["per_shot_linewidth_Hz"] <= 2.5e-4


def test_ramsey_warns_beyond_optimum(capsys):
    code, report = _run_json(capsys, "ramsey", "--half-life", "930", "--tr", "2000")
    assert code == 0
    assert report["warning"] is not None
    assert report["decay_penalty_at_request"] > 1.0
    code, out, _ = _run(capsys, "ramsey", "--half-life", "930", "--tr", "2000")
    assert report["warning"] in out


def test_ramsey_stable(capsys):
    code, report = _run_json(capsys, "ramsey", "--half-life", "stable", "--tr", "1", "--reps", "1000000")
    assert code == 0
    assert report["T_R_opt_s"] is None
    assert report["campaign_sensitivity_Hz"] == pytest.approx(1 / (2 * 3.141592653589793) / 1000.0, rel=1e-9)


def test_ramsey_invalid_input(capsys):
    code, _, _ = _run(capsys, "ramsey", "--half-life", "930", "--tr", "-5")
    assert code == 2


def test_ramsey_reps_beyond_float_range_exit2(capsys):
    code, out, err = _run(capsys, "ramsey", "--tr", "1", "--reps", "1" + "0" * 400)
    assert code == 2
    assert out == ""
    assert "repetitions must be at most 1.79769e+308" in err


@pytest.mark.parametrize("argv, field", [
    (["--tr", "3e307"], "per_shot_linewidth_Hz"),
    (["--tr", "1e200", "--reps", "1" + "0" * 300], "campaign_sensitivity_Hz"),
    (["--tr", "1e300"], "campaign_sensitivity_eV"),
])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_ramsey_sensitivity_that_underflows_exits_3(capsys, argv, field, fmt):
    code, out, err = _run(capsys, "ramsey", *argv, "--format", fmt)
    assert (code, out) == (3, "")
    assert f"{field} underflows" in err


def _set_of_2p32(key, value):
    def edit(obj):
        next(t for t in obj["transitions"] if t["label"] == "1s-2p3/2")[key] = value
    return "mo41-coeffs-v1", edit


def _widen_qs_91(obj):
    next(p for p in obj["parameters"] if p["name"] == "Qs_91").update(low=-1.5e308, high=1.5e308)


# argv placeholders for edited copies of bundled inputs, written into tmp_path by the test
EDITED_INPUTS = {
    "<coeffs, H = 1e308>": _set_of_2p32("H_eV_per_b", 1e308),
    "<coeffs, H = 1e-310>": _set_of_2p32("H_eV_per_b", 1e-310),
    "<coeffs, G = 0>": _set_of_2p32("G_eV_per_lever", 0.0),
    "<spec, Qs_91 over +-1.5e308>": ("mo91-sampling-v1", _widen_qs_91),
}
NORM_OUT_OF_RANGE = "column 'qs_background' has a norm outside the floating-point range"


@pytest.mark.parametrize("argv, code, message", [
    (["ramsey", "--half-life", "1", "--tr", "1e300"], 3, "non-finite number in 'decay_penalty_at_request'"),
    (["ramsey", "--half-life", "1e-300", "--tr", "1"], 3, "non-finite number in 'decay_penalty_at_request'"),
    (["extract", "--rhs", "synthetic-rhs-noiseless-v1", "--coeffs", "<coeffs, H = 1e308>"], 3, NORM_OUT_OF_RANGE),
    (["condition", "--samples", "64", "--coeffs", "<coeffs, H = 1e308>"], 3, NORM_OUT_OF_RANGE),
    (["condition", "--samples", "64", "--coeffs", "<coeffs, H = 1e-310>"], 3, NORM_OUT_OF_RANGE),
    (["condition", "--spec", "<spec, Qs_91 over +-1.5e308>"], 2,
     "parameter 'Qs_91': bounds must be ordered with a finite high - low"),
    # every draw shares the zero column: a float in the grid that condition_numbers reads
    (["condition", "--samples", "64", "--coeffs", "<coeffs, G = 0>"], 1, "column 'gravitomagnetic' is identically zero"),
])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_exit_codes(capsys, tmp_path, argv, code, message, fmt):
    argv = [_edited_resource(tmp_path, *EDITED_INPUTS[a]) if a in EDITED_INPUTS else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exit_code, out, err = _run(capsys, *argv, "--format", fmt)
    assert (exit_code, out) == (code, "")
    assert message in err
    assert "RuntimeWarning" not in err and not [w for w in caught if w.category is RuntimeWarning]


@pytest.mark.parametrize("argv, flag", [
    (("--tr", "1", "--half-life", "abc"), "--half-life"),
    (("--tr", "1", "--half-life", "inf"), "--half-life"),
    (("--tr", "nan"), "--tr"),
    (("--tr", "inf"), "--tr"),
])
def test_ramsey_rejects_unparseable_flags(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["ramsey", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


def test_budget_even_even_probe_refused(capsys):
    code, out, err = _run(capsys, "budget", "--probe", "92")
    assert code == 2
    assert out == ""
    assert "even-even" in err and "signal must be positive" not in err


# ---------------------------------------------------------------------------
# cross-command behavior

def _frib_chain_with(tmp_path, edit) -> str:
    chain = json.loads(resource_path("mo-chain-frib-synthetic-v1").read_text(encoding="utf-8"))
    edit(chain["isotopes"])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("key", ["A", "Z", "I", "parity", "r_ch"])
def test_budget_chain_record_missing_key(capsys, tmp_path, key):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[1].pop(key))
    code, out, err = _run(capsys, "budget", "--chain", chain)
    assert code == 2
    assert out == ""
    where = "isotope record 1" if key == "A" else "isotope A=92"
    assert f"{where} is missing the {key!r} key" in err


def test_budget_chain_record_not_an_object(capsys, tmp_path):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes.__setitem__(0, 91))
    code, _, err = _run(capsys, "budget", "--chain", chain)
    assert code == 2
    assert "isotope record 0 is not an object" in err


@pytest.mark.parametrize("index, key, value, where", [
    (0, "A", "x", "isotope record 0"),
    (1, "parity", "+", "isotope A=92"),
])
def test_budget_chain_record_mistyped_field(capsys, tmp_path, index, key, value, where):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[index].__setitem__(key, value))
    code, _, err = _run(capsys, "budget", "--chain", chain)
    assert code == 2
    assert f"{where} has {key} = {value!r}, expected an integer" in err


def test_budget_chain_measured_value_mistyped(capsys, tmp_path):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[0]["r_ch"].__setitem__("value", "abc"))
    code, _, err = _run(capsys, "budget", "--chain", chain)
    assert code == 2
    assert "isotope A=91 field r_ch has value = 'abc', expected a number" in err


def _csv_chain_with(tmp_path, edit) -> str:
    """mo-chain-v1 as CSV, with edit(header, data rows) applied to its cells."""
    header, *rows = [line.split(",") for line in chain_to_csv(load_bundled_chain("mo-chain-v1")).splitlines()]
    edit(header, rows)
    path = tmp_path / "chain.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]), encoding="utf-8")
    return str(path)


def test_csv_chain_unparseable_half_life(capsys, tmp_path):
    chain = _csv_chain_with(tmp_path, lambda header, rows: rows[1].__setitem__(header.index("half_life_s"), "abc"))
    code, out, err = _run(capsys, "solvability", "--chain", chain)
    assert code == 2
    assert out == ""
    assert "row 3 field half_life_s: 'abc' is not a number" in err


def test_csv_chain_row_shorter_than_header(capsys, tmp_path):
    chain = _csv_chain_with(tmp_path, lambda header, rows: rows.__setitem__(1, rows[1][:3]))
    code, out, err = _run(capsys, "solvability", "--chain", chain)
    assert code == 2
    assert out == ""
    assert "row 3: fewer cells than the header; no value for field parity" in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_csv_chain_non_finite_half_life(capsys, tmp_path, cell):
    chain = _csv_chain_with(tmp_path, lambda header, rows: rows[1].__setitem__(header.index("half_life_s"), cell))
    code, out, err = _run(capsys, "solvability", "--chain", chain)
    assert code == 2
    assert out == ""
    assert "isotope A=94: half-life must be positive and finite" in err


@pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\xfe")],
                         ids=["directory", "not_utf8"])
def test_csv_chain_that_cannot_be_read_exit2(capsys, tmp_path, make):
    chain = tmp_path / "chain.csv"
    make(chain)
    code, out, err = _run(capsys, "solvability", "--chain", str(chain))
    assert code == 2
    assert out == ""
    assert f"chain file '{chain}' cannot be read as CSV" in err


def test_csv_chain_row_longer_than_header(capsys, tmp_path):
    chain = _csv_chain_with(tmp_path, lambda header, rows: rows[1].extend(["extra", "cells"]))
    code, out, err = _run(capsys, "solvability", "--chain", chain)
    assert code == 2
    assert out == ""
    assert "row 3: 2 more cells than the header" in err


@pytest.mark.parametrize("edit, message", [
    (lambda header, rows: [cells.pop() for cells in (header, *rows)],
     "CSV chain header is missing columns ['half_life_s']"),
    (lambda header, rows: rows[1].__setitem__(header.index("A"), "x"), "row 3: bad integer field"),
], ids=["header", "row"])
def test_csv_chain_refusal_names_the_file(capsys, tmp_path, edit, message):
    chain = _csv_chain_with(tmp_path, edit)
    code, out, err = _run(capsys, "solvability", "--chain", chain)
    assert code == 2
    assert out == ""
    assert f"invalid input: chain file '{chain}': {message}" in err


def test_empty_csv_chain_refusal_names_the_file(capsys, tmp_path):
    chain = tmp_path / "chain.csv"
    chain.write_text("", encoding="utf-8")
    code, out, err = _run(capsys, "solvability", "--chain", str(chain))
    assert code == 2
    assert out == ""
    assert f"invalid input: chain file '{chain}': CSV chain file is empty" in err


def test_json_chain_field_refusal_names_the_file(capsys, tmp_path):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[1].pop("Z"))
    code, out, err = _run(capsys, "solvability", "--chain", chain)
    assert code == 2
    assert out == ""
    assert f"invalid input: chain file '{chain}': isotope A=92 is missing the 'Z' key" in err


def _edited_resource(tmp_path, name: str, edit) -> str:
    """A copy of a bundled JSON resource with edit(obj) applied."""
    obj = json.loads(resource_path(name).read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / resource_path(name).name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("flag, argv", [
    ("--anchors", ["budget"]),
    ("--coeffs", ["condition", "--samples", "64"]),
    ("--spec", ["condition", "--samples", "64"]),
    ("--ladder", ["milestones"]),
])
def test_data_file_syntax_error_exit2(capsys, tmp_path, flag, argv):
    broken = tmp_path / "broken.json"
    broken.write_text('{"name": ', encoding="utf-8")
    code, out, err = _run(capsys, *argv, flag, str(broken), "--format", "json")
    assert code == 2
    assert out == ""
    assert f"'{broken}' cannot be read as JSON" in err


def test_spec_negative_seed_exit2(capsys, tmp_path):
    spec = _edited_resource(tmp_path, "mo91-sampling-v1", lambda obj: obj.__setitem__("seed", -1))
    code, out, err = _run(capsys, "condition", "--spec", spec, "--samples", "64", "--format", "json")
    assert code == 2
    assert out == ""
    assert "seed must be a non-negative integer, got -1" in err


def test_spec_negative_guard_band_exit2(capsys, tmp_path):
    spec = _edited_resource(tmp_path, "mo91-sampling-v1",
                            lambda obj: obj["parameters"][0].__setitem__("exclude_abs_below", -0.5))
    code, out, err = _run(capsys, "condition", "--spec", spec, "--samples", "64", "--format", "json")
    assert code == 2
    assert out == ""
    assert "parameter 'Qs_91': exclude_abs_below must be non-negative" in err


def test_spec_parameter_no_draw_reads_exit2(capsys, tmp_path):
    spec = _edited_resource(tmp_path, "mo91-sampling-v1",
                            lambda obj: obj["parameters"].append(dict(obj["parameters"][0], name="Qs_93")))
    code, out, err = _run(capsys, "condition", "--spec", spec, "--samples", "64", "--format", "json")
    assert (code, out) == (2, "")
    assert "sampling spec parameter 'Qs_93' is read by no draw" in err


def test_chain_overflowing_spin_exit2(capsys, tmp_path):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[2].__setitem__("I", 1e308))
    code, out, err = _run(capsys, "solvability", "--chain", chain, "--format", "json")
    assert code == 2
    assert out == ""
    assert "isotope A=94: spin must be a non-negative half-integer no larger than A" in err


@pytest.mark.parametrize("gap", [0.0, -150.0, 1e-320])
@pytest.mark.parametrize("argv", [["budget"], ["extract", "--rhs", RHS_FIXTURE]], ids=["budget", "extract"])
def test_anchor_fine_structure_gap_must_be_positive(capsys, tmp_path, argv, gap):
    anchors = _edited_resource(tmp_path, "mo41-anchors-v1", lambda obj: obj.__setitem__("fs_gap_eV", gap))
    code, out, err = _run(capsys, *argv, "--anchors", anchors, "--format", "json")
    assert (code, out) == (2, "")
    assert "fs_gap_eV must be positive and not subnormal" in err


def test_anchor_subnormal_signal_exit2(capsys, tmp_path):
    anchors = _edited_resource(tmp_path, "mo41-anchors-v1",
                               lambda obj: obj["signal_anchor"].__setitem__("anchor_output_eV", 1e-320))
    code, out, err = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert code == 2
    assert out == ""
    assert "signal_anchor_eV must be nonzero and not subnormal" in err


@pytest.mark.parametrize("block, key", [("signal_anchor", "anchor_output_eV"), ("tnp_anchor", "anchor_input_BE2_wu")])
@pytest.mark.parametrize("argv", [["budget"], ["extract", "--rhs", RHS_FIXTURE]], ids=["budget", "extract"])
def test_anchor_negative_magnitude_exit2(capsys, tmp_path, argv, block, key):
    anchors = _edited_resource(tmp_path, "mo41-anchors-v1", lambda obj: obj[block].__setitem__(key, -2.0))
    code, out, err = _run(capsys, *argv, "--anchors", anchors, "--format", "json")
    assert (code, out) == (2, "")
    field = {"signal_anchor": "signal_anchor_eV", "tnp_anchor": "tnp_anchor_BE2_wu"}[block]
    assert f"anchor set 'mo41-anchors-v1': {field} must be positive, got -2.0" in err


def _repeat_first(key: str, **changes):
    return lambda obj: obj[key].append(dict(obj[key][0], **changes))


@pytest.mark.parametrize("flag, name, edit, argv, refusal", [
    ("--coeffs", "mo41-coeffs-v1", _repeat_first("transitions", G_eV_per_lever=9.12e-20),
     ["extract", "--rhs", RHS_FIXTURE], "coefficients file {}: transition 2 repeats transition 0: label '1s-2p3/2'"),
    ("--coeffs", "mo41-coeffs-v1", _repeat_first("transitions", G_eV_per_lever=9.12e-20),
     ["condition", "--samples", "64"], "coefficients file {}: transition 2 repeats transition 0: label '1s-2p3/2'"),
    ("--spec", "mo91-sampling-v1", _repeat_first("parameters", low=0.5),
     ["condition", "--samples", "64"], "sampling spec {}: parameter 2 repeats parameter 0: name 'Qs_91'"),
], ids=["coeffs-extract", "coeffs-condition", "spec-condition"])
def test_repeated_name_in_a_data_file_exit2(capsys, tmp_path, flag, name, edit, argv, refusal):
    path = _edited_resource(tmp_path, name, edit)
    code, out, err = _run(capsys, *argv, flag, path, "--format", "json")
    assert (code, out) == (2, "")
    assert refusal.format(path) in err


@pytest.mark.parametrize("flag, name, edit, argv, refusal", [
    ("--coeffs", "mo41-coeffs-v1", lambda obj: obj["transitions"].__setitem__(1, "1s-2p3/2"),
     ["condition", "--samples", "64"], "coefficients file {}: transition 1 is not an object"),
    ("--spec", "mo91-sampling-v1", lambda obj: obj["parameters"].__setitem__(1, 0.5),
     ["condition", "--samples", "64"], "sampling spec {}: parameter 1 is not an object"),
    ("--ladder", "milestones-v1", lambda obj: obj["rows"].__setitem__(1, [1e-14]),
     ["milestones"], "milestone file {}: row 1 is not an object"),
    ("--anchors", "mo41-anchors-v1", lambda obj: obj["scenarios"].__setitem__("current", None),
     ["budget"], "anchor file {}: scenario current is not an object"),
], ids=["coeffs", "spec", "milestones", "anchors"])
def test_an_entry_that_is_not_an_object_exit2(capsys, tmp_path, flag, name, edit, argv, refusal):
    path = _edited_resource(tmp_path, name, edit)
    code, out, err = _run(capsys, *argv, flag, path, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"invalid input: {refusal.format(path)}\n"


@pytest.mark.parametrize("flag, name, key, argv, what", [
    ("--chain", "mo-chain-v1", "r_ch", ["budget"], "chain file"),
    ("--anchors", "mo41-anchors-v1", "fs_gap_eV", ["budget"], "anchor file"),
    ("--coeffs", "mo41-coeffs-v1", "H_eV_per_b", ["condition", "--samples", "64"], "coefficients file"),
    ("--spec", "mo91-sampling-v1", "low", ["condition", "--samples", "64"], "sampling spec"),
    ("--ladder", "milestones-v1", "sensitivity_eV", ["milestones"], "milestone file"),
    ("--rhs", "synthetic-rhs-noiseless-v1", "delta_eV", ["extract"], "rhs file"),
], ids=["chain", "anchors", "coeffs", "spec", "milestones", "rhs"])
def test_a_key_repeated_in_one_object_exit2(capsys, tmp_path, flag, name, key, argv, what):
    text = resource_path(name).read_text(encoding="utf-8")
    assert f'"{key}":' in text
    path = tmp_path / resource_path(name).name
    path.write_text(text.replace(f'"{key}":', f'"{key}": 1.0, "{key}":', 1), encoding="utf-8")
    code, out, err = _run(capsys, *argv, flag, str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"invalid input: {what} {str(path)!r} repeats the key {key!r} in one object\n"


def test_budget_of_vanishing_residuals_is_a_float(capsys, tmp_path):
    def zero_outputs(obj):
        obj["hfs_e2_anchor"]["anchor_output_eV"] = 0.0
        obj["tnp_anchor"]["anchor_output_eV"] = 0.0

    anchors = _edited_resource(tmp_path, "mo41-anchors-v1", zero_outputs)
    code, out, _ = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert code == 0
    assert '"combined_current_eV": 0.0' in out and '"combined_projected_eV": 0.0' in out
    assert json.loads(out)["dominant"] == "none"
    code, out, _ = _run(capsys, "budget", "--anchors", anchors, "--format", "csv")
    assert code == 0
    assert "combined_current_eV,0.0\n" in out and "combined_projected_eV,0.0\n" in out


@pytest.mark.parametrize("key, value, expected", [
    ("hfs2_theory_fraction", 0, "hfs2_theory_fraction must lie in (0, 1], got 0.0"),
    ("tnp_knowledge_fraction", 2, "tnp_knowledge_fraction must lie in [0, 1], got 2.0"),
])
def test_anchor_scenario_fraction_refusal_names_the_file(capsys, tmp_path, key, value, expected):
    anchors = _edited_resource(tmp_path, "mo41-anchors-v1",
                               lambda obj: obj["scenarios"]["current"].__setitem__(key, value))
    code, out, err = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert code == 2
    assert out == ""
    assert f"anchor file {anchors}: scenario current: {expected}" in err


def test_anchor_band_edge_beyond_float_range_exit2(capsys, tmp_path):
    # a JSON integer too large for a float, which float() would refuse with OverflowError
    anchors = _edited_resource(tmp_path, "mo41-anchors-v1",
                               lambda obj: obj["f_tilde"].__setitem__("band_raw", [1, 10 ** 400]))
    code, out, err = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert code == 2
    assert out == ""
    assert "f_tilde has band_raw = 1000" in err
    assert "expected a number" in err


# 0.3 * (7.1 / 0.3) ** 1.0 is 7.1000000000000005, and across a band one ulp
# wide the fourth of five log-spaced points rounds one ulp past the upper edge
@pytest.mark.parametrize("lo, hi, nominal", [(0.3, 7.1, 1.0),
                                             (0.9476572718746066, 0.9476572718746067, 0.9476572718746066)],
                         ids=["last-point", "inner-point"])
def test_budget_band_that_the_log_sweep_rounds_past_exits_0(capsys, tmp_path, lo, hi, nominal):
    def band(obj):
        obj["f_tilde"]["band_raw"] = [lo, hi]
        obj["f_tilde"]["nominal_raw"] = nominal

    anchors = _edited_resource(tmp_path, "mo41-anchors-v1", band)
    code, out, err = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert (code, err) == (0, "")
    f_tildes = [f for f, _ in json.loads(out)["signal_band_eV"]]
    assert f_tildes[0] == lo and f_tildes[-1] == hi
    assert f_tildes == sorted(f_tildes)


def test_anchor_file_without_R_N_fm_runs(capsys, tmp_path):
    anchors = _edited_resource(tmp_path, "mo41-anchors-v1", lambda obj: obj.pop("R_N_fm"))
    code, report = _run_json(capsys, "budget", "--anchors", anchors)
    assert code == 0
    _, shipped = _run_json(capsys, "budget")
    assert {k: v for k, v in report.items() if k != "manifest"} == {
        k: v for k, v in shipped.items() if k != "manifest"}


def test_overflowing_report_exit3(capsys, tmp_path):
    # a finite Qs whose square overflows the second-order hyperfine residual
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[3]["Qs"].__setitem__("value", -1e308))
    for fmt in ("json", "table"):
        code, out, err = _run(capsys, "budget", "--chain", chain, "--format", fmt)
        assert code == 3
        assert out == ""
        assert "non-finite number" in err


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_non_finite_report_names_its_key_and_writes_nothing(capsys, tmp_path, fmt):
    chain = _frib_chain_with(tmp_path, lambda isotopes: isotopes[3]["Qs"].__setitem__("value", -1e308))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "budget", "--chain", chain, "--format", fmt, "--out", str(out_dir))
    assert code == 3
    assert out == ""
    assert "non-finite number in 'entries'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
def test_finiteness_walk_looks_through_nested_containers(bad):
    cli._json_text({"a": [1, "x", None, (2.0, {"b": 3.5})], "c": True})
    with pytest.raises(NumericalError, match="non-finite number in 'c'"):
        cli._json_text({"a": [1.0], "c": {"d": [(0.0, bad)]}})


_ODD_STRINGS = ("", "plain", "\u00e9t\u00e9 \u00fc \u03c7\u2212 1", "\x00\x1f\x7f\"\\/\n\r\t\b\f",
                "\U0001f600 \ud800", "\u2028\u2029")
_ODD_LEAVES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               2.2250738585072014e-308, 1e16, 1e-7, 0.1, np.float64(0.1), np.float64(-2.5e-300),
               np.float64(-0.0), 0, -1, 2 ** 63, -(10 ** 40), 10 ** 300, True, False, None, *_ODD_STRINGS)


def _random_json_value(rng, depth=0):
    roll = rng.random()
    if depth < 4 and roll < 0.25:
        keys = [rng.choice(_ODD_STRINGS) + str(rng.randrange(50)) for _ in range(rng.randrange(5))]
        return {key: _random_json_value(rng, depth + 1) for key in keys}
    if depth < 4 and roll < 0.5:
        items = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        return tuple(items) if rng.random() < 0.3 else items
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(_ODD_LEAVES)
    if kind == 1:  # any finite double, subnormals included
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        return value if math.isfinite(value) else rng.uniform(-1e3, 1e3)
    if kind == 2:
        return rng.randint(-(2 ** 80), 2 ** 80)
    return "".join(chr(rng.choice((rng.randrange(0x20), rng.randrange(0x20, 0x7f), rng.randrange(0x80, 0xd800),
                                   rng.randrange(0xe000, 0x110000)))) for _ in range(rng.randrange(8)))


def test_json_writer_gives_the_bytes_of_json_dumps():
    rng = random.Random(20250809)
    for _ in range(400):
        report = {rng.choice(_ODD_STRINGS) + str(k): _random_json_value(rng) for k in range(rng.randrange(1, 6))}
        assert cli._json_text(report) == json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    for empty in ({}, {"a": {}, "b": [], "c": ()}):
        assert cli._json_text(empty) == json.dumps(empty, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, Fraction(1, 2), b"bytes", [[np.int32(0)]]],
                         ids=["int64", "set", "Fraction", "bytes", "nested-int32"])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps({"a": value}, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(TypeError):
        cli._json_text({"a": value})


def test_json_writer_refuses_non_str_keys_which_json_would_convert():
    # a narrowing: json.dumps writes {1: 2} as {"1": 2}; no report has such a key
    assert json.dumps({"a": {1: 2}}, sort_keys=True) == '{"a": {"1": 2}}'
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json_text({"a": {1: 2}})


def test_json_writer_does_not_look_for_a_container_that_holds_itself():
    # a narrowing: json.dumps names the cycle; no report holds one
    looped = []
    looped.append(looped)
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps({"a": looped}, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(RecursionError):
        cli._json_text({"a": looped})


def test_json_writer_names_the_first_non_finite_key_in_report_order():
    # sorted, 'a' is written first; in report order 'b' holds the first NaN
    with pytest.raises(NumericalError, match="non-finite number in 'b'"):
        cli._json_text({"b": {"x": [0.0, math.nan]}, "a": math.inf})


def test_empty_milestone_ladder_exit2(capsys, tmp_path):
    ladder = _edited_resource(tmp_path, "milestones-v1", lambda obj: obj.__setitem__("rows", []))
    code, out, err = _run(capsys, "milestones", "--ladder", ladder, "--target", "1e-15")
    assert code == 2
    assert out == ""
    assert "milestone ladder has no rows" in err


def test_extract_subnormal_sigma_exit3_without_hanging(tmp_path):
    """LAPACK's SVD can spin forever on an inf entry, so run it in a child
    with a deadline: a regression fails here instead of stalling the suite."""
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    fixture["rows"][0]["sigma_eV"] = 1e-320
    rhs_file = tmp_path / "subnormal.json"
    rhs_file.write_text(json.dumps(fixture), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run([sys.executable, "-m", "gkpforge.cli", "extract", "--rhs", str(rhs_file),
                            "--format", "json"], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 3
    assert child.stdout == ""
    assert "row-whitened design matrix overflowed" in child.stderr


def test_extract_underflowing_weights_exit3_with_the_refusal_alone(tmp_path):
    """Every sigma at 1e300 squares the whitened singular values to zero:
    the refusal is the only line on stderr, with no numpy warning before it."""
    fixture = json.loads(Path(RHS_FIXTURE).read_text(encoding="utf-8"))
    for row in fixture["rows"]:
        row["sigma_eV"] = 1e300
    rhs_file = tmp_path / "huge_sigma.json"
    rhs_file.write_text(json.dumps(fixture), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p), "PYTHONWARNINGS": "default"}
    child = subprocess.run([sys.executable, "-m", "gkpforge.cli", "extract", "--rhs", str(rhs_file),
                            "--format", "json"], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 3
    assert child.stdout == ""
    assert child.stderr.startswith("numerical failure: ")
    assert "underflowed" in child.stderr
    assert child.stderr.count("\n") == 1


def _golden_rhs_with_last_sigma(tmp_path, sigma: float) -> str:
    rhs = json.loads((Path(__file__).parent / "golden" / "rhs_mo_chain_v1.json").read_text(encoding="utf-8"))
    rhs["rows"][-1]["sigma_eV"] = sigma
    path = tmp_path / "rhs.json"
    path.write_text(json.dumps(rhs), encoding="utf-8")
    return str(path)


def test_extract_refuses_a_rank_deficient_whitened_system(capsys, tmp_path):
    # one row weighted 1e32 times the others: the unweighted design has
    # kappa 3.17, the matrix that is solved about 1.6e18
    rhs = _golden_rhs_with_last_sigma(tmp_path, 1e-40)
    code, out, err = _run(capsys, "extract", "--chain", "mo-chain-v1", "--rhs", rhs, "--format", "json")
    assert code == 1
    assert out == ""
    assert "row-whitened design matrix is numerically rank deficient" in err


def test_extract_solves_a_well_conditioned_uneven_weighting(capsys, tmp_path):
    rhs = _golden_rhs_with_last_sigma(tmp_path, 1e-8)
    code, report = _run_json(capsys, "extract", "--chain", "mo-chain-v1", "--rhs", rhs)
    assert code == 0
    assert report["alpha_manko_hat"] == pytest.approx(1.0, abs=1e-9)


def test_csv_format_budget_and_solvability(capsys):
    code, out, _ = _run(capsys, "budget", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("dominant,TNP") for line in lines)
    assert any(line.startswith("entries,") for line in lines)  # per-barrier row group

    code, out, _ = _run(capsys, "solvability", "--format", "csv")
    assert code == 0
    assert "No (2 < 3)" in out and "Yes (3 = 3)" in out


def test_data_dir_override(capsys, tmp_path, monkeypatch):
    import json as _json
    from gkpforge.resources import resource_path

    original = _json.loads(Path(resource_path("mo-chain-v1")).read_text(encoding="utf-8"))
    for iso in original["isotopes"]:
        if iso["A"] == 95:
            iso["Qs"] = {"value": -0.044, "sigma": 0.002}
    (tmp_path / "mo_chain_v1.json").write_text(_json.dumps(original), encoding="utf-8")

    monkeypatch.setenv("GKPFORGE_DATA_DIR", str(tmp_path))
    assert str(resource_path("mo-chain-v1")).startswith(str(tmp_path))
    from gkpforge.nucdata import load_bundled_chain

    chain = load_bundled_chain("mo-chain-v1")
    assert chain.isotope(95).Qs.value == -0.044

    # names not present in the override directory fall back to the bundle
    assert not str(resource_path("milestones-v1")).startswith(str(tmp_path))


# ---------------------------------------------------------------------------
# one parser per process, reused by every main() call

@pytest.fixture
def fresh_parser():
    """Start from an unbuilt parser, so the next main() call is a first call."""
    cli._build_parser.cache_clear()


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_does_not_keep_appended_isotopes(capsys, fresh_parser):
    first = _run(capsys, "solvability", "--format", "json")
    n_odd = json.loads(first[1])["selected"]["N_odd"]
    for _ in range(2):
        code, report = _run_json(capsys, "solvability", "--add-isotope", "91")
        assert code == 0
        assert report["selected"]["N_odd"] == n_odd + 1
    assert _run(capsys, "solvability", "--format", "json") == first


def test_shared_parser_after_an_argparse_error(capsys, fresh_parser):
    alone = _run(capsys, "budget", "--format", "json")
    with pytest.raises(SystemExit) as exc:
        main(["budget", "--scenario", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert _run(capsys, "budget", "--format", "json") == alone


def test_version_exits_zero_twice(capsys, fresh_parser):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"gkpforge {__version__}\n"


def test_each_command_has_its_own_parser():
    _, commands = cli._build_parser()
    assert {name: parser.prog for name, parser in commands.items()} == {
        name: f"gkpforge {name}" for name in ("budget", "solvability", "condition", "extract", "milestones", "ramsey")}


def test_clearing_the_parser_cache_rebuilds_the_command_map(capsys, fresh_parser):
    parser, commands = cli._build_parser()
    cli._build_parser.cache_clear()
    rebuilt, rebuilt_commands = cli._build_parser()
    assert rebuilt is not parser
    assert all(rebuilt_commands[name] is not commands[name] for name in commands)
    # main parses with the rebuilt map: a default set on the old one is not seen
    commands["budget"].set_defaults(scenario="projected")
    code, report = _run_json(capsys, "budget")
    assert code == 0 and report["scenario"] == "current"


def _top_level_parse(argv: list[str]) -> argparse.Namespace:
    """The reference parse: every request through the top-level parser."""
    parser, _ = cli._build_parser()
    return parser.parse_args(argv, argparse.Namespace(inputs={}))


def _outcome(capsys, argv: list[str]) -> tuple[object, str, str]:
    """Exit code (returned or raised), stdout and stderr of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every golden case in each format, the invalid requests of gkpbench's
# cli_mix, and the command lines that the top-level parser answers itself
ABSENT = "<golden>/absent.json"
DIFFERENTIAL = [
    *([*argv, "--format", fmt] for argv in CASES.values() for fmt in FORMATS),
    ["budget", "--scenario", "bogus"],
    ["budget", "--probe", "99"],
    ["solvability", "--nbkg", "-1"],
    ["milestones", "--target", "1e-30"],
    ["ramsey", "--tr", "-1"],
    ["extract", "--rhs", ABSENT],
    ["condition", "--spec", ABSENT],
    [],
    ["--help"],
    ["--version"],
    ["budget", "--help"],
    ["-h", "budget"],
    ["bogus"],
    ["budget", "--bogus"],
    ["budget", "extra"],
    ["budget", "--version"],
    ["--format", "json", "budget"],
    ["budget", "--format=json"],
    ["ramsey", "--tr=2", "--format=csv"],
    ["budget", "--format", "json", "--"],
    ["budget", "--", "--format", "json"],
    ["--", "budget"],
    ["budget", "--form", "json"],
    ["extract"],
    ["ramsey", "--tr"],
]


@pytest.mark.parametrize("argv", DIFFERENTIAL, ids=lambda argv: " ".join(argv) or "(no argv)")
def test_a_command_line_gives_what_the_top_level_parser_gives(capsys, monkeypatch, argv):
    places = {"<data>": str(resource_path("mo-chain-v1").parent), "<golden>": str(GOLDEN)}
    for placeholder, path in places.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", _top_level_parse)
    assert _outcome(capsys, argv) == got


def test_only_what_a_command_parser_leaves_reaches_the_top_level_parser(capsys, monkeypatch, fresh_parser):
    parser, _ = cli._build_parser()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return argparse.ArgumentParser.parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    for argv in (["budget", "--format", "json"], ["ramsey", "--tr", "1"], ["solvability", "--add-isotope", "91"]):
        assert _outcome(capsys, argv)[0] == 0
    assert calls == []
    for argv in (["budget", "--bogus"], ["bogus"], ["--version"], []):
        _outcome(capsys, argv)
    assert len(calls) == 4


# the types the commands pass to _fields: their results, and the dataclasses
# and named tuples in a tuple field of one
REPORT_DATACLASSES = {"BarrierBudget", "BarrierEntry", "KappaSummary", "Extraction", "Estimate",
                      "MilestoneLadder", "Milestone", "RamseyPlan"}


def _field_names(obj) -> list[str]:
    return list(obj._fields) if isinstance(obj, tuple) else [f.name for f in dataclasses.fields(obj)]


def test_fields_are_the_dataclass_fields_in_field_order(capsys, monkeypatch):
    fields, seen = cli._fields, {}

    def recorded(obj):
        seen.setdefault(type(obj).__name__, obj)
        return fields(obj)

    monkeypatch.setattr(cli, "_fields", recorded)
    requests = [["budget"], ["solvability"], ["condition", "--samples", "64"], ["extract", "--rhs", RHS_FIXTURE],
                ["milestones", "--target", "1e-15"], ["ramsey", "--tr", "1"]]
    for argv in requests:
        assert main([*argv, "--format", "json"]) == 0
    capsys.readouterr()
    assert set(seen) == REPORT_DATACLASSES
    listed = set()
    for obj in seen.values():
        got = fields(obj)
        assert list(got) == _field_names(obj)
        for name, value in got.items():
            want = getattr(obj, name)
            if type(want) is tuple and want and all(type(item).__name__ in REPORT_DATACLASSES for item in want):
                # a tuple of dataclasses or named tuples: the list of their fields, each in field order,
                # each value shared
                listed.add(type(want[0]).__name__)
                assert type(value) is list and len(value) == len(want)
                for row, item in zip(value, want):
                    assert list(row) == _field_names(item)
                    assert all(row[key] is getattr(item, key) for key in row)
            else:
                assert value is want
    assert listed == {"BarrierEntry", "Estimate", "Milestone"}
    # the names are read once per class
    misses = cli._field_names.cache_info().misses
    for argv in requests:
        assert main([*argv, "--format", "json"]) == 0
    capsys.readouterr()
    assert cli._field_names.cache_info().misses == misses


# ---------------------------------------------------------------------------
# each flag only where it is read; the timestamp's environment

@pytest.mark.parametrize("argv", [
    ["budget", "--seed", "5"],
    ["solvability", "--seed", "5"],
    ["extract", "--rhs", RHS_FIXTURE, "--seed", "7"],
    ["milestones", "--seed", "5"],
    ["milestones", "--chain", "mo-chain-v1"],
    ["ramsey", "--tr", "1", "--seed", "5"],
    ["ramsey", "--tr", "1", "--chain", "/nonexistent.json"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


@pytest.mark.parametrize("command, chain", [("budget", "mo-chain-v1"), ("solvability", "mo-chain-v1"),
                                            ("condition", "mo-chain-v1"), ("extract", "mo-chain-frib-synthetic-v1")])
def test_help_gives_the_default_chain(capsys, monkeypatch, command, chain):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help text at hyphens
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"(default: {chain})" in capsys.readouterr().out


@pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999999999"])
@pytest.mark.parametrize("argv", [["ramsey", "--tr", "1"], ["budget"]], ids=["ramsey", "budget"])
def test_malformed_source_date_epoch_exit2(capsys, monkeypatch, argv, epoch):
    monkeypatch.delenv("GKPFORGE_TIMESTAMP")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert f"SOURCE_DATE_EPOCH={epoch!r} must be a whole number of seconds" in err


def test_source_date_epoch_dates_the_report_unless_the_timestamp_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    _, report = _run_json(capsys, "ramsey", "--tr", "1")
    assert report["manifest"]["timestamp"] == "2026-08-09T00:00:00+00:00"
    monkeypatch.delenv("GKPFORGE_TIMESTAMP")
    _, report = _run_json(capsys, "ramsey", "--tr", "1")
    assert report["manifest"]["timestamp"] == "2023-11-14T22:13:20+00:00"
