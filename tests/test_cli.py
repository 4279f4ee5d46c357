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
from typing import NamedTuple

import numpy as np
import pytest

from gkpforge import __version__, cli, montecarlo
from gkpforge.cli import main
from gkpforge.errors import NumericalError
from gkpforge.resources import resource_path, schema_path
from golden_cases import CASES, FORMATS, GOLDEN, with_paths

jsonschema = pytest.importorskip("jsonschema")

RHS = "synthetic-rhs-noiseless-v1"
RHS_FIXTURE = str(resource_path(RHS))

pytestmark = pytest.mark.usefixtures("pinned_timestamp")


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
    truth = json.loads(resource_path(RHS).read_text(encoding="utf-8"))["truth"]
    assert report["alpha_manko_hat"] == pytest.approx(truth["alpha_manko"], rel=1e-10)
    by_name = {b["name"]: b["value"] for b in report["background_estimates"]}
    assert by_name["qs_background"] == pytest.approx(truth["qs_background"], rel=1e-10)
    assert by_name["alpha_t_background"] == pytest.approx(truth["alpha_t_background"], rel=1e-10)


def test_extract_chi_bound_scale(capsys, edited):
    # perturb the noiseless fixture with a seeded 1e-13 noise vector
    def noisy(obj):
        rng = np.random.default_rng(99)
        obj["rows"] = [r for r in obj["rows"] if r["transition"] == "1s-2p3/2"]
        for r in obj["rows"]:
            r["delta_eV"] = float(r["delta_eV"] + rng.normal(0.0, 1e-13))
            r["sigma_eV"] = 1e-13

    code, report = _run_json(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                             "--rhs", str(edited(RHS, noisy)))
    assert code == 0
    assert 1e7 <= report["chi_bound"] <= 1e9  # order 1e8 coupling bound
    assert report["chi_bound"] == pytest.approx(report["alpha_manko_se"], rel=1e-9)


def test_extract_manifest_hashes_anchors(capsys, edited):
    def double_the_signal(obj):
        obj["signal_anchor"]["anchor_output_eV"] *= 2

    doubled = edited("mo41-anchors-v1", double_the_signal)
    manifests, signals = [], []
    for extra in ((), ("--anchors", str(doubled))):
        code, report = _run_json(capsys, "extract", "--chain", "mo-chain-frib-synthetic-v1",
                                 "--rhs", RHS_FIXTURE, *extra)
        assert code == 0
        _validate(report, "extract_report")
        manifests.append(report["manifest"])
        signals.append(report["signal_at_chi1_eV"])
    default, changed = (m["inputs"]["anchors"] for m in manifests)
    assert default["path"] == str(resource_path("mo41-anchors-v1"))
    assert changed["path"] == str(doubled)
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


# ---------------------------------------------------------------------------
# cross-command behavior

def test_budget_of_vanishing_residuals_is_a_float(capsys, edited):
    def zero_outputs(obj):
        obj["hfs_e2_anchor"]["anchor_output_eV"] = 0.0
        obj["tnp_anchor"]["anchor_output_eV"] = 0.0

    anchors = str(edited("mo41-anchors-v1", zero_outputs))
    code, out, _ = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert code == 0
    assert '"combined_current_eV": 0.0' in out and '"combined_projected_eV": 0.0' in out
    assert json.loads(out)["dominant"] == "none"
    code, out, _ = _run(capsys, "budget", "--anchors", anchors, "--format", "csv")
    assert code == 0
    assert "combined_current_eV,0.0\n" in out and "combined_projected_eV,0.0\n" in out


# 0.3 * (7.1 / 0.3) ** 1.0 is 7.1000000000000005, and across a band one ulp
# wide the fourth of five log-spaced points rounds one ulp past the upper edge
@pytest.mark.parametrize("lo, hi, nominal", [(0.3, 7.1, 1.0),
                                             (0.9476572718746066, 0.9476572718746067, 0.9476572718746066)],
                         ids=["last-point", "inner-point"])
def test_budget_band_that_the_log_sweep_rounds_past_exits_0(capsys, edited, lo, hi, nominal):
    def band(obj):
        obj["f_tilde"]["band_raw"] = [lo, hi]
        obj["f_tilde"]["nominal_raw"] = nominal

    anchors = str(edited("mo41-anchors-v1", band))
    code, out, err = _run(capsys, "budget", "--anchors", anchors, "--format", "json")
    assert (code, err) == (0, "")
    f_tildes = [f for f, _ in json.loads(out)["signal_band_eV"]]
    assert f_tildes[0] == lo and f_tildes[-1] == hi
    assert f_tildes == sorted(f_tildes)


def test_anchor_file_without_R_N_fm_runs(capsys, edited):
    anchors = str(edited("mo41-anchors-v1", lambda obj: obj.pop("R_N_fm")))
    code, report = _run_json(capsys, "budget", "--anchors", anchors)
    assert code == 0
    _, shipped = _run_json(capsys, "budget")
    assert {k: v for k, v in report.items() if k != "manifest"} == {
        k: v for k, v in shipped.items() if k != "manifest"}


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_non_finite_report_names_its_key_and_writes_nothing(capsys, tmp_path, edited, fmt):
    chain = edited("mo-chain-frib-synthetic-v1", lambda obj: obj["isotopes"][3]["Qs"].__setitem__("value", -1e308))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "budget", "--chain", str(chain), "--format", fmt, "--out", str(out_dir))
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


def test_extract_subnormal_sigma_exit3_without_hanging(edited):
    """LAPACK's SVD can spin forever on an inf entry, so run it in a child
    with a deadline: a regression fails here instead of stalling the suite."""
    rhs_file = edited(RHS, lambda obj: obj["rows"][0].__setitem__("sigma_eV", 1e-320))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run([sys.executable, "-m", "gkpforge.cli", "extract", "--rhs", str(rhs_file),
                            "--format", "json"], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 3
    assert child.stdout == ""
    assert "row-whitened design matrix overflowed" in child.stderr


def test_extract_underflowing_weights_exit3_with_the_refusal_alone(edited):
    """Every sigma at 1e300 squares the whitened singular values to zero:
    the refusal is the only line on stderr, with no numpy warning before it."""
    rhs_file = edited(RHS, lambda obj: [row.__setitem__("sigma_eV", 1e300) for row in obj["rows"]])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p), "PYTHONWARNINGS": "default"}
    child = subprocess.run([sys.executable, "-m", "gkpforge.cli", "extract", "--rhs", str(rhs_file),
                            "--format", "json"], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 3
    assert child.stdout == ""
    assert child.stderr.startswith("numerical failure: ")
    assert "underflowed" in child.stderr
    assert child.stderr.count("\n") == 1


def test_extract_solves_a_well_conditioned_uneven_weighting(capsys, edited):
    rhs = edited(GOLDEN / "rhs_mo_chain_v1.json", lambda obj: obj["rows"][-1].__setitem__("sigma_eV", 1e-8))
    code, report = _run_json(capsys, "extract", "--chain", "mo-chain-v1", "--rhs", str(rhs))
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


def test_data_dir_override(capsys, tmp_path, edited, monkeypatch):
    def doubled_qs_95(obj):
        next(iso for iso in obj["isotopes"] if iso["A"] == 95)["Qs"] = {"value": -0.044, "sigma": 0.002}

    assert edited("mo-chain-v1", doubled_qs_95) == tmp_path / "mo_chain_v1.json"
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
    argv = [with_paths(arg) for arg in argv]
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


# ---------------------------------------------------------------------------
# refusals: each command line that must fail is one row of REFUSALS

class Refusal(NamedTuple):
    """A command line that main refuses: its argv, exit code and stderr,
    and the files to write first, {name: content}. A content is text or
    bytes, written as name in tmp_path; DIRECTORY, made a directory there;
    or the arguments of the edited fixture. {name} in argv and err stands
    for the path written. err is stderr but its final newline, or, where
    argparse exits, stderr's final line: argparse wraps usage lines
    differently across Python versions."""

    argv: list[str]
    code: int
    err: str
    files: dict = {}


DIRECTORY = None
FRIB, STABLE = "mo-chain-frib-synthetic-v1", "mo-chain-v1"
ANCHORS, COEFFS, SPEC, LADDER = "mo41-anchors-v1", "mo41-coeffs-v1", "mo91-sampling-v1", "milestones-v1"
CONDITION = ["condition", "--samples", "64"]
EXTRACT = ["extract", "--rhs", RHS_FIXTURE]
NORM_OUT_OF_RANGE = ("numerical failure: column 'qs_background' has a norm outside the floating-point range: "
                     "an entry or its square overflows, or the squares underflow")
NOT_A_RESOURCE = ("invalid input: {!r} is neither a known resource name (milestones-v1, mo-chain-frib-synthetic-v1, "
                  "mo-chain-v1, mo41-anchors-v1, mo41-coeffs-v1, mo91-sampling-v1, synthetic-rhs-noiseless-v1) "
                  "nor an existing file")
TOO_LARGE = f"invalid input: sample_count {2**62} is too large: its array cannot be allocated"
IN_CHAIN = "invalid input: chain file '{chain}': "
# each data file's flag: a command line that reads it, its bundled file, and the name its refusals give it
JSON_FILES = {"--anchors": (["budget"], ANCHORS, "anchor file"), "--coeffs": (CONDITION, COEFFS, "coefficients file"),
              "--spec": (CONDITION, SPEC, "sampling spec"), "--ladder": (["milestones"], LADDER, "milestone file"),
              "--chain": (["budget"], STABLE, "chain file"), "--rhs": (["extract"], RHS, "rhs file")}


def _set(*keys, value):
    """An edit that sets obj[keys[0]]...[keys[-1]] to value."""
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    return edit


def _pop(*keys):
    """An edit that deletes obj[keys[0]]...[keys[-1]]."""
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        del obj[keys[-1]]
    return edit


def _csv(A, column, value):
    """An edit of a CSV chain that sets isotope A's cell in column to value."""
    def edit(header, rows):
        next(cells for cells in rows if cells[0] == str(A))[header.index(column)] = value
    return edit


def _repeat_first(key: str, **changes):
    return lambda obj: obj[key].append(dict(obj[key][0], **changes))


def _repeated_key(name: str, key: str) -> str:
    """The text of a bundled JSON file whose first object holding key gives it twice."""
    return resource_path(name).read_text(encoding="utf-8").replace(f'"{key}":', f'"{key}": 1.0, "{key}":', 1)


REFUSALS = {
    "budget missing anchors file": Refusal(["budget", "--anchors", "missing_anchors.json"], 2,
                                           NOT_A_RESOURCE.format("missing_anchors.json")),
    "budget even-even probe": Refusal(["budget", "--probe", "92"], 2,
                                      "invalid input: probe A=92 is even-even (I = 0) and carries no rank-2 signal"),
    # a finite Qs whose square overflows the second-order hyperfine residual
    "budget overflowing report": Refusal(
        ["budget", "--chain", "{chain}"], 3,
        "numerical failure: the report would hold a non-finite number in 'entries'; an input is out of range",
        {"chain": (FRIB, _set("isotopes", 3, "Qs", "value", value=-1e308))}),
    **{f"condition {flag} {value}": Refusal(["condition", flag, value], 2, f"invalid input: {message}")
       for flag, value, message in [("--samples", "-5", "sample_count must be at least 1"),
                                    ("--samples", "0", "sample_count must be at least 1"),
                                    ("--seed", "-1", "seed must be a non-negative integer, got -1")]},
    # numpy refuses 2**62 float64s before it allocates anything
    "condition --samples 2**62": Refusal(["condition", "--samples", str(2**62)], 2, TOO_LARGE),
    "condition spec sample_count 2**62": Refusal(["condition", "--spec", "{spec}"], 2, TOO_LARGE,
                                                 {"spec": (SPEC, _set("sample_count", value=2**62))}),
    "condition spec negative seed": Refusal([*CONDITION, "--spec", "{spec}"], 2,
                                            "invalid input: seed must be a non-negative integer, got -1",
                                            {"spec": (SPEC, _set("seed", value=-1))}),
    "condition spec negative guard band": Refusal(
        [*CONDITION, "--spec", "{spec}"], 2,
        "invalid input: parameter 'Qs_91': exclude_abs_below must be non-negative",
        {"spec": (SPEC, _set("parameters", 0, "exclude_abs_below", value=-0.5))}),
    "condition spec parameter no draw reads": Refusal(
        [*CONDITION, "--spec", "{spec}"], 2,
        "invalid input: sampling spec parameter 'Qs_93' is read by no draw, which samples only Qs_91 and BE2_91",
        {"spec": (SPEC, lambda obj: obj["parameters"].append(dict(obj["parameters"][0], name="Qs_93")))}),
    "condition spec Qs_91 over +-1.5e308": Refusal(
        ["condition", "--spec", "{spec}"], 2,
        "invalid input: parameter 'Qs_91': bounds must be ordered with a finite high - low",
        {"spec": (SPEC, lambda obj: obj["parameters"][0].update(low=-1.5e308, high=1.5e308))}),
    "condition coeffs H = 1e308": Refusal([*CONDITION, "--coeffs", "{coeffs}"], 3, NORM_OUT_OF_RANGE,
                                          {"coeffs": (COEFFS, _set("transitions", 0, "H_eV_per_b", value=1e308))}),
    "condition coeffs H = 1e-310": Refusal([*CONDITION, "--coeffs", "{coeffs}"], 3, NORM_OUT_OF_RANGE,
                                           {"coeffs": (COEFFS, _set("transitions", 0, "H_eV_per_b", value=1e-310))}),
    # every draw shares the zero column: a float in the grid that condition_numbers reads
    "condition coeffs G = 0": Refusal([*CONDITION, "--coeffs", "{coeffs}"], 1,
                                      "refused: column 'gravitomagnetic' is identically zero",
                                      {"coeffs": (COEFFS, _set("transitions", 0, "G_eV_per_lever", value=0.0))}),
    **{f"condition upper j {j}": Refusal(
        [*CONDITION, "--coeffs", "{coeffs}"], 2,
        f"invalid input: coefficients file {{coeffs}}: transition 0 upper field j: "
        f"cannot parse spin {j!r} as a half-integer",
        {"coeffs": (COEFFS, _set("transitions", 0, "upper", "j", value=j))}) for j in ["1_5/10", "٣/2"]},
    "extract coeffs H = 1e308": Refusal([*EXTRACT, "--coeffs", "{coeffs}"], 3, NORM_OUT_OF_RANGE,
                                        {"coeffs": (COEFFS, _set("transitions", 0, "H_eV_per_b", value=1e308))}),
    "extract missing rhs file": Refusal(["extract", "--rhs", "nowhere.json"], 2,
                                        NOT_A_RESOURCE.format("nowhere.json")),
    "extract stable pair": Refusal(
        ["extract", "--chain", STABLE, "--rhs", "{rhs}"], 1,
        "refused: underdetermined topology: 2 equations for 3 unknowns. With 1 rank-2 transition(s) the counting "
        "condition requires N_odd >= 3; in the single-transition case this is the N_odd >= 3 requirement.",
        {"rhs": (RHS, lambda obj: obj.__setitem__("rows", [r for r in obj["rows"]
                                                           if r["A"] in (95, 97) and r["transition"] == "1s-2p3/2"]))}),
    **{f"extract upper {message.rsplit(': ', 1)[-1]}": Refusal(
        [*EXTRACT, "--coeffs", "{coeffs}"], 2, f"invalid input: coefficients file {{coeffs}}: {message}",
        {"coeffs": (COEFFS, _set("transitions", 0, "upper", value=upper))}) for upper, message in [
        ({"n": 1, "l": 0, "j": "5/2"}, "upper state of channel '1s-2p3/2': j=5/2 incompatible with l=0"),
        ({"n": 1, "l": 1, "j": "3/2"}, "upper state of channel '1s-2p3/2': requires n > l >= 0"),
        ({"j": "3/2"}, "transition 0 upper is missing the 'n' key"),
        ({"n": 2, "j": "3/2"}, "transition 0 upper is missing the 'l' key")]},
    **{f"extract upper j {j}": Refusal(
        [*EXTRACT, "--coeffs", "{coeffs}"], 2,
        f"invalid input: coefficients file {{coeffs}}: transition 0 upper field j: {message}",
        {"coeffs": (COEFFS, _set("transitions", 0, "upper", "j", value=j))})
       for j, message in [("abc", "cannot parse spin 'abc' as a half-integer"),
                          ("7/4", "spin 7/4 is not a half-integer")]},
    "milestones target out of range": Refusal(
        ["milestones", "--target", "1e-5"], 2,
        "invalid input: target sensitivity 1.000e-05 eV outside the ladder range [1.0e-21, 1.0e-13] eV"),
    "milestones empty ladder": Refusal(["milestones", "--ladder", "{ladder}", "--target", "1e-15"], 2,
                                       "invalid input: milestone ladder has no rows",
                                       {"ladder": (LADDER, _set("rows", value=[]))}),
    "ramsey negative tr": Refusal(["ramsey", "--half-life", "930", "--tr", "-5"], 2,
                                  "invalid input: requested interrogation time must be positive and finite"),
    "ramsey reps beyond float range": Refusal(["ramsey", "--tr", "1", "--reps", "1" + "0" * 400], 2,
                                              "invalid input: repetitions must be at most 1.79769e+308"),
    **{f"ramsey {field} underflows": Refusal(
        ["ramsey", *argv], 3, f"numerical failure: {field} underflows to {value}, below the smallest normal float")
       for argv, field, value in [(["--tr", "3e307"], "per_shot_linewidth_Hz", "0.0"),
                                  (["--tr", "1e200", "--reps", "1" + "0" * 300], "campaign_sensitivity_Hz", "0.0"),
                                  (["--tr", "1e300"], "campaign_sensitivity_eV", "6.58211956e-316")]},
    **{f"ramsey decay penalty overflows {' '.join(argv)}": Refusal(
        ["ramsey", *argv], 3, "numerical failure: the report would hold a non-finite number in "
        "'decay_penalty_at_request'; an input is out of range")
       for argv in [["--half-life", "1", "--tr", "1e300"], ["--half-life", "1e-300", "--tr", "1"]]},
    **{f"ramsey {' '.join(argv)}": Refusal(["ramsey", *argv], 2, f"gkpforge ramsey: error: argument {message}")
       for argv, message in [(["--tr", "1", "--half-life", "abc"], "--half-life: must be a number, got 'abc'"),
                             (["--tr", "1", "--half-life", "inf"], "--half-life: must be finite, got 'inf'"),
                             (["--tr", "nan"], "--tr: must be finite, got 'nan'"),
                             (["--tr", "inf"], "--tr: must be finite, got 'inf'")]},
    # flags that the command does not read
    **{f"{argv[0]} {argv[-2]}": Refusal(argv, 2, f"gkpforge: error: unrecognized arguments: {argv[-2]} {argv[-1]}")
       for argv in [
        ["budget", "--seed", "5"], ["solvability", "--seed", "5"], ["extract", "--rhs", RHS_FIXTURE, "--seed", "7"],
        ["milestones", "--seed", "5"], ["milestones", "--chain", "mo-chain-v1"], ["ramsey", "--tr", "1", "--seed", "5"],
        ["ramsey", "--tr", "1", "--chain", "/nonexistent.json"]]},
    # JSON chains
    **{f"chain record missing {key}": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + f"{'JSON chain isotope record 1' if key == 'A' else 'isotope A=92'} is missing the {key!r} key",
        {"chain": (FRIB, _pop("isotopes", 1, key))}) for key in ["A", "Z", "I", "parity", "r_ch"]},
    "chain record missing Z, solvability": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=92 is missing the 'Z' key",
        {"chain": (FRIB, _pop("isotopes", 1, "Z"))}),
    "chain record not an object": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + "JSON chain isotope record 0 is not an object",
        {"chain": (FRIB, _set("isotopes", 0, value=91))}),
    "chain record mistyped A": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + "JSON chain isotope record 0 has A = 'x', expected an integer",
        {"chain": (FRIB, _set("isotopes", 0, "A", value="x"))}),
    "chain record mistyped parity": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=92 has parity = '+', expected an integer",
        {"chain": (FRIB, _set("isotopes", 1, "parity", value="+"))}),
    "chain measured value mistyped": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=91 field r_ch has value = 'abc', expected a number",
        {"chain": (FRIB, _set("isotopes", 0, "r_ch", "value", value="abc"))}),
    "chain overflowing spin": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=94: spin must be a non-negative half-integer no larger than A",
        {"chain": (FRIB, _set("isotopes", 2, "I", value=1e308))}),
    "chain negative r_ch sigma": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=92 field r_ch: negative uncertainty -0.1",
        {"chain": (STABLE, _set("isotopes", 0, "r_ch", "sigma", value=-0.1))}),
    "chain negative B(E2)": Refusal(
        ["budget", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=95 field BE2_up: B(E2) must be non-negative, got -8.0",
        {"chain": (STABLE, _set("isotopes", 2, "BE2_up", "value", value=-8.0))}),
    # CSV chains
    "csv chain negative B(E2)": Refusal(
        [*CONDITION, "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=95 field BE2_up: B(E2) must be non-negative, got -8.0",
        {"chain": (STABLE, _csv(95, "BE2_up", "-8.0"), True)}),
    "csv chain unparseable half-life": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "row 3 field half_life_s: 'abc' is not a number",
        {"chain": (STABLE, _csv(94, "half_life_s", "abc"), True)}),
    **{f"csv chain half-life {cell}": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "isotope A=94: half-life must be positive and finite when given",
        {"chain": (STABLE, _csv(94, "half_life_s", cell), True)}) for cell in ["nan", "inf"]},
    "csv chain short row": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "row 3: fewer cells than the header; no value for field parity",
        {"chain": (STABLE, lambda header, rows: rows.__setitem__(1, rows[1][:3]), True)}),
    "csv chain long row": Refusal(
        ["solvability", "--chain", "{chain}"], 2, IN_CHAIN + "row 3: 2 more cells than the header",
        {"chain": (STABLE, lambda header, rows: rows[1].extend(["extra", "cells"]), True)}),
    "csv chain header": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "CSV chain header is missing columns ['half_life_s']",
        {"chain": (STABLE, lambda header, rows: [cells.pop() for cells in (header, *rows)], True)}),
    "csv chain bad integer": Refusal(
        ["solvability", "--chain", "{chain}"], 2,
        IN_CHAIN + "row 3: bad integer field (invalid literal for int() with base 10: 'x')",
        {"chain": (STABLE, _csv(94, "A", "x"), True)}),
    "csv chain empty": Refusal(["solvability", "--chain", "{chain.csv}"], 2,
                               "invalid input: chain file '{chain.csv}': CSV chain file is empty", {"chain.csv": ""}),
    "csv chain directory": Refusal(
        ["solvability", "--chain", "{chain.csv}"], 2,
        "invalid input: chain file '{chain.csv}' cannot be read as CSV: [Errno 21] Is a directory: '{chain.csv}'",
        {"chain.csv": DIRECTORY}),
    "csv chain not UTF-8": Refusal(
        ["solvability", "--chain", "{chain.csv}"], 2,
        "invalid input: chain file '{chain.csv}' cannot be read as CSV: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", {"chain.csv": b"\xff\xfe"}),
    # anchors
    **{f"{argv[0]} anchors fs_gap_eV {gap}": Refusal(
        [*argv, "--anchors", "{anchors}"], 2,
        "invalid input: anchor set 'mo41-anchors-v1': fs_gap_eV must be positive and not subnormal",
        {"anchors": (ANCHORS, _set("fs_gap_eV", value=gap))})
       for gap in [0.0, -150.0, 1e-320] for argv in [["budget"], EXTRACT]},
    "budget anchors subnormal signal": Refusal(
        ["budget", "--anchors", "{anchors}"], 2,
        "invalid input: anchor set 'mo41-anchors-v1': signal_anchor_eV must be nonzero and not subnormal",
        {"anchors": (ANCHORS, _set("signal_anchor", "anchor_output_eV", value=1e-320))}),
    **{f"{argv[0]} anchors negative {block}": Refusal(
        [*argv, "--anchors", "{anchors}"], 2,
        f"invalid input: anchor set 'mo41-anchors-v1': {field} must be positive, got -2.0",
        {"anchors": (ANCHORS, _set(block, key, value=-2.0))})
       for block, key, field in [("signal_anchor", "anchor_output_eV", "signal_anchor_eV"),
                                 ("tnp_anchor", "anchor_input_BE2_wu", "tnp_anchor_BE2_wu")]
       for argv in [["budget"], EXTRACT]},
    **{f"budget anchors {key}": Refusal(
        ["budget", "--anchors", "{anchors}"], 2,
        f"invalid input: anchor file {{anchors}}: scenario current: {expected}",
        {"anchors": (ANCHORS, _set("scenarios", "current", key, value=value))})
       for key, value, expected in [("hfs2_theory_fraction", 0, "hfs2_theory_fraction must lie in (0, 1], got 0.0"),
                                    ("tnp_knowledge_fraction", 2,
                                     "tnp_knowledge_fraction must lie in [0, 1], got 2.0")]},
    # a JSON integer too large for a float, which float() would refuse with OverflowError
    "budget anchors band edge beyond float range": Refusal(
        ["budget", "--anchors", "{anchors}"], 2,
        f"invalid input: anchor file {{anchors}}: f_tilde has band_raw = {10 ** 400}, expected a number",
        {"anchors": (ANCHORS, _set("f_tilde", "band_raw", value=[1, 10 ** 400]))}),
    # what every JSON data file refuses
    **{f"{flag} syntax error": Refusal(
        [*JSON_FILES[flag][0], flag, "{broken.json}"], 2, f"invalid input: {JSON_FILES[flag][2]} '{{broken.json}}' "
        "cannot be read as JSON: Expecting value: line 1 column 10 (char 9)", {"broken.json": '{"name": '})
       for flag in ["--anchors", "--coeffs", "--spec", "--ladder"]},
    **{f"{flag} key repeated in one object": Refusal(
        [*JSON_FILES[flag][0], flag, "{repeated.json}"], 2,
        f"invalid input: {JSON_FILES[flag][2]} '{{repeated.json}}' repeats the key {key!r} in one object",
        {"repeated.json": _repeated_key(JSON_FILES[flag][1], key)})
       for flag, key in [("--chain", "r_ch"), ("--anchors", "fs_gap_eV"), ("--coeffs", "H_eV_per_b"),
                         ("--spec", "low"), ("--ladder", "sensitivity_eV"), ("--rhs", "delta_eV")]},
    "extract coeffs repeated transition": Refusal(
        [*EXTRACT, "--coeffs", "{coeffs}"], 2,
        "invalid input: coefficients file {coeffs}: transition 2 repeats transition 0: label '1s-2p3/2'",
        {"coeffs": (COEFFS, _repeat_first("transitions", G_eV_per_lever=9.12e-20))}),
    "condition coeffs repeated transition": Refusal(
        [*CONDITION, "--coeffs", "{coeffs}"], 2,
        "invalid input: coefficients file {coeffs}: transition 2 repeats transition 0: label '1s-2p3/2'",
        {"coeffs": (COEFFS, _repeat_first("transitions", G_eV_per_lever=9.12e-20))}),
    "condition spec repeated parameter": Refusal(
        [*CONDITION, "--spec", "{spec}"], 2,
        "invalid input: sampling spec {spec}: parameter 2 repeats parameter 0: name 'Qs_91'",
        {"spec": (SPEC, _repeat_first("parameters", low=0.5))}),
    **{f"{flag} entry not an object": Refusal(
        [*JSON_FILES[flag][0], flag, "{file}"], 2, f"invalid input: {JSON_FILES[flag][2]} {{file}}: {message}",
        {"file": (JSON_FILES[flag][1], edit)}) for flag, edit, message in [
        ("--coeffs", _set("transitions", 1, value="1s-2p3/2"), "transition 1 is not an object"),
        ("--spec", _set("parameters", 1, value=0.5), "parameter 1 is not an object"),
        ("--ladder", _set("rows", 1, value=[1e-14]), "row 1 is not an object"),
        ("--anchors", _set("scenarios", "current", value=None), "scenario current is not an object")]},
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(capsys, tmp_path, edited, case, fmt):
    """Exit code and stderr exactly the row's, in every format, nothing on
    stdout, and no RuntimeWarning raised or printed."""
    argv, code, err, files = REFUSALS[case]
    paths = {}
    for name, content in files.items():
        path = paths[name] = tmp_path / name
        if content is DIRECTORY:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            paths[name] = edited(*content)

    def placed(text: str) -> str:
        for name, path in paths.items():
            text = text.replace(f"{{{name}}}", str(path))
        return text

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = main([*map(placed, argv), "--format", fmt])
            last_line_only = False
        except SystemExit as exc:  # argparse
            got, last_line_only = exc.code, True
    out, printed = capsys.readouterr()
    if last_line_only:
        printed = printed.splitlines()[-1]
    assert (got, out, printed) == (code, "", placed(err) + ("" if last_line_only else "\n"))
    assert not [w for w in caught if w.category is RuntimeWarning]
