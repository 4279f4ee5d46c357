"""The library calls behind the extract and solvability commands, called
without the CLI: gkp.load_rhs, gkp.extract_rows and
topology.solvability_table. Each refusal raises the error class that the
CLI maps to its exit code, with the message the CLI prints after its
prefix; a successful call gives the report but its manifest."""

from __future__ import annotations

import json

import pytest

from gkpforge import topology
from gkpforge.barriers import load_anchors
from gkpforge.cli import _fields, main
from gkpforge.errors import (
    NumericalError,
    RankDeficiencyError,
    RefusalError,
    UnderdeterminedError,
    ValidationError,
)
from gkpforge.gkp import extract_rows, load_coefficients, load_rhs
from gkpforge.nucdata import load_chain
from gkpforge.resources import resource_path
from golden_cases import FORMATS, GOLDEN

RHS = "synthetic-rhs-noiseless-v1"
RHS_FIXTURE = resource_path(RHS)
GOLDEN_RHS = GOLDEN / "rhs_mo_chain_v1.json"

pytestmark = pytest.mark.usefixtures("pinned_timestamp")


def _cli_line(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr that main gives for a refusal raised as exc."""
    if isinstance(exc, RefusalError):
        return 1, f"refused: {exc}\n"
    if isinstance(exc, ValidationError):
        return 2, f"invalid input: {exc}\n"
    assert isinstance(exc, NumericalError)
    return 3, f"numerical failure: {exc}\n"


def _main(capsys, argv, fmt="json") -> tuple[int, str, str]:
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refused(capsys, argv) -> set[tuple[int, str, str]]:
    """The outcomes of main(argv) in the three formats, which a refusal makes one."""
    return {_main(capsys, argv, fmt) for fmt in FORMATS}


def _rows(edit):
    """An edit of an rhs file that edits its list of rows."""
    return lambda obj: edit(obj["rows"])


# ---------------------------------------------------------------------------
# gkp.load_rhs

# name: (edit of the noiseless rhs file, message)
LOAD_RHS_REFUSALS = {
    "no rows key": (lambda obj: obj.pop("rows"), "rhs file {path} is missing the 'rows' key"),
    "empty rows": (_rows(list.clear), "rhs file {path} must contain a non-empty 'rows' list"),
    "row not an object": (_rows(lambda rows: rows.__setitem__(0, 95)), "rhs file {path}: row 0 is not an object"),
    "mistyped delta": (_rows(lambda rows: rows[0].__setitem__("delta_eV", "abc")),
                       "rhs file {path}: row 0 has delta_eV = 'abc', expected a number"),
    "mistyped A": (_rows(lambda rows: rows[0].__setitem__("A", "x")),
                   "rhs file {path}: row 0 has A = 'x', expected an integer"),
    "non-finite delta": (_rows(lambda rows: rows[0].__setitem__("delta_eV", float("nan"))),
                         "rhs file '{path}' has a non-finite number (NaN) at rows[0].delta_eV"),
    "zero sigma": (_rows(lambda rows: rows[1].__setitem__("sigma_eV", 0.0)),
                   "rhs file {path}: row 1 has non-positive sigma_eV"),
    "repeated row": (_rows(lambda rows: rows.append(dict(rows[0]))),
                     "rhs file {path}: row 6 repeats row 0: A=91, transition '1s-2p3/2'"),
}


@pytest.mark.parametrize("case", LOAD_RHS_REFUSALS)
def test_load_rhs_refuses_what_the_extract_command_refuses(capsys, edited, case):
    edit, message = LOAD_RHS_REFUSALS[case]
    path = edited(RHS, edit)
    with pytest.raises(ValidationError) as exc:
        load_rhs(path)
    assert str(exc.value) == message.format(path=path)
    assert _refused(capsys, ["extract", "--rhs", str(path)]) == {(2, "", *_cli_line(exc.value)[1:])}


def test_load_rhs_reads_rows_by_isotope_and_transition():
    rows = load_rhs(RHS_FIXTURE)
    fixture = json.loads(RHS_FIXTURE.read_text(encoding="utf-8"))["rows"]
    assert list(rows) == [(r["A"], r["transition"]) for r in fixture]
    assert rows[95, "1s-2p3/2"] == tuple((r["delta_eV"], r["sigma_eV"]) for r in fixture
                                         if (r["A"], r["transition"]) == (95, "1s-2p3/2"))[0]


# ---------------------------------------------------------------------------
# gkp.extract_rows

def _add_p12(obj):
    """The shipped coefficients with a 1s-2p1/2 transition added: its upper
    j = 1/2 gives it zero rank-2 coefficients, so no design row."""
    obj["transitions"].append({"label": "1s-2p1/2", "upper": {"n": 2, "l": 1, "j": "1/2"},
                               "H_eV_per_b": 0.0, "P_eV_per_wu": 0.0, "G_eV_per_lever": 0.0})


def _with_p12_rows(isotopes):
    def edit(rows):
        kept = [r for r in rows if r["A"] in isotopes and r["transition"] == "1s-2p3/2"]
        rows[:] = kept + [dict(r, transition="1s-2p1/2") for r in kept]
    return edit


def _extreme(rows):
    for row in rows:
        row["delta_eV"], row["sigma_eV"] = 1e308, 1e-300


def _huge_sigma(rows):
    for row in rows:
        row["sigma_eV"] = 1e300


# name: (chain, whether the coefficients add 1s-2p1/2, rhs file, edit of it, error class, message)
EXTRACT_REFUSALS = {
    "isotope absent from the odd subset": (
        "mo-chain-frib-synthetic-v1", False, RHS,
        _rows(lambda rows: rows.extend([dict(rows[0], A=92), dict(rows[0], A=95, transition="2s-3p")])),
        ValidationError, "rhs references isotopes absent from the chain's odd subset: [92]"),
    "unknown transition": (
        "mo-chain-frib-synthetic-v1", False, RHS, _rows(lambda rows: rows.append(dict(rows[0], transition="2s-3p"))),
        ValidationError, "unknown transition labels ['2s-3p'] (known: ['1s-2p3/2', '1s-3d5/2'])"),
    "design row without an rhs row": (
        "mo-chain-frib-synthetic-v1", False, RHS, _rows(lambda rows: rows.pop(4)),
        ValidationError, "rhs file lacks entries for design rows: [(97, '1s-2p3/2')]"),
    "underdetermined before unused rows": (
        "mo-chain-v1", True, RHS, _rows(_with_p12_rows((95, 97))),
        UnderdeterminedError, "underdetermined topology: 2 equations for 3 unknowns. With 1 rank-2 transition(s) "
        "the counting condition requires N_odd >= 3; in the single-transition case this is the N_odd >= 3 "
        "requirement."),
    "rank-deficient whitened system": (
        "mo-chain-v1", False, GOLDEN_RHS, _rows(lambda rows: rows[-1].__setitem__("sigma_eV", 1e-40)),
        RankDeficiencyError, "the row-whitened design matrix is numerically rank deficient; "
        "check the spread of the rhs uncertainties"),
    "overflowing solve": (
        "mo-chain-frib-synthetic-v1", False, RHS, _rows(_extreme),
        NumericalError, None),
    "underflowing weights": (
        "mo-chain-frib-synthetic-v1", False, RHS, _rows(_huge_sigma),
        NumericalError, None),
    "rhs rows that no design row uses": (
        "mo-chain-frib-synthetic-v1", True, RHS, _rows(_with_p12_rows((91, 95, 97))),
        ValidationError, "rhs file has entries that no design row uses: "
        "[(91, '1s-2p1/2'), (95, '1s-2p1/2'), (97, '1s-2p1/2')]"),
}


@pytest.mark.parametrize("case", EXTRACT_REFUSALS)
def test_extract_rows_refuses_what_the_extract_command_refuses(capsys, edited, anchors, case):
    chain, p12, source, edit, error, message = EXTRACT_REFUSALS[case]
    coeffs = edited("mo41-coeffs-v1", _add_p12) if p12 else resource_path("mo41-coeffs-v1")
    rhs = edited(source, edit)
    with pytest.raises(error) as exc:
        extract_rows(load_chain(chain), load_coefficients(coeffs), load_rhs(rhs), anchors.signal_anchor_eV)
    assert type(exc.value) is error
    if message is not None:
        assert str(exc.value) == message
    argv = ["extract", "--chain", chain, "--coeffs", str(coeffs), "--rhs", str(rhs)]
    assert _refused(capsys, argv) == {(_cli_line(exc.value)[0], "", _cli_line(exc.value)[1])}


@pytest.mark.parametrize("chain, rhs", [("mo-chain-frib-synthetic-v1", RHS_FIXTURE), ("mo-chain-v1", GOLDEN_RHS)],
                         ids=["frib", "stable"])
def test_extract_rows_is_the_extract_report(capsys, chain, rhs):
    anchors = load_anchors("mo41-anchors-v1")
    result = extract_rows(load_chain(chain), load_coefficients("mo41-coeffs-v1"), load_rhs(rhs),
                          anchors.signal_anchor_eV)
    code, out, _ = _main(capsys, ["extract", "--chain", chain, "--rhs", str(rhs)])
    assert code == 0
    report = json.loads(out)
    del report["manifest"]
    assert json.loads(json.dumps(_fields(result))) == report
    # the scalars in report order: those of ExtractionResult, then the bound's
    scalars = [name for name, value in _fields(result).items() if isinstance(value, (float, str))]
    assert scalars == ["alpha_manko_hat", "alpha_manko_se", "condition_number", "residual_norm_eV",
                       "chi_bound", "signal_at_chi1_eV", "alpha_t_convention"]


# ---------------------------------------------------------------------------
# topology.solvability_table

# name: (add_isotopes, N_trans, N_bkg, message)
SOLVABILITY_REFUSALS = {
    "in chain": ([95], 1, 2, "--add-isotope 95: A=95 is already counted"),
    "repeated": ([91, 91], 1, 2, "--add-isotope 91: A=91 is already counted"),
    "even-even": ([102], 1, 2, "--add-isotope 102: A=102 is even-even and adds no rank-2 equation"),
    "below Z": ([41], 1, 2, "--add-isotope 41: A=41 is below Z=42, which would mean a negative neutron number"),
    "negative": ([-5], 1, 2, "--add-isotope -5: A=-5 is below Z=42, which would mean a negative neutron number"),
    "one": ([1], 1, 2, "--add-isotope 1: A=1 is below Z=42, which would mean a negative neutron number"),
    "negative N_bkg": ([], 1, -1, "N_bkg must be non-negative, got -1"),
    "negative N_trans": ([], -1, 2, "topology counts must be non-negative"),
    "N_bkg before N_trans": ([], -1, -1, "N_bkg must be non-negative, got -1"),
}


@pytest.mark.parametrize("case", SOLVABILITY_REFUSALS)
def test_solvability_table_refuses_what_the_solvability_command_refuses(capsys, mo_chain, case):
    add, n_trans, n_bkg, message = SOLVABILITY_REFUSALS[case]
    with pytest.raises(ValidationError) as exc:
        topology.solvability_table(mo_chain, add, n_trans, n_bkg)
    assert str(exc.value) == message
    argv = ["solvability", *(f"--add-isotope={A}" for A in add), f"--transitions={n_trans}", f"--nbkg={n_bkg}"]
    assert _refused(capsys, argv) == {(2, "", f"invalid input: {message}\n")}


@pytest.mark.parametrize("chain", ["mo-chain-v1", "mo-chain-frib-synthetic-v1"])
@pytest.mark.parametrize("add, n_trans, n_bkg", [([], 1, 2), ([91], 2, 2), ([91, 93], 5, 3)])
def test_solvability_table_is_the_solvability_report(capsys, chain, add, n_trans, n_bkg):
    if chain == "mo-chain-frib-synthetic-v1" and 91 in add:
        add = [93]
    table = topology.solvability_table(load_chain(chain), add, n_trans, n_bkg)
    argv = ["solvability", "--chain", chain, *(f"--add-isotope={A}" for A in add),
            f"--transitions={n_trans}", f"--nbkg={n_bkg}"]
    code, out, _ = _main(capsys, argv)
    assert code == 0
    report = json.loads(out)
    del report["manifest"]
    assert json.loads(json.dumps(table)) == report
    assert [row["label"] for row in table["topologies"]] == [
        "Stable, 1 trans.", "+ FRIB 91Mo", "Stable, 2 trans.", "+ FRIB + 2 trans."]

