from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from gkpforge.cli import main
from gkpforge.errors import ValidationError
from gkpforge.nucdata import (
    _MEASURED_FIELDS,
    IsotopeChain,
    IsotopeRecord,
    Measured,
    chain_to_csv,
    chain_to_json,
    format_measured,
    load_bundled_chain,
    load_chain,
    parse_measured,
    parse_spin,
    partition,
    spin_mass_lever,
)

# Table of reference-chain values the bundled dataset must reproduce:
# (A, I, r_ch, sigma, beta2, Qs, sigma, BE2, sigma, effective, dr2, sigma)
MO_TABLE = [
    (92, "0", 4.315, 0.003, 0.150, None, None, 7.9, 0.3, False, 0.0, None),
    (94, "0", 4.324, 0.003, 0.151, None, None, 9.3, 0.4, False, 0.078, 0.004),
    (95, "5/2", 4.330, 0.004, 0.160, -0.022, 0.001, 8.0, 1.0, True, 0.130, 0.006),
    (96, "0", 4.334, 0.003, 0.172, None, None, 13.0, 0.5, False, 0.164, 0.005),
    (97, "5/2", 4.336, 0.004, 0.162, 0.255, 0.013, 12.0, 2.0, True, 0.182, 0.006),
    (98, "0", 4.341, 0.003, 0.168, None, None, 12.2, 0.5, False, 0.225, 0.005),
    (100, "0", 4.353, 0.003, 0.231, None, None, 15.6, 0.6, False, 0.329, 0.006),
]


@pytest.mark.parametrize(
    "text,value,sigma,effective",
    [
        ("4.315(3)", 4.315, 0.003, False),
        ("-0.022(1)", -0.022, 0.001, False),
        ("+0.255(13)", 0.255, 0.013, False),
        ("~8(1)", 8.0, 1.0, True),
        ("~12(2)", 12.0, 2.0, True),
        ("0.150", 0.150, None, False),
        ("0", 0.0, None, False),
        ("12.2(5)", 12.2, 0.5, False),
    ],
)
def test_parse_parenthetical(text, value, sigma, effective):
    m = parse_measured(text)
    assert m.value == value
    assert m.sigma == sigma
    assert m.effective is effective


@pytest.mark.parametrize("bad", ["", "abc", "4.3.5(3)", "(3)", "4.315(3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        parse_measured(bad)


@pytest.mark.parametrize(
    "m,text",
    [
        (Measured(4.315, 0.003), "4.315(3)"),
        (Measured(-0.022, 0.001), "-0.022(1)"),
        (Measured(0.255, 0.013), "0.255(13)"),
        (Measured(8.0, 1.0, effective=True), "~8(1)"),
        (Measured(0.15), "0.15"),
    ],
)
def test_format_round_trip(m, text):
    assert format_measured(m) == text
    back = parse_measured(text)
    assert back.value == m.value and back.sigma == m.sigma and back.effective == m.effective


def test_parse_spin_forms():
    assert parse_spin("5/2") == Fraction(5, 2)
    assert parse_spin("0") == 0
    assert parse_spin(2.5) == Fraction(5, 2)
    with pytest.raises(ValidationError):
        parse_spin("0.3")
    with pytest.raises(ValidationError):
        parse_spin("-1/2")
    # read exactly, for the record's range check to refuse (no OverflowError)
    huge = parse_spin(1e308)
    assert type(huge) is Fraction and huge == int(1e308)


@pytest.mark.parametrize("text", ["5_0/2", "\u0665/2", "2.\u0665", "5/\u0662"])
def test_parse_spin_refuses_underscores_and_non_ascii_digits(text):
    with pytest.raises(ValidationError) as exc:
        parse_spin(text)
    assert str(exc.value) == f"cannot parse spin {text!r} as a half-integer"


def test_parse_spin_takes_surrounding_blanks():
    assert parse_spin(" 5/2 ") == Fraction(5, 2)


@pytest.mark.parametrize("text", ["\u0664.\u0663\u0661\u0665(\u0663)", "4.315(\u0663)", "4.\u0663", "4_3.1"])
def test_parse_measured_refuses_non_ascii_digits(text):
    with pytest.raises(ValidationError) as exc:
        parse_measured(text, context="row 2 field r_ch")
    assert str(exc.value) == f"cannot parse measured value {text!r} in row 2 field r_ch"


def test_json_chain_spin_with_an_underscore_is_refused(mo_chain, tmp_path):
    obj = json.loads(chain_to_json(mo_chain))
    obj["isotopes"][2]["I"] = "5_0/2"
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_chain(path)
    assert str(exc.value) == f"chain file {str(path)!r}: isotope A=95 field I: cannot parse spin '5_0/2' as a half-integer"


def _csv_chain_with_cell(mo_chain, tmp_path, A: int, column: str, cell: str) -> Path:
    """mo_chain as CSV, with the cell of isotope A in column replaced."""
    header, *rows = [line.split(",") for line in chain_to_csv(mo_chain).splitlines()]
    for row in rows:
        if row[0] == str(A):
            row[header.index(column)] = cell
    path = tmp_path / "chain.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]), encoding="utf-8")
    return path


@pytest.mark.parametrize("A, column, cell, refusal", [
    (95, "A", "9_5", "row 4: bad integer field ('9_5' is not written in ASCII digits)"),
    (97, "A", "\u0669\u0667", "row 6: bad integer field ('\u0669\u0667' is not written in ASCII digits)"),
    (97, "Z", "4_2", "row 6: bad integer field ('4_2' is not written in ASCII digits)"),
    (97, "parity", "+\u0661", "row 6: bad integer field ('+\u0661' is not written in ASCII digits)"),
    (95, "I", "5_0/2", "row 4 field I: cannot parse spin '5_0/2' as a half-integer"),
    (95, "half_life_s", "9_3.0", "row 4 field half_life_s: '9_3.0' is not a number"),
    (95, "half_life_s", "\u0669.3e2", "row 4 field half_life_s: '\u0669.3e2' is not a number"),
    (95, "r_ch", "4.\u0663", "cannot parse measured value '4.\u0663' in row 4 field r_ch"),
], ids=["A-underscore", "A-arabic-indic", "Z", "parity", "spin", "half-life-underscore",
        "half-life-arabic-indic", "r_ch"])
def test_csv_chain_text_numbers_are_ascii(mo_chain, tmp_path, A, column, cell, refusal):
    path = _csv_chain_with_cell(mo_chain, tmp_path, A, column, cell)
    with pytest.raises(ValidationError) as exc:
        load_chain(path)
    assert str(exc.value) == f"chain file {str(path)!r}: {refusal}"


@pytest.mark.parametrize("value, sigma", [(math.nan, math.nan), (math.inf, None), (-math.inf, 0.1), (1.0, math.inf)])
def test_measured_refuses_a_value_or_sigma_that_is_not_finite(value, sigma):
    with pytest.raises(ValidationError, match="is not finite"):
        Measured(value, sigma)


NINES = "9" * 400  # a number that float() reads as inf


@pytest.mark.parametrize("column, cell, key, csv_refusal", [
    ("r_ch", NINES, "value", "measured value inf is not finite in row 4 field r_ch"),
    ("Qs", NINES, "value", "measured value inf is not finite in row 4 field Qs"),
    ("r_ch", f"4.330({NINES})", "sigma", "uncertainty inf is not finite in row 4 field r_ch"),
], ids=["r_ch", "Qs", "sigma"])
def test_a_chain_number_that_overflows_is_invalid_input(capsys, mo_chain, tmp_path, column, cell, key, csv_refusal):
    csv_path = _csv_chain_with_cell(mo_chain, tmp_path, 95, column, cell)
    obj = json.loads(chain_to_json(mo_chain))
    obj["isotopes"][2][column][key] = "overflow"
    json_path = tmp_path / "chain.json"
    json_path.write_text(json.dumps(obj).replace('"overflow"', "1e400"), encoding="utf-8")
    json_refusal = f"isotope A=95 field {column} has {key} = inf, expected a number"
    for path, refusal in ((csv_path, csv_refusal), (json_path, json_refusal)):
        assert main(["budget", "--chain", str(path)]) == 2
        assert capsys.readouterr()[:2] == ("", f"invalid input: chain file {str(path)!r}: {refusal}\n")


@pytest.mark.parametrize("column, cell, attribute, value", [
    ("I", " 5/2 ", "spin", Fraction(5, 2)),
    ("parity", "+1", "parity", 1),
    ("half_life_s", "9.3e2", "half_life_s", 930.0),
    ("A", " 95", "A", 95),
])
def test_csv_chain_still_reads_blanks_signs_and_exponents(mo_chain, tmp_path, column, cell, attribute, value):
    chain = load_chain(_csv_chain_with_cell(mo_chain, tmp_path, 95, column, cell))
    assert getattr(chain.isotope(95), attribute) == value


def test_bundled_chain_matches_reference_table(mo_chain):
    assert mo_chain.element == "Mo"
    assert mo_chain.reference_A == 92
    assert len(mo_chain.records) == len(MO_TABLE)
    for rec, row in zip(mo_chain.records, MO_TABLE):
        A, I, r, r_s, b2, qs, qs_s, be2, be2_s, eff, dr2, dr2_s = row
        assert rec.A == A
        assert str(rec.spin) == I
        assert rec.parity == +1
        assert (rec.r_ch.value, rec.r_ch.sigma) == (r, r_s)
        assert rec.beta2.value == b2 and rec.beta2.sigma is None
        if qs is None:
            assert rec.Qs is None
        else:
            assert (rec.Qs.value, rec.Qs.sigma) == (qs, qs_s)
        assert (rec.BE2_up.value, rec.BE2_up.sigma, rec.BE2_up.effective) == (be2, be2_s, eff)
        assert (rec.delta_r2.value, rec.delta_r2.sigma) == (dr2, dr2_s)
        assert rec.half_life_s is None


def test_round_trip_json_and_csv(mo_chain, tmp_path):
    json_path = tmp_path / "chain.json"
    json_path.write_text(chain_to_json(mo_chain), encoding="utf-8")
    via_json = load_chain(json_path)
    assert via_json == mo_chain

    csv_path = tmp_path / "chain.csv"
    csv_path.write_text(chain_to_csv(mo_chain), encoding="utf-8")
    via_csv = load_chain(csv_path)
    # CSV has no chain-level provenance; everything else is bit-exact
    assert via_csv.records == mo_chain.records
    assert via_csv.element == mo_chain.element
    assert via_csv.reference_A == mo_chain.reference_A
    # and a second pass through CSV is byte-stable
    assert chain_to_csv(via_csv) == chain_to_csv(mo_chain)


WRITERS = {"csv": chain_to_csv, "json": chain_to_json}


def _load_text(tmp_path, suffix: str, text: str):
    path = tmp_path / f"chain.{suffix}"
    path.write_text(text, encoding="utf-8")
    return load_chain(path)


def _csv_with_cell(chain, A: int, column: str, cell: str) -> str:
    """chain_to_csv text of chain with one cell of the row of A replaced."""
    header, *rows = chain_to_csv(chain).splitlines()
    k = header.split(",").index(column)
    edited = []
    for row in rows:
        cells = row.split(",")
        if cells[0] == str(A):
            cells[k] = cell
        edited.append(",".join(cells))
    return "\n".join([header, *edited]) + "\n"


@pytest.mark.parametrize("suffix", WRITERS)
@pytest.mark.parametrize("key", [key for key in _MEASURED_FIELDS if key != "r_ch"])
@pytest.mark.parametrize("present", [False, True], ids=["without", "with"])
def test_an_optional_measured_field_loads_as_written(mo_chain, tmp_path, suffix, key, present):
    rec = mo_chain.isotope(95)  # odd and not the reference, so every field is free to go
    if present:
        variant = dataclasses.replace(rec, **{key: Measured(0.25, 0.01, effective=True)})
    else:  # a record without Qs must be spinless
        variant = dataclasses.replace(rec, **{key: None}, **({"spin": Fraction(0)} if key == "Qs" else {}))
    chain = IsotopeChain(element="Mo", reference_A=92,
                         records=tuple(r for r in mo_chain.records if r.A != 95) + (variant,))
    loaded = _load_text(tmp_path, suffix, WRITERS[suffix](chain))
    assert loaded.records == chain.records
    assert loaded.isotope(95) == variant


@pytest.mark.parametrize("suffix", WRITERS)
def test_a_record_without_r_ch_is_refused_naming_the_field(mo_chain, tmp_path, suffix):
    if suffix == "csv":
        text, message = _csv_with_cell(mo_chain, 95, "r_ch", ""), "cannot parse measured value '' in row 4 field r_ch"
    else:
        obj = json.loads(chain_to_json(mo_chain))
        del obj["isotopes"][2]["r_ch"]
        text, message = json.dumps(obj), "isotope A=95 is missing the 'r_ch' key"
    with pytest.raises(ValidationError, match=f"^chain file .*chain.{suffix}': {message}$"):
        _load_text(tmp_path, suffix, text)


@pytest.mark.parametrize("A, cell, found", [(92, "", "[]"), (94, "0", "[92, 94]")],
                         ids=["no zero row", "two zero rows"])
def test_a_csv_chain_needs_exactly_one_reference_row(mo_chain, tmp_path, capsys, A, cell, found):
    path = tmp_path / "chain.csv"
    path.write_text(_csv_with_cell(mo_chain, A, "delta_r2", cell), encoding="utf-8")
    message = f"chain file {str(path)!r}: CSV chain must contain exactly one delta_r2 = 0 reference row; found {found}"
    with pytest.raises(ValidationError) as exc:
        load_chain(path)
    assert str(exc.value) == message
    code = main(["budget", "--chain", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def test_a_beta4_key_or_column_is_ignored(mo_chain, tmp_path):
    # nothing reads beta4, so the loaders skip it like any other unread field
    obj = json.loads(chain_to_json(mo_chain))
    obj["isotopes"][4]["beta4"] = {"value": -0.01}
    lines = chain_to_csv(mo_chain).splitlines()
    cells = ["beta4", "-0.01"] + [""] * (len(lines) - 2)
    csv_text = "".join(f"{line},{cell}\n" for line, cell in zip(lines, cells))
    for suffix, text in (("json", json.dumps(obj)), ("csv", csv_text)):
        path = tmp_path / f"chain.{suffix}"
        path.write_text(text, encoding="utf-8")
        assert load_chain(path).records == mo_chain.records


def test_a_csv_header_that_repeats_a_column_is_refused_naming_it(mo_chain, tmp_path, capsys):
    # csv.DictReader would read every r_ch from the second column
    lines = chain_to_csv(mo_chain).splitlines()
    cells = ["r_ch"] + ["9.9(1)"] * (len(lines) - 1)
    path = tmp_path / "chain.csv"
    path.write_text("".join(f"{line},{cell}\n" for line, cell in zip(lines, cells)), encoding="utf-8")
    message = f"chain file {str(path)!r}: CSV chain header repeats the column 'r_ch'"
    with pytest.raises(ValidationError) as exc:
        load_chain(path)
    assert str(exc.value) == message
    code = main(["budget", "--chain", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"invalid input: {message}\n")


def test_partition_counts(mo_chain):
    even_even, odd = partition(mo_chain)
    assert [r.A for r in even_even] == [92, 94, 96, 98, 100]
    assert [r.A for r in odd] == [95, 97]
    assert len(even_even) + len(odd) == len(mo_chain.records)


def test_partition_with_appended_radioactive(mo_chain):
    extra = IsotopeRecord(
        A=91, Z=42, spin=Fraction(9, 2), parity=+1,
        r_ch=Measured(4.308), Qs=Measured(0.5), BE2_up=Measured(12.0, effective=True),
        half_life_s=930.0,
    )
    chain = mo_chain.with_isotope(extra)
    _, odd = partition(chain)
    assert [r.A for r in odd] == [91, 95, 97]


def test_partition_single_even_even():
    rec = IsotopeRecord(A=92, Z=42, spin=Fraction(0), parity=+1,
                        r_ch=Measured(4.315), delta_r2=Measured(0.0))
    chain = IsotopeChain(element="Mo", reference_A=92, records=(rec,))
    even_even, odd = partition(chain)
    assert [r.A for r in even_even] == [92] and odd == ()


def test_spin_mass_lever(mo_chain):
    assert spin_mass_lever(mo_chain.isotope(95)) == pytest.approx(6.25 / 95, rel=1e-15)
    assert spin_mass_lever(mo_chain.isotope(92)) == 0.0
    rec91 = IsotopeRecord(A=91, Z=42, spin=Fraction(9, 2), parity=+1,
                          r_ch=Measured(4.308), Qs=Measured(0.5), half_life_s=930.0)
    assert spin_mass_lever(rec91) == pytest.approx(20.25 / 91, rel=1e-15)


def test_spin_mass_lever_is_the_float_of_the_exact_rational():
    for twice_spin in range(42):
        for A in range(1, 300):
            rec = SimpleNamespace(spin=Fraction(twice_spin, 2), A=A)
            assert spin_mass_lever(rec) == float(Fraction(twice_spin * twice_spin, 4 * A))


def test_qs_on_spinless_isotope_rejected():
    with pytest.raises(ValidationError, match="quadrupole"):
        IsotopeRecord(A=92, Z=42, spin=Fraction(0), parity=+1,
                      r_ch=Measured(4.315), Qs=Measured(0.1))


def test_odd_isotope_requires_qs():
    with pytest.raises(ValidationError, match="requires a quadrupole"):
        IsotopeRecord(A=95, Z=42, spin=Fraction(5, 2), parity=+1, r_ch=Measured(4.330))


def test_duplicate_mass_number_rejected(mo_chain):
    with pytest.raises(ValidationError, match="duplicate"):
        IsotopeChain(
            element="Mo", reference_A=92,
            records=mo_chain.records + (mo_chain.records[0],),
        )


def test_a_repeated_mass_number_names_both_records(mo_chain, tmp_path):
    obj = json.loads(chain_to_json(mo_chain))
    obj["isotopes"].append(obj["isotopes"][1])
    lines = chain_to_csv(mo_chain).splitlines()
    csv_text = "\n".join([*lines, lines[2]]) + "\n"  # line 3 holds the second isotope
    for suffix, text, message in (
        ("json", json.dumps(obj), f"JSON chain isotope record {len(mo_chain.records)} repeats record 1: "),
        ("csv", csv_text, f"row {len(lines) + 1} repeats row 3: "),
    ):
        path = tmp_path / f"chain.{suffix}"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^chain file .*: {message}mass number A=94$"):
            load_chain(path)


def test_reference_must_be_unique_zero(mo_chain):
    records = tuple(
        IsotopeRecord(
            A=r.A, Z=r.Z, spin=r.spin, parity=r.parity, r_ch=r.r_ch, beta2=r.beta2,
            Qs=r.Qs, BE2_up=r.BE2_up,
            delta_r2=Measured(0.0) if r.A in (92, 94) else r.delta_r2,
            half_life_s=r.half_life_s,
        )
        for r in mo_chain.records
    )
    with pytest.raises(ValidationError, match="reference"):
        IsotopeChain(element="Mo", reference_A=92, records=records)


def test_csv_schema_violation_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "A,Z,I,parity,r_ch,beta2,Qs,BE2_up,delta_r2,half_life_s\n"
        "92,42,0,+1,4.315(3),0.150,,7.9(3),0,\n"
        "94,42,0,+1,not-a-number,0.151,,9.3(4),0.078(4),\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="row 3"):
        load_chain(path)


def test_csv_invariant_violation_spinless_qs(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "A,Z,I,parity,r_ch,beta2,Qs,BE2_up,delta_r2,half_life_s\n"
        "92,42,0,+1,4.315(3),0.150,0.1,7.9(3),0,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="quadrupole"):
        load_chain(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError, match="does not exist"):
        load_chain(tmp_path / "nope.csv")


def test_load_chain_resolves_a_resource_name_and_reads_a_path_as_given():
    assert load_chain("mo-chain-v1") is load_bundled_chain("mo-chain-v1")
    with pytest.raises(ValidationError, match="does not exist"):
        load_chain(Path("mo-chain-v1"))
