from __future__ import annotations

import re

import pytest

from gkpforge.cli import main
from gkpforge.errors import ValidationError
from gkpforge.nucdata import chain_to_csv, load_chain
from gkpforge.resources import json_entries, json_field, load_json, refuse_repeat, resource_path


@pytest.mark.parametrize("value, kind, expected", [
    (True, "integer", "an integer"),
    (True, "number", "a number"),
    (1.0, "integer", "an integer"),
    ("1", "number", "a number"),
    (float("inf"), "number", "a number"),
    (10**400, "number", "a number"),
    (3, "string", "a string"),
    (0, "boolean", "a boolean"),
    ([], "object", "an object"),
    ({}, "list", "a list"),
])
def test_json_field_refuses_other_types(value, kind, expected):
    with pytest.raises(ValidationError) as exc:
        json_field({"k": value}, "k", kind, "record 3")
    assert str(exc.value) == f"record 3 has k = {value!r}, expected {expected}"


def test_json_field_returns_numbers_as_floats():
    assert json_field({"k": 3}, "k", "integer", "record") == 3
    value = json_field({"k": 3}, "k", "number", "record")
    assert value == 3.0 and type(value) is float
    assert json_field({"k": -1e308}, "k", "number", "record") == -1e308


def test_json_field_missing_and_optional():
    with pytest.raises(ValidationError, match="record is missing the 'k' key"):
        json_field({}, "k", "number", "record")
    with pytest.raises(ValidationError, match="record has k = None, expected a number"):
        json_field({"k": None}, "k", "number", "record")
    assert json_field({}, "k", "number", "record", required=False) is None
    assert json_field({"k": None}, "k", "string", "record", required=False) is None


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_json_refuses_non_finite_literals(tmp_path, literal):
    path = tmp_path / "data.json"
    path.write_text('{"name": "x", "rows": [{"width": %s}]}' % literal, encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"data file '{path}' has a non-finite width")):
        load_json(path, "data file")


def test_load_json_names_the_list_that_holds_a_non_finite_literal(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"band_raw": [1, NaN], "width": NaN}', encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"data file '{path}' has a non-finite band_raw")):
        load_json(path, "data file")


def test_load_json_without_a_key_for_the_literal(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"rows": [[NaN]]}', encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"data file '{path}' has a non-finite number (NaN)")):
        load_json(path, "data file")


def test_load_json_names_the_file_of_a_syntax_error(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"name": ', encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"data file '{path}' cannot be read as JSON")):
        load_json(path, "data file")


@pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
def test_load_json_requires_an_object(tmp_path, text):
    path = tmp_path / "data.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match="must hold a JSON object"):
        load_json(path, "data file")


def test_load_json_refuses_a_key_repeated_in_one_object(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"rows": [{"width": 1, "depth": 2, "width": 3}]}', encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_json(path, "data file")
    assert str(exc.value) == f"data file '{path}' repeats the key 'width' in one object"


def test_load_json_takes_one_key_in_many_objects(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"rows": [{"width": 1}, {"width": 3}], "width": 5}', encoding="utf-8")
    assert load_json(path, "data file") == {"rows": [{"width": 1}, {"width": 3}], "width": 5}


def test_json_entries_walks_a_list_and_an_object():
    assert list(json_entries([{"a": 1}, {}], "file f", "row")) == [
        (0, "file f: row 0", {"a": 1}), (1, "file f: row 1", {})]
    assert list(json_entries({"low": {}, "high": {"b": 2}}, "file f", "scenario")) == [
        ("low", "file f: scenario low", {}), ("high", "file f: scenario high", {"b": 2})]


@pytest.mark.parametrize("entries, refusal", [
    ([{}, 3], "file f: row 1 is not an object"),
    ({"low": {}, "high": [1]}, "file f: row high is not an object"),
])
def test_json_entries_refuses_an_entry_that_is_not_an_object(entries, refusal):
    with pytest.raises(ValidationError) as exc:
        list(json_entries(entries, "file f", "row"))
    assert str(exc.value) == refusal


def test_refuse_repeat_names_the_first_entry():
    first = {}
    refuse_repeat(first, "x", 0, "file f: row 0", "row", "name 'x'")
    refuse_repeat(first, "y", 1, "file f: row 1", "row", "name 'y'")
    with pytest.raises(ValidationError) as exc:
        refuse_repeat(first, "x", 2, "file f: row 2", "row", "name 'x'")
    assert str(exc.value) == "file f: row 2 repeats row 0: name 'x'"
    assert first == {"x": 0, "y": 1}


@pytest.mark.parametrize("flag, name, what, kind", [
    ("--chain", "chain.csv", "chain file", "CSV"),
    ("--anchors", "anchors.json", "anchor file", "JSON"),
], ids=["csv", "json"])
def test_a_byte_order_mark_is_refused_naming_it(capsys, tmp_path, flag, name, what, kind):
    # read as text, the mark would be part of the CSV header's first column or the JSON's first token
    text = chain_to_csv(load_chain("mo-chain-v1")) if kind == "CSV" else resource_path("mo41-anchors-v1").read_text()
    path = tmp_path / name
    path.write_text("\ufeff" + text, encoding="utf-8")
    code = main(["budget", flag, str(path), "--format", "json"])
    captured = capsys.readouterr()
    message = f"{what} {str(path)!r} cannot be read as {kind}: it starts with a UTF-8 byte-order mark"
    assert (code, captured.out, captured.err) == (2, "", f"invalid input: {message}\n")
