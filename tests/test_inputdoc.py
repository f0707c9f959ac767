"""Tests for the JSON input format: located errors and the round trip."""

import copy
import json
import time

import pytest

from nilfol.inputdoc import InputError, build, parse_text, serialize


IWASAWA = {
    "name": "iwasawa9",
    "description": "complex Iwasawa manifold as a real 9-dimensional nilmanifold",
    "dim": 9,
    "basis": [f"x{i}" for i in range(1, 10)],
    "brackets": [
        {"i": 1, "j": 4, "value": {"6": "1"}},
        {"i": 1, "j": 5, "value": {"8": "1"}},
        {"i": 2, "j": 4, "value": {"8": "1"}, "note": "second column"},
        {"i": 2, "j": 5, "value": {"6": "-1"}},
        {"i": 3, "j": 4, "value": {"9": "1"}},
        {"i": 3, "j": 5, "value": {"7": "-1"}},
    ],
    "metric": [["1+s^2" if r == c == 0 else ("1" if r == c else "0") for c in range(9)]
               for r in range(9)],
    "foliation": [
        ["0", "-s", "1", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "-s", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "-s", "1"],
    ],
    "options": {"param_sample": "3/7"},
}


def parse_changed(change) -> None:
    raw = copy.deepcopy(IWASAWA)
    change(raw)
    parse_text(json.dumps(raw), "doc")


def where_of(change) -> str:
    with pytest.raises(InputError) as info:
        parse_changed(change)
    return info.value.where


def test_round_trip():
    doc = parse_text(json.dumps(IWASAWA), "doc")
    assert parse_text(serialize(doc), "doc") == doc
    assert doc.brackets[2].note == "second column"
    assert build(doc).n == 9


def test_invalid_json_has_line_and_column():
    with pytest.raises(InputError) as info:
        parse_text('{\n  "name": "x",\n  "dim": ,\n}', "doc")
    assert info.value.where == "doc"
    assert "line 3, column 10" in str(info.value)


def test_schema_violation_has_json_path():
    def change(raw):
        raw["brackets"][1]["i"] = "1"
    assert where_of(change) == "doc:brackets/1/i"


@pytest.mark.parametrize("change, where", [
    (lambda raw: raw["brackets"][0].update(i=10), "doc:brackets/0"),
    (lambda raw: raw["brackets"][3].update(value={"10": "1"}), "doc:brackets/3"),
    (lambda raw: raw["brackets"].append({"i": 1, "j": 4, "value": {}}), "doc:brackets/6"),
    (lambda raw: raw["brackets"].append({"i": 5, "j": 2, "value": {}}), "doc:brackets/6"),
    (lambda raw: raw["metric"].pop(), "doc:metric"),
    (lambda raw: raw["metric"][4].append("0"), "doc:metric"),
    (lambda raw: raw["options"].update(param_sample="3/0"), "doc:options/param_sample"),
    (lambda raw: raw["options"].update(param_sample="one"), "doc:options/param_sample"),
])
def test_located_errors(change, where):
    assert where_of(change) == where


def test_oversized_power_is_rejected_quickly():
    def change(raw):
        raw["foliation"][0][0] = "s^99999999"
    start = time.perf_counter()
    assert where_of(change).endswith("foliation/0/0")
    assert time.perf_counter() - start < 1


def test_overlong_integer_literal_is_located():
    # longer than Python's default limit of 4300 digits for int()
    def change(raw):
        raw["foliation"][0][0] = "1" + "0" * 5000
    assert where_of(change).endswith("foliation/0/0")
