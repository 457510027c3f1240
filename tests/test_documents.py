import json

import pytest

from conftest import fixture
from xmodloop.documents import (
    build_xmod,
    load_document,
    parse_xmod,
    serialize_document,
    serialize_xmod,
)
from xmodloop.errors import (
    AxiomViolation,
    DocumentSyntaxError,
    UnknownIdentifier,
)
from xmodloop.xmod import XModCandidate, check_axioms


def test_fixture_files_parse_and_validate(any_xmod, fixture_path):
    text = fixture_path(any_xmod.name).read_text(encoding="utf-8")
    x = parse_xmod(text)
    assert check_axioms(x) == []
    assert x.name == any_xmod.name
    assert x.M.elements == any_xmod.M.elements
    assert x.P.elements == any_xmod.P.elements
    assert all(x.delta(m) == any_xmod.delta(m) for m in x.M)


def test_fixture_files_are_canonical(any_xmod, fixture_path):
    text = fixture_path(any_xmod.name).read_text(encoding="utf-8")
    assert serialize_document(load_document(text)) == text


def test_serialize_parse_roundtrip(any_xmod):
    text = serialize_xmod(any_xmod)
    again = serialize_document(load_document(text))
    assert again == text
    rebuilt = parse_xmod(text)
    assert rebuilt.P.elements == any_xmod.P.elements


def test_minimal_trivial_document():
    text = json.dumps({
        "P": {"elements": ["0"], "table": [["0"]], "identity": "0"},
        "M": {"elements": ["0"], "table": [["0"]], "identity": "0"},
        "delta": {"0": "0"},
        "action": {"0": {"0": "0"}},
    })
    x = parse_xmod(text)
    assert len(x.M) == 1 and len(x.P) == 1


def test_bad_json_reports_line():
    with pytest.raises(DocumentSyntaxError) as info:
        load_document('{\n  "P": [,]\n}')
    assert info.value.line == 2


def test_unknown_identifier_in_table():
    text = json.dumps({
        "P": {"elements": ["0"], "table": [["1"]], "identity": "0"},
        "M": {"elements": ["0"], "table": [["0"]], "identity": "0"},
        "delta": {"0": "0"},
        "action": {"0": {"0": "0"}},
    })
    with pytest.raises(UnknownIdentifier) as info:
        load_document(text)
    assert info.value.witness == ("1",)


def test_unknown_identifier_in_delta():
    doc = json.loads(serialize_xmod(fixture("inc24")))
    doc["delta"]["1"] = "9"
    with pytest.raises(UnknownIdentifier):
        load_document(json.dumps(doc))


def test_missing_action_entry_is_a_structure_error():
    doc = json.loads(serialize_xmod(fixture("mod32")))
    del doc["action"]["1"]["2"]
    with pytest.raises(DocumentSyntaxError):
        load_document(json.dumps(doc))


def test_broken_action_law_carries_witness():
    doc = json.loads(serialize_xmod(fixture("mod32")))
    doc["action"]["1"]["1"] = "1"
    with pytest.raises(AxiomViolation) as info:
        build_xmod(load_document(json.dumps(doc)))
    assert info.value.witness


def test_broken_action_law_located_by_checker():
    doc = json.loads(serialize_xmod(fixture("mod32")))
    doc["action"]["1"]["1"] = "1"
    report = check_axioms(load_document(json.dumps(doc)))
    assert any(v.kind in ("action", "cm1", "cm2") for v in report)


def test_unexpected_top_level_key_rejected():
    doc = json.loads(serialize_xmod(fixture("triv")))
    doc["extra"] = 1
    with pytest.raises(DocumentSyntaxError):
        load_document(json.dumps(doc))


def test_document_of_preserves_name():
    doc = XModCandidate.from_xmod(fixture("mod32"))
    assert doc.name == "mod32"
    assert doc.p_identity == "0"



@pytest.mark.parametrize("path, value, message", [
    (("P", "table", 1, 0), 5, "document syntax error: P.table[1][0] must be a string"),
    (("P", "table", 1, 1), ["0"], "document syntax error: P.table[1][1] must be a string"),
    (("P", "table", 1, 0), "zz", "unknown identifier 'zz' at P.table[1][0]"),
    (("delta", "1"), 1, "document syntax error: delta['1'] must be a string"),
    (("action", "1", "2"), None, "document syntax error: action['1'] is missing an entry for '2'"),
], ids=["table-non-string", "table-list", "table-unknown", "delta-non-string", "action-missing"])
def test_structure_errors_name_the_first_failing_entry(path, value, message):
    # each broken entry comes after valid rows; None deletes the entry
    doc = json.loads(serialize_xmod(fixture("mod32")))
    *keys, last = path
    entry = doc
    for key in keys:
        entry = entry[key]
    if value is None:
        del entry[last]
    else:
        entry[last] = value
    with pytest.raises((DocumentSyntaxError, UnknownIdentifier)) as info:
        load_document(json.dumps(doc))
    assert str(info.value) == message
