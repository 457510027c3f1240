"""``documents.dumps`` writes exactly what ``json.dumps(..., indent=2)`` writes.

It is the one JSON writer behind ``--format json`` (``ascii=True``) and
behind documents (``ascii=False``).  The property draws nested JSON-like
values, including tuples, dicts with non-string keys, and strings with
quotes, backslashes, control characters, U+2028 and non-ASCII letters.
The real outputs are compared with the standard encoder's text of the
same data: a 13,824-simplex nerve listing, and every fixture, every loop
module and a loop of a loop module (names such as "(m|(n|p))").
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from test_orbit_properties import permutations_generated, then
from xmodloop import fixtures
from xmodloop.cli import run_cli
from xmodloop.documents import dumps, load_document, serialize_document, serialize_xmod
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.loop import loop_xmod_at
from xmodloop.xmod import make_xmod

TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "ß",
          "Ж", "\U0001f600", "a", "|", "(", " "]
strings = st.text(alphabet=st.sampled_from(TRICKY), max_size=5) | st.text(max_size=5)
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | strings)
json_like = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(strings, inner, max_size=4)
                   | st.dictionaries(st.none() | st.booleans() | st.integers() | strings,
                                     inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_like, st.booleans())
def test_dumps_equals_indented_json_dumps(value, ascii):
    assert dumps(value, ascii=ascii) == json.dumps(value, indent=2, ensure_ascii=ascii)


def trivial_into_s4():
    """1 -> S4, whose K3 has 24^3 = 13,824 simplices."""
    perms = permutations_generated([(1, 2, 3, 0), (1, 0, 2, 3)])
    names = {p: "".join(map(str, p)) for p in perms}
    P = make_group([names[p] for p in perms],
                   [[names[then(p, q)] for q in perms] for p in perms], names[perms[0]])
    M = make_group(["0"], [["0"]], "0")
    return make_xmod(M, P, homomorphism(M, P, {"0": P.identity}),
                     group_action(P, M, {("0", p): "0" for p in P}), name="1 -> S4")


def test_nerve_listing_is_the_indented_json_of_its_payload(tmp_path, capsys):
    path = tmp_path / "trivial-s4.json"
    path.write_text(serialize_xmod(trivial_into_s4()), encoding="utf-8")
    assert run_cli(["nerve", str(path), "--dim", "3", "--list", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["count"] == len(payload["simplices"]) == 13824
    assert out == json.dumps(payload, indent=2) + "\n"
    assert run_cli(["nerve", str(path), "--dim", "3", "--list"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 13824


def former_serialization(text):
    """The text that ``json.dumps(..., indent=2, ensure_ascii=False)`` gives for a document."""
    return json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"


def test_serialize_xmod_is_byte_identical_to_the_former_writer():
    for name, x in fixtures.all_fixtures().items():
        text = serialize_xmod(x)
        assert text == former_serialization(text), name
        for a in x.P:
            lx = loop_xmod_at(x, a)
            text = serialize_xmod(lx)
            assert text == former_serialization(text), (name, a)
            nested = serialize_xmod(loop_xmod_at(lx, lx.P.identity))
            assert "|(" in nested, (name, a)
            assert nested == former_serialization(nested), (name, a)


def test_documents_with_escaped_and_non_ascii_names_are_written_raw(fixture_path):
    doc = json.loads(fixture_path("mod32").read_text(encoding="utf-8"))
    p = dict(zip(doc["P"]["elements"], ['"q"', "back\\slash é"]))
    m = dict(zip(doc["M"]["elements"], ["m\x01", "ß\u2028", "\U0001f600"]))

    def block(b, r):
        return {"elements": [r[e] for e in b["elements"]],
                "table": [[r[v] for v in row] for row in b["table"]], "identity": r[b["identity"]]}

    relabelled = {"P": block(doc["P"], p), "M": block(doc["M"], m),
                  "delta": {m[k]: p[v] for k, v in doc["delta"].items()},
                  "action": {p[a]: {m[k]: m[v] for k, v in row.items()}
                             for a, row in doc["action"].items()}}
    written = serialize_document(load_document(json.dumps(relabelled)))
    assert "é" in written and "\\u0001" in written  # raw non-ASCII, escaped control characters
    assert written == former_serialization(written)
