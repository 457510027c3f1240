"""``documents.dumps`` writes exactly what ``json.dumps(..., indent=2)`` writes.

It is the one JSON writer behind ``--format json`` (``ascii=True``) and
behind documents (``ascii=False``).  The property draws nested JSON-like
values, including tuples, dicts with non-string keys, and strings with
quotes, backslashes, control characters, U+2028 and non-ASCII letters;
a listing written by filling ``record_template`` and joined by
``dumps_listing`` is held to the same standard.
The real outputs are compared with the standard encoder's text of the
same data: a 13,824-simplex nerve listing, and every fixture, every loop
module and a loop of a loop module (names such as "(m|(n|p))").  On
generated modules whose names hold quotes, backslashes, printf and
str.format fields, non-ASCII letters, a control character and a lone
surrogate, every nerve listing is the text that the former per-simplex
payload dicts and f-string lines gave.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from test_orbit_properties import (
    PROPERTY_SETTINGS,
    crossed_modules,
    inner_automorphism_modules,
    permutations_generated,
    then,
)
from conftest import all_fixtures
from xmodloop.cli import run_cli
from xmodloop.documents import (
    dumps,
    dumps_listing,
    json_strings,
    load_document,
    parse_xmod,
    record_template,
    serialize_document,
    serialize_xmod,
)
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.loop import loop_data
from xmodloop.nerve import k2_count_formula, nerve_k2, nerve_k3
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


field_names = st.text(alphabet=st.sampled_from(TRICKY + ["%", "s"]), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(field_names, json_like, max_size=3), field_names,
       st.lists(field_names, min_size=1, max_size=4, unique=True).flatmap(
           lambda fields: st.tuples(st.just(fields), st.lists(
               st.lists(strings, min_size=len(fields), max_size=len(fields)), max_size=4))))
def test_filled_record_templates_are_the_indented_json_of_their_dicts(head, key, listing):
    fields, records = listing
    head.pop(key, None)
    template = record_template(fields)
    written = dumps_listing(head, key, [template % tuple(json_strings(r)) for r in records])
    assert written == json.dumps({**head, key: [dict(zip(fields, r)) for r in records]},
                                 indent=2)


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
    for name, x in all_fixtures().items():
        text = serialize_xmod(x)
        assert text == former_serialization(text), name
        for a in x.P:
            lx = loop_data(x, a).xmod
            text = serialize_xmod(lx)
            assert text == former_serialization(text), (name, a)
            nested = serialize_xmod(loop_data(lx, lx.P.identity).xmod)
            assert "|(" in nested, (name, a)
            assert nested == former_serialization(nested), (name, a)


def renamed(doc, p, m):
    """The document doc with P's names replaced through p and M's through m."""
    def block(b, r):
        return {"elements": [r[e] for e in b["elements"]],
                "table": [[r[v] for v in row] for row in b["table"]], "identity": r[b["identity"]]}

    return {"P": block(doc["P"], p), "M": block(doc["M"], m),
            "delta": {m[k]: p[v] for k, v in doc["delta"].items()},
            "action": {p[a]: {m[k]: m[v] for k, v in row.items()}
                       for a, row in doc["action"].items()}}


def test_documents_with_escaped_and_non_ascii_names_are_written_raw(fixture_path):
    doc = json.loads(fixture_path("mod32").read_text(encoding="utf-8"))
    p = dict(zip(doc["P"]["elements"], ['"q"', "back\\slash é"]))
    m = dict(zip(doc["M"]["elements"], ["m\x01", "ß\u2028", "\U0001f600"]))
    written = serialize_document(load_document(json.dumps(renamed(doc, p, m))))
    assert "é" in written and "\\u0001" in written  # raw non-ASCII, escaped control characters
    assert written == former_serialization(written)


# Every generated name holds each part, after its index, in one drawn order.
NAME_PARTS = ['"', "\\", "%", "%s", "{0}", "é", "Ж", "\x01", "\ud800"]


def former_listings(x):
    """{(dim, format): the text that the former per-simplex payload dicts and lines gave}."""
    k2, k3 = nerve_k2(x), nerve_k3(x)
    k2_head = {"command": "nerve", "dim": 2, "count": len(k2), "formula": k2_count_formula(x)}
    k2_lines = [f"K2 count: {len(k2)}", f"formula |M|*|P|^2: {k2_count_formula(x)}"]
    k2_lines += [f"({s.m}; {s.c}, {s.a}, {s.b})" for s in k2]
    k3_lines = [f"K3 count: {len(k3)}"] + [
        f"edges(a={s.a}, b={s.b}, c={s.c}, d={s.d}, e={s.e}, f={s.f}) "
        f"faces(m0={s.m0}, m1={s.m1}, m2={s.m2}, m3={s.m3})" for s in k3]
    k2_json = {**k2_head, "simplices": [{"m": s.m, "c": s.c, "a": s.a, "b": s.b} for s in k2]}
    k3_json = {"command": "nerve", "dim": 3, "count": len(k3), "simplices": [
        {"a": s.a, "b": s.b, "c": s.c, "d": s.d, "e": s.e, "f": s.f,
         "m0": s.m0, "m1": s.m1, "m2": s.m2, "m3": s.m3} for s in k3]}
    return {("2", "json"): json.dumps(k2_json, indent=2) + "\n",
            ("3", "json"): json.dumps(k3_json, indent=2) + "\n",
            ("2", "text"): "".join(line + "\n" for line in k2_lines),
            ("3", "text"): "".join(line + "\n" for line in k3_lines)}


# A failing draw is reported as drawn: shrinking it would write every
# listing, and its former text, again for each of hundreds of candidates.
@settings(PROPERTY_SETTINGS, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.one_of(crossed_modules(), inner_automorphism_modules()),
       st.permutations(NAME_PARTS).map("".join))
def test_nerve_listings_equal_the_former_payloads_and_lines(x, parts):
    assume(len(x.M) ** 3 * len(x.P) ** 3 <= 16_000)
    doc = json.loads(serialize_xmod(x))

    def names(block):
        return {e: f"{i}{parts}" for i, e in enumerate(block["elements"])}

    # ASCII, so that the lone surrogate can be written; loading restores it
    text = json.dumps(renamed(doc, names(doc["P"]), names(doc["M"])))
    expected = former_listings(parse_xmod(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        path.write_text(text, encoding="utf-8")
        for (dim, fmt), listing in expected.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_cli(["nerve", str(path), "--dim", dim, "--list", "--format", fmt]) == 0
            assert out.getvalue() == listing, (dim, fmt)
