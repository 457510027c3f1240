"""JSON file format for finite crossed modules.

A document holds two group blocks (elements, full table, identity), the
boundary map keyed by M-element, and the action keyed by P-element then
M-element.  Serialization is canonical: fixed key order, two-space
indent, trailing newline; parse and serialize are mutually inverse on
canonical documents, byte for byte.

A loaded document is an ``XModCandidate``: structurally sound (every
identifier known, every entry present) but not yet checked against any
law.  ``build_xmod`` validates it strictly; ``check_axioms`` reports on
it in full.

Inside the library an element is any hashable label, and the composite
elements of derived groups are tuples.  Names exist only here and in the
CLI listings: ``_render`` writes a tuple as "(x|y|...)", recursively.

``dumps`` is the one JSON writer, for documents and for the CLI's
``--format json`` output alike.  A listing of many records with the same
fields (the nerve's simplices) is written through ``record_template``
and ``dumps_listing``: one %-template filled per record, with every name
escaped once (``json_strings``), and exactly the bytes ``dumps`` writes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring, encode_basestring_ascii

from .errors import (
    AxiomViolation,
    DocumentSyntaxError,
    MalformedGroup,
    UnknownIdentifier,
    XModError,
)
from .xmod import CrossedModule, XModCandidate, xmod_from_candidate


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentSyntaxError(message)


def _within(known: set, values) -> bool:
    """Whether every value is one of the known names.

    The names are strings, so this also proves each value a string; an
    unhashable value is not a name.  A document is read this way one row
    at a time, and only a failing row is walked for its message.
    """
    try:
        return known.issuperset(values)
    except TypeError:
        return False


def _read_group_block(data, label: str) -> tuple[list, list, str]:
    _require(isinstance(data, dict), f"{label} must be an object")
    _require(set(data) == {"elements", "table", "identity"},
             f"{label} must have exactly the keys elements, table, identity")
    elements = data["elements"]
    _require(isinstance(elements, list) and elements, f"{label}.elements must be a non-empty array")
    _require(all(isinstance(e, str) for e in elements), f"{label}.elements must contain strings")
    _require(len(set(elements)) == len(elements), f"{label}.elements must be distinct")
    table = data["table"]
    n = len(elements)
    _require(isinstance(table, list) and len(table) == n, f"{label}.table must have {n} rows")
    known = set(elements)
    for i, row in enumerate(table):
        if isinstance(row, list) and len(row) == n and _within(known, row):
            continue
        _require(isinstance(row, list) and len(row) == n, f"{label}.table row {i} must have {n} entries")
        for j, value in enumerate(row):
            _require(isinstance(value, str), f"{label}.table[{i}][{j}] must be a string")
            if value not in known:
                raise UnknownIdentifier(value, f"{label}.table[{i}][{j}]")
    identity = data["identity"]
    _require(isinstance(identity, str), f"{label}.identity must be a string")
    if identity not in known:
        raise UnknownIdentifier(identity, f"{label}.identity")
    return elements, table, identity


def load_document(text: str) -> XModCandidate:
    """Parse and structurally validate one document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno) from exc
    except (RecursionError, ValueError) as exc:  # nested too deep; an integer past the digit limit
        raise DocumentSyntaxError(str(exc)) from exc
    _require(isinstance(data, dict), "top level must be an object")
    keys = set(data)
    _require(keys - {"name"} == {"P", "M", "delta", "action"},
             "top level must have keys P, M, delta, action and optionally name")
    name = data.get("name")
    if name is not None:
        _require(isinstance(name, str), "name must be a string")
    p_elements, p_table, p_identity = _read_group_block(data["P"], "P")
    m_elements, m_table, m_identity = _read_group_block(data["M"], "M")

    delta = data["delta"]
    _require(isinstance(delta, dict), "delta must be an object")
    m_set, p_set = set(m_elements), set(p_elements)
    # as for the tables: the entries are walked for a message only when a test fails
    if not (m_set.issuperset(delta) and _within(p_set, delta.values())):
        for key, value in delta.items():
            if key not in m_set:
                raise UnknownIdentifier(key, "delta")
            _require(isinstance(value, str), f"delta[{key!r}] must be a string")
            if value not in p_set:
                raise UnknownIdentifier(value, f"delta[{key!r}]")
    if len(delta) != len(m_set):
        for m in m_elements:
            _require(m in delta, f"delta is missing an entry for {m!r}")

    action = data["action"]
    _require(isinstance(action, dict), "action must be an object")
    for p, row in action.items():
        if (p in p_set and isinstance(row, dict) and m_set.issuperset(row)
                and _within(m_set, row.values())):
            continue
        if p not in p_set:
            raise UnknownIdentifier(p, "action")
        _require(isinstance(row, dict), f"action[{p!r}] must be an object")
        for m, value in row.items():
            if m not in m_set:
                raise UnknownIdentifier(m, f"action[{p!r}]")
            _require(isinstance(value, str), f"action[{p!r}][{m!r}] must be a string")
            if value not in m_set:
                raise UnknownIdentifier(value, f"action[{p!r}][{m!r}]")
    if len(action) != len(p_set) or any(len(row) != len(m_set) for row in action.values()):
        for p in p_elements:
            _require(p in action, f"action is missing entries for {p!r}")
            for m in m_elements:
                _require(m in action[p], f"action[{p!r}] is missing an entry for {m!r}")

    # the candidate lists every entry in element order; a document already in that order is kept
    if list(delta) != m_elements:
        delta = {m: delta[m] for m in m_elements}
    if list(action) != p_elements:
        action = {p: action[p] for p in p_elements}
    for p, row in action.items():
        if list(row) != m_elements:
            action[p] = {m: row[m] for m in m_elements}
    return XModCandidate(
        m_elements=m_elements,
        m_table=m_table,
        m_identity=m_identity,
        p_elements=p_elements,
        p_table=p_table,
        p_identity=p_identity,
        delta=delta,
        action=action,
        name=name,
    )


def build_xmod(candidate: XModCandidate) -> CrossedModule:
    """Validate the document's content as a crossed module."""
    try:
        return xmod_from_candidate(candidate)
    except XModError as exc:
        raise AxiomViolation(f"document is not a valid crossed module: {exc}",
                             exc.witness) from exc


def parse_xmod(text: str) -> CrossedModule:
    return build_xmod(load_document(text))


def dumps(obj, ascii: bool = True) -> str:
    """Exactly ``json.dumps(obj, indent=2, ensure_ascii=ascii)``, only faster.

    With an indent, ``json.dumps`` runs the pure-Python encoder.  Here
    ``list``, ``dict`` with ``str`` keys and ``str`` are written directly,
    each distinct string escaped once per call by the C escaper that
    ``json`` itself uses; element names repeat heavily in a listing.
    Every other value, including a subclass of these three, is written by
    ``json.dumps`` and re-indented to its depth.  No string that
    ``json.dumps`` writes contains a raw newline, so re-indenting is exact.
    """
    chunks: list[str] = []
    escape = encode_basestring_ascii if ascii else encode_basestring
    _encode(obj, "\n", chunks, {}, {}, escape, ascii)
    return "".join(chunks)


def _encode(obj, nl: str, out: list, memo: dict, keys: dict, escape, ascii: bool) -> None:
    """Append the chunks of obj written at the indent ``nl``.

    ``memo`` maps a string to its escaped form and ``keys`` a key to its
    escaped form followed by ": ".  A container of strings only is joined
    in one comprehension.
    """
    kind = type(obj)
    if kind is str:
        out.append(memo.get(obj) or memo.setdefault(obj, escape(obj)))
    elif kind is list and obj:
        inner = nl + "  "
        sep = "," + inner
        if all(type(v) is str for v in obj):
            out.append("[" + inner + sep.join(
                [memo.get(v) or memo.setdefault(v, escape(v)) for v in obj]) + nl + "]")
        else:
            lead = "[" + inner
            for v in obj:
                out.append(lead)
                lead = sep
                _encode(v, inner, out, memo, keys, escape, ascii)
            out.append(nl + "]")
    elif kind is dict and obj and all(type(k) is str for k in obj):
        inner = nl + "  "
        sep = "," + inner
        if all(type(v) is str for v in obj.values()):
            out.append("{" + inner + sep.join(
                [(keys.get(k) or keys.setdefault(k, escape(k) + ": "))
                 + (memo.get(v) or memo.setdefault(v, escape(v))) for k, v in obj.items()])
                + nl + "}")
        else:
            lead = "{" + inner
            for k, v in obj.items():
                out.append(lead + (keys.get(k) or keys.setdefault(k, escape(k) + ": ")))
                lead = sep
                _encode(v, inner, out, memo, keys, escape, ascii)
            out.append(nl + "}")
    else:
        out.append(json.dumps(obj, indent=2, ensure_ascii=ascii).replace("\n", nl))


def json_strings(names) -> list[str]:
    """Each name as ``dumps`` writes a string: escaped to ASCII by the C escaper."""
    return list(map(encode_basestring_ascii, names))


def record_template(fields) -> str:
    """The %-template of one record ``{field: name, ...}`` of a listing, an
    entry of the list under a top-level key as ``dumps`` writes it.

    Fill it with names from ``json_strings``, in the order of ``fields``
    (one or more).
    """
    return "{\n      " + ",\n      ".join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in fields) + "\n    }"


def dumps_listing(head: dict, key: str, records: list[str]) -> str:
    """Exactly ``dumps({**head, key: listed})``, given each listed record
    written by filling ``record_template``; ``head`` must not hold ``key``.

    The value of the last key is written last, so the listing takes the
    place of a placeholder written there.  The text is joined once, with
    the head and the tail on the first and the last record.
    """
    text = dumps({**head, key: None})[:-len("null\n}")]
    if not records:
        return text + "[]\n}"
    records = records.copy()
    records[0] = text + "[\n    " + records[0]
    records[-1] += "\n  ]\n}"
    return ",\n    ".join(records)


def serialize_document(candidate: XModCandidate) -> str:
    """Canonical text: fixed key order, canonical element order throughout."""
    payload: dict = {}
    if candidate.name is not None:
        payload["name"] = candidate.name
    payload["P"] = {"elements": candidate.p_elements, "table": candidate.p_table,
                    "identity": candidate.p_identity}
    payload["M"] = {"elements": candidate.m_elements, "table": candidate.m_table,
                    "identity": candidate.m_identity}
    payload["delta"] = {m: candidate.delta[m] for m in candidate.m_elements}
    payload["action"] = {p: {m: candidate.action[p][m] for m in candidate.m_elements}
                         for p in candidate.p_elements}
    return dumps(payload, ascii=False) + "\n"


def _render(label) -> str:
    """The name of an element label: a tuple becomes "(x|y|...)" of its parts' names."""
    if isinstance(label, tuple):
        return "(" + "|".join(map(_render, label)) + ")"
    return str(label)


def serialize_xmod(x: CrossedModule) -> str:
    """Canonical text of a crossed module, every element label written as its name.

    Distinct labels can render alike, e.g. ("a|b", "c") and ("a", "b|c")
    are both "(a|b|c)"; such a module has no document, and the first
    repeated name is raised as ``MalformedGroup``.
    """
    c = XModCandidate.from_xmod(x, _render)
    for label, names in (("P", c.p_elements), ("M", c.m_elements)):
        seen: set[str] = set()
        for rendered in names:
            if rendered in seen:
                raise MalformedGroup(
                    f"element name {rendered!r} occurs more than once in {label}", (rendered,))
            seen.add(rendered)
    return serialize_document(c)
