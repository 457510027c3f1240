"""The crossed-module laws, proved a row at a time on position tables, against the label oracle.

``bruteforce`` keeps, unchanged, the generators that proved these laws
at single tuples of labels before the library moved them onto position
tables: ``_homomorphism_failures``, ``_action_failures`` and
``_crossed_module_failures``.  On the generated modules of
``test_orbit_properties`` and on their mutants (one cell of a group
table, one entry of delta, one entry of the action, an action twisted so
that only additivity can fail, and a valid delta or action swapped for
one that breaks only CM1 or CM2), ``check_axioms`` must give the
oracle's list of (kind, message, witness), in order, and
``xmod_from_candidate``, ``homomorphism``, ``group_action`` and
``make_xmod`` must raise the oracle's first failure.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bruteforce import (
    _action_failures,
    _crossed_module_failures,
    _homomorphism_failures,
    label_action,
    label_map,
)
from test_certificates import MUTANT_SETTINGS, involution, other
from test_orbit_properties import crossed_modules
from xmodloop.errors import CM1Violation, XModError
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.xmod import XModCandidate, check_axioms, make_xmod, xmod_from_candidate

MUTATIONS = ("none", "M", "P", "delta", "action", "twist", "zero-delta", "trivial-action")


def raised(build):
    """None if build() succeeds, else (error class, message, witness) of what it raised."""
    try:
        build()
    except XModError as exc:
        return (type(exc).__name__, str(exc), exc.witness)
    return None


def first(failures):
    """(error class, message, witness) of the first failure the oracle yields, or None."""
    for exc in failures:
        return (type(exc).__name__, str(exc), exc.witness)
    return None


def oracle_report(c) -> list:
    """``check_axioms``'s report on a candidate, from the label generators."""
    report, groups = [], []
    for label, elements, table, identity in (("M", c.m_elements, c.m_table, c.m_identity),
                                             ("P", c.p_elements, c.p_table, c.p_identity)):
        try:
            groups.append(make_group(elements, table, identity))
        except XModError as exc:
            report.append((f"group:{label}", str(exc), exc.witness))
            groups.append(None)
    M, P = groups
    if M is None or P is None:
        return report

    def collect(kind, failures):
        while True:
            try:
                exc = next(failures)
            except StopIteration as done:
                return done.value
            report.append((kind, str(exc), exc.witness))

    act = {(m, p): value for p, row in c.action.items() for m, value in row.items()}
    delta_total = collect("delta", _homomorphism_failures(M, P, c.delta))
    action_total = collect("action", _action_failures(P, M, act))
    if delta_total and action_total:
        for exc in _crossed_module_failures(M, P, c.delta, act, premises=not report):
            kind = "cm1" if isinstance(exc, CM1Violation) else "cm2"
            report.append((kind, str(exc), exc.witness))
    return report


def mutant(draw, x, where):
    """x's candidate with the drawn change at ``where``."""
    c = XModCandidate.from_xmod(x)
    if where in ("M", "P"):
        elements, table = (c.m_elements, c.m_table) if where == "M" else (c.p_elements, c.p_table)
        i = draw(st.integers(0, len(elements) - 1))
        j = draw(st.integers(0, len(elements) - 1))
        table[i][j] = other(draw, elements, table[i][j])
    elif where == "delta":
        m = draw(st.sampled_from(c.m_elements))
        c.delta[m] = other(draw, c.p_elements, c.delta[m])
    elif where == "action":
        m, p = draw(st.sampled_from(c.m_elements)), draw(st.sampled_from(c.p_elements))
        c.action[p][m] = other(draw, c.m_elements, c.action[p][m])
    elif where == "twist":
        tau = involution(draw, x.M)
        assume(any(tau[m] != m for m in x.M))
        c.action = {p: {m: tau[x.act(tau[m], p)] for m in x.M} for p in x.P}
    elif where == "zero-delta":
        c.delta = {m: x.P.identity for m in x.M}
    elif where == "trivial-action":
        c.action = {p: {m: m for m in x.M} for p in x.P}
    return c


@pytest.mark.parametrize("where", MUTATIONS)
@MUTANT_SETTINGS
@given(crossed_modules(), st.data())
def test_check_axioms_and_strict_constructors_match_the_label_oracle(where, x, data):
    c = mutant(data.draw, x, where)
    expected = oracle_report(c)
    assert [(v.kind, v.message, v.witness) for v in check_axioms(c)] == expected
    strict = raised(lambda: xmod_from_candidate(c))
    assert (strict[1:] if strict else None) == (expected[0][1:] if expected else None)
    if where in ("M", "P"):
        return
    M, P = x.M, x.P
    act = {(m, p): value for p, row in c.action.items() for m, value in row.items()}
    assert raised(lambda: homomorphism(M, P, c.delta)) == first(
        _homomorphism_failures(M, P, c.delta))
    assert raised(lambda: group_action(P, M, act)) == first(_action_failures(P, M, act))
    if first(_homomorphism_failures(M, P, c.delta)) or first(_action_failures(P, M, act)):
        return
    delta, action = homomorphism(M, P, c.delta), group_action(P, M, act)
    assert label_map(delta) == c.delta and label_action(action) == act
    assert raised(lambda: make_xmod(M, P, delta, action)) == first(
        _crossed_module_failures(M, P, c.delta, act))
