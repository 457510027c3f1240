"""Crossed modules of groups: construction, axiom reports, homotopy groups.

A crossed module is a homomorphism delta: M -> P together with a right
P-action on M satisfying

    CM1:  delta(m^p) = -p + delta(m) + p
    CM2:  -n + m + n = m^delta(n)

Both rules hold over all pairs, proved from generators or scanned in
full; nothing is sampled.

Each law is stated once, as a generator of the errors that name its
failures (``_homomorphism_failures`` and ``_action_failures`` in
``groups``, ``_crossed_module_failures`` here).  The strict constructors
raise the first failure; ``check_axioms`` lists them all, in the same
order, as ``Violation`` records.  Unvalidated data has one shape,
``XModCandidate``, which is also what a JSON document loads into.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    CM1Violation,
    CM2Violation,
    InternalInvariantBroken,
    NotNormal,
    Violation,
    XModError,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    Homomorphism,
    Subgroup,
    _action_failures,
    _failures,
    _homomorphism_failures,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
)


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """A validated crossed module (delta: M -> P, action of P on M)."""

    M: FiniteGroup
    P: FiniteGroup
    delta: Homomorphism
    action: GroupAction
    name: str | None = None

    def act(self, m: str, p: str) -> str:
        return self.action.act(m, p)

    def to_candidate(self) -> XModCandidate:
        return XModCandidate.from_xmod(self)


def _positions(x: CrossedModule) -> tuple[list[list[int]], list[int]]:
    """The action and the boundary on positions, one lookup per (m, p).

    act[i][j] is the position of m_i^p_j in M and d[i] that of delta(m_i) in P.
    """
    M, P = x.M, x.P
    act = [[M._index[x.act(m, p)] for p in P] for m in M]
    return act, [P._index[x.delta(m)] for m in M]


def _crossed_module_failures(M: FiniteGroup, P: FiniteGroup, delta: dict, act: dict,
                             premises: bool = True):
    """Yield every CM1 failure, then every CM2 failure, over total plain tables.

    ``delta`` maps m -> delta(m) and ``act`` maps (m, p) -> m^p.  When
    ``premises`` holds (delta is a homomorphism and the action satisfies
    every action law), each law is proved from generators and scanned in
    full only when that proof fails (``groups._failures``):

    - CM1 holds at p = 0 (m^0 = m), and at p + s if it holds at p and s:
      delta(m^(p+s)) = delta((m^p)^s) = -s + delta(m^p) + s = -(p+s) + delta(m) + (p+s).
    - CM2 holds for n = 0 (delta(0) = 0 and m^0 = m), and for n + s if it
      holds for n and s: m^delta(n+s) = (m^delta(n))^delta(s)
      = -s + (-n + m + n) + s = -(n+s) + m + (n+s).
    So s runs over P's generators for CM1 and M's for CM2.  Without the
    premises both laws are scanned in full.
    """
    def cm1(m, p) -> bool:
        return delta[act[(m, p)]] == P.conj(delta[m], p)

    def cm2(m, n) -> bool:
        return M.conj(m, n) == act[(m, delta[n])]

    for m, p in _failures(cm1, product(M, P), product(M, P.generators) if premises else None):
        yield CM1Violation(m, p)
    for m, n in _failures(cm2, product(M, M), product(M, M.generators) if premises else None):
        yield CM2Violation(m, n)


def make_xmod(M: FiniteGroup, P: FiniteGroup, delta: Homomorphism,
              action: GroupAction, name=None) -> CrossedModule:
    """Assemble a crossed module; CM1 and CM2 are proved from generators.

    ``delta`` and ``action`` are validated, so the proofs' premises hold.
    """
    if delta.source is not M or delta.target is not P:
        raise ValueError("delta must map M into P")
    if action.actor is not P or action.space is not M:
        raise ValueError("action must let P act on M")
    for failure in _crossed_module_failures(M, P, delta.mapping, action.table):
        raise failure
    return CrossedModule(M, P, delta, action, name=name)


@dataclass
class XModCandidate:
    """Unvalidated crossed-module data, in the same shape as the file format.

    ``load_document`` returns one and ``serialize_document`` writes one;
    the report-valued checker and the mutation tests read it too.
    Nothing here is trusted, including the group tables.
    """

    m_elements: list
    m_table: list
    m_identity: str
    p_elements: list
    p_table: list
    p_identity: str
    delta: dict
    action: dict  # p -> {m -> m^p}
    name: str | None = None

    @classmethod
    def from_xmod(cls, x: CrossedModule) -> XModCandidate:
        m_table = [[x.M.add(a, b) for b in x.M] for a in x.M]
        p_table = [[x.P.add(a, b) for b in x.P] for a in x.P]
        action = {p: {m: x.act(m, p) for m in x.M} for p in x.P}
        return cls(
            m_elements=list(x.M.elements),
            m_table=m_table,
            m_identity=x.M.identity,
            p_elements=list(x.P.elements),
            p_table=p_table,
            p_identity=x.P.identity,
            delta={m: x.delta(m) for m in x.M},
            action=action,
            name=x.name,
        )

    def action_table(self) -> dict:
        """The action as (m, p) -> m^p, the shape the action laws are checked on."""
        return {(m, p): value for p, row in self.action.items() for m, value in row.items()}


def _try_group(elements, table, identity, label: str, report: list[Violation]):
    try:
        return make_group(elements, table, identity)
    except XModError as exc:
        report.append(Violation(f"group:{label}", str(exc), exc.witness))
        return None


def _collect(kind: str, failures, report: list[Violation]):
    """Record every failure the generator yields; return what it returns."""
    while True:
        try:
            exc = next(failures)
        except StopIteration as done:
            return done.value
        report.append(Violation(kind, str(exc), exc.witness))


def check_axioms(candidate: XModCandidate | CrossedModule) -> list[Violation]:
    """Full list of broken laws in the candidate; empty iff it is valid.

    Accepts unvalidated data: group tables, the boundary map and the
    action table are all re-checked from scratch, by the same law
    generators the strict constructors raise from.  CM1 and CM2 are
    checked only when the boundary and the action are total.
    """
    if isinstance(candidate, CrossedModule):
        candidate = candidate.to_candidate()
    report: list[Violation] = []
    M = _try_group(candidate.m_elements, candidate.m_table, candidate.m_identity, "M", report)
    P = _try_group(candidate.p_elements, candidate.p_table, candidate.p_identity, "P", report)
    if M is None or P is None:
        return report
    act = candidate.action_table()
    delta_total = _collect("delta", _homomorphism_failures(M, P, candidate.delta), report)
    action_total = _collect("action", _action_failures(P, M, act), report)
    if delta_total and action_total:
        # any delta or action violation so far voids the proofs' premises
        for exc in _crossed_module_failures(M, P, candidate.delta, act, premises=not report):
            kind = "cm1" if isinstance(exc, CM1Violation) else "cm2"
            report.append(Violation(kind, str(exc), exc.witness))
    return report


def xmod_from_candidate(candidate: XModCandidate) -> CrossedModule:
    """Validate a candidate the strict way, raising on the first failure."""
    M = make_group(candidate.m_elements, candidate.m_table, candidate.m_identity)
    P = make_group(candidate.p_elements, candidate.p_table, candidate.p_identity)
    delta = homomorphism(M, P, candidate.delta)
    action = group_action(P, M, candidate.action_table())
    return make_xmod(M, P, delta, action, name=candidate.name)


@dataclass(frozen=True, eq=False)
class HomotopyData:
    """pi1 = Cok(delta), pi2 = Ker(delta), and the induced pi1-action on pi2.

    ``projection`` is the quotient map P -> pi1 and ``kernel_subgroup``
    the kernel inside M; both are needed by downstream constructions.
    """

    pi1: FiniteGroup
    pi2: FiniteGroup
    g_action: GroupAction
    projection: Homomorphism
    kernel_subgroup: Subgroup


@lru_cache(maxsize=None)
def homotopy(x: CrossedModule) -> HomotopyData:
    """Homotopy groups of the classifying space: Cok and Ker of delta.

    Normality of the image, centrality of the kernel and representative
    independence of the induced action are consequences of the axioms;
    each is re-verified and a failure raises InternalInvariantBroken.
    """
    img = image(x.delta)
    try:
        pi1, projection = quotient(x.P, img, name="pi1")
    except NotNormal as exc:
        raise InternalInvariantBroken(
            f"image of delta is not normal: {exc}", exc.witness) from exc
    ker = kernel(x.delta)
    for k in ker:
        for m in x.M:
            if x.M.add(k, m) != x.M.add(m, k):
                raise InternalInvariantBroken(
                    f"kernel element {k} is not central in M", (k, m))
    pi2 = ker.as_group(name="pi2")
    for p in x.P:
        rep = projection(p)
        for k in ker:
            if x.act(k, p) != x.act(k, rep):
                raise InternalInvariantBroken(
                    f"pi1-action on pi2 depends on the representative of {rep}", (k, p, rep))
    table = {(k, rep): x.act(k, rep) for k in pi2 for rep in pi1}
    g_action = group_action(pi1, pi2, table)
    return HomotopyData(pi1, pi2, g_action, projection, ker)
