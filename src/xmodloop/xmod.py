"""Crossed modules of groups: construction, axiom reports, homotopy groups.

A crossed module is a homomorphism delta: M -> P together with a right
P-action on M satisfying

    CM1:  delta(m^p) = -p + delta(m) + p
    CM2:  -n + m + n = m^delta(n)

A ``CrossedModule`` holds M, P and two integer tables: ``act_table``, one
row per element of P, where ``act_table[j][i]`` is the position of
m_i^(p_j) in M (the orientation of ``GroupoidXMod.act``), and
``boundary``, where ``boundary[i]`` is the position of delta(m_i) in P.
``delta`` and ``action`` are views of these tables, not copies.  Names
are read once, in ``xmod_from_candidate`` (``documents.build_xmod``):
each group table, the boundary and each action row.

Every law is proved on the tables, a row at a time, from generators S
(see ``groups``): delta's additivity in |S_M| + 1 rows, the action's
composition in |P| |S_P| rows and its additivity in (|S_M| + 1) |S_P|
rows, then

- CM1 in |S_P| rows of |M|: it holds at p = 0 (m^0 = m), and at p + s if
  it holds at p and s:
  delta(m^(p+s)) = delta((m^p)^s) = -s + delta(m^p) + s = -(p+s) + delta(m) + (p+s);
- CM2 in |S_M| rows of |M|: it holds for n = 0 (delta(0) = 0 and
  m^0 = m), and for n + s if it holds for n and s:
  m^delta(n+s) = (m^delta(n))^delta(s) = -s + (-n + m + n) + s = -(n+s) + m + (n+s).

Each proof's premises are that delta is a homomorphism and the action
satisfies every action law.  Only when a proof or a premise fails is
every row compared, and the failures are reported in the order (m, p),
respectively (m, n), that names each witness in labels.

Each law is stated once, as a function that returns its two sides along
one row of positions: CM1 in ``_cm1`` and CM2 in ``_cm2``, shared with
``groupoids.make_gxm``, whose crossed modules over one object are these;
the map and action laws are in ``groups``.  Generators of the errors
that name the failures (``_map_failures`` and ``_group_action_failures``
in ``groups``, ``_cm_failures`` here) read them through
``groups._failures``.  The strict constructors raise the first failure;
``check_axioms`` lists them all, in the same order, as ``Violation``
records.  Unvalidated data has one shape, ``XModCandidate``, which is
also what a JSON document loads into.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from operator import itemgetter

from .errors import (
    CM1Violation,
    CM2Violation,
    InternalInvariantBroken,
    NotNormal,
    UnknownElement,
    Violation,
    XModError,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    Homomorphism,
    Subgroup,
    _failures,
    _group_action,
    _group_action_failures,
    _map_failures,
    _representatives,
    _strict,
    image,
    kernel,
    make_group,
    quotient,
)


@dataclass(frozen=True, eq=False)
class CrossedModule:
    """A validated crossed module (delta: M -> P, action of P on M), on position tables."""

    M: FiniteGroup
    P: FiniteGroup
    act_table: list  # act_table[j][i] = position of m_i^(p_j) in M
    boundary: list  # boundary[i] = position of delta(m_i) in P
    name: str | None = None

    @property
    def delta(self) -> Homomorphism:
        return Homomorphism(self.M, self.P, self.boundary)

    @property
    def action(self) -> GroupAction:
        return GroupAction(self.P, self.M, self.act_table)

    def act(self, m: str, p: str) -> str:
        try:
            return self.M.elements[self.act_table[self.P._index[p]][self.M._index[m]]]
        except KeyError:
            raise UnknownElement((m, p)) from None


def _cm1(G: FiniteGroup, act: list, d_x: list, d_gx: list, g: int):
    """delta_x(m^g) and -g + delta_(g.x)(m) + g, for every m: CM1 along one row.

    ``act[g]`` is the row m -> m^g, and ``d_x``, ``d_gx`` the boundaries
    at x and g . x as positions in G; over a group x = g . x.
    """
    gt = G._table
    neg = gt[G._inv[g]]
    return list(map(d_x.__getitem__, act[g])), [gt[neg[b]][g] for b in d_gx]


def _cm2(M: FiniteGroup, act: list, d: list, n: int):
    """m^delta(n) and -n + m + n, for every m: CM2 along one row."""
    mt = M._table
    return act[d[n]], [mt[v][n] for v in mt[M._inv[n]]]


def _cm_failures(M: FiniteGroup, P: FiniteGroup, rows: list, d: list, premises: bool = True):
    """Yield every CM1 failure, then every CM2 failure, over total position tables.

    ``rows[j][i]`` is the position of m_i^(p_j) and ``d[i]`` that of
    delta(m_i).  When ``premises`` holds, CM1 is proved at the rows of P's
    generators and CM2 at those of M's (the module docstring gives the
    proofs).  A law whose proof fails, or whose premises do, is reported
    in the order of a scan over every (m, p), respectively (m, n).
    """
    ml, pl = M.elements, P.elements
    proof = product(P.generators) if premises else None
    for p, m in _failures(partial(_cm1, P, rows, d, d), product(range(len(pl))), proof,
                          itemgetter(1, 0)):
        yield CM1Violation(ml[m], pl[p])
    proof = product(M.generators) if premises else None
    for n, m in _failures(partial(_cm2, M, rows, d), product(range(len(ml))), proof,
                          itemgetter(1, 0)):
        yield CM2Violation(ml[m], ml[n])


def make_xmod(M: FiniteGroup, P: FiniteGroup, delta: Homomorphism,
              action: GroupAction, name=None) -> CrossedModule:
    """Assemble a crossed module; CM1 and CM2 are proved a row at a time.

    ``delta`` and ``action`` are validated, so the proofs' premises hold.
    """
    if delta.source is not M or delta.target is not P:
        raise ValueError("delta must map M into P")
    if action.actor is not P or action.space is not M:
        raise ValueError("action must let P act on M")
    _strict(_cm_failures(M, P, action.rows, delta.images))
    return CrossedModule(M, P, action.rows, delta.images, name=name)


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
    def from_xmod(cls, x: CrossedModule, render=None) -> XModCandidate:
        """x's tables written in labels, or in ``render(label)`` for each element."""
        ml, pl = x.M.elements, x.P.elements
        if render is not None:
            ml, pl = list(map(render, ml)), list(map(render, pl))
        label_m, label_p = ml.__getitem__, pl.__getitem__
        return cls(
            m_elements=list(ml),
            m_table=[list(map(label_m, row)) for row in x.M._table],
            m_identity=ml[x.M.zero],
            p_elements=list(pl),
            p_table=[list(map(label_p, row)) for row in x.P._table],
            p_identity=pl[x.P.zero],
            delta=dict(zip(ml, map(label_p, x.boundary))),
            action={p: dict(zip(ml, map(label_m, row))) for p, row in zip(pl, x.act_table)},
            name=x.name,
        )


def _entries(candidate: XModCandidate, M: FiniteGroup):
    """entries(p): the candidate's labels m^p for m in M's order, None where one is missing."""
    def entries(p):
        return list(map(candidate.action.get(p, {}).get, M.elements))
    return entries


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
        candidate = XModCandidate.from_xmod(candidate)
    report: list[Violation] = []
    M = _try_group(candidate.m_elements, candidate.m_table, candidate.m_identity, "M", report)
    P = _try_group(candidate.p_elements, candidate.p_table, candidate.p_identity, "P", report)
    if M is None or P is None:
        return report
    d = _collect("delta", _map_failures(M, P, candidate.delta), report)
    rows = _collect("action", _group_action_failures(P, M, _entries(candidate, M)), report)
    if d is not None and rows is not None:
        # any delta or action violation so far voids the proofs' premises
        for exc in _cm_failures(M, P, rows, d, premises=not report):
            kind = "cm1" if isinstance(exc, CM1Violation) else "cm2"
            report.append(Violation(kind, str(exc), exc.witness))
    return report


def xmod_from_candidate(candidate: XModCandidate) -> CrossedModule:
    """Validate a candidate the strict way, raising on the first failure.

    Names are read here once: each group table by ``make_group``, the
    boundary and each action row into positions; every law after that
    is proved on positions.
    """
    M = make_group(candidate.m_elements, candidate.m_table, candidate.m_identity)
    P = make_group(candidate.p_elements, candidate.p_table, candidate.p_identity)
    d = _strict(_map_failures(M, P, candidate.delta))
    rows = _strict(_group_action_failures(P, M, _entries(candidate, M)))
    _strict(_cm_failures(M, P, rows, d))
    return CrossedModule(M, P, rows, d, name=candidate.name)


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

    The one reader of pi1 and pi2: of x, of each L[a] (``loop.pi_loop``)
    and of the vertex module at each object (``groupoids.homotopy_at``);
    those call the uncached body, ``_homotopy``.

    Normality of the image, centrality of the kernel and representative
    independence of the induced action are consequences of the axioms;
    each is re-verified on x's tables and a failure raises
    InternalInvariantBroken.
    """
    M, P, rows = x.M, x.P, x.act_table
    ml, pl, mt = M.elements, P.elements, M._table
    try:
        pi1, projection = quotient(P, image(x.delta))
    except NotNormal as exc:
        raise InternalInvariantBroken(
            f"image of delta is not normal: {exc}", exc.witness) from exc
    ker = kernel(x.delta)
    inside = ker._positions
    for k in inside:
        row = mt[k]
        for m, r in enumerate(mt):
            if row[m] != r[k]:
                raise InternalInvariantBroken(
                    f"kernel element {ml[k]} is not central in M", (ml[k], ml[m]))
    pi2 = ker.as_group()
    reps = _representatives(projection)
    for p, coset in enumerate(projection.images):
        row, rep_row = rows[p], rows[reps[coset]]
        for k in inside:
            if row[k] != rep_row[k]:
                rep = pi1.elements[coset]
                raise InternalInvariantBroken(
                    f"pi1-action on pi2 depends on the representative of {rep}",
                    (ml[k], pl[p], rep))
    local = {k: r for r, k in enumerate(inside)}  # pi2's position of each kernel element
    g_action = _group_action(pi1, pi2, [[local[rows[p][k]] for k in inside] for p in reps])
    return HomotopyData(pi1, pi2, g_action, projection, ker)


# The uncached body, read here once: a wrapper put around ``homotopy`` later, such
# as perfbench's tracer, has the cached function as its ``__wrapped__``.
_homotopy = homotopy.__wrapped__
