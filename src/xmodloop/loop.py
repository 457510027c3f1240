"""Loop-space structure of a crossed module.

For a base element a of P, the vertex group P(a) consists of the pairs
(m, p) with delta(m) = [a, p] = -a - p + a + p under the composition
(n, q) + (m, p) = (m + n^p, q + p), and the loop crossed module at a is

    delta_a: M -> P(a),  delta_a(m) = (-m^a + m, delta m),  n^(m,p) = n^p.

The groupoid-level model has objects P, morphisms all triples (m, p, a)
with source p + a + delta(m) - p and target a, and fibre at a a copy of
M written as pairs (m, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .documents import _render
from .errors import InternalInvariantBroken, XModError
from .groups import (
    FiniteGroup,
    GroupAction,
    Homomorphism,
    _partition,
    conjugacy_classes,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
)
from .groupoids import (
    GroupoidXMod,
    GXModMorphism,
    as_groupoid_xmod,
    make_groupoid,
    make_gxm,
    make_gxm_morphism,
    restrict_to_object,
)
from .xmod import CrossedModule, homotopy, make_xmod


@dataclass(frozen=True)
class LoopMorphism:
    """The endpoints of the loop groupoid's morphism (m, p, a), which has target a."""

    m: str
    p: str
    a: str
    source: str
    target: str


def loop_morphism(x: CrossedModule, m: str, p: str, a: str) -> LoopMorphism:
    source = x.P.sub(x.P.add(x.P.add(p, a), x.delta(m)), p)
    return LoopMorphism(m, p, a, source, a)


@dataclass(frozen=True, eq=False)
class LoopData:
    """P(a), delta_a and the P(a)-action on M for one base element a."""

    base: str
    Pa: FiniteGroup
    delta_a: Homomorphism
    action: GroupAction


@lru_cache(maxsize=None)
def loop_data(x: CrossedModule, a: str) -> LoopData:
    M, P = x.M, x.P
    P.index(a)
    pairs = [(m, p) for m in M for p in P if x.delta(m) == P.commutator(a, p)]
    members = set(pairs)
    table = []
    for n, q in pairs:
        row = []
        for m, p in pairs:
            composite = (M.add(m, x.act(n, p)), P.add(q, p))
            if composite not in members:
                raise InternalInvariantBroken(
                    f"P({a}) is not closed under composition", (n, q, m, p))
            row.append(composite)
        table.append(row)
    Pa = make_group(pairs, table, (M.identity, P.identity), name=f"P({a})")
    mapping = {m: (M.add(M.neg(x.act(m, a)), m), x.delta(m)) for m in M}
    delta_a = homomorphism(M, Pa, mapping)
    act_table = {(n, (m, p)): x.act(n, p) for n in M for m, p in pairs}
    action = group_action(Pa, M, act_table)
    return LoopData(a, Pa, delta_a, action)


def components(x: CrossedModule) -> list[list[str]]:
    """Equivalence classes of P under b ~ p + b + delta(m) - p, one orbit sweep each.

    The moves b -> p + b + d - p (p in P, d in im delta) are closed under
    composition: by CM1, the move for (m, p) followed by the move for
    (m', p') is the move for (m + m'^p, p' + p).  So the moves applied
    once to b already give the whole class of b, at |P| |im delta| moves
    per class.  The number of classes is cross-checked against the count
    of conjugacy classes of Cok(delta), computed independently.
    """
    P = x.P
    boundaries = {x.delta(m) for m in x.M}
    classes = _partition(P, lambda b: {P.sub(P.add(P.add(p, b), d), p)
                                       for p in P for d in boundaries})
    expected = len(conjugacy_classes(homotopy(x).pi1))
    if len(classes) != expected:
        raise InternalInvariantBroken(
            f"{len(classes)} components but {expected} conjugacy classes in pi1",
            (len(classes), expected))
    return classes


def loop_xmod_at(x: CrossedModule, a: str) -> CrossedModule:
    """The loop crossed module at a; its axioms are re-verified on assembly.

    It is named "<name>-loop[<a>]", with a written as its document name.
    """
    data = loop_data(x, a)
    try:
        return make_xmod(x.M, data.Pa, data.delta_a, data.action,
                         name=f"{x.name or 'xmod'}-loop[{_render(a)}]")
    except XModError as exc:
        raise InternalInvariantBroken(
            f"loop crossed module at {a} fails an axiom: {exc}", exc.witness) from exc


@lru_cache(maxsize=None)
def loop_gpd_xmod(x: CrossedModule) -> GroupoidXMod:
    """The full loop crossed module over a groupoid.

    Objects are the elements of P and morphisms the tuples (m, p, a); the
    fibre at a holds the tuples (m, a).  The composite of u = (n, q, b) followed
    by v = (m, p, a) is (m + n^p, q + p, a), defined exactly when b is the
    source of v, equivalently b^p = a + delta(m).
    """
    M, P = x.M, x.P
    morphisms = list(product(M, P, P))
    source = {u: loop_morphism(x, *u).source for u in morphisms}
    target = {u: u[2] for u in morphisms}
    leaving = {a: [] for a in P}
    for u in morphisms:
        leaving[source[u]].append(u)
    compose = {}
    for u in morphisms:
        n, q, b = u
        for v in leaving[b]:
            m, p, a = v
            compose[(u, v)] = (M.add(m, x.act(n, p)), P.add(q, p), a)
    identities = {a: (M.identity, P.identity, a) for a in P}
    base = make_groupoid(tuple(P.elements), morphisms, source, target, compose, identities)
    fibres = {}
    for a in P:
        elems = [(m, a) for m in M]
        table = [[(M.add(m, n), a) for n in M] for m in M]
        fibres[a] = make_group(elems, table, (M.identity, a), name=f"M@{a}")
    boundary = {(m, a): (M.add(M.neg(x.act(m, a)), m), x.delta(m), a)
                for a in P for m in M}
    action = {((n, source[u]), u): (x.act(n, u[1]), u[2]) for u in morphisms for n in M}
    return make_gxm(base, fibres, boundary, action)


def theta(x: CrossedModule, a: str) -> GXModMorphism:
    """The isomorphism from the loop groupoid restricted at a onto L[a].

    theta sends the triple (m, p, a) to the pair (m, p) and the fibre
    element (m, a) to m; it is validated as a structure-preserving
    bijection in every dimension.
    """
    gxm = loop_gpd_xmod(x)
    restricted = restrict_to_object(gxm, a)
    target_cm = loop_xmod_at(x, a)
    data = loop_data(x, a)
    src = as_groupoid_xmod(restricted)
    tgt = as_groupoid_xmod(target_cm)
    mor_map = {(m, p, a): (m, p) for m, p in data.Pa}
    dim2_map = {(m, a): m for m in x.M}
    f = make_gxm_morphism(src, tgt, {"*": "*"}, mor_map, dim2_map)
    if not f.is_isomorphism():
        raise InternalInvariantBroken(f"theta at {a} is not bijective", (a,))
    return f


@dataclass(frozen=True, eq=False)
class LoopHomotopy:
    """pi1 and pi2 of the loop-space component at a."""

    pi1: FiniteGroup
    pi2: FiniteGroup
    projection: Homomorphism  # P(a) -> pi1


def pi_loop(x: CrossedModule, a: str) -> LoopHomotopy:
    """Cok and Ker of delta_a; the kernel is checked to equal the fixed points.

    The fixed-point identity Ker(delta_a) = {k in Ker(delta) : k^a = k}
    holds elementwise and is asserted, not assumed.
    """
    data = loop_data(x, a)
    pi1, projection = quotient(data.Pa, image(data.delta_a), name=f"pi1(L,{a})")
    ker = kernel(data.delta_a)
    pi2 = ker.as_group(name=f"pi2(L,{a})")
    fixed = {k for k in kernel(x.delta) if x.act(k, a) == k}
    if set(pi2.elements) != fixed:
        raise InternalInvariantBroken(
            f"Ker(delta_{a}) differs from the fixed points of {a}",
            tuple(sorted(set(pi2.elements) ^ fixed)))
    return LoopHomotopy(pi1, pi2, projection)
