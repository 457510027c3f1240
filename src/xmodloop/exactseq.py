"""The evaluation fibration, its fibre, and the five-term exact sequence.

psi maps the loop groupoid model back onto the crossed module by
psi_0(a) = *, psi_1(m, p, a) = p and psi_2 the identity of M.  Its fibre
has all of P as objects, the triples with middle coordinate 0 as
morphisms, and the trivial subgroup of M over each object.  Writing
pi = Ker(delta) and G = Cok(delta), each base element a yields the exact
sequence

    0 -> pi^a -> pi -> pi -> pi1(loop, a) -> C_a(G) -> 1

with connecting map x |-> -x^a + x out of the second pi; the coinvariants
pi/{a} appear as its cokernel, injecting into pi1(loop, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    ExactnessFailure,
    InternalInvariantBroken,
    IsomorphismNotFound,
    PreconditionFailed,
    Violation,
)
from .groups import (
    DEFAULT_MAX_ISO_ORDER,
    FiniteGroup,
    Homomorphism,
    Subgroup,
    are_isomorphic,
    centralizer,
    displacement_subgroup,
    group_action,
    homomorphism,
    image,
    kernel,
    quotient,
    semidirect_product,
    subgroup,
)
from .groupoids import (
    GroupoidXMod,
    GXModMorphism,
    as_groupoid_xmod,
    is_fibration,
    make_gxm_morphism,
    restrict,
)
from .loop import loop_data, loop_gpd_xmod, pi_loop
from .xmod import CrossedModule, homotopy


@dataclass(frozen=True, eq=False)
class FibrationData:
    """The verified fibration psi together with its fibre."""

    psi: GXModMorphism
    fibre: GroupoidXMod


def fibration_psi(x: CrossedModule) -> FibrationData:
    """Build psi, which must be a fibration, and its fibre, cut out by ``restrict``.

    psi is (m, p) -> p on the loop group G, every object to the one object
    and the identity on M.  The fibre is the action groupoid of its
    kernel, the pairs (m, 0), on P, with the trivial subgroup of M over
    each object.
    """
    M, P = x.M, x.P
    gxm = loop_gpd_xmod(x)
    nM, nP = len(M), len(P)
    # psi_1(m_i, p_j, a) = p_j on G's positions i |P| + j; psi_2 is the identity of M
    group_map = [j for _ in range(nM) for j in range(nP)]
    psi = make_gxm_morphism(gxm, as_groupoid_xmod(x), group_map, [0] * nP, list(range(nM)))
    report = is_fibration(psi)
    if report:
        raise InternalInvariantBroken(f"psi is not a fibration: {report[0]}",
                                      report[0].witness)

    # the kernel of psi_1, the pairs (m, 0), acts on P by a -> a + delta(m)
    G, e = gxm.base.group, P._index[P.identity]
    kernel_pairs = [G.elements[g] for g, j in enumerate(psi.group_map) if j == e]
    return FibrationData(psi, restrict(gxm, kernel_pairs, P, [M.identity]))


def fixed_points(x: CrossedModule, a: str) -> Subgroup:
    """The subgroup of pi fixed by a, checked independent of the representative."""
    x.P.index(a)
    data = homotopy(x)
    pi = data.pi2
    members = [k for k in pi if x.act(k, a) == k]
    for d in image(x.delta):
        other = x.P.add(a, d)
        if {k for k in pi if x.act(k, other) == k} != set(members):
            raise InternalInvariantBroken(
                f"fixed points depend on the representative {other} of {a}", (a, other))
    return subgroup(pi, members)


def _connecting_map(x: CrossedModule, a: str) -> Homomorphism:
    pi = homotopy(x).pi2
    mapping = {k: x.M.add(x.M.neg(x.act(k, a)), k) for k in pi}
    return homomorphism(pi, pi, mapping)


def coinvariants(x: CrossedModule, a: str) -> FiniteGroup:
    """pi with the action of a killed: pi modulo all -k^a + k."""
    x.P.index(a)
    boundary = _connecting_map(x, a)
    quo, _ = quotient(boundary.source, image(boundary))
    return quo


@dataclass(frozen=True, eq=False)
class ExactSequence:
    """Five terms and four maps, all verified; exactness holds at every node."""

    base: str
    abar: str
    terms: tuple  # (pi^a, pi, pi as pi1(fibre), pi1(loop), C_a(G))
    maps: tuple   # (inclusion, connecting, j, q)
    coinvariants: FiniteGroup
    induced: Homomorphism  # coinvariants -> pi1(loop), injective

    def term_orders(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.terms)


def _set_equal(node: str, left, right) -> None:
    left, right = set(left), set(right)
    if left != right:
        raise ExactnessFailure(node, tuple(sorted(left ^ right)))


def exact_sequence(x: CrossedModule, a: str) -> ExactSequence:
    """Assemble the sequence at a and verify exactness at every node."""
    data = homotopy(x)
    pi = data.pi2
    abar = data.projection(a)
    head = fixed_points(x, a).as_group()
    inclusion = homomorphism(head, pi, {k: k for k in head})
    connecting = _connecting_map(x, a)
    loop_h = pi_loop(x, a)
    pa_projection = loop_h.projection
    j = homomorphism(pi, loop_h.pi1,
                     {k: pa_projection((k, x.P.identity)) for k in pi})
    cent = centralizer(data.pi1, abar).as_group()
    q_mapping = {}
    for rep in loop_h.pi1:
        _, p = rep
        value = data.projection(p)
        if value not in cent:
            raise InternalInvariantBroken(
                f"q({rep}) = {value} misses the centralizer of {abar}", (rep, value))
        q_mapping[rep] = value
    q = homomorphism(loop_h.pi1, cent, q_mapping)
    for u in loop_data(x, a).Pa:
        if q(pa_projection(u)) != data.projection(u[1]):
            raise InternalInvariantBroken(
                f"q is not representative-independent at {u}", (u,))

    _set_equal("pi2-head", loop_h.pi2.elements, head.elements)
    _set_equal("pi", kernel(connecting).members, image(inclusion).members)
    _set_equal("pi1-fibre", kernel(j).members, image(connecting).members)
    _set_equal("pi1-loop", kernel(q).members, image(j).members)
    _set_equal("centralizer", image(q).members, cent.elements)

    coinv, coproj = quotient(pi, image(connecting))
    induced = homomorphism(coinv, loop_h.pi1, {rep: j(rep) for rep in coinv})
    for k in pi:
        if induced(coproj(k)) != j(k):
            raise ExactnessFailure("coinvariants", (k,))
    if not induced.is_injective():
        raise ExactnessFailure("coinvariants-injection", ())
    if len(loop_h.pi1) != len(coinv) * len(cent):
        raise ExactnessFailure("order-compression",
                               (len(loop_h.pi1), len(coinv), len(cent)))
    return ExactSequence(a, abar, (head, pi, pi, loop_h.pi1, cent),
                         (inclusion, connecting, j, q), coinv, induced)


def example1_check(x: CrossedModule, a: str,
                   max_order: int = DEFAULT_MAX_ISO_ORDER) -> list[Violation]:
    """For delta = 0: pi1(loop, a) is (M / [a, M]) twisted by C_a(P).

    Also confirms that P(a) is exactly M x C_a(P) with the twisted table.
    Returns an empty report on success; a missing isomorphism raises.
    """
    if any(x.delta(m) != x.P.identity for m in x.M):
        witness = next(m for m in x.M if x.delta(m) != x.P.identity)
        raise PreconditionFailed(f"delta is not the zero map (delta({witness}) != 0)")
    report: list[Violation] = []
    cent = centralizer(x.P, a)
    cent_group = cent.as_group()
    displaced = displacement_subgroup(x.action, a)
    quo, proj = quotient(x.M, displaced)
    for m in x.M:
        for p in cent_group:
            if proj(x.act(m, p)) != proj(x.act(proj(m), p)):
                report.append(Violation(
                    "induced-action", f"action of {p} is not constant on the class of {m}",
                    (m, p)))
    table = {(rep, p): proj(x.act(rep, p)) for rep in quo for p in cent_group}
    induced = group_action(cent_group, quo, table)
    twisted = semidirect_product(quo, cent_group, induced)
    pi1 = pi_loop(x, a).pi1
    if are_isomorphic(twisted, pi1, max_order=max_order) is None:
        raise IsomorphismNotFound(
            f"pi1(loop, {a}) of order {len(pi1)} does not match the twisted "
            f"product of order {len(twisted)}")

    restricted = group_action(cent_group, x.M,
                              {(m, p): x.act(m, p) for m in x.M for p in cent_group})
    model = semidirect_product(x.M, cent_group, restricted)
    pa = loop_data(x, a).Pa
    if set(model.elements) != set(pa.elements):
        report.append(Violation("pa-elements",
                                f"P({a}) is not M x C_{a}(P) elementwise",
                                tuple(sorted(set(model.elements) ^ set(pa.elements)))))
    else:
        for u in pa:
            for v in pa:
                if model.add(u, v) != pa.add(u, v):
                    report.append(Violation(
                        "pa-table", f"P({a}) and M x C_{a}(P) disagree at {u} + {v}",
                        (u, v)))
    return report


def example2_check(x: CrossedModule, a: str,
                   max_order: int = DEFAULT_MAX_ISO_ORDER) -> list[Violation]:
    """For central a: P(a) = pi x P with the twisted table, and
    pi1(loop, a) is the quotient of that product by all (-m^a + m, delta m).
    """
    off_centre = [p for p in x.P if x.P.commutator(a, p) != x.P.identity]
    if off_centre:
        raise PreconditionFailed(
            f"{a} is not central in P (does not commute with {off_centre[0]})")
    report: list[Violation] = []
    data = homotopy(x)
    pi = data.pi2
    pa = loop_data(x, a).Pa
    expected = set(product(pi, x.P))
    if set(pa.elements) != expected:
        report.append(Violation("pa-elements", f"P({a}) is not pi x P as a set",
                                tuple(sorted(set(pa.elements) ^ expected))))
        return report
    restricted = group_action(x.P, pi, {(k, p): x.act(k, p) for k in pi for p in x.P})
    model = semidirect_product(pi, x.P, restricted)
    for u in pa:
        for v in pa:
            if model.add(u, v) != pa.add(u, v):
                report.append(Violation(
                    "pa-table", f"P({a}) and pi x P disagree at {u} + {v}", (u, v)))
    if report:
        return report
    relators = subgroup(model, {(x.M.add(x.M.neg(x.act(m, a)), m), x.delta(m)) for m in x.M})
    presented, _ = quotient(model, relators)
    pi1 = pi_loop(x, a).pi1
    if are_isomorphic(presented, pi1, max_order=max_order) is None:
        raise IsomorphismNotFound(
            f"presentation quotient of order {len(presented)} does not match "
            f"pi1(loop, {a}) of order {len(pi1)}")
    return report
