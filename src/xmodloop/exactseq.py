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

Positions.  Every map here, and every action in the two examples, is a
list of positions validated by the row laws of ``homomorphism`` and
``group_action`` (``groups._homomorphism``, ``groups._group_action``).
The displacement m |-> -m^a + m is ``groups._displacements``, as in
delta_a.  The base a is read once, as a position of P.  Labels are
written only into ``base``, ``abar`` and failure witnesses; the examples
read them once more, to match P(a) with a twisted product pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _displacements,
    _group_action,
    _homomorphism,
    _representatives,
    are_isomorphic,
    centralizer,
    displacement_subgroup,
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
    e = P.zero
    kernel_pairs = [g for g, j in enumerate(group_map) if j == e]
    return FibrationData(psi, restrict(gxm, kernel_pairs, range(nP), [M.zero]))


def fixed_points(x: CrossedModule, a: str) -> Subgroup:
    """The subgroup of pi fixed by a: by its class in pi1, as ``homotopy`` proved it acts."""
    data = homotopy(x)
    row = data.g_action.rows[data.projection.images[x.P.index(a)]]
    return subgroup(data.pi2, [k for k, v in enumerate(row) if v == k])


def _connecting_map(x: CrossedModule, ia: int) -> Homomorphism:
    """k |-> -k^a + k on pi, for a at position ia of P."""
    data = homotopy(x)
    inside = data.kernel_subgroup._positions
    local = {k: r for r, k in enumerate(inside)}
    displaced = _displacements(x.M, x.act_table[ia])
    return _homomorphism(data.pi2, data.pi2, [local[displaced[k]] for k in inside])


def coinvariants(x: CrossedModule, a: str) -> FiniteGroup:
    """pi with the action of a killed: pi modulo all -k^a + k."""
    boundary = _connecting_map(x, x.P.index(a))
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


def _set_equal(node: str, group: FiniteGroup, left, right) -> None:
    """Raise at the node unless left and right hold the same positions of group."""
    left, right = set(left), set(right)
    if left != right:
        raise ExactnessFailure(node, tuple(sorted(group.elements[i] for i in left ^ right)))


def exact_sequence(x: CrossedModule, a: str) -> ExactSequence:
    """Assemble the sequence at a and verify exactness at every node."""
    P, ia = x.P, x.P.index(a)
    data = homotopy(x)
    pi, to_pi1 = data.pi2, data.projection.images
    abar = data.pi1.elements[to_pi1[ia]]
    fixed = fixed_points(x, a)
    head = fixed.as_group()
    inclusion = _homomorphism(head, pi, list(fixed._positions))
    connecting = _connecting_map(x, ia)
    loop_h, lx = pi_loop(x, a), loop_data(x, a)
    pi1, to_loop, pairs = loop_h.pi1, loop_h.projection.images, lx._pairs
    e = P.zero
    # the pairs (k, 0) of P(a) are those with k in pi, in pi's order
    j = _homomorphism(pi, pi1, [to_loop[u] for u, (_, p) in enumerate(pairs) if p == e])
    cent = centralizer(data.pi1, to_pi1[ia])
    cent_group, local = cent.as_group(), {c: r for r, c in enumerate(cent._positions)}
    q_images = [None] * len(pi1)  # q[(m, p)] = [p], set at each class's least pair
    for u, (_, p) in enumerate(pairs):
        value = local.get(to_pi1[p])
        if value is None:
            rep, value = lx.Pa.elements[u], data.pi1.elements[to_pi1[p]]
            raise InternalInvariantBroken(
                f"q({rep}) = {value} misses the centralizer of {abar}", (rep, value))
        if q_images[to_loop[u]] not in (None, value):
            rep = lx.Pa.elements[u]
            raise InternalInvariantBroken(f"q is not representative-independent at {rep}", (rep,))
        q_images[to_loop[u]] = value
    q = _homomorphism(pi1, cent_group, q_images)

    inside = data.kernel_subgroup._positions
    _set_equal("pi2-head", x.M, loop_h.kernel_subgroup._positions,
               [inside[r] for r in fixed._positions])
    _set_equal("pi", pi, kernel(connecting)._positions, image(inclusion)._positions)
    _set_equal("pi1-fibre", pi, kernel(j)._positions, image(connecting)._positions)
    _set_equal("pi1-loop", pi1, kernel(q)._positions, image(j)._positions)
    _set_equal("centralizer", cent_group, image(q)._positions, range(len(cent_group)))

    coinv, coproj = quotient(pi, image(connecting))
    induced = _homomorphism(coinv, pi1, [j.images[k] for k in _representatives(coproj)])
    for k, c in enumerate(coproj.images):
        if induced.images[c] != j.images[k]:
            raise ExactnessFailure("coinvariants", (pi.elements[k],))
    if not induced.is_injective():
        raise ExactnessFailure("coinvariants-injection", ())
    if len(pi1) != len(coinv) * len(cent_group):
        raise ExactnessFailure("order-compression", (len(pi1), len(coinv), len(cent_group)))
    return ExactSequence(a, abar, (head, pi, pi, pi1, cent_group),
                         (inclusion, connecting, j, q), coinv, induced)


def _twisted_mismatches(pa: FiniteGroup, model: FiniteGroup, a: str, name: str,
                        how: str) -> list[Violation]:
    """Where P(a) differs from ``model``, the twisted product ``name``: as sets of pairs,
    else at each sum u + v of P(a), each pair matched with the model's of its name."""
    same = [model._index.get(u) for u in pa.elements]
    if len(pa) != len(model) or None in same:
        return [Violation("pa-elements", f"P({a}) is not {name} {how}",
                          tuple(sorted(set(model.elements) ^ set(pa.elements))))]
    mt, labels = model._table, pa.elements
    return [Violation("pa-table", f"P({a}) and {name} disagree at {labels[u]} + {labels[v]}",
                      (labels[u], labels[v]))
            for u, row in enumerate(pa._table) for v, w in enumerate(row)
            if mt[same[u]][same[v]] != same[w]]


def example1_check(x: CrossedModule, a: str,
                   max_order: int = DEFAULT_MAX_ISO_ORDER) -> list[Violation]:
    """For delta = 0: pi1(loop, a) is (M / [a, M]) twisted by C_a(P).

    Also confirms that P(a) is exactly M x C_a(P) with the twisted table.
    Returns an empty report on success; a missing isomorphism raises.
    """
    M, P, act = x.M, x.P, x.act_table
    moved = [m for m, d in enumerate(x.boundary) if d != P.zero]
    if moved:
        raise PreconditionFailed(
            f"delta is not the zero map (delta({M.elements[moved[0]]}) != 0)")
    report: list[Violation] = []
    ia = P.index(a)
    cent = centralizer(P, ia)
    cent_group = cent.as_group()
    quo, proj = quotient(M, displacement_subgroup(x.action, ia))
    to_quo, reps = proj.images, _representatives(proj)
    for m in range(len(M)):
        for p in cent._positions:
            if to_quo[act[p][m]] != to_quo[act[p][reps[to_quo[m]]]]:
                m_name, p_name = M.elements[m], P.elements[p]
                report.append(Violation(
                    "induced-action", f"action of {p_name} is not constant on the class of "
                    f"{m_name}", (m_name, p_name)))
    induced = _group_action(cent_group, quo,
                            [[to_quo[act[p][r]] for r in reps] for p in cent._positions])
    twisted = semidirect_product(quo, cent_group, induced)
    pi1 = pi_loop(x, a).pi1
    if are_isomorphic(twisted, pi1, max_order=max_order) is None:
        raise IsomorphismNotFound(
            f"pi1(loop, {a}) of order {len(pi1)} does not match the twisted "
            f"product of order {len(twisted)}")

    restricted = _group_action(cent_group, M, [act[p] for p in cent._positions])
    model = semidirect_product(M, cent_group, restricted)
    return report + _twisted_mismatches(loop_data(x, a).Pa, model, a, f"M x C_{a}(P)",
                                        "elementwise")


def example2_check(x: CrossedModule, a: str,
                   max_order: int = DEFAULT_MAX_ISO_ORDER) -> list[Violation]:
    """For central a: P(a) = pi x P with the twisted table, and
    pi1(loop, a) is the quotient of that product by all (-m^a + m, delta m).
    """
    P, ia = x.P, x.P.index(a)
    central = set(centralizer(P, ia)._positions)
    off_centre = [p for p in range(len(P)) if p not in central]
    if off_centre:
        raise PreconditionFailed(
            f"{a} is not central in P (does not commute with {P.elements[off_centre[0]]})")
    data = homotopy(x)
    pi, g_rows = data.pi2, data.g_action.rows
    # P acts on pi through pi1
    restricted = _group_action(P, pi, [g_rows[c] for c in data.projection.images])
    model = semidirect_product(pi, P, restricted)
    report = _twisted_mismatches(loop_data(x, a).Pa, model, a, "pi x P", "as a set")
    if report:
        return report
    # delta_a(m) = (-m^a + m, delta m) lies in P(a), which is pi x P
    local = {k: r for r, k in enumerate(data.kernel_subgroup._positions)}
    displaced = _displacements(x.M, x.act_table[ia])
    relators = subgroup(model, [local[v] * len(P) + d for v, d in zip(displaced, x.boundary)])
    presented, _ = quotient(model, relators)
    pi1 = pi_loop(x, a).pi1
    if are_isomorphic(presented, pi1, max_order=max_order) is None:
        raise IsomorphismNotFound(
            f"presentation quotient of order {len(presented)} does not match "
            f"pi1(loop, {a}) of order {len(pi1)}")
    return report
