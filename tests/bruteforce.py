"""Independent brute-force oracles.

These deliberately take the dumbest route available: full filters over
raw products, no solved equations, no shared code with the library
internals beyond the group arithmetic itself.  Tests compare the library
against these and against frozen regression values.
"""

from itertools import product


def brute_k2(x):
    """All (m, c, a, b) with delta(m) = -c + a + b, as a set of tuples."""
    P, M = x.P, x.M
    found = set()
    for m, c, a, b in product(M, P, P, P):
        if x.delta(m) == P.add(P.add(P.neg(c), a), b):
            found.add((m, c, a, b))
    return found


def brute_k3(x):
    """All edge/face tuples (a, b, c, d, e, f, m0, m1, m2, m3).

    Filters every 6-tuple of edges against the four boundary equations
    (via delta-fibres) and then the closure rule.
    """
    P, M = x.P, x.M
    fibre = {}
    for m in M:
        fibre.setdefault(x.delta(m), []).append(m)
    zero = M.identity
    found = set()
    for a, b, c, d, e, f in product(P, P, P, P, P, P):
        need0 = P.add(P.add(P.neg(e), b), f)
        need1 = P.add(P.add(P.neg(d), c), f)
        need2 = P.add(P.add(P.neg(d), a), e)
        need3 = P.add(P.add(P.neg(c), a), b)
        for m0 in fibre.get(need0, ()):
            for m1 in fibre.get(need1, ()):
                for m2 in fibre.get(need2, ()):
                    for m3 in fibre.get(need3, ()):
                        total = M.add(M.add(M.add(x.act(m3, f), M.neg(m0)),
                                            M.neg(m2)), m1)
                        if total == zero:
                            found.add((a, b, c, d, e, f, m0, m1, m2, m3))
    return found


def brute_is_simplex3(x, t):
    """The four boundary rules and the closure rule on a label 10-tuple, in label arithmetic."""
    P, M = x.P, x.M
    a, b, c, d, e, f, m0, m1, m2, m3 = t
    return (x.delta(m0) == P.add(P.add(P.neg(e), b), f)
            and x.delta(m1) == P.add(P.add(P.neg(d), c), f)
            and x.delta(m2) == P.add(P.add(P.neg(d), a), e)
            and x.delta(m3) == P.add(P.add(P.neg(c), a), b)
            and M.add(M.add(M.add(x.act(m3, f), M.neg(m0)), M.neg(m2)), m1) == M.identity)


def brute_components(x):
    """The loop-space component partition of P, by pairwise relation scan."""
    P, M = x.P, x.M

    def related(a, b):
        return any(b == P.sub(P.add(P.add(p, a), x.delta(m)), p)
                   for m in M for p in P)

    blocks = []
    for a in P:
        placed = False
        for block in blocks:
            if related(block[0], a) and related(a, block[0]):
                block.append(a)
                placed = True
                break
        if not placed:
            blocks.append([a])
    return {frozenset(block) for block in blocks}


def brute_pa(x, a):
    """The underlying set of P(a) as (m, p) pairs, by direct filter."""
    P, M = x.P, x.M
    target = {}
    for m in M:
        for p in P:
            commutator = P.add(P.add(P.add(P.neg(a), P.neg(p)), a), p)
            if x.delta(m) == commutator:
                target[(m, p)] = True
    return set(target)


def brute_loop_gpd_tables(x):
    """The tables of the loop groupoid crossed module, by label arithmetic.

    Morphisms are (m, p, a) with source p + a + delta(m) - p and target a,
    the composite of (n, q, b) then (m, p, a) is (m + n^p, q + p, a), the
    inverse of (m, p, a) is (-(m^-p), -p, its source), the
    fibre at a is M written as pairs (m, a), the boundary of (m, a) is
    (-m^a + m, delta m, a) and (n, b)^(m, p, a) = (n^p, a).  Each dict is
    filled in the order the library lists its keys.
    """
    M, P = x.M, x.P
    morphisms = list(product(M, P, P))
    source = {u: P.sub(P.add(P.add(u[1], u[2]), x.delta(u[0])), u[1]) for u in morphisms}
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
    fibres = {a: ([(m, a) for m in M], [[(M.add(m, n), a) for n in M] for m in M])
              for a in P}
    return {
        "morphisms": morphisms,
        "source": source,
        "target": target,
        "compose": compose,
        "identities": {a: (M.identity, P.identity, a) for a in P},
        # (m, p) + (-(m^-p), -p) = (-(m^-p) + m^-p, p - p) = (0, 0)
        "inverses": {u: (M.neg(x.act(u[0], P.neg(u[1]))), P.neg(u[1]), source[u])
                     for u in morphisms},
        "fibres": fibres,
        "boundary": {(m, a): (M.add(M.neg(x.act(m, a)), m), x.delta(m), a)
                     for a in P for m in M},
        "action": {((n, source[u]), u): (x.act(n, u[1]), u[2])
                   for u in morphisms for n in M},
    }


def brute_loop_group(x, a):
    """P(a), delta_a and the P(a)-action on M at base a, by label arithmetic.

    P(a) is the pairs (m, p) with delta(m) = [a, p], in (m, p) order, under
    (n, q) + (m, p) = (m + n^p, q + p); delta_a(m) = (-m^a + m, delta m) and
    n^(m, p) = n^p.
    """
    M, P = x.M, x.P
    pairs = [(m, p) for m in M for p in P if x.delta(m) == P.commutator(a, p)]
    table = [[(M.add(m, x.act(n, p)), P.add(q, p)) for m, p in pairs] for n, q in pairs]
    return {
        "elements": pairs,
        "table": table,
        "delta_a": {m: (M.add(M.neg(x.act(m, a)), m), x.delta(m)) for m in M},
        "action": {(n, (m, p)): x.act(n, p) for n in M for m, p in pairs},
    }
