"""Expected answers, counted from a document's tables by definition.

This module shares no code with ``xmodloop``: it reads a crossed-module
document as plain JSON and answers each question by direct counting,
which makes it the independent oracle every job's output is checked
against.  Composition is additive and written left to right, as in the
documents.
"""

from __future__ import annotations

from collections import Counter


class Module:
    """delta: M -> P with a right action of P on M, on element names."""

    def __init__(self, doc: dict):
        self.P = list(doc["P"]["elements"])
        self.M = list(doc["M"]["elements"])
        self.p_add = _table(doc["P"])
        self.m_add = _table(doc["M"])
        self.p_zero = doc["P"]["identity"]
        self.m_zero = doc["M"]["identity"]
        self.p_neg = _negatives(self.p_add, self.p_zero)
        self.m_neg = _negatives(self.m_add, self.m_zero)
        self.delta = dict(doc["delta"])
        self.act = {(m, p): doc["action"][p][m] for p in self.P for m in self.M}
        self.p_index = {p: i for i, p in enumerate(self.P)}
        self.image = set(self.delta.values())
        self.kernel = [m for m in self.M if self.delta[m] == self.p_zero]
        self.fibre = Counter(self.delta.values())

    def add(self, *xs: str) -> str:
        total = self.p_zero
        for x in xs:
            total = self.p_add[(total, x)]
        return total

    def commutator(self, a: str, p: str) -> str:
        """-a - p + a + p."""
        return self.add(self.p_neg[a], self.p_neg[p], a, p)

    @property
    def delta_is_zero(self) -> bool:
        return self.image == {self.p_zero}

    @property
    def pi1_order(self) -> int:
        return len(self.P) // len(self.image)

    @property
    def pi2_order(self) -> int:
        return len(self.kernel)

    def coset(self, a: str) -> set:
        return {self.p_add[(a, d)] for d in self.image}

    def component(self, a: str) -> list:
        """Everything reachable from a by b = p + a + delta(m) - p, in P's order."""
        reached = {self.add(p, b, self.p_neg[p]) for p in self.P for b in self.coset(a)}
        return sorted(reached, key=self.p_index.__getitem__)

    def components(self) -> list:
        seen: set = set()
        classes = []
        for a in self.P:
            if a not in seen:
                block = self.component(a)
                classes.append(block)
                seen.update(block)
        return classes

    def pa_order(self, a: str) -> int:
        """|P(a)|: the pairs (m, p) with delta(m) = [a, p]."""
        return sum(self.fibre[self.commutator(a, p)] for p in self.P)

    def fixed_order(self, a: str) -> int:
        """|pi^a|: the elements of Ker(delta) fixed by a."""
        return sum(1 for k in self.kernel if self.act[(k, a)] == k)

    def loop_pi1_order(self, a: str) -> int:
        """|P(a)| / |delta_a(M)|, where Ker(delta_a) is the fixed part of Ker(delta)."""
        return self.pa_order(a) * self.fixed_order(a) // len(self.M)

    def centralizer_order(self, a: str) -> int:
        """Order of the centralizer of the class of a in pi1 = P / delta(M)."""
        return sum(1 for p in self.P if self.commutator(a, p) in self.image) // len(self.image)

    def is_central(self, a: str) -> bool:
        return all(self.p_add[(a, p)] == self.p_add[(p, a)] for p in self.P)

    def least_in_coset(self, a: str) -> str:
        return min(self.coset(a), key=self.p_index.__getitem__)

    def is_k2(self, m: str, c: str, a: str, b: str) -> bool:
        """delta(m) = -c + a + b."""
        return self.delta.get(m) == self.add(self.p_neg[c], a, b)

    def is_k3(self, a, b, c, d, e, f, m0, m1, m2, m3) -> bool:
        """The four boundary equations and (m3)^f - m0 - m2 + m1 = 0."""
        if not (self.is_k2(m0, e, b, f) and self.is_k2(m1, d, c, f)
                and self.is_k2(m2, d, a, e) and self.is_k2(m3, c, a, b)):
            return False
        add, neg = self.m_add, self.m_neg
        total = add[(add[(add[(self.act[(m3, f)], neg[m0])], neg[m2])], m1)]
        return total == self.m_zero


def _table(block: dict) -> dict:
    elements = block["elements"]
    return {(x, y): block["table"][i][j]
            for i, x in enumerate(elements) for j, y in enumerate(elements)}


def _negatives(add: dict, zero: str) -> dict:
    return {x: y for (x, y), z in add.items() if z == zero}
