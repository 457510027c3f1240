"""Exception types and report records shared across the library.

Every failure names the witnessing elements, so a rejected input always
comes with a concrete counterexample.  Report-valued checks collect
``Violation`` records instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One broken law found by a report-valued check."""

    kind: str
    message: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class XModError(Exception):
    """Base class for all validation and computation errors."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = tuple(witness)


class NotClosed(XModError):
    def __init__(self, x, y, value):
        super().__init__(
            f"composition {x} + {y} = {value!r} leaves the element set", (x, y, value)
        )


class NotAssociative(XModError):
    def __init__(self, x, y, z):
        super().__init__(f"({x} + {y}) + {z} != {x} + ({y} + {z})", (x, y, z))


class NoIdentity(XModError):
    def __init__(self, x):
        super().__init__(f"declared identity is not two-sided at {x}", (x,))


class NoInverse(XModError):
    def __init__(self, x):
        super().__init__(f"element {x} has no two-sided inverse", (x,))


class MalformedGroup(XModError):
    """Group data that cannot even be read as a table: empty, repeated or ragged."""


class UnknownElement(XModError):
    def __init__(self, name):
        super().__init__(f"unknown element {name!r}", (name,))


class UnknownObject(XModError):
    def __init__(self, name):
        super().__init__(f"unknown object {name!r}", (name,))


class NotNormal(XModError):
    def __init__(self, g, n):
        super().__init__(f"not normal: -{g} + {n} + {g} escapes the subgroup", (g, n))


class InvalidHomomorphism(XModError):
    def __init__(self, x, y):
        super().__init__(f"map({x} + {y}) != map({x}) + map({y})", (x, y))


class InvalidAction(XModError):
    def __init__(self, law: str, witness: tuple):
        super().__init__(f"action law '{law}' fails at {witness}", witness)
        self.law = law


class SizeLimitExceeded(XModError):
    def __init__(self, order: int, bound: int):
        super().__init__(f"group order {order} exceeds search bound {bound}", (order, bound))


class SpaceNotAbelian(XModError):
    def __init__(self, m, n):
        super().__init__(f"space is not abelian: {m} + {n} != {n} + {m}", (m, n))


class CM1Violation(XModError):
    def __init__(self, m, p):
        super().__init__(f"delta(m^p) != -p + delta(m) + p at (m={m}, p={p})", (m, p))


class CM2Violation(XModError):
    def __init__(self, m, n):
        super().__init__(f"-n + m + n != m^delta(n) at (m={m}, n={n})", (m, n))


class CodomainViolation(XModError):
    def __init__(self, m, value):
        super().__init__(f"image {value!r} of {m} lies outside the codomain", (m, value))


class InternalInvariantBroken(XModError):
    """A consequence of valid input failed; signals a bug or bad input."""


class CountMismatch(XModError):
    def __init__(self, expected: int, actual: int):
        super().__init__(f"count formula gives {expected}, enumeration gives {actual}",
                         (expected, actual))


class IndexOutOfRange(XModError):
    def __init__(self, i):
        super().__init__(f"face index {i} is not in 0..3", (i,))


class ExactnessFailure(XModError):
    def __init__(self, node: str, witness: tuple = ()):
        super().__init__(f"sequence is not exact at {node}", witness)
        self.node = node


class PreconditionFailed(XModError):
    pass


class IsomorphismNotFound(XModError):
    pass


class InvalidGroupoid(XModError):
    def __init__(self, law: str, witness: tuple):
        super().__init__(f"groupoid law '{law}' fails at {witness}", witness)
        self.law = law


class InvalidGroupoidXMod(XModError):
    def __init__(self, law: str, witness: tuple):
        super().__init__(f"crossed-module-over-groupoid law '{law}' fails at {witness}", witness)
        self.law = law


class InvalidMorphism(XModError):
    def __init__(self, law: str, witness: tuple):
        super().__init__(f"morphism law '{law}' fails at {witness}", witness)
        self.law = law


class DocumentSyntaxError(XModError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"document syntax error{where}: {message}")
        self.line = line


class UnknownIdentifier(XModError):
    def __init__(self, name, location: str | None = None):
        where = f" at {location}" if location else ""
        super().__init__(f"unknown identifier {name!r}{where}", (name,))
        self.location = location


class AxiomViolation(XModError):
    """Document-level wrapper for a validation failure, with its location."""
