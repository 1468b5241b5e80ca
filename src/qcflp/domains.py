"""Qualification lattices with attenuation.

A qualification value measures how much confidence survives a chain of
inferences.  Values live in a bounded lattice carrying an extra binary
operation, attenuation: every rule is tagged with an attenuation factor,
and a result derived through the rule is qualified by at most the factor
attenuated with the infimum of the premise qualifications.

Two structures are built in:

* the certainty lattice over the real interval [0, 1], with the numeric
  ordering and multiplication as attenuation, and
* binary cartesian products of two leaf lattices (lattices that are
  not products themselves), with everything defined componentwise.

Values are plain data: a float for the certainty lattice, a pair of
leaf values for products.  Domain objects validate shapes and provide the
lattice operations; they hold no mutable state and are safe to share.
"""

from __future__ import annotations

from typing import Iterable, Union

QualValue = Union[float, tuple]


class MalformedValueError(ValueError):
    """A value does not have the shape required by the domain."""


class QualDomain:
    """Interface for qualification lattices.

    Subclasses must be immutable.  All binary operations are total on
    well-shaped values and raise :class:`MalformedValueError` otherwise.
    """

    name: str = "?"

    def check(self, d: QualValue) -> QualValue:
        raise NotImplementedError

    def leq(self, d: QualValue, e: QualValue, tol: float = 0.0) -> bool:
        raise NotImplementedError

    def glb(self, d: QualValue, e: QualValue) -> QualValue:
        raise NotImplementedError

    def lub(self, d: QualValue, e: QualValue) -> QualValue:
        raise NotImplementedError

    def attenuate(self, d: QualValue, e: QualValue) -> QualValue:
        raise NotImplementedError

    def bottom(self) -> QualValue:
        raise NotImplementedError

    def top(self) -> QualValue:
        raise NotImplementedError

    # -- derived helpers ---------------------------------------------------

    def glb_all(self, values: Iterable[QualValue]) -> QualValue:
        """Infimum of a finite collection; the empty infimum is the top."""
        acc = self.top()
        for v in values:
            acc = self.glb(acc, v)
        return acc

    def is_strict(self, d: QualValue) -> bool:
        """True when d is above bottom (usable as factor or qualification)."""
        d = self.check(d)
        return not self.leq(d, self.bottom())

    def eq(self, d: QualValue, e: QualValue, tol: float = 0.0) -> bool:
        return self.leq(d, e, tol) and self.leq(e, d, tol)

    def leaf_suffixes(self) -> list[str]:
        """Variable-name suffixes for the real-valued components of a value.

        The certainty lattice has one unsuffixed component; a product
        has one per factor, suffixed by its position.  Used when lowering
        qualification constraints to real arithmetic by variable
        splitting.
        """
        raise NotImplementedError

    def split(self, d: QualValue) -> list[float]:
        """Real components of d, in leaf_suffixes order."""
        raise NotImplementedError

    def join(self, comps: list[float]) -> QualValue:
        """Inverse of split."""
        raise NotImplementedError

    def coerce(self, raw) -> QualValue:
        """Accept a scalar literal for any domain by broadcasting it."""
        raise NotImplementedError

    def format(self, d: QualValue) -> str:
        raise NotImplementedError


class CertaintyDomain(QualDomain):
    """Certainty degrees in [0, 1]; attenuation is multiplication."""

    name = "u"

    def check(self, d: QualValue) -> float:
        if isinstance(d, bool) or not isinstance(d, (int, float)):
            raise MalformedValueError(f"expected a real in [0,1], got {d!r}")
        x = float(d)
        if not (0.0 <= x <= 1.0):
            raise MalformedValueError(f"certainty value out of range: {x}")
        return x

    def leq(self, d, e, tol: float = 0.0) -> bool:
        return self.check(d) <= self.check(e) + tol

    def glb(self, d, e):
        return min(self.check(d), self.check(e))

    def lub(self, d, e):
        return max(self.check(d), self.check(e))

    def attenuate(self, d, e):
        return self.check(d) * self.check(e)

    def bottom(self) -> float:
        return 0.0

    def top(self) -> float:
        return 1.0

    def leaf_suffixes(self) -> list[str]:
        return [""]

    def split(self, d):
        return [self.check(d)]

    def join(self, comps):
        return self.check(comps[0])

    def coerce(self, raw) -> float:
        if isinstance(raw, tuple):
            raise MalformedValueError("pair literal used in a scalar domain")
        return self.check(raw)

    def format(self, d) -> str:
        x = self.check(d)
        return str(int(x)) if x == int(x) else repr(x)


class ProductDomain(QualDomain):
    """Cartesian product of two leaf lattices, everything componentwise."""

    def __init__(self, left: QualDomain, right: QualDomain):
        if isinstance(left, ProductDomain) or isinstance(right, ProductDomain):
            raise ValueError("the factors of a product domain must be leaf "
                             f"domains, not {left.name} and {right.name}")
        self.left = left
        self.right = right
        self.name = f"{left.name}x{right.name}"

    def check(self, d: QualValue) -> tuple:
        if not (isinstance(d, tuple) and len(d) == 2):
            raise MalformedValueError(f"expected a pair, got {d!r}")
        return (self.left.check(d[0]), self.right.check(d[1]))

    def leq(self, d, e, tol: float = 0.0) -> bool:
        d = self.check(d)
        e = self.check(e)
        return self.left.leq(d[0], e[0], tol) and self.right.leq(d[1], e[1], tol)

    def glb(self, d, e):
        d = self.check(d)
        e = self.check(e)
        return (self.left.glb(d[0], e[0]), self.right.glb(d[1], e[1]))

    def lub(self, d, e):
        d = self.check(d)
        e = self.check(e)
        return (self.left.lub(d[0], e[0]), self.right.lub(d[1], e[1]))

    def attenuate(self, d, e):
        d = self.check(d)
        e = self.check(e)
        return (self.left.attenuate(d[0], e[0]), self.right.attenuate(d[1], e[1]))

    def bottom(self):
        return (self.left.bottom(), self.right.bottom())

    def top(self):
        return (self.left.top(), self.right.top())

    def leaf_suffixes(self) -> list[str]:
        return [".1", ".2"]

    def split(self, d):
        return list(self.check(d))

    def join(self, comps):
        return self.check(tuple(comps))

    def coerce(self, raw) -> tuple:
        if isinstance(raw, tuple):
            if len(raw) != 2:
                raise MalformedValueError(f"expected a pair, got {raw!r}")
            return (self.left.coerce(raw[0]), self.right.coerce(raw[1]))
        # scalar literal broadcast to every component
        return (self.left.coerce(raw), self.right.coerce(raw))

    def format(self, d) -> str:
        d = self.check(d)
        return f"({self.left.format(d[0])},{self.right.format(d[1])})"


U = CertaintyDomain()

_BY_NAME = {
    "u": U,
    "uxu": ProductDomain(U, U),
}


def domain_from_name(name: str) -> QualDomain:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown qualification domain {name!r} (choose from: {', '.join(sorted(_BY_NAME))})")
