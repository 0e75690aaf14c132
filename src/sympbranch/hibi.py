"""Order-preserving integer patterns on the three-level poset Gamma.

A pattern stores three staggered rows (top, mid, bot) of lengths (n, n, n-1);
it is order preserving when consecutive rows interlace.  Characteristic
functions of lattice elements generate the pattern monoid, and summing them
along a chain recovers the chain's shape and middle diagram rowwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from sympbranch.diagrams import normalize
from sympbranch.lattice import ColumnIndex
from sympbranch.monomials import StandardMonomial, from_triple, monomial_triple


@dataclass(frozen=True)
class PatternMap:
    """Nonnegative integer values on Gamma, one entry per cell."""

    top: tuple[int, ...]
    mid: tuple[int, ...]
    bot: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(tuple(operator.index(v) for v in row)
                     for row in (self.top, self.mid, self.bot))
        for name, row in zip(("top", "mid", "bot"), rows):
            object.__setattr__(self, name, row)
        n = len(rows[0])
        if n < 2 or len(rows[1]) != n or len(rows[2]) != n - 1:
            raise ValueError(f"row lengths {[len(r) for r in rows]} do not "
                             f"match (n, n, n-1) for any n >= 2")
        if any(v < 0 for row in rows for v in row):
            raise ValueError("pattern entries must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.top)

    def is_order_preserving(self) -> bool:
        top, mid, bot = self.top, self.mid, self.bot
        n = self.n
        if any(top[j] < mid[j] for j in range(n)):
            return False
        if any(mid[j] < top[j + 1] for j in range(n - 1)):
            return False
        if any(mid[j] < bot[j] for j in range(n - 1)):
            return False
        return all(bot[j] >= mid[j + 1] for j in range(n - 1))

    def __add__(self, other: "PatternMap") -> "PatternMap":
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return PatternMap(tuple(map(sum, zip(self.top, other.top))),
                          tuple(map(sum, zip(self.mid, other.mid))),
                          tuple(map(sum, zip(self.bot, other.bot))))

    def to_json(self) -> dict:
        return {"top": list(self.top), "mid": list(self.mid),
                "bot": list(self.bot)}

    def __str__(self):
        return pretty(self)


def chi(c: ColumnIndex) -> PatternMap:
    """Characteristic pattern of a lattice element: 1 on its Birkhoff cells."""
    return pattern_of_triple(*monomial_triple((c,)), c.n)


def chain_to_pattern(m: StandardMonomial) -> PatternMap:
    """Pointwise sum of the factor characteristic patterns.  Its rows are the
    chain's (F, E, D): shape, middle diagram and base."""
    return pattern_of_triple(*monomial_triple(m.columns), m.n)


def pattern_to_chain(p: PatternMap) -> StandardMonomial:
    """Inverse of chain_to_pattern; the rows become (F, E, D)."""
    if not p.is_order_preserving():
        raise ValueError(f"{p.to_json()} is not order preserving")
    return from_triple(normalize(p.bot), normalize(p.mid), normalize(p.top), p.n)


def pattern_of_triple(d, e, f, n: int) -> PatternMap:
    """The pattern with rows f, e, d, each padded with zeros to its length."""
    rows = [(normalize(row), size) for row, size in ((f, n), (e, n), (d, n - 1))]
    if any(len(row) > size for row, size in rows):
        raise ValueError(f"rows {[list(r) for r, _ in rows]} are longer than "
                         f"the pattern rows ({n}, {n}, {n - 1})")
    return PatternMap(*(row + (0,) * (size - len(row)) for row, size in rows))


def pretty(p: PatternMap) -> str:
    """Staggered triangular layout, one row per level of Gamma."""
    width = max(len(str(v)) for row in (p.top, p.mid, p.bot) for v in row)
    unit = width + 2
    lines = []
    for indent, row in zip((0, unit, 2 * unit), (p.top, p.mid, p.bot)):
        cells = (str(v).ljust(2 * unit) for v in row)
        lines.append((" " * indent + "".join(cells)).rstrip())
    return "\n".join(lines)
