"""Standard monomials: multichains in the lattice and their tableau avatars."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from sympbranch import diagrams
from sympbranch.diagrams import Diagram, EQ, GE, LE, normalize, part, transpose
from sympbranch.lattice import ColumnIndex, from_ones


@dataclass(frozen=True)
class StandardMonomial:
    """A multichain of column indices, stored in canonical ascending order."""

    columns: tuple[ColumnIndex, ...]
    n: int

    def __post_init__(self):
        cols = tuple(sorted(self.columns, key=ColumnIndex.sort_key))
        object.__setattr__(self, "columns", cols)
        for c in cols:
            if c.n != self.n:
                raise ValueError(f"column {c!r} has rank {c.n}, expected {self.n}")
        if not is_chain(cols):
            raise ValueError(f"{self} holds some I_i with K_(i-1): not a chain")

    def tokens(self) -> list[str]:
        return [c.token() for c in self.columns]

    def degree(self) -> int:
        return len(self.columns)

    def __str__(self):
        return "[" + ",".join(self.tokens()) + "]"

    def __repr__(self):
        return f"StandardMonomial({self}, n={self.n})"


@dataclass(frozen=True)
class Tableau:
    """Left-justified rows of positive integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows",
                           tuple(tuple(row) for row in self.rows if len(row)))

    def row_lengths(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def is_semistandard(self) -> bool:
        lengths = self.row_lengths()
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
            return False
        for row in self.rows:
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                return False
        for c in range(part(lengths, 1)):
            col = [row[c] for row in self.rows if len(row) > c]
            if any(col[r] >= col[r + 1] for r in range(len(col) - 1)):
                return False
        return True

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def is_chain(cols) -> bool:
    """Whether the column indices are pairwise comparable, that is, whether
    no I_i occurs together with K_{i-1}: those are the only incomparable pairs."""
    present = {(c.kind, c.idx) for c in cols}
    return not any(kind == "I" and ("K", i - 1) in present
                   for kind, i in present)


def assemble_rows(cols) -> tuple[tuple[int, ...], ...]:
    """Concatenate column sets, widest first, into tableau rows."""
    ordered = sorted(cols, key=lambda c: (-c.size(),) + c.sort_key())
    sets = [c.column_set() for c in ordered]
    depth = max((len(s) for s in sets), default=0)
    return tuple(tuple(s[r] for s in sets if len(s) > r) for r in range(depth))


def to_tableau(m: StandardMonomial) -> Tableau:
    return Tableau(assemble_rows(m.columns))


def monomial_triple(cols) -> tuple[Diagram, Diagram, Diagram]:
    """(D, E, F) of any column multiset: the conjugates of its Birkhoff
    counts at n-1, n and n+1.  F is the tableau shape, E the shape left after
    erasing every entry n+1, and d_k counts the entries equal to k <= n-1."""
    ones = [c.ones_triple() for c in cols]
    if not ones:
        return (), (), ()
    f, e, d = (_conjugate(sorted(row)) for row in zip(*ones))
    return d, e, f


def _conjugate(counts) -> Diagram:
    """The diagram whose k-th row counts the entries >= k of a sorted list."""
    return tuple(len(counts) - bisect_left(counts, k)
                 for k in range(1, counts[-1] + 1))


def from_triple(d, e, f, n: int) -> StandardMonomial:
    """The unique chain whose tableau has shape f, middle diagram e and base d.

    Boxes of f/e are labeled n+1, boxes of e/d are labeled n, and the rest by
    their row coordinate, so column c has the Birkhoff encoding
    (f'_c, e'_c, d'_c).  Inverse to ``monomial_triple`` on chains.
    """
    d, e, f = normalize(d), normalize(e), normalize(f)
    diagrams.check_triple(d, e, f, n)
    dt, et, ft = transpose(d), transpose(e), transpose(f)
    cols = tuple(from_ones((part(ft, c), part(et, c), part(dt, c)), n)
                 for c in range(1, part(f, 1) + 1))
    return StandardMonomial(cols, n)


def enumerate_standard(d, f, n: int) -> list[StandardMonomial]:
    """All chains of shape f/d, ordered like their middle diagrams."""
    return [from_triple(d, e, f, n) for e in diagrams.enumerate_middle(d, f, n)]


def chain_order_type(m: StandardMonomial) -> tuple[str, ...]:
    """Position i reads GE if I_i occurs, LE if K_{i-1} occurs, EQ otherwise."""
    present = {(c.kind, c.idx) for c in m.columns}
    word = []
    for i in range(1, m.n):
        if ("I", i) in present:
            word.append(GE)
        elif ("K", i - 1) in present:
            word.append(LE)
        else:
            word.append(EQ)
    return tuple(word)


def natural_sl2_weight(m: StandardMonomial) -> int:
    """Diagonal torus weight: J columns count +1, J' columns count -1."""
    return (sum(1 for c in m.columns if c.kind == "J")
            - sum(1 for c in m.columns if c.kind == "Jp"))


def sample_chain(n: int) -> StandardMonomial:
    """A representative chain touching all four generator kinds."""
    cols = [ColumnIndex("J", n - 1, n), ColumnIndex("K", n - 2, n),
            ColumnIndex("Jp", n - 2, n)]
    kind = "J"
    for j in range(n - 3, -1, -1):
        cols.append(ColumnIndex(kind, j, n))
        kind = "Jp" if kind == "J" else "J"
    return StandardMonomial(tuple(cols), n)
