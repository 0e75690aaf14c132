"""The distributive lattice of minor column sets for the rank (n, n-1) pair.

Elements come in four families, all subsets of {1, ..., n+1}:

    I_i  = {1, ..., i}              1 <= i <= n-1
    J_j  = {1, ..., j, n}           0 <= j <= n-1
    J'_j = {1, ..., j, n+1}         0 <= j <= n-1
    K_k  = {1, ..., k, n, n+1}      0 <= k <= n-2

The partial order is the transitive closure of the covering chain

    J_i < J'_i < {I_i, K_{i-1}} < J_{i-1} < J'_{i-1}     (1 <= i <= n-1)

and (I_i, K_{i-1}) are the only incomparable pairs.  Comparisons, meets and
joins are computed through the Birkhoff embedding: an element maps to the
triple of its entry counts at the thresholds n+1, n, n-1, and a <= b holds
exactly when a's triple dominates b's componentwise.  The covering chain is
a test oracle (``covering_pairs`` in ``tests/conftest.py``) for that encoding.

A multiset of elements is a chain exactly when it holds no I_i together with
K_{i-1}, the pair of ``straighten.quadratic_relation``; the tests check this by
a scan of all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

KINDS = ("I", "J", "Jp", "K")

# kind -> (contains n, contains n+1); the prefix {1..idx} is common to all.
_HAS_N = {"I": False, "J": True, "Jp": False, "K": True}
_HAS_N1 = {"I": False, "J": False, "Jp": True, "K": True}

# kind -> inclusive idx range as (low, offset from n for high)
_IDX_RANGE = {"I": (1, -1), "J": (0, -1), "Jp": (0, -1), "K": (0, -2)}

_LABEL = {"I": "I", "J": "J", "Jp": "J'", "K": "K"}
_KIND_BY_FLAGS = {(False, False): "I", (True, False): "J",
                  (False, True): "Jp", (True, True): "K"}


@dataclass(frozen=True)
class ColumnIndex:
    """One of the column sets I_i, J_j, J'_j, K_k at rank n."""

    kind: str
    idx: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank must be at least 2, got {self.n}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        lo, hi = _IDX_RANGE[self.kind]
        if not lo <= self.idx <= self.n + hi:
            raise ValueError(
                f"{_LABEL[self.kind]}{self.idx} is out of range at rank {self.n}")

    def column_set(self) -> tuple[int, ...]:
        """The underlying strictly increasing subset of {1, ..., n+1}."""
        entries = list(range(1, self.idx + 1))
        if _HAS_N[self.kind]:
            entries.append(self.n)
        if _HAS_N1[self.kind]:
            entries.append(self.n + 1)
        return tuple(entries)

    def size(self) -> int:
        return self.idx + _HAS_N[self.kind] + _HAS_N1[self.kind]

    def ones_triple(self) -> tuple[int, int, int]:
        """Entry counts at thresholds (n+1, n, n-1): the Birkhoff encoding."""
        j = self.idx
        return (j + _HAS_N[self.kind] + _HAS_N1[self.kind],
                j + _HAS_N[self.kind], j)

    def sort_key(self) -> tuple[int, int, int]:
        # Descending Birkhoff triples give an ascending linear extension of
        # the partial order, with K before I inside each diamond.
        m1, m2, m3 = self.ones_triple()
        return (-m1, -m2, -m3)

    def token(self) -> str:
        return f"{_LABEL[self.kind]}{self.idx}"

    def __str__(self):
        return self.token()

    def __repr__(self):
        return f"ColumnIndex({self.token()!r}, n={self.n})"


def parse_column(text: str, n: int) -> ColumnIndex:
    """Parse a token like "I3", "J0", "J'2" or "K1"."""
    text = text.strip()
    for kind in ("Jp", "K", "I", "J"):
        label = _LABEL[kind]
        if text.startswith(label) and text[len(label):].lstrip("-").isdigit():
            return ColumnIndex(kind, int(text[len(label):]), n)
    raise ValueError(f"cannot parse column token {text!r}")


def _check_same_rank(a: ColumnIndex, b: ColumnIndex):
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a!r} vs {b!r}")


def leq(a: ColumnIndex, b: ColumnIndex) -> bool:
    """Whether a precedes b (or a == b) in the lattice order."""
    _check_same_rank(a, b)
    return all(x >= y for x, y in zip(a.ones_triple(), b.ones_triple()))


def from_ones(triple, n: int) -> ColumnIndex:
    """The element whose Birkhoff encoding ``ones_triple`` is the triple."""
    m1, m2, m3 = triple
    kind = _KIND_BY_FLAGS[(m2 - m3 == 1, m1 - m2 == 1)]
    return ColumnIndex(kind, m3, n)


def meet(a: ColumnIndex, b: ColumnIndex) -> ColumnIndex:
    _check_same_rank(a, b)
    triple = tuple(max(x, y) for x, y in zip(a.ones_triple(), b.ones_triple()))
    return from_ones(triple, a.n)


def join(a: ColumnIndex, b: ColumnIndex) -> ColumnIndex:
    _check_same_rank(a, b)
    triple = tuple(min(x, y) for x, y in zip(a.ones_triple(), b.ones_triple()))
    return from_ones(triple, a.n)


@cache
def elements(n: int) -> tuple[ColumnIndex, ...]:
    """All 4n-2 lattice elements at rank n, bottom (J_{n-1}) to top (J'_0)."""
    cols = [ColumnIndex("I", i, n) for i in range(1, n)]
    cols += [ColumnIndex("J", j, n) for j in range(n)]
    cols += [ColumnIndex("Jp", j, n) for j in range(n)]
    cols += [ColumnIndex("K", k, n) for k in range(n - 1)]
    return tuple(sorted(cols, key=ColumnIndex.sort_key))
