"""Standard monomials: multichains in the lattice and their tableau avatars.
A standard monomial is a ``straighten.Monomial`` with no incomparable pair;
``standard_monomial`` is its one validator.  A chain of shape F/D is
rest(D, F), its I and K columns, times J_{i-1}^(e_i - lo_i)
J'_{i-1}^(hi_i - e_i) over the middle ranges.  Its tableau is the
Gelfand-Tsetlin pattern (F, E, D) read row by row: row k holds d_k entries
k, then e_k - d_k entries n, then f_k - e_k entries n+1 (d_n = 0, so row n
holds only n and n+1).  ``chain_factors`` computes those runs once per pair,
already in ``ColumnIndex.sort_key`` order: ``build_chains`` expands them into
chains with no sort and no check, the CLI into text."""

from __future__ import annotations

from bisect import bisect_left
from itertools import count

from sympbranch import diagrams
from sympbranch.diagrams import Diagram, transpose
from sympbranch.lattice import ColumnIndex
from sympbranch.straighten import (Monomial, _monomial_str, _split_pairs,
                                   canonical_monomial)


def is_chain(cols) -> bool:
    """Whether the column indices are pairwise comparable, that is, whether
    they hold no incomparable pair of ``straighten.quadratic_relation``."""
    return not _split_pairs(cols)[1]


def standard_monomial(cols) -> Monomial:
    """The columns as a standard monomial: ``canonical_monomial``'s sort and
    rank check, then the chain check."""
    cols = canonical_monomial(cols)
    if not is_chain(cols):
        raise ValueError(f"{_monomial_str(cols)} holds some I_i with K_(i-1): "
                         "not a chain")
    return cols


def tableau_of_triple(d: Diagram, e: Diagram, f: Diagram,
                      n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the tableau of the chain with base d, middle diagram e and
    shape f: one nonempty row per part of f."""
    pad = (0,) * len(f)
    return tuple((k,) * dk + (n,) * (ek - dk) + (n + 1,) * (fk - ek)
                 for k, fk, ek, dk in zip(count(1), f, e + pad, d + pad))


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


def chain_factors(d, f, n: int) -> list[tuple]:
    """Runs (i, lo, hi, J_i, J'_i, rest_i), i = n-1..0, [] at multiplicity 0: the
    chain of middle e holds e[i] - lo J_i, hi - e[i] J'_i, then rest_i, its I_i and
    K_{i-1}: I_{d'_c} if f'_c = d'_c, K_{d'_c} if f'_c = d'_c + 2 (' conjugates)."""
    ranges = diagrams.middle_ranges(d, f, n)
    if not all(ranges):
        return []
    ft = transpose(f)
    dt = transpose(d) + (0,) * len(ft)
    rest = [[] for _ in range(n)]
    for fc, dc in zip(ft, dt):
        if fc == dc:
            rest[dc].append(ColumnIndex("I", dc, n))
        elif fc == dc + 2:
            rest[dc + 1].append(ColumnIndex("K", dc, n))
    return [(i, r.start, r.stop - 1, ColumnIndex("J", i, n),
             ColumnIndex("Jp", i, n), rest[i])
            for i, r in reversed(list(enumerate(ranges)))]


def build_chains(d, f, n: int, middles) -> list[Monomial]:
    """Chains of shape f/d for these middles, [] at multiplicity 0, expanded
    from ``chain_factors``."""
    factors = chain_factors(d, f, n)
    if not factors:
        return []
    pad = (0,) * n
    out = []
    for e in middles:
        e = e + pad
        cols = []
        for i, lo, hi, j, jp, tail in factors:
            cols += [j] * (e[i] - lo) + [jp] * (hi - e[i]) + tail
        out.append(tuple(cols))
    return out


def sample_chain(n: int) -> Monomial:
    """A representative chain touching all four generator kinds."""
    cols = [ColumnIndex("J", n - 1, n), ColumnIndex("K", n - 2, n),
            ColumnIndex("Jp", n - 2, n)]
    kind = "J"
    for j in range(n - 3, -1, -1):
        cols.append(ColumnIndex(kind, j, n))
        kind = "Jp" if kind == "J" else "J"
    return standard_monomial(cols)
