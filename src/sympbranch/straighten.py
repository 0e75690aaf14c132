"""Formal polynomials on the minor generators and the straightening law.

A monomial is a multiset of column indices, held as a canonically sorted
tuple.  A polynomial keeps its terms in display order (filtration weight,
then degree, then columns), sorted once by its constructor.  The only
incomparable factor pairs are I_i * K_{i-1}, and the two-term rule sends each
to J'_i * J_{i-1} - J_i * J'_{i-1}; ``quadratic_relation`` is the one home of
these factors.  The J factors are comparable with every element, so with
m_i = min(#I_i, #K_{i-1}) a monomial straightens in closed form to its
leftover factors times prod_i (J'_i J_{i-1} - J_i J'_{i-1})^{m_i}.  The
one-term rule (``hibi_normal_form``) keeps only the meet-join product
J'_i * J_{i-1}: the associated graded multiplication of the degeneration.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, prod
from types import MappingProxyType

from sympbranch.lattice import ColumnIndex, parse_column

Monomial = tuple[ColumnIndex, ...]


def canonical_monomial(cols) -> Monomial:
    cols = tuple(sorted(cols, key=ColumnIndex.sort_key))
    ranks = {c.n for c in cols}
    if len(ranks) > 1:
        raise ValueError(f"mixed ranks {sorted(ranks)} in one monomial")
    return cols


@cache
def quadratic_relation(i: int, n: int) -> tuple[Monomial, Monomial, Monomial]:
    """The relation I_i K_{i-1} = J'_i J_{i-1} - J_i J'_{i-1}, 1 <= i <= n-1,
    as (incomparable pair, meet-join term, skew term)."""
    return ((ColumnIndex("I", i, n), ColumnIndex("K", i - 1, n)),
            (ColumnIndex("Jp", i, n), ColumnIndex("J", i - 1, n)),
            (ColumnIndex("J", i, n), ColumnIndex("Jp", i - 1, n)))


def _split_pairs(mono) -> tuple[Monomial, list[tuple[tuple, int]]]:
    """Leftover factors, and the relation of each incomparable pair present
    with its count m_i = min(#I_i, #K_{i-1})."""
    counts, pairs = Counter(mono), []
    for c in list(counts):
        if c.kind == "I":
            relation = quadratic_relation(c.idx, c.n)
            if m := min(counts[x] for x in relation[0]):
                pairs.append((relation, m))
                counts.subtract(relation[0] * m)
    return tuple(counts.elements()), pairs


class FormalPolynomial:
    """Finite rational combination of monomials in the generators, its
    nonzero terms held in display order (``_term_sort_key``)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc: dict[Monomial, Fraction] = {}
        items = terms.items() if hasattr(terms, "items") else (terms or ())
        for mono, coeff in items:
            mono = canonical_monomial(mono)
            acc[mono] = acc.get(mono, Fraction(0)) + Fraction(coeff)
        terms = [(m, c) for m, c in acc.items() if c]
        if len(terms) > 1:  # one term is in order without its weight
            terms.sort(key=lambda kv: _term_sort_key(kv[0]))
        self._terms = dict(terms)

    @classmethod
    def monomial(cls, cols, coeff=1) -> "FormalPolynomial":
        return cls([(tuple(cols), coeff)])

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, FormalPolynomial) and self._terms == other._terms

    def __add__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        return FormalPolynomial([*self._terms.items(), *other._terms.items()])

    def __neg__(self):
        return FormalPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FormalPolynomial):
            return FormalPolynomial([(m1 + m2, c1 * c2)
                                     for m1, c1 in self._terms.items()
                                     for m2, c2 in other._terms.items()])
        return FormalPolynomial({m: c * Fraction(other)
                                 for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"FormalPolynomial({format_poly(self)})"


def straighten(p: FormalPolynomial) -> FormalPolynomial:
    """Rewrite every term to a combination of standard monomials.

    A term becomes its leftover factors times, over i, the binomial expansion
    sum_j C(m_i, j) (-1)^j (J'_i J_{i-1})^{m_i-j} (J_i J'_{i-1})^j.  Pairs at
    different indices share no factor and no rewrite makes a new pair, so
    this is what single rewrites reach in any order.
    """
    out = []
    for mono, coeff in p.terms.items():
        rest, pairs = _split_pairs(mono)
        terms = [(rest, coeff)]
        for (_, meet, skew), m in pairs:
            terms = [(cols + meet * (m - j) + skew * j,
                      c * comb(m, j) * (-1) ** j)
                     for cols, c in terms for j in range(m + 1)]
        out += terms
    return FormalPolynomial(out)


def expansion_size(p: FormalPolynomial) -> int:
    """How many terms ``straighten`` writes before collecting them: the sum
    over the terms of p of prod_i (m_i + 1)."""
    return sum(prod(m + 1 for _, m in _split_pairs(mono)[1]) for mono in p.terms)


def _hibi_monomial(mono: Monomial) -> Monomial:
    rest, pairs = _split_pairs(mono)
    for (_, meet, _), m in pairs:
        rest += meet * m
    return rest


def hibi_normal_form(p: FormalPolynomial) -> FormalPolynomial:
    """One-term rewrite I_i * K_{i-1} -> J'_i * J_{i-1}, coefficients kept."""
    return FormalPolynomial([(_hibi_monomial(mono), coeff)
                             for mono, coeff in p.terms.items()])


@cache
def column_weight(c: ColumnIndex, N: int) -> int:
    """Filtration weight: entries of the column set in base N, top row first."""
    if N <= 2 * c.n:
        raise ValueError(f"weight base N = {N} must exceed 2n = {2 * c.n}")
    entries = c.column_set()
    return sum(e * N ** (c.n - r) for r, e in enumerate(entries, start=1))


def lattice_weight(mono, N: int) -> int:
    """Sum of the factor weights; the empty monomial weighs zero."""
    return sum(column_weight(c, N) for c in mono)


def default_weight_base(n: int) -> int:
    return 2 * n + 1


# --- text and JSON forms ---------------------------------------------------

def _term_weight(mono: Monomial) -> int:
    """Filtration weight in the default base of the monomial's rank."""
    return lattice_weight(mono, default_weight_base(mono[0].n)) if mono else 0


def _term_sort_key(mono: Monomial):
    """Display order: filtration weight, then degree, then columns."""
    return (_term_weight(mono), len(mono), tuple(c.sort_key() for c in mono))


def _monomial_str(mono: Monomial) -> str:
    return "[" + ",".join(c.token() for c in mono) + "]"


def format_poly(p: FormalPolynomial) -> str:
    if not p:
        return "0"
    pieces = []
    for mono, coeff in p.terms.items():
        mag = abs(coeff)
        body = _monomial_str(mono) if mag == 1 else f"{mag}*{_monomial_str(mono)}"
        pieces += ["-" if coeff < 0 else "+", body]
    text = " ".join(pieces)  # "+ a - b ..." for "a - b ..."
    return text[2:] if pieces[0] == "+" else "-" + text[2:]


_COEFF_RE = re.compile(r"(\d+(?:\s*/\s*\d+)?)\s*\*?\s*")


def parse_poly(text: str, n: int) -> FormalPolynomial:
    """Parse forms like "[I1,K0]", "1*[I1,K0] - 2*[J1,J'0]", "3/2*[J0]"."""
    terms: list[tuple[list[ColumnIndex], Fraction]] = []
    pos, first = 0, True
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        sign = Fraction(1)
        if text[pos] in "+-":
            sign = Fraction(-1) if text[pos] == "-" else Fraction(1)
            pos += 1
        elif not first:
            raise ValueError(f"expected '+' or '-' at offset {pos} in {text!r}")
        while pos < len(text) and text[pos].isspace():
            pos += 1
        coeff = Fraction(1)
        m = _COEFF_RE.match(text, pos)
        if m:
            try:
                coeff = Fraction(m.group(1).replace(" ", ""))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator at offset {pos} in "
                                 f"{text!r}") from None
            pos = m.end()
        if pos >= len(text) or text[pos] != "[":
            raise ValueError(f"expected '[' at offset {pos} in {text!r}")
        close = text.find("]", pos)
        if close < 0:
            raise ValueError(f"unclosed '[' at offset {pos} in {text!r}")
        body = text[pos + 1:close].strip()
        cols = [parse_column(tok, n) for tok in body.split(",")] if body else []
        terms.append((cols, sign * coeff))
        pos = close + 1
        first = False
    if first:
        raise ValueError(f"no terms found in {text!r}")
    return FormalPolynomial(terms)


def poly_to_json(p: FormalPolynomial) -> list[dict]:
    return [{"coeff": f"{c.numerator}/{c.denominator}",
             "monomial": [col.token() for col in mono],
             "weight": _term_weight(mono)} for mono, c in p.terms.items()]
