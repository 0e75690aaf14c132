"""Shared brute-force oracles, kept independent of the library internals."""

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product, zip_longest)
from operator import add, neg, sub

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sympbranch.diagrams import (EQ, GE, LE, enumerate_middle, middle_ranges,
                                 normalize, order_type_of, order_type_str, part,
                                 tl_weights, transpose)
from sympbranch.hibi import pattern_rows
from sympbranch.lattice import ColumnIndex, elements, from_ones, leq, parse_column
from sympbranch.monomials import build_chains, standard_monomial, tableau_of_triple
from sympbranch.straighten import FormalPolynomial, canonical_monomial

# Property tests keep no example database and have no deadline; each test
# sets its own max_examples.
settings.register_profile("sympbranch", deadline=None, database=None)
settings.load_profile("sympbranch")


def padded(seq, length):
    return [seq[i] if i < len(seq) else 0 for i in range(length)]


def interlace_oracle(lo, hi) -> bool:
    """Direct inequality scan: hi_i >= lo_i >= hi_{i+1}."""
    depth = max(len(lo), len(hi)) + 1
    lo, hi = padded(lo, depth), padded(hi, depth)
    if any(hi[i] < lo[i] for i in range(depth)):
        return False
    return all(lo[i] >= hi[i + 1] for i in range(depth - 1))


def weakly_decreasing_tuples(bound, length):
    """Every weakly decreasing tuple of the given length with entries <= bound."""
    if length == 0:
        return [()]
    out = []
    stack = [(h,) for h in range(bound, -1, -1)]
    while stack:
        t = stack.pop()
        if len(t) == length:
            out.append(t)
        else:
            stack.extend(t + (h,) for h in range(t[-1], -1, -1))
    return sorted(out)


def brute_middles(d, f, n):
    """Exhaustive middle-diagram search bounded by the top row of f."""
    bound = f[0] if f else 0
    return [e for e in weakly_decreasing_tuples(bound, n)
            if interlace_oracle(d, e) and interlace_oracle(e, f)]


def all_diagrams(max_part, max_len):
    return [t for length in range(max_len + 1)
            for t in weakly_decreasing_tuples(max_part, length)
            if not t or t[-1] > 0]


def multiplicity_nonzero(d, f) -> bool:
    """The two-row gap condition f_j >= d_j >= f_{j+2} (f beyond length is 0)."""
    d, f = normalize(d), normalize(f)
    top = max(len(d), len(f))
    return all(part(f, j) >= part(d, j) >= part(f, j + 2)
               for j in range(1, top + 1))


@st.composite
def diagram_pairs(draw, max_n, max_part):
    """(d, f, n) with 2 <= n <= max_n and parts <= max_part; half the draws
    have any d, mostly of multiplicity 0, and half satisfy the gap condition."""
    n = draw(st.integers(2, max_n))
    f = normalize(sorted(draw(st.lists(st.integers(0, max_part), max_size=n)),
                         reverse=True))
    if draw(st.booleans()):
        d = sorted(draw(st.lists(st.integers(0, max_part), max_size=n - 1)),
                   reverse=True)
    else:  # f_i >= d_i >= f_{i+2}: the multiplicity is positive
        d = []
        for i in range(1, n):
            hi = min(part(f, i), d[-1]) if d else part(f, i)
            d.append(draw(st.integers(part(f, i + 2), hi)))
    return normalize(d), f, n


def sorted_margin(d, f, n):
    """d padded with d_n := 0 plus f padded to n parts, non-increasing:
    x_1 >= y_1 >= x_2 >= ... >= y_n."""
    values = [part(d, i) for i in range(1, n + 1)]
    values += [part(f, i) for i in range(1, n + 1)]
    return sorted(values, reverse=True)


def margin_tensor_factors(d, f, n):
    """Gaps r_i = x_i - y_i of the sorted margin (Wallach-Yacobi)."""
    ms = sorted_margin(normalize(d), normalize(f), n)
    return tuple(ms[2 * i] - ms[2 * i + 1] for i in range(n))


def margin_tl_weight(d, e, f, n):
    """Torus exponent vector (2 e_i - x_i - y_i) read off the sorted margin."""
    ms = sorted_margin(normalize(d), normalize(f), n)
    return tuple(2 * part(e, i + 1) - ms[2 * i] - ms[2 * i + 1] for i in range(n))


def tokens(mono):
    """The column tokens of a monomial, as the CLI prints them."""
    return [c.token() for c in mono]


def natural_sl2_weight(m):
    """Diagonal torus weight of a chain: J columns count +1, J' columns -1."""
    return (sum(1 for c in m if c.kind == "J")
            - sum(1 for c in m if c.kind == "Jp"))


def display_key(mono):
    """Display order of a polynomial's terms, from the column sets: the
    filtration weight (entries read as base-(2n+1) digits, top row first,
    summed over the columns), then the degree, then the columns in
    descending Birkhoff triples (entry counts at n+1, n and n-1)."""
    if not mono:
        return (0, 0, ())
    n = mono[0].n
    sets = [c.column_set() for c in mono]
    weight = sum(e * (2 * n + 1) ** (n - r)
                 for s in sets for r, e in enumerate(s, start=1))
    triples = tuple(tuple(-sum(e <= t for e in s) for t in (n + 1, n, n - 1))
                    for s in sets)
    return (weight, len(mono), triples)


def chain_order_type(m, n):
    """Position i reads GE if I_i occurs, LE if K_{i-1} occurs, EQ otherwise."""
    present = {(c.kind, c.idx) for c in m}
    word = []
    for i in range(1, n):
        if ("I", i) in present:
            word.append(GE)
        elif ("K", i - 1) in present:
            word.append(LE)
        else:
            word.append(EQ)
    return tuple(word)


def standard_oracle(d, f, n):
    """The chains of shape f/d rebuilt column by column for every middle
    diagram e: column c is the element with Birkhoff encoding
    (f'_c, e'_c, d'_c)."""
    d, f = normalize(d), normalize(f)
    dt, ft = transpose(d), transpose(f)
    chains = []
    for e in enumerate_middle(d, f, n):
        et = transpose(e)
        cols = tuple(from_ones((part(ft, c), part(et, c), part(dt, c)), n)
                     for c in range(1, part(f, 1) + 1))
        chains.append(standard_monomial(cols))
    return chains


def is_order_preserving(top, mid, bot):
    """Whether the pattern with rows of lengths (n, n, n-1) decreases along
    every cover of Gamma: top_j >= mid_j >= top_{j+1}, mid_j >= bot_j >=
    mid_{j+1}."""
    n = len(top)
    return (all(top[j] >= mid[j] for j in range(n))
            and all(mid[j] >= top[j + 1] for j in range(n - 1))
            and all(mid[j] >= bot[j] >= mid[j + 1] for j in range(n - 1)))


def count_patterns(d, f, n):
    """Order-preserving patterns with top row f and bottom row d, found by
    trying every weakly decreasing middle row."""
    d, f = normalize(d), normalize(f)
    top = tuple(part(f, i) for i in range(1, n + 1))
    bot = tuple(part(d, i) for i in range(1, n))
    return sum(is_order_preserving(top, mid, bot)
               for mid in weakly_decreasing_tuples(part(f, 1), n))


def oracle_payload(command, d, f, n):
    """The payload of ``basis`` or ``degenerate --json`` for a normalized pair,
    built as an object tree: each entry a dict of the library's chain tokens,
    tableau rows, torus weights or pattern rows."""
    middles = enumerate_middle(d, f, n)
    chains = build_chains(d, f, n, middles)
    payload = {"schema": "1", "command": command, "n": n, "D": d, "F": f,
               "count": len(middles)}
    if command == "basis":
        word = order_type_str(order_type_of(d, f, n))
        weights = tl_weights(middle_ranges(d, f, n), middles)
        payload["monomials"] = [
            {"monomial": tokens(m), "E": e, "order_type": word, "tl_weight": w,
             "tableau": tableau_of_triple(d, e, f, n)}
            for m, e, w in zip(chains, middles, weights)]
        return payload
    payload["margin_count"] = len(middles)
    payload["patterns"] = [dict(zip(("monomial", "top", "mid", "bot"),
                                    (tokens(m), *pattern_rows(d, e, f, n))))
                           for m, e in zip(chains, middles)]
    return payload


def add_rows(*patterns):
    """Componentwise sum of triples or patterns, rows padded with zeros."""
    return tuple(tuple(map(sum, zip_longest(*rows, fillvalue=0)))
                 for rows in zip(*patterns))


class ExactMatrix:
    """Dense square matrix of Fractions: the oracle that points are read
    against."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(map(Fraction, row)) for row in rows)
        if any(len(row) != len(self.rows) for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def size(self):
        return len(self.rows)

    def __matmul__(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix([[sum(a * b for a, b in zip(row, col))
                             for col in cols] for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"ExactMatrix({self.size}x{self.size})"


def point_matrix(num, q):
    """The dense matrix of a point: entry (r, j) is num[r][j] / q[j]."""
    return ExactMatrix([[Fraction(x, d) for x, d in zip(row, q)] for row in num])


def matrix_point(M):
    """A point of the dense matrix M, over the lcm of each column's
    denominators."""
    q = [math.lcm(*(x.denominator for x in col)) for col in zip(*M.rows)]
    return ([[x.numerator * (d // x.denominator) for x, d in zip(row, q)]
             for row in M.rows], q)


def unit_plus(size, entries):
    """Dense factor: the identity plus c at (i, j), 1-based, for each (i, j, c)
    entry; coinciding entries add up."""
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for i, j, c in entries:
        rows[i - 1][j - 1] += c
    return ExactMatrix(rows)


def dense_diagonal(entries):
    return ExactMatrix([[Fraction(e) if i == j else Fraction(0)
                         for j in range(len(entries))]
                        for i, e in enumerate(entries)])


def leibniz_det(rows):
    """Determinant as the sum over permutations p of sign(p) * prod a_{i,p(i)},
    the sign read off the inversion count."""
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def comparable(a, b):
    return leq(a, b) or leq(b, a)


def incomparable_pair_count(mono):
    """Unordered incomparable factor pairs, with multiplicity."""
    return sum(not comparable(a, b) for a, b in combinations(mono, 2))


def assemble_rows(cols):
    """Tableau rows built from the column sets: sort the columns widest
    first, then row r is the r-th entry of every column that has one."""
    ordered = sorted(cols, key=lambda c: (-c.size(),) + c.sort_key())
    sets = [c.column_set() for c in ordered]
    depth = max((len(s) for s in sets), default=0)
    return tuple(tuple(s[r] for s in sets if len(s) > r) for r in range(depth))


def triple_oracle(cols, n):
    """(D, E, F) of a column multiset read off its entries and its tableau:
    F transposes the column sizes, E has the tableau's row lengths after
    erasing every entry n+1, and d_k counts the entries equal to k <= n-1."""
    cols = list(cols)
    f = transpose(tuple(sorted((c.size() for c in cols), reverse=True)))
    counts = Counter(e for c in cols for e in c.column_set() if e <= n - 1)
    d = normalize(tuple(counts[k] for k in range(1, max(counts, default=0) + 1)))
    e = normalize(tuple(sum(1 for v in row if v != n + 1)
                        for row in assemble_rows(cols)))
    return d, e, f


@dataclass(frozen=True)
class GammaCell:
    """A cell t_pos^(level) of the three-level interlacing poset Gamma."""

    level: int
    pos: int


def gamma_cells(n):
    """The 3n-1 cells at rank n: levels n+1, n, n-1 with min(level, n) slots."""
    return [GammaCell(level, j)
            for level in (n + 1, n, n - 1)
            for j in range(1, min(level, n) + 1)]


def birkhoff_complement(c):
    """Cells where the characteristic function of c equals one: row k holds
    the first m(k) cells, m(k) = #{entries of c <= k}."""
    n, entries = c.n, c.column_set()
    return frozenset(GammaCell(level, j)
                     for level in (n + 1, n, n - 1)
                     for j in range(1, sum(e <= level for e in entries) + 1))


def chi(c):
    """The characteristic pattern of c as rows (top, mid, bot): one on its
    Birkhoff cells, zero elsewhere."""
    cells, n = birkhoff_complement(c), c.n
    return tuple(tuple(int(GammaCell(level, j) in cells)
                       for j in range(1, min(level, n) + 1))
                 for level in (n + 1, n, n - 1))


def _incomparable_indices(mono):
    counts = Counter((c.kind, c.idx) for c in mono)
    return [i for i in range(1, mono[0].n if mono else 0)
            if counts[("I", i)] and counts[("K", i - 1)]]


def _remove_one(mono, kind, idx):
    out = list(mono)
    for pos, c in enumerate(out):
        if c.kind == kind and c.idx == idx:
            del out[pos]
            return out
    raise ValueError(f"{kind}{idx} not present")


def rewrite_straighten(p, rng=None):
    """Apply I_i * K_{i-1} -> J'_i * J_{i-1} - J_i * J'_{i-1} one pair at a
    time, depth first, at the smallest index or at one drawn from rng."""
    out = {}
    stack = list(p.terms.items())
    while stack:
        mono, coeff = stack.pop()
        hits = _incomparable_indices(mono)
        if not hits:
            out[mono] = out.get(mono, Fraction(0)) + coeff
            continue
        i = hits[0] if rng is None else rng.choice(hits)
        n = mono[0].n
        rest = _remove_one(_remove_one(mono, "I", i), "K", i - 1)
        meet_pair = [ColumnIndex("Jp", i, n), ColumnIndex("J", i - 1, n)]
        skew_pair = [ColumnIndex("J", i, n), ColumnIndex("Jp", i - 1, n)]
        stack.append((canonical_monomial(rest + meet_pair), coeff))
        stack.append((canonical_monomial(rest + skew_pair), -coeff))
    return FormalPolynomial(out)


def covering_pairs(n):
    """Hasse covers as (lower, upper), independent of the Birkhoff encoding."""
    pairs = [(ColumnIndex("J", j, n), ColumnIndex("Jp", j, n)) for j in range(n)]
    for i in range(1, n):
        jp_i = ColumnIndex("Jp", i, n)
        j_below = ColumnIndex("J", i - 1, n)
        for mid in (ColumnIndex("I", i, n), ColumnIndex("K", i - 1, n)):
            pairs.append((jp_i, mid))
            pairs.append((mid, j_below))
    return pairs


def chains_up_to(n, max_cols):
    """Every multichain with at most max_cols columns at rank n."""
    cols = elements(n)
    out = [()]
    for k in range(1, max_cols + 1):
        for combo in combinations_with_replacement(cols, k):
            if incomparable_pair_count(combo) == 0:
                out.append(standard_monomial(combo))
    return out


def column_from_set(entries, n):
    """Classify a subset of {1, ..., n+1} as a lattice element: a prefix
    {1, ..., i} of entries <= n-1, plus the flags n and n+1."""
    s = sorted(entries)
    if len(set(s)) != len(s):
        raise ValueError(f"repeated entries in column set {s}")
    if s and not 1 <= s[0] <= s[-1] <= n + 1:
        raise ValueError(f"entries of {s} outside 1..{n + 1}")
    prefix = [e for e in s if e <= n - 1]
    if prefix != list(range(1, len(prefix) + 1)):
        raise ValueError(f"{s} is not of the form prefix + {{n, n+1}} flags")
    kind = {(False, False): "I", (True, False): "J",
            (False, True): "Jp", (True, True): "K"}[(n in s, n + 1 in s)]
    return ColumnIndex(kind, len(prefix), n)


def is_semistandard(rows):
    """Rows weakly increase, columns strictly increase, lengths weakly decrease."""
    lengths = [len(row) for row in rows]
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        return False
    if any(a > b for row in rows for a, b in zip(row, row[1:])):
        return False
    return all(upper[c] < lower[c] for upper, lower in zip(rows, rows[1:])
               for c in range(len(lower)))


def satisfies(word, sigma):
    """Whether a generalized order type satisfies a strict one (= fits both)."""
    return all(w == EQ or w == s for w, s in zip(word, sigma, strict=True))


def parse_order_type(text):
    """Inverse of ``diagrams.order_type_str``."""
    word, pos = [], 0
    while pos < len(text):
        sym = next((s for s in (GE, LE, EQ) if text.startswith(s, pos)), None)
        if sym is None:
            raise ValueError(f"cannot parse order type {text!r} at offset {pos}")
        word.append(sym)
        pos += len(sym)
    return tuple(word)


def identity(size):
    return ExactMatrix([[int(i == j) for j in range(size)] for i in range(size)])


def delta(c, X):
    """The minor of X on its top rows and the columns of c, by Leibniz."""
    cset = c.column_set()
    return leibniz_det([[X.rows[i][j - 1] for j in cset]
                        for i in range(len(cset))])


def eval_poly(p, X):
    """The value of a polynomial at X, one Leibniz minor per column."""
    values = {}
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for c in mono:
            if c not in values:
                values[c] = delta(c, X)
            term *= values[c]
        total += term
    return total


def eval_monomial(cols, X):
    return eval_poly(FormalPolynomial.monomial(cols), X)


def symplectic_form(n):
    """The block form [[0, Q], [-Q, 0]], Q the n x n antidiagonal of ones."""
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    for a in range(n):
        rows[a][size - 1 - a] = 1
        rows[n + a][n - 1 - a] = -1
    return ExactMatrix(rows)


def is_symplectic(X):
    """X^T J X == J for the block form J."""
    if X.size % 2:
        raise ValueError("symplectic matrices have even size")
    form = symplectic_form(X.size // 2)
    return ExactMatrix(list(zip(*X.rows))) @ form @ X == form


def poly_from_json(data, n):
    """Inverse of ``straighten.poly_to_json``."""
    return FormalPolynomial([
        (tuple(parse_column(t, n) for t in item["monomial"]),
         Fraction(item["coeff"]))
        for item in data])


# --- Weyl characters of Sp(2n), knowing nothing of interlacing ---------------
#
# A character is a Laurent polynomial in x_1..x_n, a dict from exponent
# vectors to integer coefficients.  The Weyl group of type C_n is the signed
# permutations, and rho = (n, ..., 1).

def _signed_permutations(n):
    """(w, sign) for each signed permutation, w(v)_i = eps_i v_{p(i)}."""
    for perm in permutations(range(n)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        for eps in product((1, -1), repeat=n):
            sign = (-1) ** inversions
            for e in eps:
                sign *= e
            yield perm, eps, sign


def _alternant(mu):
    """A_mu = sum over the Weyl group of sign(w) x^(w mu)."""
    return {tuple(e * mu[p] for p, e in zip(perm, eps)): sign
            for perm, eps, sign in _signed_permutations(len(mu))}


def _divide(p, divisor):
    """The exact quotient of Laurent polynomials, by lexicographic long
    division; raises if the division leaves a remainder."""
    p, q = dict(p), {}
    lead = max(divisor)
    bound = max((abs(x) for e in p for x in e), default=0)
    heap = [tuple(map(neg, e)) for e in p]  # lexicographically largest first
    heapq.heapify(heap)
    while p:
        top = tuple(map(neg, heapq.heappop(heap)))
        if top not in p:
            continue
        shift = tuple(map(sub, top, lead))
        coeff, rem = divmod(p[top], divisor[lead])
        if rem or any(abs(x) > bound for x in shift):
            raise ArithmeticError("the division is not exact")
        q[shift] = coeff
        for e, v in divisor.items():
            key = tuple(map(add, shift, e))
            value = p.get(key, 0) - coeff * v
            if not value:
                p.pop(key, None)
                continue
            if key not in p:
                heapq.heappush(heap, tuple(map(neg, key)))
            p[key] = value
    return q


def weyl_character(lam, n):
    """ch V_lam of Sp(2n) as A_(lam+rho) / A_rho.  The denominator is the
    product of x_i - 1/x_i over i and of (x_i + 1/x_i) - (x_j + 1/x_j) over
    i < j, so the division goes one factor of two or four terms at a time."""
    lam = tuple(part(lam, i) for i in range(1, n + 1))
    ch = _alternant(tuple(a + n - i for i, a in enumerate(lam)))
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    for i in range(n):
        up, down = unit[i], tuple(-x for x in unit[i])
        ch = _divide(ch, {up: 1, down: -1})
        for j in range(i + 1, n):
            ch = _divide(ch, {up: 1, down: 1, unit[j]: -1,
                              tuple(-x for x in unit[j]): -1})
    return ch


def branching_oracle(f, n):
    """V_f of Sp(2n) restricted to Sp(2n-2) x T, T the torus of the Sp(2)
    on coordinate n: {D: {k: multiplicity of V_D with T weight k}}.

    Multiplying the restricted character by the Sp(2n-2) alternant A_rho'
    gives sum_D m_D(x_n) A_(D+rho'); each A_(D+rho') has one strictly
    dominant exponent, D + rho', where its coefficient is one."""
    m = n - 1
    rho = tuple(range(m, 0, -1))
    moved = [(tuple(e * rho[p] for p, e in zip(perm, eps)), sign)
             for perm, eps, sign in _signed_permutations(m)]
    acc = Counter()
    for e, c in weyl_character(f, n).items():
        for w, sign in moved:
            acc[tuple(map(add, e, w)), e[m]] += sign * c
    out = {}
    for (key, k), c in acc.items():
        if c and all(a > b for a, b in zip(key, key[1:] + (0,))):
            d = normalize(tuple(a - r for a, r in zip(key, rho)))
            out.setdefault(d, {})[k] = c
    return out


@pytest.fixture(scope="session")
def chains_by_rank():
    return {n: chains_up_to(n, 3) for n in (2, 3, 4)}
