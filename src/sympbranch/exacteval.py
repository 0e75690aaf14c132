"""Exact evaluation of the minor generators and randomized identity checks.

Everything here is exact arithmetic on small matrices.  Generators are
top-left minors, evaluated all together and never one at a time: the 4n-2
of them come from one fraction-free (Bareiss) sweep of the top n rows in
integers (``_minor_sweep``), with one elimination per minor when a leading
minor is zero; ``delta_table`` scales rational rows to integers first and
divides the scales back out.  Group elements act
without building their factors (so sampled ones are exactly symplectic): a
square-zero root exponential 1 + c E_ij adds c times column i to column j, and
a torus element scales columns, or rows and columns when it acts on both
sides.  Points are sampled in integers over one denominator per column, only
the rows that the caller reads (the certificate reads the top n), then
wrapped.  A check builds its moved point once per trial and compares one
generator table there with one at X.  ``verify relations`` checks the
relations that ``straighten`` applies: it reads each from
``straighten.quadratic_relation`` and multiplies its factors' values from one
generator table.  The independence certificate never wraps: its rows are
integer chain values from the sampled integer rows, one scale per weight
block and point, and a block is ranked modulo the prime 2^61 - 1, with an
exact rank of the same integer rows when that falls short (a rank modulo a
prime is never more than over Q, so a full one is a proof).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from sympbranch import diagrams
from sympbranch.lattice import ColumnIndex, elements
from sympbranch.monomials import (StandardMonomial, build_chains,
                                  monomial_triple, sample_chain)
from sympbranch.straighten import quadratic_relation

_ZERO, _ONE = Fraction(0), Fraction(1)


def _exact(x):
    """x if it is an int or a Fraction, else Fraction(x) (a slow type check)."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


class ExactMatrix:
    """Square matrix with rational entries, each an int or a Fraction."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(map(_exact, row)) for row in rows)
        if any(len(row) != len(self.rows) for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix([[sum(a * b for a, b in zip(row, col))
                             for col in cols] for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"ExactMatrix({self.size}x{self.size})"


def _identity_rows(size: int) -> list[list[int]]:
    return [[int(i == j) for j in range(size)] for i in range(size)]


def _bareiss(rows) -> tuple[int, int, int]:
    """Fraction-free elimination of the rows scaled to integers: (rank, last
    pivot signed by the row swaps, product of the row scales).  At full rank
    on a square input that pivot is the determinant of the integer rows."""
    work, scale = [], 1
    for row in rows:
        row = list(map(_exact, row))
        if work and len(row) != len(work[0]):
            raise ValueError("rows must have equal length")
        s = math.lcm(*(x.denominator for x in row)) if row else 1
        work.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    n_rows, n_cols = len(work), len(work[0]) if work else 0
    rank, prev, sign = 0, 1, 1
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if work[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        for r in range(rank + 1, n_rows):
            for j in range(c + 1, n_cols):
                num = work[r][j] * work[rank][c] - work[r][c] * work[rank][j]
                quot, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free step is not exact")
                work[r][j] = quot
        prev = work[rank][c]
        rank += 1
    return rank, sign * prev, scale


def det(rows) -> Fraction:
    """Determinant of a square matrix: the signed last Bareiss pivot over
    the product of the row scales, or 0 below full rank."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, pivot, scale = _bareiss(rows)
    return Fraction(pivot, scale) if rank == len(rows) else _ZERO


def exact_rank(rows) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    return _bareiss(rows)[0]


# --- generator evaluation ----------------------------------------------------

@functools.cache
def _generators(n: int) -> tuple[ColumnIndex, ...]:
    """``elements(n)``: the order of ``_minor_sweep``'s output."""
    return tuple(elements(n))


def _minor_sweep(rows, n: int) -> list[int]:
    """All 4n-2 generator minors of integer rows, in ``elements(n)`` order.

    One Bareiss sweep over columns 1..n-1 carries columns n and n+1 along.
    By Sylvester's identity, after k steps entry (i, j) is the minor on rows
    1..k, i and columns 1..k, j, so row k+1 holds I_{k+1}, J_k and J'_k, and
    K_k is the 2 x 2 minor of rows k+1, k+2 in columns n, n+1 divided by the
    k-th pivot I_k.  A zero pivot leaves one elimination per minor."""
    a = [list(row[:n + 1]) for row in rows[:n]]
    i_, k_, prev = [1], [], 1
    for k in range(n - 1):
        row, below = a[k], a[k + 1]
        k_.append((row[n - 1] * below[n] - row[n] * below[n - 1]) // prev)
        pivot = row[k]
        if not pivot:
            return _minors_one_by_one(rows, n)
        i_.append(pivot)
        for other in a[k + 1:]:
            lead = other[k]
            other[k + 1:] = [(x * pivot - lead * y) // prev
                             for x, y in zip(other[k + 1:], row[k + 1:])]
        prev = pivot
    out = []
    for k in range(n - 1, 0, -1):
        out += a[k][n - 1], a[k][n], k_[k - 1], i_[k]
    return out + a[0][n - 1:]


def _minors_one_by_one(rows, n: int) -> list[int]:
    """``_minor_sweep``'s output with one elimination per minor."""
    return [int(det([[row[j - 1] for j in c.column_set()]
                     for row in rows[:c.size()]])) for c in _generators(n)]


def delta_table(n: int, X: ExactMatrix) -> dict[ColumnIndex, Fraction]:
    """All generator values at one point from one ``_minor_sweep``: the top
    n rows are scaled to integers once, and a minor on the top k rows is
    divided by the product of their k scales."""
    if X.size != 2 * n:
        raise ValueError(f"matrix size {X.size} does not match rank {n}")
    top, scales = [], [1]
    for row in X.rows[:n]:
        row = row[:n + 1]
        s = math.lcm(*(x.denominator for x in row))
        top.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(scales[-1] * s)
    return {c: Fraction(v, scales[c.size()])
            for c, v in zip(_generators(n), _minor_sweep(top, n))}


# --- exact group elements ----------------------------------------------------

@dataclass(frozen=True)
class TorusElement:
    """Diagonal torus data: n entries for the big torus, n-1 for the small."""

    t: tuple[Fraction, ...]
    s: tuple[Fraction, ...]

    def __post_init__(self):
        t, s = tuple(map(Fraction, self.t)), tuple(map(Fraction, self.s))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)
        if len(t) < 2 or len(s) != len(t) - 1:
            raise ValueError("need n >= 2 torus entries and n-1 small ones")
        if any(v == 0 for v in t + s):
            raise ValueError("torus entries must be nonzero")

    @property
    def n(self) -> int:
        return len(self.t)


# A root exponential 1 + sum c E_ij is given by its two (i, j, c) entries,
# 1-based; when they coincide c counts twice.  No column j is also a column i.

def _diag_root(n: int, a: int, b: int, c: int):
    # exp of the square-zero element E_{ab} - E_{2n+1-b, 2n+1-a}, a != b
    return (a, b, c), (2 * n + 1 - b, 2 * n + 1 - a, -c)


def _upper_root(n: int, a: int, b: int, c: int):
    return (a, n + b, c), (n + 1 - b, 2 * n + 1 - a, c)


def _lower_root(n: int, a: int, b: int, c: int):
    return (n + a, b, c), (2 * n + 1 - b, n + 1 - a, c)


# A point being sampled is integer rows num over one denominator q_j per
# column, entry (r, j) = num[r][j] / q_j; each factor right-multiplies it in
# place, and _wrap reduces each entry once.

def _root_step(num, q, entries) -> None:
    """Column j += c * column i over L = lcm(q_i, q_j).  The columns written
    are never the columns read, so this is the exact product."""
    for i, j, c in entries:
        i, j = i - 1, j - 1
        common = math.lcm(q[i], q[j])
        a, b = common // q[j], c * (common // q[i])
        for row in num:
            row[j] = a * row[j] + b * row[i]
        q[j] = common


def _torus_step(num, q, values) -> None:
    """Scale by diag(v_1..v_n, 1/v_n..1/v_1): |v| goes into the denominators
    of the last n columns and its sign into their numerators."""
    n = len(values)
    scale = values + [1 if v > 0 else -1 for v in reversed(values)]
    for row in num:
        row[:] = [x * v for x, v in zip(row, scale)]
    q[n:] = [d * abs(v) for d, v in zip(q[n:], reversed(values))]


def _wrap(num, q) -> ExactMatrix:
    return ExactMatrix([[Fraction(x, d) for x, d in zip(row, q)] for row in num])


_UNITS = (1, 2, 3, -1, -2, -3)


def random_symplectic(n: int, seed: int, factors: int | None = None) -> ExactMatrix:
    """Seeded product of torus factors and root exponentials, each applied in
    place to the integer point of the identity and wrapped once.

    ``factors=0`` gives the identity; by default the factor count is drawn
    as 4 to 6 sweeps of n(n+1)/2 factors, enough mixing for the sampled
    points to certify rank statements.  Every output preserves the
    symplectic form exactly.
    """
    return _wrap(*_sample_symplectic(n, seed, 2 * n, factors))


def _sample_symplectic(n: int, seed: int, rows: int, factors: int | None = None):
    """The top ``rows`` rows of ``random_symplectic`` before wrapping: integer
    rows num and column denominators q, entry (r, j) = num[r][j] / q_j.  The
    factors only combine and scale columns, so fewer rows draw the same."""
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    rng = random.Random(seed)
    count = rng.randint(4, 6) * (n * (n + 1) // 2) if factors is None else factors
    num, q = _identity_rows(2 * n)[:rows], [1] * (2 * n)
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            _torus_step(num, q, [rng.choice(_UNITS) for _ in range(n)])
            continue
        c = rng.choice(_UNITS)
        if kind == 1:
            a, b = rng.sample(range(1, n + 1), 2)
            _root_step(num, q, _diag_root(n, a, b, c))
        else:
            a, b = rng.randint(1, n), rng.randint(1, n)
            _root_step(num, q, (_upper_root if kind == 2 else _lower_root)(n, a, b, c))
    return num, q


def embed_subgroup(M: ExactMatrix, n: int) -> ExactMatrix:
    """Embed a rank n-1 element via the block pattern [[A,0,B],[0,I,0],[C,0,D]]."""
    m = n - 1
    if M.size != 2 * m:
        raise ValueError(f"expected a {2 * m}x{2 * m} matrix")

    spread = [i if i < m else i + 2 for i in range(2 * m)]
    rows = _identity_rows(2 * n)
    for i, row in zip(spread, M.rows):
        for j, x in zip(spread, row):
            rows[i][j] = x
    return ExactMatrix(rows)


def random_unipotent(n: int, which: str, seed: int,
                     factors: int | None = None) -> ExactMatrix:
    """Unit-triangular symplectic element of a named subgroup.

    ``which`` is "lower" for the opposite maximal unipotent at rank n, or
    "upper_embedded" for the rank n-1 upper unipotent under the block
    embedding.  ``factors=0`` gives the identity.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    if which not in ("lower", "upper_embedded"):
        raise ValueError(f"unknown subgroup {which!r}")
    rng = random.Random(seed)
    count = rng.randint(2 * n, 4 * n) if factors is None else factors
    lower = which == "lower"
    m = n if lower else n - 1
    num, q = _identity_rows(2 * m), [1] * (2 * m)
    for _ in range(count):
        c = rng.randint(-3, 3)
        if m >= 2 and rng.randrange(2):
            a, b = sorted(rng.sample(range(1, m + 1), 2), reverse=lower)
            _root_step(num, q, _diag_root(m, a, b, c))
        else:
            a, b = rng.randint(1, m), rng.randint(1, m)
            _root_step(num, q, (_lower_root if lower else _upper_root)(m, a, b, c))
    out = _wrap(num, q)
    return out if lower else embed_subgroup(out, n)


def random_rational_matrix(n: int, seed: int) -> ExactMatrix:
    """Generic 2n x 2n matrix with small rational entries."""
    rng = random.Random(seed)
    return ExactMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(2 * n)] for _ in range(2 * n)])


def _unit_fractions(rng: random.Random, k: int) -> list[Fraction]:
    return [Fraction(rng.choice(_UNITS), rng.randint(1, 3)) for _ in range(k)]


def random_torus_element(n: int, seed: int) -> TorusElement:
    values = _unit_fractions(random.Random(seed), 2 * n - 1)
    return TorusElement(tuple(values[:n]), tuple(values[n:]))


# --- verification ------------------------------------------------------------

def verify_straightening_identity(X: ExactMatrix) -> bool:
    """Each ``straighten.quadratic_relation`` holds exactly at X: the pair's
    value is the meet-join term's minus the skew term's."""
    if X.size % 2 or X.size < 4:
        raise ValueError("expected a 2n x 2n matrix with n >= 2")
    n = X.size // 2
    table = delta_table(n, X)
    for i in range(1, n):
        pair, meet, skew = (table[a] * table[b] for a, b in quadratic_relation(i, n))
        if pair != meet - skew:
            return False
    return True


def _moved_misses(targets, X, moved, character) -> list[StandardMonomial]:
    """The chains among ``targets`` whose value at ``moved`` is not
    character(chain) times their value at X, from one table at each point."""
    n = X.size // 2
    before, after = delta_table(n, X), delta_table(n, moved)
    return [m for m in targets if math.prod(after[c] for c in m.columns)
            != character(m) * math.prod(before[c] for c in m.columns)]


def verify_invariance(monos, seed: int) -> list[StandardMonomial]:
    """The chains among ``monos`` (all of one rank n) whose values differ at
    u X v and at X, for one seeded point X of Sp(2n), u in its lower unipotent
    and v in the embedded upper unipotent of Sp(2n-2).  Invariance is usually
    stated for u^-1 X v; the lower unipotent group is closed under inversion,
    so u X v is as general a moved point.  An empty list certifies the
    sampled instance."""
    n = monos[0].n
    rng = random.Random(seed)
    u = random_unipotent(n, "lower", rng.getrandbits(64))
    v = random_unipotent(n, "upper_embedded", rng.getrandbits(64))
    X = random_symplectic(n, rng.getrandbits(64))
    return _moved_misses(monos, X, u @ X @ v, lambda m: 1)


def _scaled(X: ExactMatrix, left, right) -> ExactMatrix:
    """diag(left)^-1 @ X @ diag(right): entry (i, j) is X_ij * right_j / left_i."""
    return ExactMatrix([[x * r / lv for x, r in zip(row, right)]
                        for row, lv in zip(X.rows, left)])


def verify_torus_weight(monos, t: TorusElement,
                        X: ExactMatrix) -> list[StandardMonomial]:
    """The chains among ``monos`` that do not scale by their shape character
    under the two torus actions at X; an empty list certifies the instance."""
    if any(m.n != t.n for m in monos):
        raise ValueError(f"rank mismatch: torus rank {t.n}")

    def character(m):
        d, _, f = monomial_triple(m.columns)
        return (math.prod(tv ** -diagrams.part(f, i)
                          for i, tv in enumerate(t.t, start=1))
                * math.prod(sv ** diagrams.part(d, k)
                            for k, sv in enumerate(t.s, start=1)))

    moved = _scaled(X, t.t + tuple(1 / v for v in reversed(t.t)),
                    t.s + (_ONE, _ONE) + tuple(1 / v for v in reversed(t.s)))
    return _moved_misses(monos, X, moved, character)


def verify_generator_weight(tdiag, sdiag, X: ExactMatrix) -> list[ColumnIndex]:
    """The generators that are not weight vectors for the full diagonal
    actions at X: rows 1..r contribute inverse left entries, columns
    contribute right ones.  An empty list certifies the instance."""
    tdiag, sdiag = list(map(Fraction, tdiag)), list(map(Fraction, sdiag))
    if len(tdiag) != X.size or len(sdiag) != X.size:
        raise ValueError("diagonal length must match the matrix size")
    if any(v == 0 for v in tdiag + sdiag):
        raise ValueError("diagonal entries must be nonzero")

    def character(m):
        cset = m.columns[0].column_set()
        return (math.prod(sdiag[j - 1] for j in cset)
                / math.prod(tdiag[:len(cset)]))

    n = X.size // 2
    gens = [StandardMonomial((c,), n) for c in elements(n)]
    misses = _moved_misses(gens, X, _scaled(X, tdiag, sdiag), character)
    return [m.columns[0] for m in misses]


def _weight_blocks(d, f, n: int):
    """The standard monomials of shape f/d and their SL2 weight blocks: weight
    (the sum of ``diagrams.tl_weights``) -> positions of its chains."""
    middles = diagrams.enumerate_middle(d, f, n)
    monos = build_chains(d, f, n, middles)
    weights = diagrams.tl_weights(diagrams.middle_ranges(d, f, n), middles)
    blocks: dict[int, list[int]] = {}
    for k, w in enumerate(weights):
        blocks.setdefault(sum(w), []).append(k)
    return monos, blocks


_PRIME = 2 ** 61 - 1


def _rank_mod_p(rows) -> int:
    """Rank of integer rows modulo ``_PRIME``: never more than over Q."""
    p = _PRIME
    work = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        top = work[pivot]
        inv = pow(top[c], -1, p)
        top = [x * inv % p for x in top]
        work[pivot], work[rank] = work[rank], top
        for r in range(rank + 1, len(work)):
            lead = work[r][c]
            if lead:
                work[r] = [(x - lead * y) % p for x, y in zip(work[r], top)]
        rank += 1
    return rank


def _block_rank(rows) -> int:
    """Rank over Q of integer rows: modulo ``_PRIME``, or by ``exact_rank`` on
    the same rows when that falls short of full rank."""
    rank = _rank_mod_p(rows)
    return rank if rank == min(len(rows), len(rows[0])) else exact_rank(rows)


def independence_certificate(d, f, n: int, seed: int = 0, trials: int = 3) -> dict:
    """Certify that the standard monomials of shape f/d are independent on
    Sp(2n), one SL2 weight block at a time.

    tau_s = diag(1, .., 1, s, 1/s, 1, .., 1), s at coordinate n, is
    symplectic, and right translation by it scales each chain m by s^w(m),
    w = #J - #J' = the sum of its ``diagrams.tl_weights``.  So a relation
    sum a_m m = 0 on Sp(2n) gives, at each X tau_s, a Laurent polynomial in s
    that vanishes for all s != 0; by a Vandermonde argument each weight's part
    vanishes alone.  The monomials are independent exactly when each weight
    block is, and a block is when its values at sampled points have full
    column rank.

    A sampled point is integer rows num over column denominators q_j, so a
    generator is an integer minor of num over the product of the q_j of its
    columns, and a chain is an integer product over prod_j q_j^mu_j, mu_j
    its columns that hold j.  The mu_j of a chain are fixed by the pair and
    its weight, so a block's values are its integer values times one nonzero
    scale per point, and both have one rank: ``_block_rank`` of the integers.

    Each trial samples (largest block + 2) points and ranks each block not
    yet full.  ``rank`` sums the block ranks, ``blocks`` lists
    [weight, size, rank], and a failure's witness names the pair and each
    block that fell short.
    """
    d, f = diagrams.normalize(d), diagrams.normalize(f)
    monos, blocks = _weight_blocks(d, f, n)
    slot = {c: k for k, c in enumerate(_generators(n))}
    chains = [[slot[c] for c in m.columns] for m in monos]
    ranks = dict.fromkeys(blocks, 0)
    width = max(map(len, blocks.values()), default=0) + 2
    rng = random.Random(seed)
    rows: list[list[int]] = []
    while sum(ranks.values()) < len(monos) and len(rows) < trials * width:
        for _ in range(width):
            num, _ = _sample_symplectic(n, rng.getrandbits(64), n)
            minors = _minor_sweep(num, n)
            rows.append([math.prod([minors[k] for k in chain]) for chain in chains])
        for w, cols in blocks.items():
            if ranks[w] < len(cols):
                ranks[w] = _block_rank([[row[k] for k in cols] for row in rows])
    report = [[w, len(cols), ranks[w]] for w, cols in sorted(blocks.items())]
    rank = sum(ranks.values())
    cert = {"ok": rank == len(monos), "rank": rank, "monomials": len(monos),
            "points": len(rows), "trials_used": len(rows) // width,
            "blocks": report}
    if not cert["ok"]:
        cert["witness"] = {"seed": seed, "D": list(d), "F": list(f),
                           "rank": rank, "needed": len(monos),
                           "blocks": [b for b in report if b[2] < b[1]]}
    return cert


# --- seeded suites -----------------------------------------------------------

_MAX_PART = 2  # without --D/--F, independence checks the pairs of parts <= this


def relations_suite(n: int, seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        point_seed = rng.getrandbits(64)
        X = random_rational_matrix(n, point_seed)
        if not verify_straightening_identity(X):
            failures.append({"seed": point_seed, "witness": {"trial": trial}})
    return {"op": "relations", "params": {"n": n, "seed": seed},
            "trials": trials, "failures": failures}


def _suite_targets(n: int) -> list[StandardMonomial]:
    """Every generator as a one-column chain, and one chain of all kinds."""
    return [StandardMonomial((c,), n) for c in elements(n)] + [sample_chain(n)]


def invariance_suite(n: int, seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    targets = _suite_targets(n)
    failures = []
    for _ in range(trials):
        trial_seed = rng.getrandbits(64)
        failures += [{"seed": trial_seed, "witness": {"monomial": m.tokens()}}
                     for m in verify_invariance(targets, trial_seed)]
    return {"op": "invariance", "params": {"n": n, "seed": seed},
            "trials": trials, "failures": failures}


def torus_suite(n: int, seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    targets = _suite_targets(n)
    failures = []
    for _ in range(trials):
        trial_seed = rng.getrandbits(64)
        sub = random.Random(trial_seed)
        t = random_torus_element(n, sub.getrandbits(64))
        X = random_rational_matrix(n, sub.getrandbits(64))
        diag_rng = random.Random(sub.getrandbits(64))
        tdiag = _unit_fractions(diag_rng, 2 * n)
        sdiag = _unit_fractions(diag_rng, 2 * n)
        failures += [{"seed": trial_seed, "witness": {
                          "monomial": m.tokens(), "check": "shape-character"}}
                     for m in verify_torus_weight(targets, t, X)]
        failures += [{"seed": trial_seed, "witness": {
                          "generator": c.token(), "check": "diagonal-weight"}}
                     for c in verify_generator_weight(tdiag, sdiag, X)]
    return {"op": "torus", "params": {"n": n, "seed": seed},
            "trials": trials, "failures": failures}


def independence_suite(n: int, seed: int, trials: int, d=None, f=None) -> dict:
    if (d is None) != (f is None):
        raise ValueError("give both diagrams or neither")
    if d is not None:
        pairs = [(diagrams.normalize(d), diagrams.normalize(f))]
    else:
        pairs = [(dd, ff)
                 for dd in _diagrams_up_to(_MAX_PART, n - 1)
                 for ff in _diagrams_up_to(_MAX_PART, n)
                 if diagrams.multiplicity(dd, ff, n)]
    rng = random.Random(seed)
    failures, checked = [], []
    for dd, ff in pairs:
        cert_seed = rng.getrandbits(64)
        cert = independence_certificate(dd, ff, n, cert_seed, trials)
        checked.append({"D": list(dd), "F": list(ff), "rank": cert["rank"],
                        "monomials": cert["monomials"]})
        if not cert["ok"]:
            failures.append({"seed": cert_seed, "witness": cert["witness"]})
    return {"op": "independence",
            "params": {"n": n, "seed": seed, "pairs": len(pairs),
                       "max_part": None if d is not None else _MAX_PART},
            "trials": trials, "failures": failures, "checked": checked}


def _diagrams_up_to(max_part: int, max_len: int):
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [d + (p,) for d in frontier
                    for p in range(1, (d[-1] if d else max_part) + 1)]
        out.extend(frontier)
    return sorted(out)
