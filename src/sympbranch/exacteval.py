"""Exact evaluation of the minor generators and randomized identity checks.

A point is a pair (num, q): integer rows num and positive column
denominators q, entry (r, j) = num[r][j] / q[j].  Samplers return points,
checks move them, and every elimination runs on integer rows.  A minor of a
point is the integer minor of num over the product of the q_j of its
columns.  Generators are top-left minors, evaluated all together and never
one at a time: the 4n-2 of them come from one fraction-free (Bareiss) sweep
of the top n rows (``_minor_sweep``), with one elimination per minor when a
leading minor is zero.  Group elements act without building their factors
(so sampled ones are exactly symplectic): a square-zero root exponential
1 + c E_ij adds c times column i to column j, and a torus element scales
columns, or rows and columns when it acts on both sides.  Samplers build
only the rows that the caller reads (the certificate reads the top n).  A
check builds its moved point once per trial and compares one generator table
there with one at X.  ``verify relations`` checks the relations that
``straighten`` applies: it reads each from ``straighten.quadratic_relation``
and multiplies its factors' values from one generator table.  The
independence certificate ranks integer chain values, one scale per weight
block and point, modulo the prime 2^61 - 1, with an exact rank of the same
integer rows for a block still short after the last trial (a rank modulo a
prime is never more than over Q, so a full one is a proof).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sympbranch import diagrams
from sympbranch.lattice import ColumnIndex, elements
from sympbranch.monomials import build_chains, monomial_triple, sample_chain
from sympbranch.straighten import Monomial, quadratic_relation


def _identity_rows(size: int) -> list[list[int]]:
    return [[int(i == j) for j in range(size)] for i in range(size)]


def _bareiss(rows) -> tuple[int, int]:
    """Fraction-free elimination of integer rows: (rank, last pivot signed by
    the row swaps).  At full rank on a square input that pivot is the
    determinant."""
    work = [list(row) for row in rows]
    n_rows, n_cols = len(work), len(work[0]) if work else 0
    if any(len(row) != n_cols for row in work):
        raise ValueError("rows must have equal length")
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
    return rank, sign * prev


def det(rows) -> int:
    """Determinant of a square integer matrix: the signed last Bareiss pivot,
    or 0 below full rank."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, pivot = _bareiss(rows)
    return pivot if rank == len(rows) else 0


def exact_rank(rows) -> int:
    """Rank over the rationals of integer rows, by fraction-free (Bareiss)
    elimination."""
    return _bareiss(rows)[0]


# --- generator evaluation ----------------------------------------------------

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
    return [det([[row[j - 1] for j in c.column_set()] for row in rows[:c.size()]])
            for c in elements(n)]


def delta_table(n: int, X) -> dict[ColumnIndex, Fraction]:
    """All generator values at the point X from one ``_minor_sweep`` of its
    numerators, each minor over the product of its columns' denominators."""
    num, q = X
    if len(q) != 2 * n:
        raise ValueError(f"point of size {len(q)} does not match rank {n}")
    return {c: Fraction(v, math.prod([q[j - 1] for j in c.column_set()]))
            for c, v in zip(elements(n), _minor_sweep(num, n))}


# --- exact group elements ----------------------------------------------------

# A root exponential 1 + sum c E_ij is given by its two (i, j, c) entries,
# 1-based; when they coincide c counts twice.  No column j is also a column i.

def _diag_root(n: int, a: int, b: int, c: int):
    # exp of the square-zero element E_{ab} - E_{2n+1-b, 2n+1-a}, a != b
    return (a, b, c), (2 * n + 1 - b, 2 * n + 1 - a, -c)


def _upper_root(n: int, a: int, b: int, c: int):
    return (a, n + b, c), (n + 1 - b, 2 * n + 1 - a, c)


def _lower_root(n: int, a: int, b: int, c: int):
    return (n + a, b, c), (2 * n + 1 - b, n + 1 - a, c)


# Each factor right-multiplies a point in place.

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


def _product(a, b):
    """The point a @ b: a's columns are brought to L = lcm(q_a), so the
    numerators multiply as integers over the denominators L * q_b."""
    (a_num, a_q), (b_num, b_q) = a, b
    common = math.lcm(*a_q)
    up = [common // d for d in a_q]
    rows = [[x * s for x, s in zip(row, up)] for row in a_num]
    cols = list(zip(*b_num))
    return ([[sum(x * y for x, y in zip(row, col)) for col in cols]
             for row in rows], [common * d for d in b_q])


def _scaled(X, left, right):
    """The point diag(left)^-1 @ X @ diag(right) for rational diagonals: the
    right one goes into the column denominators, and the left one into row
    scales over A = lcm of the left numerators."""
    num, q = X
    common = math.lcm(*(v.numerator for v in left))
    row_scale = [v.denominator * (common // v.numerator) for v in left]
    col_scale = [v.numerator for v in right]
    return ([[x * s * c for x, c in zip(row, col_scale)]
             for row, s in zip(num, row_scale)],
            [d * v.denominator * common for d, v in zip(q, right)])


_UNITS = (1, 2, 3, -1, -2, -3)


def random_symplectic(n: int, seed: int, rows: int | None = None,
                      factors: int | None = None):
    """Seeded product of torus factors and root exponentials, each applied in
    place to the identity point: the point of its top ``rows`` rows, all 2n
    by default.  The factors only combine and scale columns, so fewer rows
    draw the same.

    ``factors=0`` gives the identity; by default the factor count is drawn
    as 4 to 6 sweeps of n(n+1)/2 factors, enough mixing for the sampled
    points to certify rank statements.  Every output preserves the
    symplectic form exactly.
    """
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


def random_unipotent(n: int, which: str, seed: int, factors: int | None = None):
    """Unit-triangular symplectic element of a named subgroup, as a point.

    ``which`` is "lower" for the opposite maximal unipotent at rank n, or
    "upper_embedded" for the rank m = n-1 upper unipotent under the block
    embedding [[A,0,B],[0,I,0],[C,0,D]], which sends its indices 1..m and
    m+1..2m to 1..m and m+3..2m+2.  ``factors=0`` gives the identity.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    if which not in ("lower", "upper_embedded"):
        raise ValueError(f"unknown subgroup {which!r}")
    rng = random.Random(seed)
    count = rng.randint(2 * n, 4 * n) if factors is None else factors
    lower = which == "lower"
    m, gap = (n, 0) if lower else (n - 1, 2)
    num, q = _identity_rows(2 * n), [1] * (2 * n)
    for _ in range(count):
        c = rng.randint(-3, 3)
        if m >= 2 and rng.randrange(2):
            a, b = sorted(rng.sample(range(1, m + 1), 2), reverse=lower)
            entries = _diag_root(m, a, b, c)
        else:
            a, b = rng.randint(1, m), rng.randint(1, m)
            entries = (_lower_root if lower else _upper_root)(m, a, b, c)
        _root_step(num, q, [(i + gap * (i > m), j + gap * (j > m), v)
                            for i, j, v in entries])
    return num, q


def random_rational_matrix(n: int, seed: int):
    """Generic 2n x 2n point with small rational entries a/b, a drawn from
    -9..9 and then b from 1..9, over the lcm of each column's b."""
    rng = random.Random(seed)
    rows = [[(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * n)]
            for _ in range(2 * n)]
    q = [math.lcm(*(b for _, b in col)) for col in zip(*rows)]
    return [[a * (d // b) for (a, b), d in zip(row, q)] for row in rows], q


def _unit_fractions(rng: random.Random, k: int) -> list[Fraction]:
    return [Fraction(rng.choice(_UNITS), rng.randint(1, 3)) for _ in range(k)]


def random_torus_element(n: int, seed: int):
    """Torus data (t, s): n entries for the big torus, n-1 for the small."""
    values = _unit_fractions(random.Random(seed), 2 * n - 1)
    return tuple(values[:n]), tuple(values[n:])


# --- verification ------------------------------------------------------------

def verify_straightening_identity(X) -> bool:
    """Each ``straighten.quadratic_relation`` holds exactly at the point X:
    the pair's value is the meet-join term's minus the skew term's."""
    size = len(X[1])
    if size % 2 or size < 4:
        raise ValueError("expected a 2n x 2n point with n >= 2")
    n = size // 2
    table = delta_table(n, X)
    for i in range(1, n):
        pair, meet, skew = (table[a] * table[b] for a, b in quadratic_relation(i, n))
        if pair != meet - skew:
            return False
    return True


def _moved_misses(targets, X, moved, character) -> list[Monomial]:
    """The chains among ``targets`` whose value at ``moved`` is not
    character(chain) times their value at X, from one table at each point."""
    n = len(X[1]) // 2
    before, after = delta_table(n, X), delta_table(n, moved)
    return [m for m in targets if math.prod(after[c] for c in m)
            != character(m) * math.prod(before[c] for c in m)]


def verify_invariance(monos, n: int, seed: int) -> list[Monomial]:
    """The chains among ``monos`` (all of rank n) whose values differ at
    u X v and at X, for one seeded point X of Sp(2n), u in its lower unipotent
    and v in the embedded upper unipotent of Sp(2n-2).  Invariance is usually
    stated for u^-1 X v; the lower unipotent group is closed under inversion,
    so u X v is as general a moved point.  An empty list certifies the
    sampled instance."""
    rng = random.Random(seed)
    u = random_unipotent(n, "lower", rng.getrandbits(64))
    v = random_unipotent(n, "upper_embedded", rng.getrandbits(64))
    X = random_symplectic(n, rng.getrandbits(64))
    return _moved_misses(monos, X, _product(_product(u, X), v), lambda m: 1)


def verify_torus_weight(monos, t, s, X) -> list[Monomial]:
    """The chains among ``monos`` that do not scale by their shape character
    under the torus actions of t (n entries) and s (n-1 entries) at the point
    X; an empty list certifies the instance."""
    t, s = tuple(map(Fraction, t)), tuple(map(Fraction, s))
    if len(t) < 2 or len(s) != len(t) - 1:
        raise ValueError("need n >= 2 torus entries and n-1 small ones")
    if any(v == 0 for v in t + s):
        raise ValueError("torus entries must be nonzero")
    if len(X[1]) != 2 * len(t):
        raise ValueError(f"rank mismatch: torus rank {len(t)}")

    def character(m):
        d, _, f = monomial_triple(m)
        return (math.prod(tv ** -diagrams.part(f, i)
                          for i, tv in enumerate(t, start=1))
                * math.prod(sv ** diagrams.part(d, k)
                            for k, sv in enumerate(s, start=1)))

    moved = _scaled(X, t + tuple(1 / v for v in reversed(t)),
                    s + (1, 1) + tuple(1 / v for v in reversed(s)))
    return _moved_misses(monos, X, moved, character)


def verify_generator_weight(tdiag, sdiag, X) -> list[ColumnIndex]:
    """The generators that are not weight vectors for the full diagonal
    actions at the point X: rows 1..r contribute inverse left entries,
    columns contribute right ones.  An empty list certifies the instance."""
    tdiag, sdiag = list(map(Fraction, tdiag)), list(map(Fraction, sdiag))
    size = len(X[1])
    if len(tdiag) != size or len(sdiag) != size:
        raise ValueError("diagonal length must match the point size")
    if any(v == 0 for v in tdiag + sdiag):
        raise ValueError("diagonal entries must be nonzero")

    def character(m):
        cset = m[0].column_set()
        return (math.prod(sdiag[j - 1] for j in cset)
                / math.prod(tdiag[:len(cset)]))

    n = size // 2
    gens = [(c,) for c in elements(n)]
    misses = _moved_misses(gens, X, _scaled(X, tdiag, sdiag), character)
    return [m[0] for m in misses]


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

    At a sampled point (num, q) a chain is an integer product of minors of
    num over prod_j q_j^mu_j, mu_j its columns that hold j.  The mu_j of a
    chain are fixed by the pair and its weight, so a block's values are its
    integer values times one nonzero scale per point, and both have one rank.

    Each trial samples (largest block + 2) points and ranks each block not
    yet full modulo ``_PRIME``; a block still short after the last trial gets
    the ``exact_rank`` of its integer rows.  ``rank`` sums the block ranks,
    ``blocks`` lists [weight, size, rank], and a failure's witness names the
    pair and each block that fell short.
    """
    d, f = diagrams.normalize(d), diagrams.normalize(f)
    monos, blocks = _weight_blocks(d, f, n)
    slot = {c: k for k, c in enumerate(elements(n))}
    chains = [[slot[c] for c in m] for m in monos]
    ranks = dict.fromkeys(blocks, 0)
    width = max(map(len, blocks.values()), default=0) + 2
    rng = random.Random(seed)
    rows: list[list[int]] = []
    while sum(ranks.values()) < len(monos) and len(rows) < trials * width:
        for _ in range(width):
            num, _ = random_symplectic(n, rng.getrandbits(64), n)
            minors = _minor_sweep(num, n)
            rows.append([math.prod([minors[k] for k in chain]) for chain in chains])
        for w, cols in blocks.items():
            if ranks[w] < len(cols):
                ranks[w] = _rank_mod_p([[row[k] for k in cols] for row in rows])
    for w, cols in blocks.items():
        if ranks[w] < len(cols):
            ranks[w] = exact_rank([[row[k] for k in cols] for row in rows])
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


def _suite_targets(n: int) -> list[Monomial]:
    """Every generator as a one-column chain, and one chain of all kinds."""
    return [(c,) for c in elements(n)] + [sample_chain(n)]


def invariance_suite(n: int, seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    targets = _suite_targets(n)
    failures = []
    for _ in range(trials):
        trial_seed = rng.getrandbits(64)
        failures += [{"seed": trial_seed,
                      "witness": {"monomial": [c.token() for c in m]}}
                     for m in verify_invariance(targets, n, trial_seed)]
    return {"op": "invariance", "params": {"n": n, "seed": seed},
            "trials": trials, "failures": failures}


def torus_suite(n: int, seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    targets = _suite_targets(n)
    failures = []
    for _ in range(trials):
        trial_seed = rng.getrandbits(64)
        sub = random.Random(trial_seed)
        t, s = random_torus_element(n, sub.getrandbits(64))
        X = random_rational_matrix(n, sub.getrandbits(64))
        diag_rng = random.Random(sub.getrandbits(64))
        tdiag = _unit_fractions(diag_rng, 2 * n)
        sdiag = _unit_fractions(diag_rng, 2 * n)
        failures += [{"seed": trial_seed, "witness": {
                          "monomial": [c.token() for c in m],
                          "check": "shape-character"}}
                     for m in verify_torus_weight(targets, t, s, X)]
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
