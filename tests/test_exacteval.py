import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ExactMatrix, all_diagrams, delta, dense_diagonal,
                      eval_monomial, eval_poly, identity, is_symplectic,
                      leibniz_det, matrix_point, natural_sl2_weight,
                      point_matrix, symplectic_form, tokens, unit_plus)
from sympbranch import exacteval
from sympbranch.diagrams import multiplicity
from sympbranch.exacteval import (
    _diag_root,
    _identity_rows,
    _lower_root,
    _product,
    _root_step,
    _scaled,
    _torus_step,
    _upper_root,
    delta_table,
    det,
    exact_rank,
    independence_certificate,
    independence_suite,
    invariance_suite,
    random_rational_matrix,
    random_symplectic,
    random_torus_element,
    random_unipotent,
    relations_suite,
    torus_suite,
    verify_generator_weight,
    verify_invariance,
    verify_straightening_identity,
    verify_torus_weight,
)
from sympbranch.lattice import ColumnIndex, elements
from sympbranch.diagrams import enumerate_middle
from sympbranch.monomials import build_chains, sample_chain
from sympbranch.straighten import FormalPolynomial


def test_matrix_basics():
    eye = identity(3)
    m = ExactMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    assert m @ eye == eye @ m == m
    assert m.size == 3 and m.rows[1] == (0, 1, 3)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    half = ExactMatrix([[Fraction(1, 2), 1], [Fraction(-1, 3), 0]])
    assert matrix_point(half) == ([[3, 1], [-2, 0]], [6, 1])
    assert point_matrix(*matrix_point(half)) == half


def _point_det(X):
    num, q = X
    return Fraction(det(num), math.prod(q))


def test_det_values():
    assert det([[3, 1], [2, 4]]) == 10 and type(det([[3, 1], [2, 4]])) is int
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1
    rng = random.Random(1)
    for _ in range(10):
        a = random_rational_matrix(2, rng.getrandbits(64))
        b = random_rational_matrix(2, rng.getrandbits(64))
        assert _point_det(_product(a, b)) == _point_det(a) * _point_det(b)
        assert _point_det(a) == leibniz_det(point_matrix(*a).rows)
    for bad in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1]] * 2):
        with pytest.raises(ValueError):
            det(bad)


def _rank_oracle(rows):
    # plain rational elimination, no fraction-free tricks
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                ratio = work[r][c] / work[rank][c]
                work[r] = [v - ratio * w for v, w in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[3, 0], [0, -7]]) == 2
    assert exact_rank([]) == 0
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randint(-6, 6) for _ in range(4)]
                for _ in range(rng.randint(1, 6))]
        if rng.randrange(2) and len(rows) > 1:
            rows[-1] = [2 * v for v in rows[0]]  # force a dependency
        assert exact_rank(rows) == _rank_oracle(rows)
    assert exact_rank([[1, 2, 3], [4, 5, 6]]) == 2
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [3]])


_entries = st.integers(-6, 6)


@settings(max_examples=200)
@given(st.data())
def test_elimination_matches_leibniz_and_rank_oracles(data):
    # det and exact_rank share one fraction-free elimination.  Zeroing the
    # first column of the top rows forces a row swap, and a row replaced by
    # a multiple of another makes the matrix singular.
    size = data.draw(st.integers(0, 5))
    rows = data.draw(st.lists(st.lists(_entries, min_size=size, max_size=size),
                              min_size=size, max_size=size))
    for r in range(data.draw(st.integers(0, size))):
        rows[r][0] = 0
    if size >= 2 and data.draw(st.booleans()):
        source = rows[data.draw(st.integers(0, size - 2))]
        factor = data.draw(_entries)
        rows[-1] = [factor * v for v in source]
    assert det(rows) == leibniz_det(rows)
    for cut in range(size + 1):
        assert exact_rank(rows[:cut]) == _rank_oracle(rows[:cut])


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=200)
@given(st.data())
def test_elimination_is_the_same_on_ints_fractions_and_mixed_rows(data):
    # A rational matrix, its entries ints and Fractions mixed, is eliminated
    # as its point: integer rows over column denominators.  Its det is the
    # int det of the rows over the product of the denominators, and its rank
    # is the rank of the integer rows.
    size = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.one_of(st.integers(-6, 6), _fractions),
                                       min_size=size, max_size=size),
                              min_size=size, max_size=size))
    if size >= 2 and data.draw(st.booleans()):
        rows[-1] = [3 * v for v in rows[0]]
    matrix = ExactMatrix(rows)
    num, q = matrix_point(matrix)
    assert point_matrix(num, q) == matrix
    assert all(type(x) is int for row in num for x in row)
    value = det(num)
    assert type(value) is int
    assert Fraction(value, math.prod(q)) == leibniz_det(matrix.rows)
    for cut in range(size + 1):
        assert exact_rank(num[:cut]) == _rank_oracle(matrix.rows[:cut])


_PRIME_MULTIPLES = st.sampled_from([1, 1, 1, 2, -3, exacteval._PRIME,
                                     -2 * exacteval._PRIME])


@settings(max_examples=200)
@given(st.data())
def test_rank_mod_p_never_exceeds_exact_rank(data):
    # Rows are integer combinations of a few random rows (low rank), with
    # some rows scaled by multiples of the prime (zero modulo it but not
    # over Q).  The rank modulo the prime is a lower bound.
    rows_n, cols_n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    basis = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols_n,
                                        max_size=cols_n),
                               min_size=1, max_size=cols_n))
    rows = []
    for _ in range(rows_n):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                    max_size=len(basis)))
        scale = data.draw(_PRIME_MULTIPLES)
        rows.append([scale * sum(c * b[j] for c, b in zip(coeffs, basis))
                     for j in range(cols_n)])
    exact = exact_rank(rows)
    assert exacteval._rank_mod_p(rows) <= exact == _rank_oracle(rows)


def test_rank_mod_p_falls_short_on_multiples_of_the_prime():
    p = exacteval._PRIME
    rows = [[1, 2], [p, 3 * p]]
    assert exacteval._rank_mod_p(rows) == 1 and exact_rank(rows) == 2
    assert exacteval._rank_mod_p([[p + 1, 2], [1, p + 2]]) == 1


def test_delta_examples():
    n = 3
    eye = identity(2 * n)
    for r in range(1, n):
        assert delta(ColumnIndex("I", r, n), eye) == 1
    assert delta(ColumnIndex("J", 0, n), eye) == 0
    X = random_rational_matrix(n, 5)
    rows = point_matrix(*X).rows
    k0 = delta(ColumnIndex("K", 0, n), point_matrix(*X))
    assert k0 == rows[0][n - 1] * rows[1][n] - rows[0][n] * rows[1][n - 1]
    assert delta_table(n, X)[ColumnIndex("K", 0, n)] == k0
    assert delta_table(n, matrix_point(eye))[ColumnIndex("J", 0, n)] == 0
    with pytest.raises(ValueError):
        delta_table(2, matrix_point(eye))


def test_minor_sweep_matches_each_minor(monkeypatch):
    # The sweep reads every generator off one elimination of the top rows;
    # entries in -2..2 make zero leading minors common, so some drawn cases
    # take the one-elimination-per-minor fallback.
    fallbacks = []
    one_by_one = exacteval._minors_one_by_one

    def recording(rows, n):
        fallbacks.append(n)
        return one_by_one(rows, n)

    monkeypatch.setattr(exacteval, "_minors_one_by_one", recording)

    @settings(max_examples=300)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 6))
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=2 * n,
                                           max_size=2 * n),
                                  min_size=2 * n, max_size=2 * n))
        expected = [leibniz_det([[row[j - 1] for j in c.column_set()]
                                 for row in rows[:c.size()]])
                    for c in elements(n)]
        assert exacteval._minor_sweep(rows, n) == expected

    check()
    assert fallbacks


def test_eval_monomial_and_poly():
    n = 4
    point = random_rational_matrix(n, 11)
    X = point_matrix(*point)
    assert eval_monomial((), X) == 1
    chain = sample_chain(n)
    assert eval_monomial(chain, identity(2 * n)) == 0
    p = FormalPolynomial.monomial(chain, 2) + \
        FormalPolynomial.monomial((), Fraction(1, 3))
    assert eval_poly(p, X) == 2 * eval_monomial(chain, X) + Fraction(1, 3)
    table = delta_table(n, point)
    assert all(table[c] == delta(c, X) for c in elements(n))


def test_symplectic_form_shape():
    form = symplectic_form(2)
    assert form.rows == ExactMatrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                     [0, -1, 0, 0], [-1, 0, 0, 0]]).rows
    assert tuple(zip(*form.rows)) == tuple(tuple(-v for v in row)
                                           for row in form.rows)


def test_is_symplectic():
    assert is_symplectic(identity(6))
    assert not is_symplectic(dense_diagonal([2, 1, 1, 1, 1, 1]))
    with pytest.raises(ValueError):
        is_symplectic(identity(3))


def test_random_symplectic_contract():
    for n in (2, 3, 4):
        for seed in range(34 - 8 * n):
            num, q = random_symplectic(n, seed)
            assert all(type(d) is int and d > 0 for d in q)
            assert is_symplectic(point_matrix(num, q))
            assert det(num) == math.prod(q)
    assert random_symplectic(3, 123) == random_symplectic(3, 123)
    assert random_symplectic(2, 5, factors=0) == matrix_point(identity(4))
    for n in (2, 3, 5):
        for seed in (0, 7, 2**64 - 59):
            # the top rows alone draw the same: factors only mix columns
            num, q = random_symplectic(n, seed)
            assert random_symplectic(n, seed, n) == (num[:n], q)


_units = st.sampled_from((1, 2, 3, -1, -2, -3))


@settings(max_examples=200)
@given(st.data())
def test_in_place_factors_match_dense_products(data):
    # The integer kernel on random numerators and column denominators: each
    # root kind and a torus step equal the product with the dense factor, the
    # product of two points equals the dense product, and scaling by two
    # diagonals (with negative numerators on the left) the dense scaling.
    n = data.draw(st.integers(2, 5))
    size = 2 * n

    def draw_point():
        num = [data.draw(st.lists(st.integers(-9, 9), min_size=size,
                                  max_size=size)) for _ in range(size)]
        return num, data.draw(st.lists(st.integers(1, 12), min_size=size,
                                       max_size=size))

    def point_of(num, q):
        assert all(type(d) is int and d > 0 for d in q)
        return point_matrix(num, q)

    num, q = draw_point()
    X = point_matrix(num, q)
    a, b = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    c = data.draw(st.integers(-3, 3))
    roots = [_upper_root(n, a, b, c), _lower_root(n, a, b, c)]
    if a != b:
        roots.append(_diag_root(n, a, b, c))
    for entries in roots:
        rows, dens = [list(row) for row in num], list(q)
        _root_step(rows, dens, entries)
        assert point_of(rows, dens) == X @ unit_plus(size, entries)
    values = [data.draw(_units) for _ in range(n)]
    rows, dens = [list(row) for row in num], list(q)
    _torus_step(rows, dens, values)
    torus = dense_diagonal(values + [Fraction(1, v) for v in reversed(values)])
    assert point_of(rows, dens) == X @ torus
    other = draw_point()
    assert point_of(*_product((num, q), other)) == X @ point_matrix(*other)
    left = [Fraction(data.draw(_units), data.draw(st.integers(1, 3)))
            for _ in range(size)]
    right = [Fraction(data.draw(_units), data.draw(st.integers(1, 3)))
             for _ in range(size)]
    dense = dense_diagonal([1 / v for v in left]) @ X @ dense_diagonal(right)
    assert point_of(*_scaled((num, q), left, right)) == dense


# sha256 prefixes of the sampled points, and of the points that the
# invariance and torus checks move them to, for _GOLDEN_SEEDS at n = 2..5.
# Failure witnesses are replayed from their seeds, so a seed's point must never
# drift: a sampler change that keeps every point keeps these digests.
_GOLDEN_SEEDS = (0, 1, 7, 101, 2**64 - 59)
_GOLDEN = {
    "symplectic": ["64b20956748abb34", "ff8aa0b0f84ada9c",
                   "f29d569c13e15363", "9d628e179391b123"],
    "symplectic-3": ["461303205e1bb80c", "041efc4e521d4bd7",
                     "428607614bf904c9", "7f6b29eecd431a1e"],
    "lower": ["e0f6014895f18e15", "3133b3fac7265805",
              "186fcd1e9087f35e", "d94675aab24b7195"],
    "upper_embedded": ["0a6b0760397a4ad2", "4707e910a2a638ee",
                       "e84e3f4a613152e8", "49b60a781e357722"],
    "rational": ["3f1c70c6ba75e11e", "6f599786e44984fb",
                 "f6a36772478519a9", "4f1fd0a20eab3299"],
    "invariance": ["94f8fca5d091e3b9", "32551b6eaa498c1e",
                   "5c26735c5d30b872", "c1d41fdb4e42e056"],
    "torus": ["dae0b48c7129ac8d", "936e7664c0336386",
              "6734cccd86fdb255", "059d5541ef2645c7"],
}


def _invariance_point(n, seed):
    """u X v, with u, v and X drawn as ``verify_invariance`` draws them."""
    rng = random.Random(seed)
    u = random_unipotent(n, "lower", rng.getrandbits(64))
    v = random_unipotent(n, "upper_embedded", rng.getrandbits(64))
    X = random_symplectic(n, rng.getrandbits(64))
    return _product(_product(u, X), v)


def _torus_point(n, seed):
    """The moved point of ``verify_torus_weight`` for the torus element of
    ``seed`` at the rational point of ``seed + 1``."""
    t, s = random_torus_element(n, seed)
    return _scaled(random_rational_matrix(n, seed + 1),
                   t + tuple(1 / v for v in reversed(t)),
                   s + (1, 1) + tuple(1 / v for v in reversed(s)))


_SAMPLERS = {
    "symplectic": lambda n, s: random_symplectic(n, s),
    "symplectic-3": lambda n, s: random_symplectic(n, s, factors=3),
    "lower": lambda n, s: random_unipotent(n, "lower", s),
    "upper_embedded": lambda n, s: random_unipotent(n, "upper_embedded", s),
    "rational": random_rational_matrix,
    "invariance": _invariance_point,
    "torus": _torus_point,
}


def _points_digest(sample, n):
    h = hashlib.sha256()
    for seed in _GOLDEN_SEEDS:
        for row in point_matrix(*sample(n, seed)).rows:
            h.update((",".join(f"{v.numerator}/{v.denominator}" for v in row)
                      + ";").encode())
    return h.hexdigest()[:16]


def test_sampled_points_match_golden_digests():
    for kind, digests in _GOLDEN.items():
        assert [_points_digest(_SAMPLERS[kind], n) for n in (2, 3, 4, 5)] == \
            digests, kind


def test_random_unipotent_structure():
    for n in (2, 3):
        for seed in range(8):
            low = point_matrix(*random_unipotent(n, "lower", seed))
            size = 2 * n
            assert all(low.rows[i][i] == 1 for i in range(size))
            assert all(low.rows[i][j] == 0
                       for i in range(size) for j in range(i + 1, size))
            assert is_symplectic(low)
            up = point_matrix(*random_unipotent(n, "upper_embedded", seed))
            assert all(up.rows[i][i] == 1 for i in range(size))
            assert all(up.rows[i][j] == 0
                       for j in range(size) for i in range(j + 1, size))
            assert is_symplectic(up)
            # the embedded copy fixes the two middle basis vectors
            for col in (n - 1, n):
                assert all(up.rows[i][col] == (1 if i == col else 0)
                           for i in range(size))
                assert all(up.rows[col][j] == (1 if j == col else 0)
                           for j in range(size))
    eye = matrix_point(identity(4))
    assert random_unipotent(2, "lower", 9, factors=0) == eye
    assert random_unipotent(2, "upper_embedded", 9, factors=0) == eye
    with pytest.raises(ValueError):
        random_unipotent(2, "sideways", 0)


def test_embed_subgroup_block_pattern():
    # The embedded upper unipotent is [[A,0,B],[0,I,0],[C,0,D]], and
    # [[A,B],[C,D]] is an upper unit-triangular element of Sp(2n-2): rank
    # n-1 indices land at 1..n-1 and n+2..2n.
    for n in (2, 3, 4):
        keep = [i for i in range(2 * n) if i not in (n - 1, n)]
        moved = 0
        for seed in range(6):
            up = point_matrix(*random_unipotent(n, "upper_embedded", seed))
            inner = ExactMatrix([[up.rows[i][j] for j in keep] for i in keep])
            assert is_symplectic(inner)
            assert all(inner.rows[i][j] == (i == j)
                       for i in range(2 * n - 2) for j in range(i + 1))
            moved += inner != identity(2 * n - 2)
        assert moved >= 4


def test_straightening_identity_everywhere():
    assert verify_straightening_identity(matrix_point(identity(6)))
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            assert verify_straightening_identity(
                random_rational_matrix(n, rng.getrandbits(64)))
    for seed in range(5):
        assert verify_straightening_identity(random_symplectic(3, seed))


def test_invariance_of_generators_and_chain():
    n = 3
    targets = [(c,) for c in elements(n)] + [sample_chain(n)]
    for seed in range(12):
        assert verify_invariance(targets, n, seed) == []


def test_invariance_suite_reports_moved_chains(monkeypatch):
    # With a generic symplectic point in place of each unipotent, chain values
    # move, and every failure replays from its seed to name its monomial.
    monkeypatch.setattr(exacteval, "random_unipotent",
                        lambda n, which, seed: random_symplectic(n, seed))
    n = 3
    targets = [(c,) for c in elements(n)] + [sample_chain(n)]
    report = invariance_suite(n, 0, 2)
    assert report["failures"]
    for failure in report["failures"]:
        moved = verify_invariance(targets, n, failure["seed"])
        assert failure["witness"]["monomial"] in [tokens(m) for m in moved]


def test_torus_weight_examples():
    n = 3
    t, s = (Fraction(2), Fraction(3), Fraction(5)), (Fraction(1, 2), Fraction(7))
    point = random_rational_matrix(n, 21)
    X = point_matrix(*point)
    m = (ColumnIndex("I", 1, n),)
    # shape is F = (1), D = (1): character 2^{-1} * (1/2)^{1}
    left = [2, 3, 5, Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]
    right = [Fraction(1, 2), 7, 1, 1, Fraction(1, 7), 2]
    moved = dense_diagonal([1 / Fraction(v) for v in left]) @ X @ \
        dense_diagonal(right)
    assert eval_monomial(m, moved) == Fraction(1, 4) * eval_monomial(m, X)
    assert verify_torus_weight([m], t, s, point) == []
    targets = [(c,) for c in elements(n)] + [sample_chain(n)]
    for seed in range(10):
        tt, ss = random_torus_element(n, seed)
        XX = random_rational_matrix(n, seed + 100)
        assert verify_torus_weight(targets, tt, ss, XX) == []
    with pytest.raises(ValueError, match="rank mismatch"):
        verify_torus_weight([m], *random_torus_element(2, 0), point)


def test_torus_checks_list_exactly_the_moved_targets(monkeypatch):
    # With the moved point patched to X itself, a target misses its character
    # exactly when that character is not 1 (every target is nonzero at X).
    monkeypatch.setattr(exacteval, "_scaled", lambda X, left, right: X)
    report = torus_suite(2, 0, 1)
    assert {f["witness"]["check"] for f in report["failures"]} == \
        {"shape-character", "diagonal-weight"}
    n = 2
    X = random_rational_matrix(n, 3)
    targets = [(c,) for c in elements(n)] + [sample_chain(n)]
    assert all(eval_monomial(m, point_matrix(*X)) for m in targets)
    chain = tokens(sample_chain(n))
    # t^-F * s^D: (1, 3) weighs columns with two entries, s = 5 the entry 1
    for t, s, missed in (((1, 3), (1,), [["J1"], ["J'1"], ["K0"], chain]),
                         ((1, 1), (5,), [["J1"], ["J'1"], ["I1"], chain])):
        assert [tokens(m) for m in verify_torus_weight(targets, t, s, X)] == missed
    ones = [1] * (2 * n)
    # sdiag weighs generators holding column 2, tdiag those of depth two
    assert [c.token() for c in verify_generator_weight(ones, [1, 2, 1, 1], X)] == \
        ["J1", "K0", "J0"]
    assert [c.token() for c in verify_generator_weight([1, 3, 1, 1], ones, X)] == \
        ["J1", "J'1", "K0"]


def test_torus_suite_moves_each_point_once(monkeypatch):
    calls = []

    def counting(X, left, right):
        calls.append(len(X[1]))
        return _scaled(X, left, right)

    monkeypatch.setattr(exacteval, "_scaled", counting)
    assert torus_suite(3, 0, 4)["failures"] == []
    assert calls == [6] * 2 * 4


def test_torus_element_validation():
    m = (ColumnIndex("I", 1, 2),)
    X = random_rational_matrix(2, 0)
    with pytest.raises(ValueError, match="nonzero"):
        verify_torus_weight([m], (1, 0), (1,), X)
    with pytest.raises(ValueError, match="nonzero"):
        verify_torus_weight([m], (1, 2), (0,), X)
    with pytest.raises(ValueError, match="n-1 small"):
        verify_torus_weight([m], (1, 2, 3), (1,), X)
    with pytest.raises(ValueError, match="n-1 small"):
        verify_torus_weight([m], (2,), (), X)
    assert verify_torus_weight([m], (2, 3), (5,), X) == []
    for n in (2, 3, 4):
        t, s = random_torus_element(n, n)
        assert (len(t), len(s)) == (n, n - 1)
        assert all(isinstance(v, Fraction) and v for v in t + s)


def test_generator_weights_for_full_diagonals():
    n = 3
    rng = random.Random(17)
    for _ in range(10):
        X = random_rational_matrix(n, rng.getrandbits(64))
        tdiag = [Fraction(rng.choice((1, 2, 3, -1, -2, -3)), rng.randint(1, 3))
                 for _ in range(2 * n)]
        sdiag = [Fraction(rng.choice((1, 2, 3, -1, -2, -3)), rng.randint(1, 3))
                 for _ in range(2 * n)]
        assert verify_generator_weight(tdiag, sdiag, X) == []


def test_independence_examples():
    cert = independence_certificate((1,), (1, 1), 2, seed=0)
    assert cert["ok"] and cert["rank"] == 2
    assert cert["blocks"] == [[-1, 1, 1], [1, 1, 1]] and cert["points"] == 3
    trivial = independence_certificate((), (), 2, seed=1)
    assert trivial["ok"] and trivial["monomials"] == 1 and trivial["rank"] == 1
    big = independence_certificate((4, 3, 1), (5, 4, 3, 2), 4, seed=2)
    assert big["ok"] and big["rank"] == 16
    assert sum(size for _, size, _ in big["blocks"]) == 16
    assert big["points"] == max(size for _, size, _ in big["blocks"]) + 2
    assert "witness" not in big
    empty = independence_certificate((3,), (1,), 2)
    assert empty["ok"] and empty["monomials"] == 0
    assert empty["points"] == 0 and empty["blocks"] == []


_WEIGHT_PAIRS = {2: [((1,), (1, 1)), ((1,), (2, 1)), ((3,), (5, 2))],
                 3: [((2, 1), (3, 2, 1)), ((1,), (2, 1))],
                 4: [((3, 2, 1), (4, 3, 2, 1)), ((2, 1), (2, 2, 1))]}


def test_chains_scale_by_their_natural_weight():
    # The weight-block certificate rests on this: X tau_s, with tau_s =
    # diag(1, .., s, 1/s, .., 1) at coordinates n and n+1, is symplectic, and
    # every standard monomial scales by s^natural_sl2_weight there.
    s = Fraction(2, 3)
    for n, pairs in _WEIGHT_PAIRS.items():
        ones = [Fraction(1)] * (2 * n)
        tau = ones[:n - 1] + [s, 1 / s] + ones[n + 1:]
        for seed, (d, f) in enumerate(pairs):
            X = random_symplectic(n, seed)
            moved = point_matrix(*_scaled(X, ones, tau))
            assert is_symplectic(moved)
            monos = build_chains(d, f, n, enumerate_middle(d, f, n))
            assert len({natural_sl2_weight(m) for m in monos}) > 1
            for m in monos:
                assert eval_monomial(m, moved) == \
                    s ** natural_sl2_weight(m) * \
                    eval_monomial(m, point_matrix(*X))


def _without_column(n, seed, rows):
    """The top rows of a generic point with column n+1 zero, where every J'
    and K minor is 0."""
    num, q = random_rational_matrix(n, seed)
    return [[0 if j == n else x for j, x in enumerate(row)]
            for row in num[:rows]], q


def test_certificate_blocks_hold_the_chains_of_their_weight(monkeypatch):
    # With column n+1 zero at every point, a block of the certificate keeps
    # rank only from its chains of I and J columns.  So each block [w, size,
    # rank] shows which chains it holds: size counts the chains of natural
    # weight w, rank those among them with no J' and no K.  A block keyed by
    # any other weight, such as #J' - #J, disagrees on the asymmetric pairs.
    monkeypatch.setattr(exacteval, "random_symplectic", _without_column)
    asymmetric = 0
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                if not multiplicity(d, f, n):
                    continue
                expected = {}
                for m in build_chains(d, f, n, enumerate_middle(d, f, n)):
                    w = natural_sl2_weight(m)
                    block = expected.setdefault(w, [w, 0, 0])
                    block[1] += 1
                    block[2] += all(c.kind in ("I", "J") for c in m)
                blocks = independence_certificate(d, f, n, seed=5)["blocks"]
                assert blocks == sorted(expected.values()), (d, f, n)
                asymmetric += blocks != sorted([-w, s, r] for w, s, r in blocks)
    assert asymmetric > 50


def test_independence_failure_names_pair_and_short_blocks(monkeypatch):
    # Every chain of this pair vanishes at the identity, so with the identity
    # as every point each block falls short, and the witness must say which
    # pair and which blocks, and replay from its seed.
    monkeypatch.setattr(exacteval, "random_symplectic",
                        lambda n, seed, rows: (_identity_rows(2 * n)[:rows],
                                               [1] * (2 * n)))
    report = independence_suite(2, 0, 1, d=(1,), f=(2, 1))
    assert len(report["failures"]) == 1
    failure = report["failures"][0]
    witness = failure["witness"]
    assert witness["D"] == [1] and witness["F"] == [2, 1]
    assert witness["rank"] == 0 and witness["needed"] == 4
    assert witness["blocks"] == [[-2, 1, 0], [0, 2, 0], [2, 1, 0]]
    assert failure["seed"] == witness["seed"]
    replay = independence_certificate((1,), (2, 1), 2, failure["seed"], 1)
    assert replay["witness"] == witness


def test_certificate_at_a_small_prime_falls_back_to_exact_rank(monkeypatch):
    # Modulo 3 most blocks fall short, so the certificate must reach the same
    # rank, blocks and verdict through exact_rank on the same integer rows.
    fallbacks = []

    def counting(rows):
        fallbacks.append(len(rows))
        return exact_rank(rows)

    pairs = [(d, f, n) for n in (2, 3)
             for d in exacteval._diagrams_up_to(exacteval._MAX_PART, n - 1)
             for f in exacteval._diagrams_up_to(exacteval._MAX_PART, n)
             if multiplicity(d, f, n)]
    fields = ("ok", "rank", "blocks")
    real = [[independence_certificate(d, f, n, seed=k)[x] for x in fields]
            for k, (d, f, n) in enumerate(pairs)]
    monkeypatch.setattr(exacteval, "_PRIME", 3)
    monkeypatch.setattr(exacteval, "exact_rank", counting)
    small = [[independence_certificate(d, f, n, seed=k)[x] for x in fields]
             for k, (d, f, n) in enumerate(pairs)]
    assert small == real and all(ok for ok, _, _ in real)
    assert len(fallbacks) > len(pairs)


def test_certificate_ranks_exactly_only_after_the_last_trial(monkeypatch):
    # The first trial's 6 points leave a block of this pair short; the second
    # trial fills it modulo the prime, so no block is ranked exactly.
    calls = []
    monkeypatch.setattr(exacteval, "exact_rank",
                        lambda rows: calls.append(rows) or exact_rank(rows))
    cert = independence_certificate((5, 1), (7, 6, 1), 3, seed=1)
    assert (cert["ok"], cert["rank"], cert["points"]) == (True, 20, 12)
    assert cert["trials_used"] == 2 and calls == []


def test_blocks_share_one_scale_per_point():
    # A chain's value at a sampled point is its integer value (minors of num)
    # over prod_j q_j^mu_j, and mu_j is the same for every chain of a weight
    # block, so a block ranks as integers.  Blocks that mixed weights would
    # mix scales.  The rational values come from Leibniz minors of the dense
    # matrix.
    for n in (2, 3, 4):
        points = []
        for seed in range(2):
            num, q = random_symplectic(n, 100 * n + seed)
            dense = point_matrix(num, q)
            points.append(({c: delta(c, dense) for c in elements(n)},
                           dict(zip(elements(n), exacteval._minor_sweep(num, n)))))
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                if not multiplicity(d, f, n):
                    continue
                monos, blocks = exacteval._weight_blocks(d, f, n)
                for seed, (table, ints) in enumerate(points):
                    for cols in blocks.values():
                        scales = set()
                        for k in cols:
                            whole = math.prod(ints[c] for c in monos[k])
                            assert whole, (d, f, n, seed)
                            scales.add(math.prod(table[c] for c in monos[k])
                                       / whole)
                        assert len(scales) == 1, (d, f, n, seed)


def test_suites_pass_and_report_shape():
    for suite, kwargs in ((relations_suite, {}), (invariance_suite, {}),
                          (torus_suite, {})):
        report = suite(3, 0, 5, **kwargs)
        assert report["failures"] == []
        assert set(report) >= {"op", "params", "trials", "failures"}
    report = independence_suite(2, 0, 2)
    assert report["failures"] == []
    assert report["params"]["pairs"] == len(report["checked"]) > 0
    single = independence_suite(2, 0, 2, d=(1,), f=(1, 1))
    assert single["checked"][0]["rank"] == 2


def test_suites_are_deterministic():
    a = relations_suite(2, 42, 5)
    b = relations_suite(2, 42, 5)
    assert a == b
