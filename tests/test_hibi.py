import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_diagrams,
    birkhoff_complement,
    count_patterns,
    diagram_pairs,
    gamma_cells,
    multiplicity_nonzero,
    triple_oracle,
)
from sympbranch.diagrams import multiplicity, normalize, part
from sympbranch.hibi import (
    PatternMap,
    chain_to_pattern,
    chi,
    pattern_of_triple,
    pattern_to_chain,
    pretty,
)
from sympbranch.lattice import column_from_set, elements, leq
from sympbranch.monomials import StandardMonomial, enumerate_standard, is_chain
from sympbranch.straighten import hibi_product


def zero(n):
    return PatternMap((0,) * n, (0,) * n, (0,) * (n - 1))


def test_pattern_validation():
    with pytest.raises(ValueError):
        PatternMap((1, 1), (1,), (1,))
    with pytest.raises(ValueError):
        PatternMap((1, 1), (1, 1), (-1,))
    with pytest.raises(ValueError):
        PatternMap((1,), (1,), ())
    with pytest.raises(ValueError):
        pattern_of_triple((), (), (1, 1, 1), 2)  # f longer than n
    with pytest.raises(ValueError):
        pattern_of_triple((1, 1), (), (), 2)  # d longer than n - 1
    p = PatternMap([3, 2], [2, 1], [2])
    assert p.n == 2 and p.top == (3, 2)


def test_is_order_preserving():
    assert PatternMap((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0)).is_order_preserving()
    assert not PatternMap((1, 0), (0, 1), (0,)).is_order_preserving()
    assert not PatternMap((2, 0), (1, 0), (2,)).is_order_preserving()
    assert zero(3).is_order_preserving()


def test_chi_displays():
    a = chi(column_from_set([1, 2, 4, 5], 4))
    b = chi(column_from_set([1, 2, 5], 4))
    c = chi(column_from_set([1, 4], 4))
    assert (a.top, a.mid, a.bot) == ((1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0))
    assert (b.top, b.mid, b.bot) == ((1, 1, 1, 0), (1, 1, 0, 0), (1, 1, 0))
    assert (c.top, c.mid, c.bot) == ((1, 1, 0, 0), (1, 1, 0, 0), (1, 0, 0))
    jp0 = chi(column_from_set([5], 4))
    assert (jp0.top, jp0.mid, jp0.bot) == ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0))


def test_chi_matches_birkhoff_cells():
    for n in (2, 3, 4):
        for col in elements(n):
            cells = birkhoff_complement(col)
            p = chi(col)
            rows = {n + 1: p.top, n: p.mid, n - 1: p.bot}
            for cell in gamma_cells(n):
                assert rows[cell.level][cell.pos - 1] == int(cell in cells)


def test_chain_to_pattern_examples():
    n = 4
    small = StandardMonomial(tuple(column_from_set(s, n)
                                   for s in ([1, 2, 4, 5], [1, 2, 5], [1, 4])), n)
    p = chain_to_pattern(small)
    assert (p.top, p.mid, p.bot) == ((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    worked = StandardMonomial(tuple(column_from_set(s, n) for s in
                                    ([1, 2, 3, 4], [1, 2, 4, 5], [1, 2, 5],
                                     [1, 4], [5])), n)
    q = chain_to_pattern(worked)
    assert (q.top, q.mid, q.bot) == ((5, 4, 3, 2), (4, 4, 2, 1), (4, 3, 1))
    assert chain_to_pattern(StandardMonomial((), n)) == zero(n)


def test_chain_pattern_rows_match_shape_and_middle():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(elements(n), k):
                if not is_chain(combo):
                    continue
                m = StandardMonomial(combo, n)
                assert chain_to_pattern(m) == pattern_of_triple(
                    *triple_oracle(combo, n), n)


def test_pattern_to_chain_examples():
    n = 4
    p = PatternMap((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    chain = pattern_to_chain(p)
    assert chain.tokens() == ["K2", "J'2", "J1"]
    assert pattern_to_chain(zero(3)) == StandardMonomial((), 3)
    with pytest.raises(ValueError):
        pattern_to_chain(PatternMap((1, 0), (0, 1), (0,)))


def test_pattern_round_trip_on_chains():
    for n, max_cols in ((2, 4), (3, 4), (4, 3)):
        for k in range(max_cols + 1):
            for combo in combinations_with_replacement(elements(n), k):
                if not is_chain(combo):
                    continue
                m = StandardMonomial(combo, n)
                assert pattern_to_chain(chain_to_pattern(m)) == m


def test_add():
    n = 4
    a = chi(column_from_set([1, 2, 4, 5], n))
    b = chi(column_from_set([1, 2, 5], n))
    c = chi(column_from_set([1, 4], n))
    total = a + b + c
    assert (total.top, total.mid, total.bot) == (
        (3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    assert total + zero(n) == total
    rng = random.Random(0)
    cols = elements(n)
    for _ in range(20):
        p, q = chi(rng.choice(cols)), chi(rng.choice(cols))
        assert p + q == q + p
        assert (p + q).is_order_preserving()
    with pytest.raises(ValueError):
        zero(2) + zero(3)


def test_count_patterns_examples():
    assert count_patterns((4, 3, 1), (5, 4, 3, 2), 4) == 16
    assert count_patterns((), (), 2) == 1
    assert count_patterns((1,), (1, 1), 2) == 2


def test_count_patterns_matches_multiplicity():
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                assert count_patterns(d, f, n) == multiplicity(d, f, n) == \
                    len(enumerate_standard(d, f, n))


@settings(max_examples=150)
@given(diagram_pairs(5, 6))
def test_count_patterns_oracle_matches_multiplicity(pair):
    d, f, n = pair
    assert count_patterns(d, f, n) == multiplicity(d, f, n) == \
        len(enumerate_standard(d, f, n))


def test_chi_is_an_order_isomorphism():
    for n in (2, 3, 4, 5):
        cols = elements(n)
        zero_sets = {}
        for col in cols:
            p = chi(col)
            zero_sets[col] = {(level, j)
                              for level, row in ((n + 1, p.top), (n, p.mid),
                                                 (n - 1, p.bot))
                              for j, v in enumerate(row, start=1) if v == 0}
        for a in cols:
            for b in cols:
                assert leq(a, b) == (zero_sets[a] <= zero_sets[b])


def test_product_homomorphism_small():
    n = 3
    chains = [StandardMonomial(c, n)
              for k in (0, 1, 2)
              for c in combinations_with_replacement(elements(n), k)
              if is_chain(c)]
    for m1 in chains:
        for m2 in chains:
            left = chain_to_pattern(hibi_product(m1, m2))
            assert left == chain_to_pattern(m1) + chain_to_pattern(m2)


def test_margin_fixing():
    # patterns with fixed top and bottom rows are exactly the middle diagrams
    n = 3
    d, f = (2, 1), (3, 2, 1)
    assert multiplicity_nonzero(d, f)
    mids = {tuple(chain_to_pattern(m).mid)
            for m in enumerate_standard(d, f, n)}
    assert len(mids) == count_patterns(d, f, n)


def test_pretty_layout():
    p = PatternMap((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    assert pretty(p).splitlines() == [
        "3     3     2     1",
        "   3     3     1     0",
        "      3     2     0",
    ]


def test_pattern_json():
    p = PatternMap((2, 1), (1, 1), (1,))
    assert p.to_json() == {"top": [2, 1], "mid": [1, 1], "bot": [1]}
