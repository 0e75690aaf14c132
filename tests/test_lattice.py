from itertools import combinations

import pytest

from conftest import (
    birkhoff_complement,
    chi,
    column_from_set,
    comparable,
    covering_pairs,
    gamma_cells,
)
from sympbranch.lattice import (
    ColumnIndex,
    elements,
    join,
    leq,
    meet,
    parse_column,
)
from sympbranch.straighten import quadratic_relation


def C(kind, idx, n):
    return ColumnIndex(kind, idx, n)


def test_column_set_examples():
    assert C("K", 0, 4).column_set() == (4, 5)
    assert C("J", 3, 4).column_set() == (1, 2, 3, 4)
    assert C("K", 2, 4).column_set() == (1, 2, 4, 5)
    # index-zero conventions
    assert C("J", 0, 5).column_set() == (5,)
    assert C("Jp", 0, 5).column_set() == (6,)
    assert C("K", 0, 5).column_set() == (5, 6)


def test_column_validation():
    for bad in [("I", 0, 4), ("I", 4, 4), ("J", 4, 4), ("Jp", -1, 4),
                ("K", 3, 4), ("I", 1, 1), ("X", 1, 4)]:
        with pytest.raises(ValueError):
            C(*bad)


def test_column_sets_are_increasing_and_sized():
    for n in range(2, 7):
        for c in elements(n):
            s = c.column_set()
            assert list(s) == sorted(set(s))
            assert all(1 <= e <= n + 1 for e in s)
            expected = {"I": c.idx, "J": c.idx + 1,
                        "Jp": c.idx + 1, "K": c.idx + 2}[c.kind]
            assert len(s) == expected == c.size()


def test_element_count_and_uniqueness():
    for n in range(2, 7):
        cols = elements(n)
        assert len(cols) == 4 * n - 2
        assert len(set(cols)) == len(cols)
        assert len({c.column_set() for c in cols}) == len(cols)


def test_token_and_set_round_trip():
    for n in (2, 3, 5):
        for c in elements(n):
            assert parse_column(c.token(), n) == c
            assert column_from_set(c.column_set(), n) == c


def test_token_forms():
    assert C("Jp", 2, 4).token() == "J'2"
    assert C("I", 3, 4).token() == "I3"
    assert parse_column("J'2", 4) == C("Jp", 2, 4)
    with pytest.raises(ValueError):
        parse_column("Q1", 4)


def test_column_from_set_rejects_gaps():
    with pytest.raises(ValueError):
        column_from_set([2, 4], 4)  # prefix must start at 1
    with pytest.raises(ValueError):
        column_from_set([1, 3], 4)  # 3 is neither prefix nor n, n+1
    with pytest.raises(ValueError):
        column_from_set([1, 6], 4)


def test_leq_examples():
    n = 4
    assert leq(C("K", 2, n), C("Jp", 2, n))
    assert leq(C("Jp", 2, n), C("J", 1, n))
    assert leq(C("I", 1, n), C("I", 1, n))
    assert not leq(C("I", 1, n), C("K", 0, n))
    assert not leq(C("K", 0, n), C("I", 1, n))


def test_leq_rank_mismatch():
    with pytest.raises(ValueError):
        leq(C("I", 1, 3), C("I", 1, 4))
    with pytest.raises(ValueError):
        meet(C("I", 1, 3), C("I", 1, 4))
    with pytest.raises(ValueError):
        join(C("I", 1, 3), C("I", 1, 4))


def test_meet_join_examples():
    n = 4
    assert meet(C("I", 2, n), C("K", 1, n)) == C("Jp", 2, n)
    assert join(C("I", 2, n), C("K", 1, n)) == C("J", 1, n)
    assert meet(C("J", 1, n), C("J", 1, n)) == C("J", 1, n)
    assert join(C("J", 1, n), C("J", 1, n)) == C("J", 1, n)


def test_incomparable_pairs_match_exhaustive_scan():
    for n in range(2, 7):
        cols = elements(n)
        scanned = {frozenset((a, b)) for a, b in combinations(cols, 2)
                   if not comparable(a, b)}
        listed = [quadratic_relation(i, n)[0] for i in range(1, n)]
        assert listed == [(C("I", i, n), C("K", i - 1, n)) for i in range(1, n)]
        assert {frozenset(p) for p in listed} == scanned
        assert len(listed) == n - 1


def test_hasse_closure_agrees_with_birkhoff_order():
    # reachability over the covering relation, independent of ones_triple
    for n in range(2, 7):
        cols = elements(n)
        above = {c: {c} for c in cols}
        changed = True
        while changed:
            changed = False
            for low, high in covering_pairs(n):
                merged = above[low] | above[high]
                if merged != above[low]:
                    above[low] = merged
                    changed = True
        for a in cols:
            for b in cols:
                assert leq(a, b) == (b in above[a])


def test_lattice_axioms_exhaustive():
    for n in range(2, 6):
        cols = elements(n)
        for a in cols:
            for b in cols:
                assert meet(a, b) == meet(b, a)
                assert join(a, b) == join(b, a)
                assert leq(meet(a, b), a) and leq(meet(a, b), b)
                assert leq(a, join(a, b)) and leq(b, join(a, b))
                assert meet(a, join(a, b)) == a  # absorption
                assert join(a, meet(a, b)) == a
                assert leq(a, b) == (meet(a, b) == a) == (join(a, b) == b)
        for a in cols:
            for b in cols:
                for c in cols:
                    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
                    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


def test_sizes_weakly_decrease_upward():
    for n in range(2, 7):
        for a in elements(n):
            for b in elements(n):
                if leq(a, b):
                    assert a.size() >= b.size()


def test_gamma_cell_count():
    for n in range(2, 8):
        cells = gamma_cells(n)
        assert len(cells) == 3 * n - 1
        assert len(set(cells)) == len(cells)
        assert all(cell.pos <= min(cell.level, n) for cell in cells)


def test_birkhoff_complement_examples():
    assert chi(column_from_set([1, 2, 4, 5], 4)) == (
        (1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0))
    assert chi(column_from_set([1, 4], 4)) == (
        (1, 1, 0, 0), (1, 1, 0, 0), (1, 0, 0))
    assert chi(C("Jp", 0, 4)) == ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0))


def test_order_matches_zero_set_inclusion():
    for n in range(2, 7):
        cells = set(gamma_cells(n))
        zero = {c: cells - birkhoff_complement(c) for c in elements(n)}
        for a in elements(n):
            for b in elements(n):
                assert leq(a, b) == (zero[a] <= zero[b])


def test_zero_sets_are_order_decreasing():
    # within each level, ones form a prefix, and prefixes shrink downward
    for n in range(2, 7):
        for c in elements(n):
            rows = chi(c)
            for row in rows:
                assert all(row[i] >= row[i + 1] for i in range(len(row) - 1))
            m1, m2, m3 = (sum(row) for row in rows)
            assert m1 >= m2 >= m3 and m1 <= m2 + 1 and m2 <= m3 + 1
