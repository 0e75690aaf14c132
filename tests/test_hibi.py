import json
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings

from conftest import (
    add_rows,
    all_diagrams,
    birkhoff_complement,
    chi,
    column_from_set,
    count_patterns,
    diagram_pairs,
    gamma_cells,
    is_order_preserving,
    multiplicity_nonzero,
    tokens,
    triple_oracle,
)
from sympbranch.cli import main
from sympbranch.diagrams import enumerate_middle, multiplicity, normalize
from sympbranch.hibi import pattern_rows, pretty
from sympbranch.lattice import elements, leq
from sympbranch.monomials import (
    build_chains,
    is_chain,
    monomial_triple,
    standard_monomial,
)
from sympbranch.straighten import FormalPolynomial, hibi_normal_form


def pattern(cols, n):
    """The pattern of a column multiset: its padded (F, E, D) rows."""
    return pattern_rows(*monomial_triple(cols), n)


def zero(n):
    return (0,) * n, (0,) * n, (0,) * (n - 1)


def test_pattern_validation():
    with pytest.raises(ValueError):
        pattern_rows((), (), (1, 1, 1), 2)  # f longer than n
    with pytest.raises(ValueError):
        pattern_rows((1, 1), (), (), 2)  # d longer than n - 1
    with pytest.raises(ValueError):
        pattern_rows((), (), (1, -1), 2)
    with pytest.raises(ValueError):
        pattern_rows((), (1, 2), (2, 2), 2)
    assert pattern_rows((2,), [2, 1, 0], (3, 2), 2) == ((3, 2), (2, 1), (2,))
    assert pattern_rows((), (), (), 3) == zero(3)


def test_is_order_preserving():
    assert is_order_preserving((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    assert not is_order_preserving((1, 0), (0, 1), (0,))
    assert not is_order_preserving((2, 0), (1, 0), (2,))
    assert is_order_preserving(*zero(3))
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                for e in enumerate_middle(d, f, n):
                    assert is_order_preserving(*pattern_rows(d, e, f, n))


def test_chi_displays():
    a = pattern((column_from_set([1, 2, 4, 5], 4),), 4)
    b = pattern((column_from_set([1, 2, 5], 4),), 4)
    c = pattern((column_from_set([1, 4], 4),), 4)
    assert a == ((1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0))
    assert b == ((1, 1, 1, 0), (1, 1, 0, 0), (1, 1, 0))
    assert c == ((1, 1, 0, 0), (1, 1, 0, 0), (1, 0, 0))
    jp0 = pattern((column_from_set([5], 4),), 4)
    assert jp0 == ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0))


def test_chi_matches_birkhoff_cells():
    for n in (2, 3, 4):
        for col in elements(n):
            cells = birkhoff_complement(col)
            p = pattern((col,), n)
            assert p == chi(col)
            rows = dict(zip((n + 1, n, n - 1), p))
            for cell in gamma_cells(n):
                assert rows[cell.level][cell.pos - 1] == int(cell in cells)


def test_chain_to_pattern_examples():
    n = 4
    small = [column_from_set(s, n) for s in ([1, 2, 4, 5], [1, 2, 5], [1, 4])]
    assert pattern(small, n) == ((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    worked = [column_from_set(s, n) for s in
              ([1, 2, 3, 4], [1, 2, 4, 5], [1, 2, 5], [1, 4], [5])]
    assert pattern(worked, n) == ((5, 4, 3, 2), (4, 4, 2, 1), (4, 3, 1))
    assert pattern((), n) == zero(n)


def test_chain_pattern_rows_match_shape_and_middle():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(elements(n), k):
                if not is_chain(combo):
                    continue
                p = pattern(combo, n)
                assert p == pattern_rows(*triple_oracle(combo, n), n)
                assert p == add_rows(*map(chi, combo))


def test_pattern_to_chain_examples():
    top, mid, bot = (3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0)
    chain, = build_chains(normalize(bot), normalize(top), 4, [normalize(mid)])
    assert tokens(chain) == ["K2", "J'2", "J1"]
    assert build_chains((), (), 3, [()]) == [()]


def test_pattern_round_trip_on_chains():
    for n, max_cols in ((2, 4), (3, 4), (4, 3)):
        for k in range(max_cols + 1):
            for combo in combinations_with_replacement(elements(n), k):
                if not is_chain(combo):
                    continue
                m = standard_monomial(combo)
                top, mid, bot = pattern(m, n)
                d, e, f = normalize(bot), normalize(mid), normalize(top)
                assert (d, e, f) == monomial_triple(m)
                assert build_chains(d, f, n, [e]) == [m]


def test_add():
    n = 4
    a, b, c = (column_from_set(s, n) for s in ([1, 2, 4, 5], [1, 2, 5], [1, 4]))
    total = add_rows(chi(a), chi(b), chi(c))
    assert total == ((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    assert total == pattern((a, b, c), n)
    assert add_rows(total, zero(n)) == total
    rng = random.Random(0)
    cols = elements(n)
    for _ in range(20):
        p, q = rng.choice(cols), rng.choice(cols)
        assert add_rows(chi(p), chi(q)) == add_rows(chi(q), chi(p))
        assert add_rows(chi(p), chi(q)) == pattern((p, q), n)
        assert is_order_preserving(*add_rows(chi(p), chi(q)))


def test_count_patterns_examples():
    assert count_patterns((4, 3, 1), (5, 4, 3, 2), 4) == 16
    assert count_patterns((), (), 2) == 1
    assert count_patterns((1,), (1, 1), 2) == 2


def _chain_count(d, f, n):
    return len(build_chains(d, f, n, enumerate_middle(d, f, n)))


def test_count_patterns_matches_multiplicity():
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                assert count_patterns(d, f, n) == multiplicity(d, f, n) == \
                    _chain_count(d, f, n)


@settings(max_examples=150)
@given(diagram_pairs(5, 6))
def test_count_patterns_oracle_matches_multiplicity(pair):
    d, f, n = pair
    assert count_patterns(d, f, n) == multiplicity(d, f, n) == \
        _chain_count(d, f, n)


def test_chi_is_an_order_isomorphism():
    for n in (2, 3, 4, 5):
        cols = elements(n)
        zero_sets = {}
        for col in cols:
            rows = pattern((col,), n)
            zero_sets[col] = {(level, j)
                              for level, row in zip((n + 1, n, n - 1), rows)
                              for j, v in enumerate(row, start=1) if v == 0}
        for a in cols:
            for b in cols:
                assert leq(a, b) == (zero_sets[a] <= zero_sets[b])


def test_product_homomorphism_small():
    n = 3
    chains = [standard_monomial(c)
              for k in (0, 1, 2)
              for c in combinations_with_replacement(elements(n), k)
              if is_chain(c)]
    for m1 in chains:
        for m2 in chains:
            product = hibi_normal_form(
                FormalPolynomial.monomial(m1 + m2))
            (mono, coeff), = product.terms.items()
            assert coeff == 1 and is_chain(mono)
            assert pattern(mono, n) == add_rows(pattern(m1, n), pattern(m2, n))


def test_margin_fixing():
    # patterns with fixed top and bottom rows are exactly the middle diagrams
    n = 3
    d, f = (2, 1), (3, 2, 1)
    assert multiplicity_nonzero(d, f)
    mids = {pattern(m, n)[1]
            for m in build_chains(d, f, n, enumerate_middle(d, f, n))}
    assert len(mids) == count_patterns(d, f, n)


def test_pretty_layout():
    assert pretty(((3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))).splitlines() == [
        "3     3     2     1",
        "   3     3     1     0",
        "      3     2     0",
    ]


def test_pattern_json(capsys):
    assert main(["degenerate", "1", "2,1", "--n", "2", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["patterns"]
    assert [(e["top"], e["mid"], e["bot"]) for e in entries] == [
        ([2, 1], [1, 0], [1]), ([2, 1], [1, 1], [1]),
        ([2, 1], [2, 0], [1]), ([2, 1], [2, 1], [1])]
    assert {k for e in entries for k in e} == {"monomial", "top", "mid", "bot"}
