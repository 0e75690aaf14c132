import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assemble_rows,
    chain_order_type,
    chains_up_to,
    column_from_set,
    diagram_pairs,
    incomparable_pair_count,
    is_semistandard,
    natural_sl2_weight,
    standard_oracle,
    tokens,
    triple_oracle,
)
from sympbranch import monomials
from sympbranch.diagrams import (
    EQ,
    GE,
    LE,
    enumerate_middle,
    middle_ranges,
    multiplicity,
    normalize,
    order_type_of,
    part,
    tl_weights,
)
from sympbranch.lattice import ColumnIndex, elements
from sympbranch.monomials import (
    build_chains,
    is_chain,
    monomial_triple,
    sample_chain,
    standard_monomial,
    tableau_of_triple,
)


def columns_of(sets, n):
    return tuple(column_from_set(s, n) for s in sets)


def tableau(m, n):
    return tableau_of_triple(*monomial_triple(m), n)


def basis(d, f, n):
    return build_chains(d, f, n, enumerate_middle(d, f, n))


WORKED_CHAIN_SETS = ([1, 2, 3, 4], [1, 2, 4, 5], [1, 2, 5], [1, 4], [5])


@pytest.fixture
def worked_chain():
    return standard_monomial(columns_of(WORKED_CHAIN_SETS, 4))


def test_is_chain_examples(worked_chain):
    assert is_chain(worked_chain)
    assert not is_chain([ColumnIndex("I", 1, 4), ColumnIndex("K", 0, 4)])
    assert is_chain([ColumnIndex("I", 1, 4)])
    assert is_chain([])


def test_standard_monomial_validation():
    with pytest.raises(ValueError, match="not a chain"):
        standard_monomial((ColumnIndex("I", 1, 4), ColumnIndex("K", 0, 4)))
    with pytest.raises(ValueError, match="not a chain"):
        standard_monomial((ColumnIndex("K", 1, 4), ColumnIndex("J", 0, 4),
                           ColumnIndex("I", 2, 4)))
    with pytest.raises(ValueError, match="mixed ranks"):
        standard_monomial((ColumnIndex("I", 1, 3), ColumnIndex("J", 0, 4)))
    assert standard_monomial(()) == ()


def test_canonical_order(worked_chain):
    assert tokens(worked_chain) == ["J3", "K2", "J'2", "J1", "J'0"]
    shuffled = standard_monomial(reversed(worked_chain))
    assert shuffled == worked_chain


def test_shape_examples(worked_chain):
    d, _, f = monomial_triple(worked_chain)
    assert (d, f) == ((4, 3, 1), (5, 4, 3, 2))
    assert monomial_triple(()) == ((), (), ())
    small = columns_of(([1, 2, 4, 5], [1, 2, 5], [1, 4]), 4)
    d, _, f = monomial_triple(small)
    assert (d, f) == ((3, 2), (3, 3, 2, 1))


def test_tableau_examples(worked_chain):
    assert tableau(worked_chain, 4) == (
        (1, 1, 1, 1, 5), (2, 2, 2, 4), (3, 4, 5), (4, 5))
    small = standard_monomial(columns_of(([1, 2, 4, 5], [1, 2, 5], [1, 4]), 4))
    assert tableau(small, 4) == ((1, 1, 1), (2, 2, 4), (4, 5), (5,))
    single = standard_monomial((column_from_set([1, 2], 3),))
    assert tableau(single, 3) == ((1,), (2,))
    assert tableau((), 3) == ()


def test_middle_diagram_examples(worked_chain):
    assert monomial_triple(worked_chain)[1] == (4, 4, 2, 1)
    small = columns_of(([1, 2, 4, 5], [1, 2, 5], [1, 4]), 4)
    assert monomial_triple(small)[1] == (3, 3, 1)


def test_from_triple_worked_example(worked_chain):
    assert build_chains((4, 3, 1), (5, 4, 3, 2), 4, [(4, 4, 2, 1)]) == \
        [worked_chain]
    assert build_chains((), (), 4, [()]) == [()]
    assert build_chains((3,), (1, 1), 2, [(1,)]) == []  # multiplicity 0


def test_round_trip_on_all_small_chains():
    for n in (2, 3, 4):
        seen = {}
        for m in chains_up_to(n, 4 if n < 4 else 3):
            key = d, e, f = monomial_triple(m)
            assert build_chains(d, f, n, [e]) == [m]
            assert key not in seen, f"{m} and {seen[key]} collide"
            seen[key] = m


def test_tableau_of_triple_matches_the_column_oracle():
    for n in (2, 3, 4):
        for m in chains_up_to(n, 4 if n < 4 else 3):
            assert tableau(m, n) == assemble_rows(m)


def test_semistandard_iff_chain():
    from itertools import combinations_with_replacement
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(elements(n), k):
                assert is_semistandard(assemble_rows(combo)) == is_chain(combo)


def test_enumerate_standard_counts():
    chains = basis((4, 3, 1), (5, 4, 3, 2), 4)
    assert len(chains) == 16 == multiplicity((4, 3, 1), (5, 4, 3, 2), 4)
    for m in chains:
        d, _, f = monomial_triple(m)
        assert (d, f) == ((4, 3, 1), (5, 4, 3, 2))
    assert basis((), (), 3) == [()]


@settings(max_examples=300)
@given(diagram_pairs(6, 8))
def test_enumerate_standard_matches_column_oracle(pair):
    d, f, n = pair
    chains = basis(d, f, n)
    assert chains == standard_oracle(d, f, n)
    if multiplicity(d, f, n) == 0:
        assert chains == []


def test_enumerate_standard_reads_the_pair_once(monkeypatch):
    calls = {"standard_monomial": 0, "transpose": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(monomials, "standard_monomial")
    counted(monomials, "transpose")
    assert len(basis((4, 3, 1), (5, 4, 3, 2), 4)) == 16
    assert calls == {"standard_monomial": 0, "transpose": 2}


@settings(max_examples=200)
@given(diagram_pairs(6, 5), st.randoms(use_true_random=False))
def test_chains_are_built_in_canonical_order(pair, rng):
    d, f, n = pair
    for m in basis(d, f, n):
        cols = list(m)
        rng.shuffle(cols)
        assert standard_monomial(cols) == m


def test_chain_order_type_examples():
    n = 4
    only_i2 = (ColumnIndex("I", 2, n),)
    assert chain_order_type(only_i2, n) == (EQ, GE, EQ)
    js = standard_monomial(columns_of(([1, 4], [5]), n))
    assert chain_order_type(js, n) == (EQ, EQ, EQ)
    k0 = (ColumnIndex("K", 0, n),)
    assert chain_order_type(k0, n) == (LE, EQ, EQ)


def test_chain_type_matches_shape_type(chains_by_rank):
    # the shape comparison d_i vs f_{i+1} counts I_i minus K_{i-1} occurrences
    for n, chains in chains_by_rank.items():
        for m in chains:
            d, _, f = monomial_triple(m)
            assert order_type_of(d, f, n) == chain_order_type(m, n)


def test_natural_weight_examples(worked_chain):
    assert natural_sl2_weight(worked_chain) == 0
    n = 4
    assert natural_sl2_weight((ColumnIndex("J", 0, n),)) == 1
    assert natural_sl2_weight((ColumnIndex("Jp", 0, n),)) == -1
    assert natural_sl2_weight((ColumnIndex("I", 1, n),)) == 0
    assert natural_sl2_weight((ColumnIndex("K", 0, n),)) == 0


def test_torus_weight_sum_matches_natural_weight(chains_by_rank):
    for n, chains in chains_by_rank.items():
        for m in chains:
            d, e, f = monomial_triple(m)
            weight, = tl_weights(middle_ranges(d, f, n), [e])
            assert sum(weight) == natural_sl2_weight(m)


def test_sample_chain(worked_chain):
    assert sample_chain(4) == worked_chain
    for n in (2, 3, 5):
        m = sample_chain(n)
        kinds = {c.kind for c in m}
        assert {"J", "Jp", "K"} <= kinds
        assert standard_monomial(m) == m


def test_tableau_semistandard_predicate():
    assert is_semistandard(((1, 1, 2), (2, 3)))
    assert not is_semistandard(((1, 2), (1, 3)))  # column repeats
    assert not is_semistandard(((2, 1),))  # row decreases
    assert not is_semistandard(((1,), (1, 2)))  # ragged upward


def _interlaced_below(draw, hi, length):
    """A diagram of at most ``length`` rows interlacing ``hi``."""
    return normalize([draw(st.integers(part(hi, i + 1), part(hi, i)))
                      for i in range(1, length + 1)])


@st.composite
def doubly_interlacing_triples(draw):
    n = draw(st.integers(2, 6))
    f = normalize(sorted(draw(st.lists(st.integers(0, 8), max_size=n)),
                         reverse=True))
    e = _interlaced_below(draw, f, n)
    return _interlaced_below(draw, e, n - 1), e, f, n


@settings(max_examples=300)
@given(doubly_interlacing_triples())
def test_from_triple_round_trips_through_monomial_triple(triple):
    d, e, f, n = triple
    chain, = build_chains(d, f, n, [e])
    assert monomial_triple(chain) == (d, e, f)


@st.composite
def column_multisets(draw):
    n = draw(st.integers(2, 6))
    cols = elements(n)
    col = st.sampled_from(cols) | st.sampled_from(
        [c for c in cols if c.kind in ("I", "K")])
    return draw(st.lists(col, max_size=10)), n


@settings(max_examples=300)
@given(column_multisets())
def test_monomial_triple_and_is_chain_match_oracles(multiset):
    cols, n = multiset
    assert monomial_triple(cols) == triple_oracle(cols, n)
    assert is_chain(cols) == (incomparable_pair_count(cols) == 0)
