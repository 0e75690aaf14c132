import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    add_rows,
    display_key,
    eval_poly,
    incomparable_pair_count,
    point_matrix,
    poly_from_json,
    rewrite_straighten,
)
from sympbranch import cli
from sympbranch import straighten as straighten_module
from sympbranch.diagrams import multiplicity
from sympbranch.exacteval import random_rational_matrix
from sympbranch.lattice import ColumnIndex, elements, join, leq, meet
from sympbranch.monomials import is_chain, monomial_triple
from sympbranch.straighten import (
    FormalPolynomial,
    canonical_monomial,
    column_weight,
    default_weight_base,
    format_poly,
    expansion_size,
    hibi_normal_form,
    lattice_weight,
    parse_poly,
    poly_to_json,
    quadratic_relation,
    straighten,
)


def C(kind, idx, n):
    return ColumnIndex(kind, idx, n)


def pair(i, n):
    return [C("I", i, n), C("K", i - 1, n)]


def two_term_image(i, n, coeff=1):
    return FormalPolynomial([
        ((C("Jp", i, n), C("J", i - 1, n)), coeff),
        ((C("J", i, n), C("Jp", i - 1, n)), -coeff),
    ])


def test_polynomial_canonicalization():
    n = 2
    p = FormalPolynomial([(tuple(pair(1, n)), 1),
                          (tuple(reversed(pair(1, n))), 2)])
    assert p == 3 * FormalPolynomial.monomial(pair(1, n))
    assert not (p - p)
    with pytest.raises(ValueError):
        canonical_monomial([C("I", 1, 2), C("I", 1, 3)])


def test_base_relation_all_indices():
    for n in (2, 3, 4):
        for i in range(1, n):
            got = straighten(FormalPolynomial.monomial(pair(i, n)))
            assert got == two_term_image(i, n)


def test_standard_monomials_are_fixed_points():
    n = 3
    for cols in [(), (C("J", 0, n),), (C("Jp", 1, n), C("J", 0, n)),
                 (C("J", 2, n), C("K", 1, n), C("Jp", 0, n))]:
        p = FormalPolynomial.monomial(cols)
        assert straighten(p) == p
        assert hibi_normal_form(p) == p


def test_squared_pair_expansion():
    n = 2
    sq = FormalPolynomial.monomial(pair(1, n)) * FormalPolynomial.monomial(pair(1, n))
    st = straighten(sq)
    jp1, j0, j1, jp0 = C("Jp", 1, n), C("J", 0, n), C("J", 1, n), C("Jp", 0, n)
    assert st == FormalPolynomial([
        ((jp1, jp1, j0, j0), 1),
        ((jp1, j0, j1, jp0), -2),
        ((j1, j1, jp0, jp0), 1),
    ])
    for seed in range(20):
        X = point_matrix(*random_rational_matrix(n, seed))
        assert eval_poly(st, X) == eval_poly(sq, X)


def test_closed_form_at_high_power():
    # the pair-at-a-time rewrite would take about 2^40 steps here
    n, k = 2, 40
    out = straighten(FormalPolynomial.monomial(pair(1, n) * k))
    meet, skew = (C("Jp", 1, n), C("J", 0, n)), (C("J", 1, n), C("Jp", 0, n))
    assert len(out.terms) == k + 1
    assert out == FormalPolynomial([(meet * (k - j) + skew * j,
                                     (-1) ** j * comb(k, j))
                                    for j in range(k + 1)])


def test_is_standard():
    n = 2
    assert is_chain(())
    assert not is_chain(tuple(pair(1, n)))
    assert is_chain((C("Jp", 1, n), C("J", 0, n)))


def test_lattice_weight_values():
    n, N = 2, 5
    weights = {kind_idx: column_weight(C(*kind_idx, n), N)
               for kind_idx in [("I", 1), ("K", 0), ("Jp", 1),
                                ("J", 0), ("J", 1), ("Jp", 0)]}
    assert weights == {("I", 1): 5, ("K", 0): 13, ("Jp", 1): 8,
                       ("J", 0): 10, ("J", 1): 7, ("Jp", 0): 15}
    assert lattice_weight(pair(1, n), N) == 18
    assert lattice_weight((C("Jp", 1, n), C("J", 0, n)), N) == 18
    assert lattice_weight((C("J", 1, n), C("Jp", 0, n)), N) == 22
    assert lattice_weight((), N) == 0
    with pytest.raises(ValueError):
        column_weight(C("I", 1, 2), 4)


def test_weight_identity_all_ranks():
    for n in range(2, 7):
        N = default_weight_base(n)
        for i in range(1, n):
            low = column_weight(C("I", i, n), N) + column_weight(C("K", i - 1, n), N)
            meetjoin = column_weight(C("Jp", i, n), N) + column_weight(C("J", i - 1, n), N)
            high = column_weight(C("J", i, n), N) + column_weight(C("Jp", i - 1, n), N)
            assert low == meetjoin < high


def test_rewrites_lower_the_incomparable_count():
    n = 3
    mono = canonical_monomial(pair(1, n) + pair(1, n) + pair(2, n))
    assert incomparable_pair_count(mono) == 5
    out = straighten(FormalPolynomial.monomial(mono))
    assert all(incomparable_pair_count(m) == 0 and is_chain(m)
               for m in out.terms)


def test_content_and_shape_preserved():
    # outputs only move the two largest entries around
    for n in (2, 3):
        for k in (2, 3):
            for combo in combinations_with_replacement(elements(n), k):
                out = straighten(FormalPolynomial.monomial(combo))
                d, _, f = monomial_triple(combo)
                small_content = sorted(e for c in combo
                                       for e in c.column_set() if e <= n - 1)
                for mono in out.terms:
                    d_out, _, f_out = monomial_triple(mono)
                    assert (d_out, f_out) == (d, f)
                    assert sorted(e for c in mono
                                  for e in c.column_set() if e <= n - 1) == small_content


def test_filtration_weights_increase():
    for n in (2, 3):
        N = default_weight_base(n)
        for k in (2, 3):
            for combo in combinations_with_replacement(elements(n), k):
                p = FormalPolynomial.monomial(combo)
                base = lattice_weight(combo, N)
                out = straighten(p)
                graded = hibi_normal_form(p)
                for mono in out.terms:
                    assert lattice_weight(mono, N) >= base
                equal_weight = {m for m in out.terms
                                if lattice_weight(m, N) == base}
                assert equal_weight == set(graded.terms)


def test_straighten_output_count_bounded_by_multiplicity():
    for n in (2, 3):
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(elements(n), k):
                out = straighten(FormalPolynomial.monomial(combo))
                d, _, f = monomial_triple(combo)
                assert len(out.terms) <= multiplicity(d, f, n)


def random_polynomial(n, rng):
    cols = elements(n)
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.choice(cols) for _ in range(rng.randint(0, 4)))
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        terms.append((mono, coeff))
    return FormalPolynomial(terms)


def test_expansion_size_counts_the_written_terms():
    # within one input term the expansion's terms are distinct monomials
    # with nonzero binomial coefficients, so none cancel before collecting
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(30):
            p = random_polynomial(n, rng)
            assert expansion_size(p) == sum(
                len(straighten(FormalPolynomial.monomial(mono)).terms)
                for mono in p.terms)
            assert expansion_size(p) >= len(straighten(p).terms)
    assert expansion_size(FormalPolynomial.monomial(pair(1, 2) * 9)) == 10
    assert expansion_size(FormalPolynomial()) == 0


def test_confluence_under_randomized_rewrites():
    for n in (2, 3, 4):
        rng = random.Random(n)
        for trial in range(25):
            p = random_polynomial(n, rng)
            reference = straighten(p)
            assert rewrite_straighten(p) == reference
            for chooser_seed in range(3):
                chooser = random.Random(1000 * trial + chooser_seed)
                assert rewrite_straighten(p, rng=chooser) == reference


@st.composite
def polynomials(draw):
    n = draw(st.integers(2, 5))
    cols = elements(n)
    col = st.sampled_from(cols) | st.sampled_from(
        [c for c in cols if c.kind in ("I", "K")])
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    mono = st.lists(col, max_size=9).map(tuple)
    return FormalPolynomial(draw(st.lists(st.tuples(mono, coeff),
                                          min_size=1, max_size=3)))


@settings(max_examples=150)
@given(polynomials(), st.integers(0, 2 ** 32))
def test_closed_form_matches_rewrite_oracle(p, chooser_seed):
    chooser = random.Random(chooser_seed)
    assert straighten(p) == rewrite_straighten(p, rng=chooser)


def test_straighten_soundness_random_evaluation():
    rng = random.Random(0)
    for n in (2, 3):
        for _ in range(20):
            p = random_polynomial(n, rng)
            st = straighten(p)
            X = point_matrix(*random_rational_matrix(n, rng.getrandbits(64)))
            assert eval_poly(st, X) == eval_poly(p, X)


def test_hibi_normal_form_examples():
    n = 2
    assert hibi_normal_form(FormalPolynomial.monomial(pair(1, n))) == \
        FormalPolynomial.monomial([C("Jp", 1, n), C("J", 0, n)])
    p = FormalPolynomial.monomial(pair(1, n), coeff=Fraction(3, 2))
    assert hibi_normal_form(p) == FormalPolynomial.monomial(
        [C("Jp", 1, n), C("J", 0, n)], coeff=Fraction(3, 2))


def test_hibi_product_matches_pattern_sum():
    n = 3
    m1 = (C("I", 1, n), C("J", 0, n))
    m2 = (C("K", 0, n),)
    (prod, coeff), = hibi_normal_form(FormalPolynomial.monomial(m1 + m2)).terms.items()
    assert coeff == 1 and is_chain(prod)
    assert monomial_triple(prod) == add_rows(monomial_triple(m1),
                                             monomial_triple(m2))


def test_format_and_parse_round_trip():
    n = 2
    p = two_term_image(1, n) + FormalPolynomial.monomial([], coeff=Fraction(3, 2))
    text = format_poly(p)
    assert parse_poly(text, n) == p
    assert format_poly(straighten(FormalPolynomial.monomial(pair(1, n)))) == \
        "[J'1,J0] - [J1,J'0]"
    assert format_poly(FormalPolynomial()) == "0"
    assert parse_poly("1*[I1,K0] - 2*[J1,J'0]", n) == \
        FormalPolynomial.monomial(pair(1, n)) - \
        2 * FormalPolynomial.monomial([C("J", 1, n), C("Jp", 0, n)])


def test_parse_errors():
    for bad in ("", "[I1,K0", "2*", "[I1] [J0]", "[Q9]"):
        with pytest.raises(ValueError):
            parse_poly(bad, 2)


def test_poly_json_round_trip():
    n = 2
    p = two_term_image(1, n, coeff=Fraction(5, 3))
    assert poly_from_json(poly_to_json(p), n) == p
    assert poly_to_json(p)[0]["coeff"] == "5/3"


def test_terms_are_held_in_weight_order():
    n = 2
    p = two_term_image(1, n)
    monos = list(p.terms)
    weights = [lattice_weight(m, default_weight_base(n)) for m in monos]
    assert weights == sorted(weights)
    assert list((-p).terms) == list((3 * p).terms) == monos


def test_meet_join_term_is_the_meet_and_join_of_the_pair():
    for n in range(2, 7):
        for i in range(1, n):
            pair, meet_join, skew = quadratic_relation(i, n)
            assert pair == (C("I", i, n), C("K", i - 1, n))
            assert not leq(*pair) and not leq(*reversed(pair))
            assert meet_join == (meet(*pair), join(*pair))
            assert skew == (C("J", i, n), C("Jp", i - 1, n))


@st.composite
def polynomial_texts(draw):
    """Rank n and two sums of up to four terms with fractional coefficients."""
    n = draw(st.integers(2, 4))
    tokens = [c.token() for c in elements(n)]
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    mono = st.lists(st.sampled_from(tokens), max_size=6)
    texts = []
    for _ in range(2):
        terms = draw(st.lists(st.tuples(coeff, mono), min_size=1, max_size=4))
        texts.append(" ".join(f"{'-' if c < 0 else '+'} {abs(c)}*[{','.join(m)}]"
                              for c, m in terms))
    return n, *texts


@settings(max_examples=150)
@given(polynomial_texts(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_terms_follow_the_display_oracle(texts, scalar):
    # The oracle orders by weight from the column sets, then degree, then
    # Birkhoff triples; every way to make a polynomial must list its terms
    # in that order, ties and all.
    n, first, second = texts
    p, q = parse_poly(first, n), parse_poly(second, n)
    made = [p, q, p + q, p - q, -p, scalar * p, p * scalar, p * q,
            straighten(p), straighten(p * q), hibi_normal_form(p + q)]
    for r in made:
        keys = [display_key(m) for m in r.terms]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert format_poly(r) == format_poly(FormalPolynomial(
            reversed(list(r.terms.items()))))


@pytest.mark.parametrize("hibi", [(), ("--hibi",)])
def test_straighten_sorts_each_term_once(monkeypatch, capsys, hibi):
    # Terms are put in display order once, when a polynomial is made: one
    # key per input term when parsed, one per result term when rewritten.
    calls = []
    key = straighten_module._term_sort_key
    monkeypatch.setattr(straighten_module, "_term_sort_key",
                        lambda mono: calls.append(mono) or key(mono))
    for expr, n in (("[I1,K0]", 2), ("[I1,K0,I1,K0,I1,K0]", 2),
                    ("2*[I2,K1,I1,K0] - 3/2*[J0] + [K1,I2,J'1]", 3)):
        inputs = len(parse_poly(expr, n).terms)
        calls.clear()
        assert cli.main(["straighten", expr, "--n", str(n), "--json", *hibi]) == 0
        results = len(json.loads(capsys.readouterr().out)["terms"])
        # a single term needs no sort, so its key is never computed
        assert len(calls) == sum(k for k in (inputs, results) if k > 1)
