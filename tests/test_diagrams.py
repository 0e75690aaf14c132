import random
from itertools import product

import pytest
from hypothesis import given, settings

from conftest import (
    all_diagrams,
    branching_oracle,
    brute_middles,
    diagram_pairs,
    interlace_oracle,
    margin_tensor_factors,
    margin_tl_weight,
    multiplicity_nonzero,
    parse_order_type,
    satisfies,
    weyl_character,
)
from sympbranch.diagrams import (
    EQ,
    GE,
    LE,
    enumerate_middle,
    middle_ranges,
    multiplicity,
    normalize,
    order_type_of,
    order_type_str,
    part,
    tensor_factors,
    tl_weights,
    transpose,
)


def tl_weight(d, e, f, n):
    weight, = tl_weights(middle_ranges(d, f, n), [e])
    return weight


def test_normalize():
    assert normalize([3, 2, 0, 0]) == (3, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize([1, 2])
    with pytest.raises(ValueError):
        normalize([2, -1])


def test_transpose():
    assert transpose((6, 4, 2, 1)) == (4, 3, 2, 2, 1, 1)
    assert transpose(()) == ()
    assert transpose(transpose((5, 4, 3, 2))) == (5, 4, 3, 2)


def test_interlaces_examples():
    assert interlace_oracle((4, 4, 2, 1), (5, 4, 3, 2))
    assert interlace_oracle((), ())
    assert not interlace_oracle((3,), (1, 1))
    assert interlace_oracle((4, 3, 1), (4, 4, 2, 1))


def test_interlaces_matches_oracle():
    # e lies in the middle ranges exactly when d interlaces e and e interlaces f
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                ranges = middle_ranges(d, f, n)
                for e in all_diagrams(3, n):
                    inside = all(part(e, i) in r for i, r in enumerate(ranges, 1))
                    assert inside == (interlace_oracle(d, e)
                                      and interlace_oracle(e, f))


def test_multiplicity_frozen_values():
    # expected values computed by the exhaustive search in brute_middles
    assert multiplicity((4, 3, 1), (5, 4, 3, 2), 4) == 16
    assert multiplicity((), (), 2) == 1
    assert multiplicity((1,), (1, 1), 2) == 2
    assert multiplicity((3,), (1, 1), 2) == 0


def test_multiplicity_against_brute_force():
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                expected = brute_middles(d, f, n)
                assert multiplicity(d, f, n) == len(expected)
                got = enumerate_middle(d, f, n)
                assert got == [normalize(e) for e in expected]


def test_multiplicity_against_brute_force_rank4_sample():
    rng = random.Random(4)
    ds = all_diagrams(4, 3)
    fs = all_diagrams(4, 4)
    for _ in range(150):
        d, f = rng.choice(ds), rng.choice(fs)
        assert multiplicity(d, f, 4) == len(brute_middles(d, f, 4))


def test_enumerate_middle_contains_worked_value():
    middles = enumerate_middle((4, 3, 1), (5, 4, 3, 2), 4)
    assert (4, 4, 2, 1) in middles
    assert len(middles) == 16
    assert middles == sorted(middles)
    assert enumerate_middle((), (), 2) == [()]
    assert enumerate_middle((1,), (1, 1), 2) == [(1,), (1, 1)]


@settings(max_examples=300)
@given(diagram_pairs(7, 6))
def test_enumerate_middle_matches_normalized_product(pair):
    d, f, n = pair
    assert enumerate_middle(d, f, n) == \
        [normalize(e) for e in product(*middle_ranges(d, f, n))]


def test_length_validation():
    with pytest.raises(ValueError):
        multiplicity((1, 1), (1,), 2)  # D needs at most n-1 rows
    with pytest.raises(ValueError):
        multiplicity((1,), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        multiplicity((), (), 1)


def test_multiplicity_nonzero_examples():
    assert multiplicity_nonzero((4, 3, 1), (5, 4, 3, 2))
    assert not multiplicity_nonzero((3,), (1, 1))
    assert multiplicity_nonzero((), ())


def test_multiplicity_nonzero_iff_positive():
    for n in (2, 3, 4):
        for d in all_diagrams(4, n - 1):
            for f in all_diagrams(4, n):
                assert multiplicity_nonzero(d, f) == (multiplicity(d, f, n) > 0)


def test_order_type_examples():
    assert order_type_of((3, 0), (3, 2, 1), 3) == (GE, LE)
    assert order_type_of((2, 0), (3, 2, 1), 3) == (EQ, LE)
    assert order_type_of((2, 2), (2, 2, 2), 3) == (EQ, EQ)


def test_order_type_text_forms():
    assert order_type_str((GE, LE, EQ)) == ">=<=="
    assert parse_order_type(">=<==") == (GE, LE, EQ)
    assert parse_order_type("=<=") == (EQ, LE)
    with pytest.raises(ValueError):
        parse_order_type(">x")


def test_satisfies_semantics():
    assert satisfies((EQ, LE), (GE, LE))
    assert satisfies((EQ, LE), (LE, LE))
    assert not satisfies((GE, LE), (LE, LE))
    with pytest.raises(ValueError):
        satisfies((EQ,), (GE, LE))


def test_order_type_closed_under_addition():
    n = 3
    small = [(d, f) for d in all_diagrams(2, n - 1) for f in all_diagrams(2, n)]
    for sigma in product((GE, LE), repeat=n - 1):
        members = [(d, f) for d, f in small
                   if satisfies(order_type_of(d, f, n), sigma)]
        for d1, f1 in members[::3]:
            for d2, f2 in members[::4]:
                d = [part(d1, i) + part(d2, i) for i in range(1, n)]
                f = [part(f1, i) + part(f2, i) for i in range(1, n + 1)]
                assert satisfies(order_type_of(d, f, n), sigma)


def test_tensor_factors_examples():
    # sorted margin of ((4,3,1), (5,4,3,2)) is (5,4,4,3,3,2,1,0)
    for (d, f, n), r in ((((4, 3, 1), (5, 4, 3, 2), 4), (1, 1, 1, 1)),
                         (((2, 2), (2, 2), 3), (0, 0, 0)),
                         (((), (), 2), (0, 0))):
        assert tensor_factors(d, f, n) == r == margin_tensor_factors(d, f, n)
    with pytest.raises(ValueError, match=r"\(3,\), \(1, 1\)"):
        tensor_factors((3,), (1, 1), 2)


def test_tensor_factor_product_counts_multiplicity():
    for n in (2, 3, 4):
        for d in all_diagrams(4, n - 1):
            for f in all_diagrams(4, n):
                if not multiplicity_nonzero(d, f):
                    with pytest.raises(ValueError):
                        tensor_factors(d, f, n)
                    continue
                r = tensor_factors(d, f, n)
                assert r == margin_tensor_factors(d, f, n)
                expected = 1
                for ri in r:
                    expected *= ri + 1
                assert expected == multiplicity(d, f, n)


def test_tl_weight_worked_example():
    assert tl_weight((4, 3, 1), (4, 4, 2, 1), (5, 4, 3, 2), 4) == (-1, 1, -1, 1)
    assert tl_weight((2,), (2, 1), (2, 2), 2) == (0, 0)


def test_tl_weights_fill_the_tensor_box():
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                if not multiplicity_nonzero(d, f):
                    continue
                r = margin_tensor_factors(d, f, n)
                box = set(product(*(range(-ri, ri + 1, 2) for ri in r)))
                middles = enumerate_middle(d, f, n)
                for e in middles:
                    assert tl_weight(d, e, f, n) == margin_tl_weight(d, e, f, n)
                weights = {tl_weight(d, e, f, n) for e in middles}
                assert weights == box
                for w in weights:
                    assert all(abs(wi) <= ri and (wi - ri) % 2 == 0
                               for wi, ri in zip(w, r))


def test_weyl_characters_of_small_representations():
    assert weyl_character((), 3) == {(0, 0, 0): 1}
    standard = weyl_character((1,), 3)  # the 6 weights +-e_i
    assert standard == {w: 1 for i in range(3) for w in (
        tuple(int(k == i) for k in range(3)), tuple(-int(k == i) for k in range(3)))}
    # Weyl's dimension formula for Sp(4): (l1-l2+1)(l2+1)(l1+2)(l1+l2+3)/6
    for l1 in range(4):
        for l2 in range(l1 + 1):
            dim = (l1 - l2 + 1) * (l2 + 1) * (l1 + 2) * (l1 + l2 + 3) // 6
            assert sum(weyl_character((l1, l2), 2).values()) == dim
    ch = weyl_character((2, 1), 3)  # invariant under signed permutations
    assert all(ch.get((c, a, -b)) == v for (a, b, c), v in ch.items())


def _sl2_strings(r):
    """The character prod_i (x^r_i + x^(r_i - 2) + ... + x^-r_i) as a dict."""
    out = {0: 1}
    for ri in r:
        step = {}
        for k, c in out.items():
            for t in range(ri + 1):
                step[k + ri - 2 * t] = step.get(k + ri - 2 * t, 0) + c
        out = step
    return out


def _check_against_weyl(d, f, n, branching):
    """multiplicity is the dimension of the D-isotypic part of V_F, and the
    Sp(2) torus acts on it by the tensor factors' SL2 strings."""
    got = branching.get(d, {})
    assert multiplicity(d, f, n) == sum(got.values())
    if got:
        assert got == _sl2_strings(tensor_factors(d, f, n))


def test_branching_matches_weyl_characters():
    # F with parts <= 4, 3, 2 at n = 2, 3, 4; D with parts up to one more
    for n, top in ((2, 4), (3, 3), (4, 2)):
        for f in all_diagrams(top, n):
            branching = branching_oracle(f, n)
            assert all(multiplicity(d, f, n) for d in branching)
            for d in all_diagrams(top + 1, n - 1):
                _check_against_weyl(d, f, n, branching)


@settings(max_examples=25)
@given(diagram_pairs(4, 3))
def test_branching_matches_weyl_characters_on_random_pairs(pair):
    d, f, n = pair
    _check_against_weyl(d, f, n, branching_oracle(f, n))
