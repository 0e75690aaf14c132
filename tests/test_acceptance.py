"""End-to-end acceptance checks; run with `pytest tests/test_acceptance.py -v -s`.

Each test prints one PASS/FAIL line.  All assertions are exact; the timed
criteria measure a warmed-up call with time.perf_counter.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from conftest import (
    add_rows,
    all_diagrams,
    chain_order_type,
    column_from_set,
    count_patterns,
    eval_poly,
    margin_tensor_factors,
    multiplicity_nonzero,
    point_matrix,
    satisfies,
)
from sympbranch.diagrams import (
    GE,
    LE,
    enumerate_middle,
    middle_ranges,
    multiplicity,
    tensor_factors,
    tl_weights,
)
from sympbranch.exacteval import (
    independence_certificate,
    random_rational_matrix,
    random_torus_element,
    verify_generator_weight,
    verify_straightening_identity,
    verify_torus_weight,
)
from sympbranch.hibi import pattern_rows
from sympbranch.lattice import ColumnIndex, elements
from sympbranch.monomials import (
    build_chains,
    is_chain,
    monomial_triple,
    sample_chain,
    standard_monomial,
)
from sympbranch.straighten import (
    FormalPolynomial,
    column_weight,
    hibi_normal_form,
    straighten,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def best_time(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_worked_chain_reproduction():
    sets = ([1, 2, 3, 4], [1, 2, 4, 5], [1, 2, 5], [1, 4], [5])

    def run():
        m = standard_monomial(column_from_set(s, 4) for s in sets)
        return m, monomial_triple(m)

    (m, triple), elapsed = best_time(run)
    ok = (triple == ((4, 3, 1), (4, 4, 2, 1), (5, 4, 3, 2))
          and build_chains((4, 3, 1), (5, 4, 3, 2), 4, [(4, 4, 2, 1)]) == [m])
    report("criterion 1: worked chain shape/middle/round-trip",
           ok and elapsed < 1e-3, f"{elapsed * 1e6:.0f} us")


def test_criterion_2_torus_weight_reproduction():
    value, elapsed = best_time(lambda: tl_weights(
        middle_ranges((4, 3, 1), (5, 4, 3, 2), 4), [(4, 4, 2, 1)])[0])
    report("criterion 2: torus weight of the worked triple",
           value == (-1, 1, -1, 1) and elapsed < 1e-3,
           f"weight={value}, {elapsed * 1e6:.0f} us")


def test_criterion_3_characteristic_patterns():
    cols = [column_from_set(s, 4) for s in ([1, 2, 4, 5], [1, 2, 5], [1, 4])]
    a, b, c = (pattern_rows(*monomial_triple((col,)), 4) for col in cols)
    displays_ok = (
        a == ((1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0))
        and b == ((1, 1, 1, 0), (1, 1, 0, 0), (1, 1, 0))
        and c == ((1, 1, 0, 0), (1, 1, 0, 0), (1, 0, 0)))
    total = pattern_rows(*monomial_triple(cols), 4)
    sum_ok = total == add_rows(a, b, c) == (
        (3, 3, 2, 1), (3, 3, 1, 0), (3, 2, 0))
    report("criterion 3: characteristic patterns and their sum",
           displays_ok and sum_ok)


def _random_polynomial(n, rng):
    cols = elements(n)
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.choice(cols) for _ in range(rng.randint(0, 4)))
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        terms.append((mono, coeff))
    return FormalPolynomial(terms)


def test_criterion_4_straightening_soundness():
    start = time.perf_counter()
    rng = random.Random(2024)
    relations_ok = True
    for n in (2, 3, 4, 5):
        for _ in range(1000):
            X = random_rational_matrix(n, rng.getrandbits(64))
            if not verify_straightening_identity(X):
                relations_ok = False
    eval_ok = True
    for k in range(100):
        n = 2 + k % 3
        p = _random_polynomial(n, rng)
        X = point_matrix(*random_rational_matrix(n, rng.getrandbits(64)))
        if eval_poly(straighten(p), X) != eval_poly(p, X):
            eval_ok = False
    elapsed = time.perf_counter() - start
    report("criterion 4: 4000 quadratic identities + 100 polynomial rewrites",
           relations_ok and eval_ok and elapsed < 30, f"{elapsed:.1f} s")


def test_criterion_5_basis_theorem_desk_scale():
    start = time.perf_counter()
    rng = random.Random(5)
    pairs = checked = 0
    ok = True
    for n in (2, 3):
        for d in all_diagrams(3, n - 1):
            for f in all_diagrams(3, n):
                pairs += 1
                mult = multiplicity(d, f, n)
                chains = build_chains(d, f, n, enumerate_middle(d, f, n))
                if not len(chains) == mult == count_patterns(d, f, n):
                    ok = False
                if mult == 0:
                    continue
                checked += 1
                if not independence_certificate(
                        d, f, n, seed=rng.getrandbits(64))["ok"]:
                    ok = False
    elapsed = time.perf_counter() - start
    report("criterion 5: basis counts and exact independence at desk scale",
           ok and elapsed < 120,
           f"{pairs} pairs, {checked} rank certificates, {elapsed:.1f} s")


def test_criterion_6_chains_are_common_order_types():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        cols = elements(n)
        types = [chain_order_type((c,), n) for c in cols]
        sigmas = list(product((GE, LE), repeat=n - 1))
        # satisfaction bitmask per element, found by brute enumeration
        masks = []
        for word in types:
            mask = 0
            for bit, sigma in enumerate(sigmas):
                if satisfies(word, sigma):
                    mask |= 1 << bit
            masks.append(mask)
        full = (1 << len(sigmas)) - 1
        for subset in range(1 << len(cols)):
            members = [i for i in range(len(cols)) if subset >> i & 1]
            chain = is_chain([cols[i] for i in members])
            common = full
            for i in members:
                common &= masks[i]
            if chain != (common != 0):
                ok = False
    elapsed = time.perf_counter() - start
    report("criterion 6: subset is a chain iff a common order type exists",
           ok and elapsed < 10, f"{elapsed:.1f} s")


def test_criterion_7_torus_characters():
    ok = True
    for n in (2, 3, 4):
        rng = random.Random(700 + n)
        targets = [(c,) for c in elements(n)]
        targets.append(sample_chain(n))
        for trial in range(50):
            t, s = random_torus_element(n, rng.getrandbits(64))
            X = random_rational_matrix(n, rng.getrandbits(64))
            diag_rng = random.Random(rng.getrandbits(64))

            def diag():
                return [Fraction(diag_rng.choice((1, 2, 3, -1, -2, -3)),
                                 diag_rng.randint(1, 3))
                        for _ in range(2 * n)]

            tdiag, sdiag = diag(), diag()
            if verify_torus_weight(targets, t, s, X):
                ok = False
            if verify_generator_weight(tdiag, sdiag, X):
                ok = False
    report("criterion 7: 50 exact character matches per generator and chain",
           ok)


def test_criterion_8_degeneration_filtration():
    weights_ok = True
    for n in range(2, 7):
        N = 2 * n + 1
        for i in range(1, n):
            low = (column_weight(ColumnIndex("I", i, n), N)
                   + column_weight(ColumnIndex("K", i - 1, n), N))
            mid = (column_weight(ColumnIndex("Jp", i, n), N)
                   + column_weight(ColumnIndex("J", i - 1, n), N))
            high = (column_weight(ColumnIndex("J", i, n), N)
                    + column_weight(ColumnIndex("Jp", i - 1, n), N))
            if not low == mid < high:
                weights_ok = False
    start = time.perf_counter()
    hom_ok = True
    pairs = 0
    for n in (2, 3, 4):
        chains = [standard_monomial(c)
                  for k in (0, 1, 2, 3)
                  for c in combinations_with_replacement(elements(n), k)
                  if is_chain(c)]
        triples = [monomial_triple(m) for m in chains]
        for i, m1 in enumerate(chains):
            for j in range(i, len(chains)):
                pairs += 1
                product = hibi_normal_form(
                    FormalPolynomial.monomial(m1 + chains[j]))
                (mono, coeff), = product.terms.items()
                if (coeff != 1 or monomial_triple(mono)
                        != add_rows(triples[i], triples[j])):
                    hom_ok = False
    elapsed = time.perf_counter() - start
    report("criterion 8: filtration weights and degenerate product semigroup",
           weights_ok and hom_ok, f"{pairs} products, {elapsed:.1f} s")


def test_criterion_9_tensor_dimension_consistency():
    ok = True
    pairs = 0
    for n in (2, 3, 4):
        for d in all_diagrams(4, n - 1):
            for f in all_diagrams(4, n):
                pairs += 1
                if not multiplicity_nonzero(d, f):
                    if multiplicity(d, f, n) != 0:
                        ok = False
                    continue
                r = tensor_factors(d, f, n)
                if r != margin_tensor_factors(d, f, n):
                    ok = False
                expected = 1
                for ri in r:
                    expected *= ri + 1
                if expected != multiplicity(d, f, n):
                    ok = False
    report("criterion 9: tensor factor product equals the multiplicity",
           ok, f"{pairs} pairs")


def test_criterion_10_basis_theorem_at_scale():
    # Values only: the time is printed, not asserted.
    start = time.perf_counter()
    results = []
    for d, f, n in (((6, 5, 4, 3, 2, 1), (7, 6, 5, 4, 3, 2, 1), 7),
                    ((8, 6, 4, 2), (10, 8, 6, 4, 2), 5),
                    ((20, 10), (30, 20, 10), 3)):
        cert = independence_certificate(d, f, n)
        results.append((cert["ok"], cert["rank"], cert["monomials"],
                        multiplicity(d, f, n)))
    elapsed = time.perf_counter() - start
    report("criterion 10: exact independence at multiplicity 128, 243 and "
           "1,331", results == [(True, 128, 128, 128), (True, 243, 243, 243),
                                (True, 1331, 1331, 1331)],
           f"{results}, {elapsed:.2f} s")
