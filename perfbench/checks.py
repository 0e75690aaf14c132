"""Output checks for the benchmark ops, written against the CLI's JSON.

The oracles here share no code with ``sympbranch``: they work on the tokens
and numbers printed by the CLI.  A check reads only the result fields it
needs, so a payload that gains a key (such as a later ``stats`` object)
still passes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb


# --- diagrams ----------------------------------------------------------------

def part(d, i: int) -> int:
    return d[i - 1] if 1 <= i <= len(d) else 0


def middle_ranges(d, f, n: int) -> list[range]:
    """Allowed values of e_i for E with d interlacing E and E interlacing f."""
    out = []
    for i in range(1, n + 1):
        lo = max(part(f, i + 1), part(d, i))
        hi = part(f, i) if i == 1 else min(part(f, i), part(d, i - 1))
        out.append(range(lo, hi + 1))
    return out


def multiplicity(d, f, n: int) -> int:
    count = 1
    for r in middle_ranges(d, f, n):
        count *= len(r)
    return count


def interlaces(lo, hi) -> bool:
    depth = max(len(lo), len(hi)) + 1
    return all(part(hi, i) >= part(lo, i) >= part(hi, i + 1)
               for i in range(1, depth + 1))


# --- lattice tokens ----------------------------------------------------------

def parse_token(token: str) -> tuple[str, int]:
    for kind, label in (("Jp", "J'"), ("I", "I"), ("J", "J"), ("K", "K")):
        if token.startswith(label) and token[len(label):].isdigit():
            return kind, int(token[len(label):])
    raise ValueError(f"bad token {token!r}")


def column_set(token: str, n: int) -> list[int]:
    kind, idx = parse_token(token)
    entries = list(range(1, idx + 1))
    if kind in ("J", "K"):
        entries.append(n)
    if kind in ("Jp", "K"):
        entries.append(n + 1)
    return entries


def _triple(token: str, n: int) -> tuple[int, int, int]:
    entries = column_set(token, n)
    return (sum(e <= n + 1 for e in entries), sum(e <= n for e in entries),
            sum(e <= n - 1 for e in entries))


def is_chain(tokens, n: int) -> bool:
    """Every pair of factors is comparable (one triple dominates the other)."""
    triples = [_triple(t, n) for t in set(tokens)]
    for i, a in enumerate(triples):
        for b in triples[i + 1:]:
            ge = all(x >= y for x, y in zip(a, b))
            le = all(x <= y for x, y in zip(a, b))
            if not (ge or le):
                return False
    return True


def lattice_weight(tokens, n: int) -> int:
    base = 2 * n + 1
    return sum(e * base ** (n - r)
               for t in tokens
               for r, e in enumerate(column_set(t, n), start=1))


# --- polynomials -------------------------------------------------------------

def _add(acc: dict, key: tuple, coeff: Fraction) -> None:
    acc[key] = acc.get(key, Fraction(0)) + coeff


def _pair_counts(mono: tuple[str, ...], n: int):
    """Per index i: (i, m_i), m_i = min(#I_i, #K_{i-1}), and the leftover factors."""
    rest = list(mono)
    pairs = []
    for i in range(1, n):
        m = min(rest.count(f"I{i}"), rest.count(f"K{i - 1}"))
        for _ in range(m):
            rest.remove(f"I{i}")
            rest.remove(f"K{i - 1}")
        pairs.append((i, m))
    return pairs, rest


def straighten_oracle(terms, n: int) -> dict:
    """Closed form of the two-term rewrite.

    Each pair I_i K_{i-1} becomes J'_i J_{i-1} - J_i J'_{i-1}, and those four
    factors are comparable with every element, so the standard expansion is
    rest * prod_i sum_j C(m_i, j) (-1)^j (J'_i J_{i-1})^(m_i-j) (J_i J'_{i-1})^j.
    """
    out: dict = {}
    for coeff, mono in terms:
        pairs, rest = _pair_counts(mono, n)
        partial = {tuple(rest): Fraction(coeff)}
        for i, m in pairs:
            meet, skew = (f"J'{i}", f"J{i - 1}"), (f"J{i}", f"J'{i - 1}")
            grown: dict = {}
            for key, c in partial.items():
                for j in range(m + 1):
                    _add(grown, key + meet * (m - j) + skew * j,
                         c * comb(m, j) * (-1) ** j)
            partial = grown
        for key, c in partial.items():
            _add(out, tuple(sorted(key)), c)
    return {k: c for k, c in out.items() if c}


def hibi_oracle(terms, n: int) -> dict:
    """One-term rule: each pair I_i K_{i-1} becomes J'_i J_{i-1}."""
    out: dict = {}
    for coeff, mono in terms:
        pairs, rest = _pair_counts(mono, n)
        for i, m in pairs:
            rest += [f"J'{i}", f"J{i - 1}"] * m
        _add(out, tuple(sorted(rest)), Fraction(coeff))
    return {k: c for k, c in out.items() if c}


def terms_of(payload_terms) -> dict:
    return {tuple(sorted(t["monomial"])): Fraction(t["coeff"])
            for t in payload_terms}


def terms_digest(expansion: dict) -> str:
    """Order-free digest of an expansion {sorted tokens: coefficient}."""
    items = sorted((list(k), f"{c.numerator}/{c.denominator}")
                   for k, c in expansion.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


# --- per-command checks ------------------------------------------------------
#
# Each takes the exit code, the captured stdout and the expectation the
# generator attached to the op, and returns whether the output is correct.

def _payload(rc, out):
    if rc != 0:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_verify(rc, out, expect) -> bool:
    payload = _payload(rc, out)
    if payload is None or payload.get("failures_total") != 0:
        return False
    mult = expect.get("multiplicity")
    if mult is None:
        return True
    entries = [e for r in payload["reports"] for e in r.get("checked", ())]
    return bool(entries) and all(e["rank"] == e["monomials"] == mult
                                 for e in entries)


def check_straighten(rc, out, expect) -> bool:
    payload = _payload(rc, out)
    if payload is None:
        return False
    n = expect["n"]
    terms = payload["terms"]
    if not all(is_chain(t["monomial"], n)
               and t["weight"] == lattice_weight(t["monomial"], n)
               for t in terms):
        return False
    got = terms_of(terms)
    if got != expect["expansion"]:
        return False
    digest = expect.get("digest")
    return digest is None or terms_digest(got) == digest


def check_mult(rc, out, expect) -> bool:
    payload = _payload(rc, out)
    if payload is None:
        return False
    d, f = expect["D"], expect["F"]
    middles = payload["middles"]
    return (payload["multiplicity"] == expect["multiplicity"] == len(middles)
            and all(interlaces(d, e) and interlaces(e, f) for e in middles))


def check_basis(rc, out, expect) -> bool:
    payload = _payload(rc, out)
    if payload is None:
        return False
    entries = payload["monomials"]
    return (payload["count"] == expect["multiplicity"] == len(entries)
            and all(is_chain(e["monomial"], expect["n"]) for e in entries))


def is_order_preserving(top, mid, bot) -> bool:
    n = len(top)
    return (all(top[j] >= mid[j] for j in range(n))
            and all(mid[j] >= top[j + 1] for j in range(n - 1))
            and all(mid[j] >= bot[j] for j in range(n - 1))
            and all(bot[j] >= mid[j + 1] for j in range(n - 1)))


def check_degenerate(rc, out, expect) -> bool:
    payload = _payload(rc, out)
    if payload is None:
        return False
    n, d, f = expect["n"], expect["D"], expect["F"]
    top = [part(f, i) for i in range(1, n + 1)]
    bot = [part(d, i) for i in range(1, n)]
    patterns = payload["patterns"]
    return (payload["count"] == payload["margin_count"]
            == expect["multiplicity"] == len(patterns)
            and all(p["top"] == top and p["bot"] == bot
                    and is_order_preserving(p["top"], p["mid"], p["bot"])
                    for p in patterns))


CHECKS = {"verify": check_verify, "straighten": check_straighten,
          "mult": check_mult, "basis": check_basis,
          "degenerate": check_degenerate}


def check(argv, rc, out, expect) -> bool:
    return CHECKS[argv[0]](rc, out, expect)
