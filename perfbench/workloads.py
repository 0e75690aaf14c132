"""Seeded op generators for the four benchmark workloads.

An op is one argv list for ``sympbranch.cli.main`` plus what its output must
show.  A workload is a sequence of rounds; every round has the same make-up
of op classes (the strata below), and the seed only picks the inputs inside
each class.  Two seeds therefore load the program the same way, and a
quantile falls in the same class on every run.  Round ``r`` of seed ``s`` is
the same on every commit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks


@dataclass
class Op:
    argv: list[str]
    expect: dict = field(default_factory=dict)


def _fmt(d) -> str:
    return ",".join(str(p) for p in d)


def _normalize(parts) -> tuple[int, ...]:
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A random way to write total as an ordered sum of parts >= 0."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_pair(rng: random.Random, n: int, top: tuple[int, int],
                mult: tuple[int, int]):
    """An interlacing pair f_1 >= d_1 >= f_2 >= ... >= d_{n-1} >= f_n with f_1
    in ``top`` and multiplicity in ``mult`` (inclusive ranges).

    The multiplicity is prod_i (f_i - d_i + 1) with d_n = 0, so it is set by
    the gaps f_i - d_i; the steps d_i - f_{i+1} take up the rest of f_1.
    """
    while True:
        f1 = rng.randint(*top)
        steps = _composition(rng, rng.randint(0, f1 // 2), n - 1) + [0]
        gaps = _composition(rng, f1 - sum(steps), n)
        f, d, level = [], [], f1
        for gap, step in zip(gaps, steps):
            f.append(level)
            d.append(level - gap)
            level -= gap + step
        d, f = _normalize(d[:-1]), _normalize(f)
        m = checks.multiplicity(d, f, n)
        if mult[0] <= m <= mult[1]:
            return d, f, m


# --- certify -----------------------------------------------------------------

def _independence(rng, n, top, mult) -> Op:
    d, f, m = random_pair(rng, n, top, mult)
    return Op(["verify", "independence", "--n", str(n), "--D", _fmt(d),
               "--F", _fmt(f), "--trials", "3",
               "--seed", str(rng.getrandbits(32)), "--json"],
              {"multiplicity": m})


def _invariance(rng, n) -> Op:
    return Op(["verify", "invariance", "--n", str(n), "--trials", "1",
               "--seed", str(rng.getrandbits(32)), "--json"])


# --- identities --------------------------------------------------------------

def _suite(rng, suite, n, trials) -> Op:
    return Op(["verify", suite, "--n", str(n), "--trials", str(trials),
               "--seed", str(rng.getrandbits(32)), "--json"])


# --- rewrite -----------------------------------------------------------------

def _tokens(n: int) -> list[str]:
    return ([f"I{i}" for i in range(1, n)] + [f"J{j}" for j in range(n)]
            + [f"J'{j}" for j in range(n)] + [f"K{k}" for k in range(n - 1)])


def render_poly(terms) -> str:
    pieces = []
    for k, (coeff, mono) in enumerate(terms):
        sign = "-" if coeff < 0 else ("+" if k else "")
        mag = abs(coeff)
        head = "" if mag == 1 else f"{mag}*"
        pieces.append(f"{sign}{head}[{','.join(mono)}]")
    return " ".join(pieces)


def _straighten_op(n: int, terms, hibi: bool, digest=None) -> Op:
    oracle = checks.hibi_oracle if hibi else checks.straighten_oracle
    argv = ["straighten", "--n", str(n), "--json"]
    if hibi:
        argv.append("--hibi")
    # "--" keeps an expression with a leading minus from being read as an
    # option: without it argparse exits with code 2.
    argv += ["--", render_poly(terms)]
    return Op(argv, {"n": n, "expansion": oracle(terms, n), "digest": digest})


def _random_poly(rng: random.Random, n: int):
    tokens = _tokens(n)
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
        if rng.randrange(2):
            coeff = -coeff
        mono = tuple(rng.choice(tokens) for _ in range(rng.randint(1, 8)))
        terms.append((coeff, mono))
    return terms


# Fixed heavy tail: many incomparable pairs, so the rewrite dominates.  The
# depth-first rewrite takes about 2^(number of pairs) steps; k = 14 at n = 2
# already takes seconds and n = 5 with k = 5 minutes, so the tail stops here.
REWRITE_TAIL = ([(2, k, ("I1", "K0")) for k in range(8, 14)]
                + [(3, k, ("I1", "K0", "I2", "K1")) for k in range(1, 7)])


def _tail_op(rng: random.Random, n: int, k: int, factors, digests) -> Op:
    mono = [t for t in factors for _ in range(k)]
    rng.shuffle(mono)
    return _straighten_op(n, [(Fraction(1), tuple(mono))], False,
                          digests[f"n{n}-k{k}"])


def _random_straighten(rng, n, hibi) -> Op:
    return _straighten_op(n, _random_poly(rng, n), hibi)


# --- enumerate ---------------------------------------------------------------

def _enumerate_op(rng, command, n, top, mult) -> Op:
    d, f, m = random_pair(rng, n, top, mult)
    argv = [command, _fmt(d), _fmt(f), "--n", str(n), "--json"]
    if command == "mult":
        argv.insert(-1, "--list")
    return Op(argv, {"n": n, "D": list(d), "F": list(f), "multiplicity": m})


# --- workloads ---------------------------------------------------------------
#
# A round is a list of strata (count, make op from rng).  The counts place
# each quantile inside one stratum of similar ops, not on the edge between a
# cheap and a dear one: op_p50_ms falls mid-way through the stratum marked
# "p50" and op_p90_ms mid-way through the one marked "p90", so a new seed
# moves them little.  Ops cost seed-commit milliseconds as noted.

def _strata_certify():
    return [  # 30 ops
        (10, lambda r: _independence(r, 2, (1, 6), (1, 2))),     # 20-30
        (10, lambda r: _independence(r, 2, (2, 8), (3, 6))),     # p50, 40-70
        (1, lambda r: _invariance(r, 2)),                        # 90
        (3, lambda r: _independence(r, 2, (5, 14), (12, 27))),   # 120-300
        (2, lambda r: _independence(r, 3, (1, 4), (1, 2))),      # 100-200
        (2, lambda r: _independence(r, 3, (2, 6), (4, 4))),      # p90, 300
        (1, lambda r: _invariance(r, 3)),                        # 700
        (1, lambda r: _independence(r, 3, (3, 8), (12, 18))),    # 1000-1500
    ]


def _strata_identities():
    return [  # 20 ops
        *[(2, lambda r, n=n: _suite(r, "relations", n, 2))
          for n in (3, 4, 5, 6)],                                # 3-10
        (4, lambda r: _suite(r, "torus", 2, 1)),                 # p50, 20
        (5, lambda r: _suite(r, "torus", 2, 2)),                 # 40
        (2, lambda r: _suite(r, "torus", 3, 1)),                 # p90, 80
        (1, lambda r: _suite(r, "torus", 4, 1)),                 # 250
    ]


def _strata_rewrite():
    # Digests of each tail op's terms as the seed commit printed them; the
    # standard expansion is unique, so any correct rewrite gives the same.
    digests = json.loads((Path(__file__).parent / "digests.json").read_text())
    return [  # 44 ops; p50 among the random ones, p90 at n3-k5 / n2-k10
        *[(4, lambda r, n=n, h=h: _random_straighten(r, n, h))
          for n in (2, 3, 4, 5) for h in (False, True)],         # 1-5
        *[(1, lambda r, t=t: _tail_op(r, *t, digests))
          for t in REWRITE_TAIL],                                # 2-700
    ]


def _strata_enumerate():
    def op(command, n, top, mult=(1, 10**6)):
        return lambda r: _enumerate_op(r, command, n, top, mult)

    # degenerate walks all C(f_1 + n, n) weakly decreasing middle rows below
    # f_1, so its strata bound f_1 rather than the multiplicity.
    return [  # 30 ops
        *[(1, op("mult", n, (6, 20), (1, 1200)))
          for n in (3, 4, 5, 6, 4, 5)],                          # 2-10
        *[(1, op("basis", n, (2, 8), (1, 20)))
          for n in (3, 4, 5, 6, 4, 5)],                          # 2-10
        (6, op("degenerate", 3, (6, 8))),                        # p50, 8-15
        (4, op("basis", 4, (8, 12), (21, 200))),                 # 30-100
        (2, op("degenerate", 3, (12, 16))),                      # 25-60
        (2, op("degenerate", 5, (6, 8))),                        # 10-45
        (2, op("basis", 6, (8, 12), (300, 500))),                # p90
        (2, op("degenerate", 4, (13, 14))),                      # p90
        (1, op("basis", 6, (14, 16), (900, 1215))),              # 350
        (1, op("degenerate", 4, (20, 20))),                      # 700
    ]


STRATA = {"certify": _strata_certify, "identities": _strata_identities,
          "rewrite": _strata_rewrite, "enumerate": _strata_enumerate}


class Workload:
    """Rounds of ops for one workload and seed; round r is made on demand."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.strata = STRATA[name]()

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = [make(rng) for count, make in self.strata for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        """The same ops on every seed and commit: one round of seed 0."""
        return Workload(self.name, 0).round(-1)
