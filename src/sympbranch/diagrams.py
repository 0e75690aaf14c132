"""Young diagrams, interlacing, branching multiplicities and torus weights,
each read off the middle ranges lo_i <= e_i <= hi_i of ``middle_ranges``."""

from __future__ import annotations

import math
import operator
from itertools import product

# A diagram is a weakly decreasing tuple of nonnegative ints, no trailing zeros.
Diagram = tuple[int, ...]

GE, LE, EQ = ">=", "<=", "="


def normalize(parts) -> Diagram:
    """Validate weak decrease and strip trailing zeros."""
    out = list(map(operator.index, parts))
    if out and min(out) < 0:
        raise ValueError(f"negative part in {out}")
    if any(map(operator.lt, out, out[1:])):
        raise ValueError(f"{out} is not weakly decreasing")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def part(d: Diagram, i: int) -> int:
    """Row length d_i, 1-indexed, zero beyond the length."""
    return d[i - 1] if 1 <= i <= len(d) else 0


def transpose(d: Diagram) -> Diagram:
    d = normalize(d)
    return tuple(sum(1 for p in d if p >= c) for c in range(1, part(d, 1) + 1))


def _check_pair(d: Diagram, f: Diagram, n: int):
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    if len(d) > n - 1:
        raise ValueError(f"diagram {d} has more than n-1 = {n - 1} rows")
    if len(f) > n:
        raise ValueError(f"diagram {f} has more than n = {n} rows")


def middle_ranges(d, f, n: int) -> list[range]:
    """The range lo_i..hi_i of each middle row e_i, i = 1..n, with
    lo_i = max(f_{i+1}, d_i) and hi_i = min(f_i, d_{i-1}), d_0 unbounded."""
    d, f = normalize(d), normalize(f)
    _check_pair(d, f, n)
    ranges = []
    for i in range(1, n + 1):
        lo = max(part(f, i + 1), part(d, i))
        hi = part(f, i) if i == 1 else min(part(f, i), part(d, i - 1))
        ranges.append(range(lo, hi + 1))
    return ranges


def multiplicity(d, f, n: int) -> int:
    """Number of diagrams E with d interlacing E and E interlacing f."""
    return math.prod(map(len, middle_ranges(d, f, n)))


def enumerate_middle(d, f, n: int) -> list[Diagram]:
    """All middle diagrams, lexicographically ascending.  The ranges keep e
    weakly decreasing (e_{i+1} <= hi_{i+1} <= lo_i <= e_i): only zeros trail."""
    return [tuple(filter(None, e)) for e in product(*middle_ranges(d, f, n))]


def order_type_of(d, f, n: int) -> tuple[str, ...]:
    """Generalized order type: how d_i compares with f_{i+1}, i = 1..n-1."""
    d, f = normalize(d), normalize(f)
    _check_pair(d, f, n)
    word = []
    for i in range(1, n):
        di, fi1 = part(d, i), part(f, i + 1)
        word.append(GE if di > fi1 else LE if di < fi1 else EQ)
    return tuple(word)


def order_type_str(word) -> str:
    return "".join(word)


def tensor_factors(d, f, n: int) -> tuple[int, ...]:
    """Tensor factors r_i = hi_i - lo_i of a pair of nonzero multiplicity."""
    ranges = middle_ranges(d, f, n)
    if not all(ranges):
        raise ValueError(f"pair ({d}, {f}) has multiplicity 0 at rank {n}")
    return tuple(len(r) - 1 for r in ranges)


def tl_weights(ranges, middles) -> list[tuple[int, ...]]:
    """Torus exponent vectors (2 e_i - lo_i - hi_i) of middle diagrams e,
    read off the ``middle_ranges`` of their pair."""
    sums = [r.start + r.stop - 1 for r in ranges]
    return [tuple(2 * x - s for x, s in zip(e + (0,) * len(sums), sums))
            for e in middles]
