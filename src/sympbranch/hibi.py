"""Order-preserving integer patterns on the three-level poset Gamma.

A pattern is the Gelfand-Tsetlin triple (F, E, D) of a chain, its rows
(top, mid, bot) padded with zeros to lengths (n, n, n-1); it is order
preserving exactly when the triple is doubly interlacing.  The characteristic
function of a lattice element is the pattern of its one-column chain, and a
chain's pattern is the sum of its columns' characteristic functions, so the
degenerate product of two chains adds their triples rowwise.
"""

from __future__ import annotations

from sympbranch.diagrams import normalize

Rows = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def pattern_rows(d, e, f, n: int) -> Rows:
    """The pattern (top, mid, bot) = (f, e, d), padded to (n, n, n-1)."""
    rows = [(normalize(row), size) for row, size in ((f, n), (e, n), (d, n - 1))]
    if any(len(row) > size for row, size in rows):
        raise ValueError(f"rows {[list(r) for r, _ in rows]} are longer than "
                         f"the pattern rows ({n}, {n}, {n - 1})")
    top, mid, bot = (row + (0,) * (size - len(row)) for row, size in rows)
    return top, mid, bot


def pretty(rows: Rows) -> str:
    """Staggered triangular layout, one row per level of Gamma."""
    width = max(len(str(v)) for row in rows for v in row)
    unit = width + 2
    lines = []
    for indent, row in zip((0, unit, 2 * unit), rows):
        cells = (str(v).ljust(2 * unit) for v in row)
        lines.append((" " * indent + "".join(cells)).rstrip())
    return "\n".join(lines)
