"""Exact linear algebra over the rationals.

Entries may be ``int`` or ``Fraction``; anything with ``numerator`` and
``denominator``.  Fraction-free Gauss-Jordan elimination runs on integer
rows (a row is first scaled by the lcm of its denominators, an integer
row divided by its gcd alone, and rows are divided by their gcd after
every update, which keeps entries small).
The callers solve graded systems one degree at a time, so every system is
small: in the registry the largest has 72 rows and 30 columns, right-hand
side included.  Asymptotics do not matter; exactness and predictability do.

Pivots are taken column by column, so the column order is the caller's
lever: it decides which columns become free (one kernel vector each)
and how much the entries grow on the way.

Kernel vectors are primitive ``int`` vectors, positive on their own free
column; ``Fraction``s appear only in inputs and in particular solutions.
"""

from fractions import Fraction
from math import gcd, lcm


def _int_row(row):
    """The row scaled to coprime integers (entries ``int`` or ``Fraction``)."""
    try:
        g = gcd(*row)
    except TypeError:  # not all integers
        denom = lcm(*(v.denominator for v in row))
        row = [v.numerator * (denom // v.denominator) for v in row]
        g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _int_rows(rows):
    """The nonzero rows of a matrix, each scaled by ``_int_row``."""
    return [row for row in map(_int_row, rows) if any(row)]


def _reduce(rows, ncols):
    """In-place fraction-free Gauss-Jordan; returns pivot (row, col) list."""
    pivots = []
    r = 0
    for c in range(ncols):
        best = -1
        for i in range(r, len(rows)):
            if rows[i][c] != 0 and (best == -1 or abs(rows[i][c]) < abs(rows[best][c])):
                best = i
        if best == -1:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r]
        pv = piv[c]
        for i in range(len(rows)):
            if i == r or rows[i][c] == 0:
                continue
            bv = rows[i][c]
            row = [pv * a - bv * b for a, b in zip(rows[i], piv)]
            g = gcd(*row)
            rows[i] = [v // g for v in row] if g > 1 else row
        if pv < 0:
            rows[r] = [-v for v in piv]
        pivots.append((r, c))
        r += 1
    del rows[r:]
    return pivots


def _free_basis(mat, pivots, ncols):
    """Per non-pivot column of a reduced matrix, the primitive integer
    kernel vector that is positive on that column."""
    pivot_cols = {c for (_, c) in pivots}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [0] * ncols
        vec[fc] = scale = lcm(*(mat[r][c] for r, c in pivots if mat[r][fc]))
        for (r, c) in pivots:
            vec[c] = -mat[r][fc] * (scale // mat[r][c])
        basis.append(_int_row(vec))
    return basis


def nullspace(rows, ncols):
    """Basis of {v : M v = 0}, one primitive ``int`` vector per free column."""
    mat = _int_rows(rows)
    pivots = _reduce(mat, ncols)
    return _free_basis(mat, pivots, ncols)


def solve_affine(rows, rhs):
    """Solve M v = rhs exactly.

    Returns ``(consistent, particular, basis)`` where ``particular`` has
    free coordinates set to zero and ``basis`` spans the homogeneous
    solutions.  On inconsistency, a pivot in the last column of
    [M | -rhs], returns ``(False, None, [])``; else that column's kernel
    vector w gives the particular w[:n] / w[n].
    """
    if not rows:
        return True, [], []
    n = len(rows[0])
    mat = _int_rows(list(row) + [-b] for row, b in zip(rows, rhs))
    pivots = _reduce(mat, n + 1)
    if pivots and pivots[-1][1] == n:
        return False, None, []
    *basis, w = _free_basis(mat, pivots, n + 1)
    return True, [Fraction(v, w[n]) for v in w[:n]], [v[:n] for v in basis]


def rank(rows, ncols=None):
    mat = _int_rows(map(list, rows))
    if not mat:
        return 0
    if ncols is None:
        ncols = len(mat[0])
    return len(_reduce(mat, ncols))
