"""Vector fields and infinitesimal symmetries of projective structures.

A germ of vector field v = a(x,y) d/dx + b(x,y) d/dy is an
infinitesimal symmetry of a structure when its flow maps geodesics to
geodesics.  Differentiating the transformation law of the equation
along the flow yields a residual that is again cubic in the slope; the
symmetry condition is the vanishing of its four coefficient jets.

Sign convention: ``residual(v, st)`` equals the first-order part of
``pullback(id + eps*v, st) - st`` over the dual numbers, coefficient by
coefficient.  The dual-number pullback is the oracle for this in the
tests, so the convention is pinned mechanically rather than by a
formula transcription.

``residual`` and both exact linear solves read one closed form of the
residual's terms, ``_TERMS``, which are bilinear in (field, structure):
``residual`` sums each slot's terms in one ``_sum_of_products``,
``symmetry_dim`` solves for polynomial fields, ``invariant_structures``
for polynomial structures.  The oracles for that table are the
dual-number pullback and, in the tests, the residual as the slope
polynomial products it was computed as before.  The structure-free part
of a solve, each unknown's terms, is cached per order next to the
constant symbol S_d and built on first use, so a call pays only for the
terms of its own structure or fields.
``_graded_kernel`` solves both one residual degree at a time on primitive
integer vectors, and past degree 0 ``symmetry_dim`` only the
compatibility rows of S_d.
"""

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm
from operator import mul
from types import MappingProxyType

from .jets import Jet2, _sum_of_products
from .linalg import _int_row, _reduce, nullspace, rank, solve_affine
from .records import Record
from .slopes import SlopePoly
from .structures import ProjectiveStructure, _JetRecord


class VectorField(_JetRecord):
    a: Jet2  # coefficient of d/dx
    b: Jet2  # coefficient of d/dy

    def apply(self, g):
        """The derivation: v(g) = a g_x + b g_y."""
        return self.a * g.d_dx() + self.b * g.d_dy()


def lie_bracket(v, w):
    """[v, w], componentwise v(w) - w(v)."""
    return VectorField(v.apply(w.a) - w.apply(v.a),
                       v.apply(w.b) - w.apply(v.b))


def residual(field, st):
    """Lie derivative of the structure along the field, as a slope cubic.

    Zero (to the effective order) exactly when ``field`` is an
    infinitesimal symmetry of ``st``.  Slot k sums its ``_TERMS`` in one
    ``_sum_of_products``, each derivative formed once.
    """
    jets = ({(0, 0, 0): field.a, (1, 0, 0): field.b},
            {(s, 0, 0): jet for s, jet in
             enumerate((*st, Jet2.constant(1, st.order)))})
    for known, keys in zip(jets, _DERIVATIVES):
        for s, dx, dy in keys:
            known[s, dx, dy] = (known[s, dx - 1, dy].d_dx() if dx
                                else known[s, 0, dy - 1].d_dy())
    fj, sj = jets
    return SlopePoly([_sum_of_products([(c, fj[f], sj[s])
                                        for c, f, s in terms])
                      for terms in _SLOTS])


def is_symmetry(field, st):
    return residual(field, st).is_zero()


# --- linear solves ------------------------------------------------------------


def _monomials(degree):
    return [(i, total - i) for total in range(degree + 1)
            for i in range(total, -1, -1)]


class SymmetryDimensions(Record):
    """Dimension of the symmetry algebra seen through 2-jets of fields,
    at two consecutive orders.  When both agree the count has stabilized
    (all structures analyzed here stabilize by the default orders).
    """

    low_order: int
    high_order: int
    dim_low: int
    dim_high: int

    @property
    def stabilized(self):
        return self.dim_low == self.dim_high

    @property
    def value(self):
        return self.dim_low if self.stabilized else None


def symmetry_dim(st, order=7):
    """Projected symmetry-space dimensions at ``order`` and ``order + 1``.

    The order-m system has the polynomial fields of degree <= m as
    unknowns (the twelve 2-jet fields first) and the residual rows of degree
    <= m - 2.  A field of degree e joins ``_graded_kernel`` at step
    max(e - 2, 0), past step 0 through L S_d (``_symbol``) alone, so only
    the 2 d - 2 compatibility rows C_d X K are solved there.
    """
    n = order
    if n < 2:
        raise ValueError("symmetry_dim needs order >= 2, got %d" % n)
    for m in (n, n + 1):
        if st.order < m or st.eff < m:
            raise ValueError("structure jets too short for order %d" % m)
    (L,), columns = _columns(0, n + 1, [(*st, Jet2.constant(1, n + 1))])
    steps = [[] for _ in range(n)]
    for (_, i, j), col in zip(_plan(0, n + 1)[0], columns):
        steps[max(i + j - 2, 0)].append(col)
    dims = [rank([v[:12] for v in K], 12)
            for d, K in enumerate(_graded_kernel(steps, L=L)) if d >= n - 2]
    return SymmetryDimensions(n, n + 1, *dims)


def _graded_kernel(steps, blocks=1, one=None, L=1):
    """Solve a graded integer system one row degree d at a time.

    ``steps[d]`` lists the ``_columns`` (of ``blocks`` blocks) that join
    at step d.  With X and Y the rows of degree d on the joined and the new
    columns, the kernel K grows to the (K c, w) with X K c + Y w = 0:
    ``nullspace`` on [X K | Y], or on C_d X K past step 0 without ``one``
    (Y = L S_d, P L w = -W_d X K c).  A constant column ``one`` joins first
    as p = (1), and ``solve_affine([X K | Y], -X p)`` grows both.  Yields
    each step's primitive integer vectors, or [] once one is inconsistent.
    """
    seen, basis = ([], []) if one is None else ([one], [[1]])
    for d, new in enumerate(steps):
        nb, symbol = len(basis), one is None and d
        ext = [[0] * (nb if symbol else nb + len(new))
               for _ in range(4 * (d + 1) * blocks)]
        for col, coeffs in zip(seen, zip(*basis)):
            if col[d]:
                nonzero = [(b, w) for b, w in enumerate(coeffs) if w]
                for r, e in col[d].items():
                    row = ext[r]
                    for b, w in nonzero:
                        row[b] += e * w
        if symbol:
            P, E = _symbol(d)
            live = {r for r, row in enumerate(ext) if any(row)}
            ER = [[sum(t) for t in zip([0] * nb, *(
                [v * e for e in ext[r]] for r, v in row if r in live))]
                for row in E] if live else [[0] * nb] * len(E)
            sols = [[P * L * e for e in c] + (
                [-sum(map(mul, w, c)) for w in ER[:len(new)]] if live
                else [0] * len(new))
                for c in map(_int_row, nullspace(ER[len(new):], nb))]
        else:
            for k, col in enumerate(new, nb):
                for r, e in col[d].items():
                    ext[r][k] = e
            if one is None:
                sols = nullspace(ext, nb + len(new))
            else:
                consistent, p, sols = solve_affine([row[1:] for row in ext],
                                                   [-row[0] for row in ext])
                if not consistent:
                    yield []
                    return
                sols = [[1] + p] + [[0] + s for s in sols]
        basis = [_grow(s, basis, len(seen)) for s in sols]
        seen += new
        yield basis


def _grow(s, basis, width):
    """The primitive integer vector along sum_b s_b basis_b (``width``
    long), then s past the basis; a unit s reuses its basis vector."""
    nb, nz = len(basis), [b for b, a in enumerate(s) if a]
    if len(nz) == 1 and nz[0] < nb:
        v = basis[nz[0]]
        return ((v if s[nz[0]] > 0 else [-e for e in v])
                + [0] * (len(s) - nb))
    s = _int_row(s)
    return _int_row([sum(c) for c in zip([0] * width, *(
        [a * e for e in v] for a, v in zip(s, basis) if a))] + s[nb:])


@lru_cache(maxsize=None)
def _symbol(d):
    """``(P, E)``: W S_d = P I on the first 2 (d + 3) sparse (row, value)
    rows of E, C S_d = 0 on the rest, for S_d the "1" terms of ``_TERMS``
    from x^i y^(d + 2 - i) in component f (column 2 i + f) to degree d."""
    n, m, h = 2 * (d + 3), 4 * (d + 1), d + 1
    rows = [[0] * n + [int(r == c) for c in range(m)] for r in range(m)]
    for k, c, (f, dx, dy), _ in (t for t in _TERMS if t[3][0] == 4):
        for i in range(dx, h + 2 - dy):
            e = c * perm(i, dx) * perm(h + 1 - i, dy)
            rows[k * h + i - dx][2 * i + f] = e
    _reduce(rows, n + m)   # S_d is injective: rows[c][c] pivots column c < n
    P = lcm(*(rows[c][c] for c in range(n)))
    return P, [[(k, v * P // row[c] if c < n else v) for k, v in
                enumerate(row[n:]) if v] for c, row in enumerate(rows)]


# The residual in closed form: slot k of residual(field, st) is the sum of
# _RESIDUAL[0][k] and _RESIDUAL[1][k], bilinear in the field components a,
# b and the structure coefficients A..D, or "1" where none is written.
# Read for symmetry_dim, x^i y^j in a or b is the unknown; read for
# invariant_structures, the field is known, the unknown is x^i y^j in one
# structure slot, and minus the "1" terms (the residual of the zero
# structure) is the right-hand side.
_RESIDUAL = (
    ("a A_x + 2 a_x A", "a B_x + a_x B + 3 a_y A + a_xx",
     "a C_x + 2 a_y B + 2 a_xy", "a D_x - a_x D + a_y C + a_yy"),
    ("b A_y + b_x B - b_y A - b_xx", "b B_y + 2 b_x C - 2 b_xy",
     "b C_y + 3 b_x D + b_y C - b_yy", "b D_y + 2 b_y D"))

# The same terms as (k, c, (f, fdx, fdy), (s, sdx, sdy)): c times
# (d/dx)^fdx (d/dy)^fdy of field component f times (d/dx)^sdx (d/dy)^sdy
# of structure slot s, where slot 4 is the source "1".
_TERMS = tuple(
    (k, int(sign + (c or "1")), (f, fd.count("x"), fd.count("y")),
     ("ABCD1".index(s or "1"), sd.count("x"), sd.count("y")))
    for f, slots in enumerate(_RESIDUAL) for k, text in enumerate(slots)
    for sign, c, fd, s, sd in re.findall(
        r"([+-]?) ?(\d*) ?[ab]_?(\w*) ?([A-D]?)_?(\w*)", text))

# The terms (c, field factor, structure factor) of each slot k, and the
# derivatives (slot, dx, dy) they read of the field and of the structure,
# each after the one it is taken from.
_SLOTS = tuple(tuple((c, f, s) for j, c, f, s in _TERMS if j == k)
               for k in range(4))
_DERIVATIVES = [sorted({t[side] for t in _TERMS if t[side][1:] != (0, 0)},
                       key=sum) for side in (2, 3)]


@lru_cache(maxsize=None)
def _plan(side, order):
    """The structure-free part of a determining system, built once.

    The unknowns are x^i y^j through degree ``order`` in the factor
    ``side`` of ``_TERMS``: a field component (0, by descending degree) or
    a structure slot (1, slot by slot, then the "1" of the zero structure).
    Returns them as (slot, i, j) and, per known factor, the terms (column,
    k, w, si, si + sj) of nonzero w = c (i)_dx (j)_dy: w x^si y^sj times
    that factor in slot k, through row degree order - 2 + side.
    """
    top = order - 2 + side
    if side:
        unknowns = [(s, i, j) for s in range(4)
                    for i, j in _monomials(order)] + [(4, 0, 0)]
    else:
        unknowns = [(f, i, j) for i, j in reversed(_monomials(order))
                    for f in range(2)]
    terms = {}
    for col, (u, i, j) in enumerate(unknowns):
        for k, c, *parts in _TERMS:
            (slot, dx, dy), known = parts[side], parts[1 - side]
            w = c * perm(i, dx) * perm(j, dy)
            if slot == u and w and i + j - dx - dy <= top:
                terms.setdefault(known, []).append(
                    (col, k, w, i - dx, i + j - dx - dy))
    return tuple(unknowns), tuple((kn, tuple(t)) for kn, t in terms.items())


_EMPTY = MappingProxyType({})   # the part of a degree a column misses


def _columns(side, order, blocks):
    """The columns of ``_plan(side, order)``, a block of rows per tuple of
    known jets in ``blocks``.  Returns ``(scales, columns)``: per block the
    lcm L of the denominators of its terms of degree <= order - 1 + 2 side,
    and per unknown a list over row degree d <= top = order - 2 + side of
    {row: value}, no value zero, with L times the x^p y^(d - p) coefficient
    of residual slot k of block f in row (4 f + k) (d + 1) + p.  Each known
    derivative is sorted by degree once; a term takes the prefix that fits.
    """
    unknowns, plan = _plan(side, order)
    top = order - 2 + side
    columns = [[_EMPTY] * (top + 1) for _ in unknowns]
    scales, made = [], []
    for f, jets in enumerate(blocks):
        kept = [{(i, j): n for (i, j), n in jet._num.items()
                 if i + j <= top + 1 + side} for jet in jets]
        L = lcm(*(jet._den // gcd(jet._den, *num.values())  # less the content
                  for jet, num in zip(jets, kept)))
        scales.append(L)
        for (s, dx, dy), terms in plan:
            by_degree, den = {}, jets[s]._den
            for (i, j), n in kept[s].items():
                if i >= dx and j >= dy:
                    by_degree.setdefault(i + j - dx - dy, []).append(
                        (i - dx, perm(i, dx) * perm(j, dy) * n * L // den))
            if not by_degree:
                continue
            degrees = sorted(by_degree)
            groups = [(t, by_degree[t]) for t in degrees]
            for c, k, w, si, sh in terms:
                col, k = columns[c], 4 * f + k
                for t, group in groups[:bisect_right(degrees, top - sh)]:
                    part = col[t + sh]
                    if part is _EMPTY:
                        part = col[t + sh] = {}
                        made.append(part)
                    base = k * (t + sh + 1) + si
                    for p, v in group:
                        part[base + p] = part.get(base + p, 0) + w * v
    for part in made:
        if not all(part.values()):
            for r in [r for r, e in part.items() if not e]:
                del part[r]
    return scales, columns


class InvariantStructures(Record):
    """Affine space of structures preserved by a set of fields.

    ``particular`` and ``basis`` hold polynomial coefficient quadruples
    of degree <= ``degree``; the space is
    particular + span(basis), of dimension ``dimension``.
    """

    consistent: bool
    degree: int
    particular: object
    basis: tuple

    @property
    def dimension(self):
        return len(self.basis) if self.consistent else None

    def contains(self, st):
        """Is the degree-truncation of ``st`` in the affine space?

        ``st`` must be known through ``degree``: a coefficient above its
        ``eff`` is unknown, not zero."""
        if st.eff < self.degree:
            raise ValueError("structure jets too short: need eff >= %d"
                             % self.degree)
        if not self.consistent:
            return False
        target = _vectorize(st, self.degree)
        part = _vectorize(self.particular, self.degree)
        delta = [t - p for t, p in zip(target, part)]
        base = [_vectorize(b, self.degree) for b in self.basis]
        return rank(base + [delta]) == rank(base) if base else not any(delta)


def _vectorize(st, degree):
    return [Fraction(f.coeff(i, j)) for f in st for i, j in _monomials(degree)]


def _devectorize(vec, degree):
    monos = _monomials(degree)
    return ProjectiveStructure(*(Jet2.from_terms(
        dict(zip(monos, vec[s * len(monos):])), degree) for s in range(4)))


def invariant_structures(fields, degree):
    """All structures with polynomial coefficients of degree <= ``degree``
    preserved by every field in ``fields``.

    The residual is affine in the structure; equating its coefficients
    to zero through total degree ``degree - 1`` gives an exact affine
    system.  Field jets must be known (``order`` and ``eff``) through
    degree ``degree + 3`` so every equated coefficient is trustworthy.
    The equations are the integer ``_columns``, one block per field, with
    the residual of the zero structure as the constant column.  A structure
    monomial of degree e reaches only rows of degree e - 1 or more: it
    joins ``_graded_kernel`` at step max(e - 1, 0).
    """
    if degree < 1:
        raise ValueError("invariant_structures needs degree >= 1, got %d"
                         % degree)
    if not fields:
        raise ValueError("need at least one field")
    if min(min(f.a.eff, f.b.eff) for f in fields) < degree + 3:  # eff <= order
        raise ValueError("field jets too short: need order and eff >= %d"
                         % (degree + 3))
    joins = [max(i + j - 1, 0) for i, j in _monomials(degree)] * 4
    n = len(joins)
    cols = _columns(1, degree, [(f.a, f.b) for f in fields])[1]
    by_join = sorted(range(n), key=joins.__getitem__)
    *_, basis = _graded_kernel([[cols[c] for c in by_join if joins[c] == d]
                                for d in range(degree)], len(fields), cols[n])
    if not basis:
        return InvariantStructures(False, degree, None, ())
    # Reduced in reversed column order, the pivots are the constant column
    # and the free columns of solve_affine on the whole system, so this
    # gives its particular solution (zero on the free columns) and basis.
    rev = sorted(range(n + 1), key=([n] + by_join).__getitem__, reverse=True)
    rows = [[v[k] for k in rev] for v in basis]
    sts = [_devectorize([Fraction(e, rows[r][c]) for e in rows[r][:0:-1]],
                        degree) for r, c in reversed(_reduce(rows, n + 1))]
    return InvariantStructures(True, degree, sts[-1], tuple(sts[:-1]))
