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
of a solve, the read plan ``_reads``, is cached per (side, order) next to
the constant symbol S_d and built on first use.  ``_graded_kernel``
solves both one residual degree d at a time on sparse primitive integer
vectors, past degree 0 ``symmetry_dim`` only the compatibility rows of
S_d, and ``_former`` forms each step's rows from its live basis alone.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm

from .jets import Jet2, _sum_of_products, first_nonzero
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
    return first_nonzero(residual(field, st).coeffs) is None


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
    the 2 d - 2 compatibility rows C_d X K are solved there.  Those rows
    read the structure through degree ``order``: it must be known that far.
    """
    n = order
    if n < 2:
        raise ValueError("symmetry_dim needs order >= 2, got %d" % n)
    if st.eff < n:  # eff <= order
        raise ValueError("structure jets too short: need eff >= %d" % n)
    (L,), rows = _former(0, n + 1, [(*st, Jet2.constant(1, n + 1))])
    kernels = _graded_kernel(rows, _reads(0, n + 1)[1], L=L)
    dims = [rank([[v.get(u, 0) for u in range(12)] for v in K], 12)
            for d, K in enumerate(kernels) if d >= n - 2]
    return SymmetryDimensions(n, n + 1, *dims)


def _graded_kernel(rows, joins, one=False, L=1):
    """Solve a graded integer system one row degree d at a time.

    ``joins[d]`` unknowns join at step d, numbered after the ones before,
    and ``rows(basis, d)`` forms the rows of degree d of the basis vectors.
    With X and Y the rows of degree d on the joined and the new unknowns,
    the kernel K grows to the (K c, w) with X K c + Y w = 0: ``nullspace``
    on [X K | Y], the new unknowns joining as unit vectors, or on C_d X K
    past step 0 without ``one`` (Y = L S_d, P L w = -W_d X K c).  With
    ``one`` a constant unknown 0 joins first as p = (1), and
    ``solve_affine([X K | Y], -X p)`` grows both.  Yields each step's
    primitive integer vectors as {unknown: nonzero entry}, or [] once one
    is inconsistent.
    """
    basis, width = ([{0: 1}], 1) if one else ([], 0)
    for d, m in enumerate(joins):
        new, width = range(width, width + m), width + m
        symbol = not one and d
        if not symbol:
            basis = basis + [{u: 1} for u in new]
        ext, nb = rows(basis, d), len(basis)
        if symbol:
            P, E = _symbol(d)
            live = {r: row for r, row in enumerate(ext) if any(row)}
            ER = []
            for row in E:  # E X K on the rows that X K reaches
                part = None
                for r, v in row:
                    if r in live:
                        part = ([v * e for e in live[r]] if part is None else
                                [a + v * e for a, e in zip(part, live[r])])
                ER.append(part or [0] * nb)
            # each basis vector times P L, extended by -W X K to degree d + 2
            basis = [{**{u: P * L * x for u, x in b.items()},
                      **{u: -e for u, e in zip(new, w) if e}}
                     for b, w in zip(basis, zip(*ER[:m]))]
            sols = nullspace(ER[m:], nb)
        elif one:
            consistent, p, sols = solve_affine([row[1:] for row in ext],
                                               [-row[0] for row in ext])
            if not consistent:
                yield []
                return
            sols = [_int_row([1] + p)] + [[0] + s for s in sols]
        else:
            sols = nullspace(ext, nb)
        basis = [_grow(s, basis) for s in sols]
        yield basis


def _grow(s, basis):
    """The primitive integer vector sum_b s_b basis_b, as {unknown: entry}."""
    v = {}
    for a, b in zip(s, basis):
        if a:
            for u, x in b.items():
                v[u] = v.get(u, 0) + a * x
    g = gcd(*v.values())
    return {u: x // g for u, x in v.items() if x}


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
def _reads(side, order):
    """The structure-free part of a determining system, built once.

    The unknowns are x^i y^j through degree ``order`` in the factor
    ``side`` of ``_TERMS``: a field component (0) or a structure slot after
    the "1" of the zero structure (1), in the order they join
    ``_graded_kernel``, at step max(i + j - 2 + side, 0).  Returns them as
    (slot, i, j), how many join at each step, and per known factor and
    shift sh <= order - 2 + side the reads (u, k, w, si) in the order of u:
    unknown u adds w x^si y^(sh - si) times that factor to slot k, nonzero
    w = c (i)_dx (j)_dy for sh = i + j - dx - dy.
    """
    top = order - 2 + side
    if side:   # slot by slot
        unknowns = [(s, i, j) for s in range(4) for i, j in _monomials(order)]
    else:      # by descending degree
        unknowns = [(f, i, j) for i, j in _monomials(order)[::-1]
                    for f in range(2)]
    steps = [max(i + j - 2 + side, 0) for _, i, j in unknowns]
    unknowns = [(4, 0, 0)] * side + sorted(
        unknowns, key=lambda u: max(u[1] + u[2] - 2 + side, 0))
    by_slot = {}   # the terms of each slot on this side, in table order
    for k, c, *parts in _TERMS:
        (slot, dx, dy), known = parts[side], parts[1 - side]
        by_slot.setdefault(slot, []).append((k, c, dx, dy, known))
    reads = {}
    for q, (u, i, j) in enumerate(unknowns):
        for k, c, dx, dy, known in by_slot.get(u, ()):
            w, sh = c * perm(i, dx) * perm(j, dy), i + j - dx - dy
            if w and sh <= top:
                reads.setdefault(known, [[] for _ in range(top + 1)])[
                    sh].append((q, k, w, i - dx))
    return (tuple(unknowns), tuple(map(steps.count, range(top + 1))),
            tuple((known, tuple(map(tuple, by_shift)))
                  for known, by_shift in reads.items()))


def _former(side, order, blocks):
    """The row former of ``_reads(side, order)``, a block of rows per tuple
    of known jets in ``blocks``.  Returns ``(scales, rows)``: per block the
    lcm L of the denominators of its terms of degree <= order - 1 + 2 side,
    and ``rows(basis, d)``, the degree-d rows of the vectors {unknown:
    entry} of ``basis``: L times the x^p y^(d - p) coefficient of residual
    slot k of block f in row (4 f + k) (d + 1) + p, a column per vector.
    Each known derivative is sorted by degree once per call.
    """
    top = order - 2 + side
    unknowns, _, reads = _reads(side, order)
    scales, knowns = [], []
    for jets in blocks:
        kept = [{(i, j): n for (i, j), n in jet._num.items()
                 if i + j <= top + 1 + side} for jet in jets]
        L = lcm(*(jet._den // gcd(jet._den, *num.values())  # less the content
                  for jet, num in zip(jets, kept)))
        scales.append(L)
        known = []
        for (s, dx, dy), plan in reads:
            by_degree, den = {}, jets[s]._den
            for (i, j), n in kept[s].items():
                if i >= dx and j >= dy:
                    by_degree.setdefault(i + j - dx - dy, []).append(
                        (i - dx, perm(i, dx) * perm(j, dy) * n * L // den))
            if by_degree:
                known.append((plan, sorted(by_degree.items())))
        knowns.append(known)

    def rows(basis, d):
        cols = [()] * len(unknowns)   # per unknown, its (vector, entry)
        for b, v in enumerate(basis):
            for u, x in v.items():
                cols[u] += ((b, x),)
        ext = [[0] * len(basis) for _ in range(4 * (d + 1) * len(knowns))]
        for f, known in enumerate(knowns):
            for plan, groups in known:
                for t, terms in groups:
                    if t > d:
                        break
                    for u, k, w, si in plan[d - t]:
                        col = cols[u]
                        if col:
                            base = (4 * f + k) * (d + 1) + si
                            for p, v in terms:
                                row, wv = ext[base + p], w * v
                                for b, x in col:
                                    row[b] += wv * x
        return ext

    return scales, rows


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
    return ProjectiveStructure(*(Jet2(
        dict(zip(monos, vec[s * len(monos):])), degree) for s in range(4)))


def invariant_structures(fields, degree):
    """All structures with polynomial coefficients of degree <= ``degree``
    preserved by every field in ``fields``.

    The residual is affine in the structure; equating its coefficients
    to zero through total degree ``degree - 1`` gives an exact affine
    system.  Those rows take at most two derivatives of a field, so they
    read the fields through degree ``degree + 1``, and field jets must be
    known (``eff``) that far.
    The equations are the integer rows of ``_former``, one block per
    field, with the residual of the zero structure as the constant column.
    A structure monomial of degree e reaches only rows of degree e - 1 or
    more: it joins ``_graded_kernel`` at step max(e - 1, 0).
    """
    if degree < 1:
        raise ValueError("invariant_structures needs degree >= 1, got %d"
                         % degree)
    if not fields:
        raise ValueError("need at least one field")
    if min(min(f.a.eff, f.b.eff) for f in fields) < degree + 1:  # eff <= order
        raise ValueError("field jets too short: need eff >= %d" % (degree + 1))
    unknowns, joins, _ = _reads(1, degree)
    *_, basis = _graded_kernel(
        _former(1, degree, [(f.a, f.b) for f in fields])[1], joins, one=True)
    if not basis:
        return InvariantStructures(False, degree, None, ())
    # Reduced in reversed column order (slot by slot as ``_monomials``
    # lists them, the constant last), the pivots are the constant column
    # and the free columns of solve_affine on the whole system, so this
    # gives its particular solution (zero on the free columns) and basis.
    rev = sorted(range(len(unknowns)), reverse=True, key=lambda q: (
        unknowns[q][0], sum(unknowns[q][1:]), -unknowns[q][1]))
    rows = [[v.get(q, 0) for q in rev] for v in basis]
    sts = [_devectorize([Fraction(e, rows[r][c]) for e in rows[r][:0:-1]],
                        degree) for r, c in reversed(_reduce(rows, len(rev)))]
    return InvariantStructures(True, degree, sts[-1], tuple(sts[:-1]))
