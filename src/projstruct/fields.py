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

Both exact linear solves read their integer equations from one closed
form of the residual's terms, which are bilinear in (field, structure):
``symmetry_dim`` solves for polynomial fields, ``invariant_structures``
for polynomial structures.  ``residual`` is the oracle for that table.
``_graded_kernel`` solves both one residual degree at a time, and past
degree 0 ``symmetry_dim`` only the compatibility rows of a constant symbol.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm
from operator import mul

from .errors import _ensure
from .jets import Jet2
from .linalg import _int_row, _reduce, nullspace, rank, solve_affine
from .slopes import SlopePoly
from .structures import ProjectiveStructure


@dataclass(frozen=True)
class VectorField:
    a: Jet2  # coefficient of d/dx
    b: Jet2  # coefficient of d/dy

    def __post_init__(self):
        if self.a.order != self.b.order:
            raise ValueError("field components must share one order")

    @property
    def order(self):
        return self.a.order

    def apply(self, g):
        """The derivation: v(g) = a g_x + b g_y."""
        return self.a * g.d_dx() + self.b * g.d_dy()

    def agree(self, other):
        return self.a.agree(other.a) and self.b.agree(other.b)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    @classmethod
    def zero(cls, order):
        return cls(Jet2.zero(order), Jet2.zero(order))


def lie_bracket(v, w):
    """[v, w], componentwise v(w) - w(v)."""
    return VectorField(v.apply(w.a) - w.apply(v.a),
                       v.apply(w.b) - w.apply(v.b))


def residual(field, st):
    """Lie derivative of the structure along the field, as a slope cubic.

    Zero (to the effective order) exactly when ``field`` is an
    infinitesimal symmetry of ``st``.
    """
    a, b = field.a, field.b
    ax, ay = a.d_dx(), a.d_dy()
    bx, by = b.d_dx(), b.d_dy()
    f = st.slope_poly()
    # first prolongation of the flow acting on the slope
    eta = SlopePoly([bx, by - ax, -ay])
    # variation of the denominator weight
    lead = SlopePoly([by - 2 * ax, -3 * ay])
    out = (f.map(lambda c: c.d_dx()).scale(a)
           + f.map(lambda c: c.d_dy()).scale(b)
           + eta * SlopePoly([st.B, 2 * st.C, 3 * st.D]) - lead * f)
    _ensure(out.coeff(4).is_zero(), "slope degree 4 cancels")
    # second prolongation: the structure-independent part
    inhom = SlopePoly([bx.d_dx(), 2 * bx.d_dy() - ax.d_dx(),
                       by.d_dy() - 2 * ax.d_dy(), -ay.d_dy()])
    return SlopePoly([out.coeff(k) for k in range(4)]) - inhom


def is_symmetry(field, st):
    return residual(field, st).is_zero()


# --- linear solves ------------------------------------------------------------


def _monomials(degree):
    return [(i, total - i) for total in range(degree + 1)
            for i in range(total, -1, -1)]


@dataclass(frozen=True)
class SymmetryDimensions:
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
    L, columns = _monomial_columns(st, n + 1)
    steps = [[_by_degree([col], n) for (_, i, j), col in columns.items()
              if max(i + j, 2) == d + 2] for d in range(n)]
    dims = [rank([v[:12] for v in K], 12)
            for d, K in enumerate(_graded_kernel(steps, L=L)) if d >= n - 2]
    return SymmetryDimensions(n, n + 1, *dims)


def _graded_kernel(steps, blocks=1, one=None, L=1):
    """Solve a graded integer system one row degree d at a time.

    ``steps[d]`` lists the columns (``_by_degree`` over ``blocks``
    blocks) that join at step d and vanish below it.  With X and Y the
    rows of degree d on the joined and the new columns, the kernel K
    grows to the (K c, w) with X K c + Y w = 0: ``nullspace`` on [X K | Y],
    or on C_d X K past step 0 without ``one`` (Y = L S_d, P L w = -W_d X K c).
    A constant column ``one`` joins first as the particular solution p = (1),
    and ``solve_affine([X K | Y], -X p)`` grows both.  Yields each step's
    joined-order integer vectors, or [] once a step is inconsistent.
    """
    seen, basis = ([], []) if one is None else ([one], [[1]])
    for d, new in enumerate(steps):
        ext = [[0] * (len(basis) + len(new))
               for _ in range(4 * (d + 1) * blocks)]
        for c, col in enumerate(seen):
            for r, e in col[d]:
                ext[r][:len(basis)] = [a + e * v[c]
                                       for a, v in zip(ext[r], basis)]
        for k, col in enumerate(new, len(basis)):
            for r, e in col[d]:
                ext[r][k] = e
        if one is None and d:
            P, E = _symbol(d)
            ER = [[sum(t) for t in zip(*([v * e for e in ext[r][:len(basis)]]
                                         for r, v in row))] for row in E]
            cs = map(_int_row, nullspace(ER[len(new):], len(basis)))
            sols = [[P * L * e for e in c]
                    + [-sum(map(mul, w, c)) for w in ER[:len(new)]] for c in cs]
        elif one is None:
            sols = nullspace(ext, len(basis) + len(new))
        else:
            consistent, p, sols = solve_affine([row[1:] for row in ext],
                                               [-row[0] for row in ext])
            if not consistent:
                yield []
                return
            sols = [[1] + p] + [[0] + s for s in sols]
        basis = [_int_row([sum(c) for c in zip([0] * len(seen), *(
            [a * e for e in v] for a, v in zip(s, basis) if a))]
            + s[len(basis):]) for s in map(_int_row, sols)]
        seen += new
        yield basis


@lru_cache(maxsize=None)
def _symbol(d):
    """``(P, E)``: W S_d = P I on the first 2 (d + 3) sparse (row, value)
    rows of E, C S_d = 0 on the rest, for S_d the "1" terms of ``_TERMS``
    from x^i y^(d + 2 - i) in component f (column 2 i + f) to degree d."""
    n, m, h = 2 * (d + 3), 4 * (d + 1), d + 1
    rows = [[0] * n + [int(r == c) for c in range(m)] for r in range(m)]
    for k, c, f, dx, dy, *_ in (t for t in _TERMS if t[5] == 4):
        for i in range(dx, h + 2 - dy):
            e = c * perm(i, dx) * perm(h + 1 - i, dy)
            rows[k * h + i - dx][2 * i + f] = e
    _reduce(rows, n + m)   # S_d is injective: rows[c][c] pivots column c < n
    P = lcm(*(rows[c][c] for c in range(n)))
    return P, [[(k, v * P // row[c] if c < n else v) for k, v in
                enumerate(row[n:]) if v] for c, row in enumerate(rows)]


def _by_degree(cols, degrees):
    """The nonzero entries of columns stacked in blocks, one list per
    residual degree d < ``degrees``, as (row, value): at degree d the
    entry (k, p, d - p) of ``cols[f]`` sits in row (4 f + k) (d + 1) + p."""
    out = [[] for _ in range(degrees)]
    for f, col in enumerate(cols):
        for (k, p, q), e in col.items():
            if e:
                out[p + q].append(((4 * f + k) * (p + q + 1) + p, e))
    return out


# The residual in closed form: an entry (k, source, c, dx, dy) of
# _MONOMIAL_TERMS[slot] is the term c * (d/dx)^dx (d/dy)^dy g * source in
# slot k, where g is field component ``slot`` (0 for a, 1 for b) and
# source is a structure coefficient, its x- or y-derivative, or "1".
# Read for symmetry_dim, g = x^i y^j is the unknown; read for
# invariant_structures, the field is known, the unknown is x^i y^j in one
# structure slot, and minus the "1" terms (the residual of the zero
# structure) is the right-hand side.  The table expands residual(field, st):
#   a = g:  R0 = a A_x + 2 a_x A
#           R1 = a B_x + a_x B + 3 a_y A + a_xx
#           R2 = a C_x + 2 a_y B + 2 a_xy
#           R3 = a D_x - a_x D + a_y C + a_yy
#   b = g:  R0 = b A_y + b_x B - b_y A - b_xx
#           R1 = b B_y + 2 b_x C - 2 b_xy
#           R2 = b C_y + 3 b_x D + b_y C - b_yy
#           R3 = b D_y + 2 b_y D
_MONOMIAL_TERMS = (
    ((0, "Ax", 1, 0, 0), (0, "A", 2, 1, 0),
     (1, "Bx", 1, 0, 0), (1, "B", 1, 1, 0), (1, "A", 3, 0, 1),
     (1, "1", 1, 2, 0),
     (2, "Cx", 1, 0, 0), (2, "B", 2, 0, 1), (2, "1", 2, 1, 1),
     (3, "Dx", 1, 0, 0), (3, "D", -1, 1, 0), (3, "C", 1, 0, 1),
     (3, "1", 1, 0, 2)),
    ((0, "Ay", 1, 0, 0), (0, "B", 1, 1, 0), (0, "A", -1, 0, 1),
     (0, "1", -1, 2, 0),
     (1, "By", 1, 0, 0), (1, "C", 2, 1, 0), (1, "1", -2, 1, 1),
     (2, "Cy", 1, 0, 0), (2, "D", 3, 1, 0), (2, "C", 1, 0, 1),
     (2, "1", -1, 0, 2),
     (3, "Dy", 1, 0, 0), (3, "D", 2, 0, 1)),
)

# The same terms with both factors spelled alike: (k, c, f, fdx, fdy, s,
# sdx, sdy) is c times (d/dx)^fdx (d/dy)^fdy of field component f times
# (d/dx)^sdx (d/dy)^sdy of structure slot s, where slot 4 is the source "1".
_TERMS = tuple((k, c, f, dx, dy, "ABCD1".index(name[0]),
                int(name[1:] == "x"), int(name[1:] == "y"))
               for f, terms in enumerate(_MONOMIAL_TERMS)
               for k, name, c, dx, dy in terms)


def _column(terms, top):
    """One integer column: the sum over ``terms`` (k, c, i, j, dx, dy,
    known) of c * (d/dx)^dx (d/dy)^dy x^i y^j * known in slot k of the
    residual, where x^i y^j is the unknown and ``known`` maps (p, q) to
    integers.  Keyed (k, p, q), through degree p + q <= ``top``.
    """
    col = {}
    for k, c, i, j, dx, dy, known in terms:
        w = c * perm(i, dx) * perm(j, dy)
        if not w:
            continue
        si, sj = i - dx, j - dy
        lim = top - si - sj
        for (p, q), v in known.items():
            if p + q <= lim:
                key = (k, p + si, q + sj)
                col[key] = col.get(key, 0) + w * v
    return col


def _derivatives(jets, top):
    """``(L, d)``: ``d[s, dx, dy]`` is L (d/dx)^dx (d/dy)^dy ``jets[s]``
    as an integer dict, for dx + dy <= 2, from the terms of degree
    <= ``top``; L is the lcm of their denominators."""
    used = []
    for f in jets:
        num = {(i, j): n for (i, j), n in f._num.items() if i + j <= top}
        g = gcd(f._den, *num.values())   # the content of the kept terms
        used.append((num, g, f._den // g))
    L = lcm(*(den for _, _, den in used))
    d = {}
    for s, (num, g, den) in enumerate(used):
        f = {k: n // g * (L // den) for k, n in num.items()}
        for dx, dy in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            d[s, dx, dy] = {(i - dx, j - dy): perm(i, dx) * perm(j, dy) * v
                            for (i, j), v in f.items() if i >= dx and j >= dy}
    return L, d


def _monomial_columns(st, order):
    """The determining equations of the fields of degree <= ``order``.

    Returns ``(L, columns)``.  ``columns[slot, i, j]`` is the field whose
    component ``slot`` (0 for a, 1 for b) is x^i y^j; it maps (k, p, q)
    with p + q <= order - 2 to L times the x^p y^q coefficient of slot k
    of its residual, where L is the lcm of the denominators of the
    structure coefficients used.  Columns come by descending degree.
    """
    L, known = _derivatives(st, order - 1)
    known[4, 0, 0] = {(0, 0): L}
    columns = {}
    for (i, j) in reversed(_monomials(order)):
        for slot in range(2):
            columns[slot, i, j] = _column(
                [(k, c, i, j, fdx, fdy, known[s, sdx, sdy])
                 for k, c, f, fdx, fdy, s, sdx, sdy in _TERMS if f == slot],
                order - 2)
    return L, columns


def _structure_columns(field, degree):
    """The equations ``field`` puts on the structures of degree <= ``degree``.

    Returns ``(L, columns)``: for each unknown x^i y^j in a structure
    slot (slot by slot, then ``_monomials(degree)``) the residual's part
    linear in it, and last the residual of the zero structure.  Each maps
    (k, p, q) with p + q <= degree - 1 to L times that coefficient, L the
    lcm of the denominators of the field coefficients used.
    """
    L, known = _derivatives((field.a, field.b), degree + 1)
    unknowns = [(s, i, j) for s in range(4) for (i, j) in _monomials(degree)]
    return L, [_column([(k, c, i, j, sdx, sdy, known[f, fdx, fdy])
                        for k, c, f, fdx, fdy, s, sdx, sdy in _TERMS
                        if s == slot], degree - 1)
               for slot, i, j in unknowns + [(4, 0, 0)]]


@dataclass(frozen=True)
class InvariantStructures:
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
        """Is the degree-truncation of ``st`` in the affine space?"""
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
    The equations are the integer columns of ``_structure_columns``, one
    block per field, with the residual of the zero structure as the
    constant column.  A structure monomial of degree e reaches only rows
    of degree e - 1 or more: it joins ``_graded_kernel`` at step
    max(e - 1, 0).
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
    cols = [_by_degree(per_field, degree) for per_field in
            zip(*(_structure_columns(f, degree)[1] for f in fields))]
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
