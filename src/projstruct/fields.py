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
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import _ensure
from .jets import Jet2
from .linalg import nullspace, rank, solve_affine
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


class _StructureParts:
    """Slope data of a structure reused across many residual evaluations."""

    __slots__ = ("f", "fx", "fy", "fp")

    def __init__(self, st):
        self.f = st.slope_poly()
        self.fx = self.f.map(lambda c: c.d_dx())
        self.fy = self.f.map(lambda c: c.d_dy())
        self.fp = SlopePoly([st.B, 2 * st.C, 3 * st.D])


class _FieldParts:
    """Derivatives of a field reused across many residual evaluations."""

    __slots__ = ("a", "b", "eta", "lead", "inhom")

    def __init__(self, field):
        a, b = field.a, field.b
        ax, ay = a.d_dx(), a.d_dy()
        bx, by = b.d_dx(), b.d_dy()
        self.a = a
        self.b = b
        # first prolongation of the flow acting on the slope
        self.eta = SlopePoly([bx, by - ax, -ay])
        # variation of the denominator weight
        self.lead = SlopePoly([by - 2 * ax, -3 * ay])
        # second prolongation: the structure-independent part
        self.inhom = SlopePoly([bx.d_dx(),
                                2 * bx.d_dy() - ax.d_dx(),
                                by.d_dy() - 2 * ax.d_dy(),
                                -ay.d_dy()])

    def linear_part(self, sp):
        """The terms of the residual that depend on the structure."""
        out = (sp.fx.scale(self.a) + sp.fy.scale(self.b)
               + self.eta * sp.fp - self.lead * sp.f)
        _ensure(out.coeff(4).is_zero(), "slope degree 4 cancels")
        return SlopePoly([out.coeff(k) for k in range(4)])

    def full(self, sp):
        return self.linear_part(sp) - self.inhom


def residual(field, st):
    """Lie derivative of the structure along the field, as a slope cubic.

    Zero (to the effective order) exactly when ``field`` is an
    infinitesimal symmetry of ``st``.
    """
    return _FieldParts(field).full(_StructureParts(st))


def is_symmetry(field, st):
    return residual(field, st).is_zero()


# --- linear solves ------------------------------------------------------------


def _monomials(degree):
    out = []
    for total in range(degree + 1):
        for i in range(total, -1, -1):
            out.append((i, total - i))
    return out


@dataclass(frozen=True)
class SymmetryDimensions:
    """Dimension of the symmetry algebra seen through 2-jets of fields.

    Polynomial candidate fields of degree <= n are solved for at two
    consecutive orders; when both orders agree the count has stabilized
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
    """Projected symmetry-space dimensions at ``order`` and ``order + 1``."""
    dims = [_symmetry_dim_at(st, n) for n in (order, order + 1)]
    return SymmetryDimensions(order, order + 1, dims[0], dims[1])


def _symmetry_dim_at(st, n):
    if st.order < n or st.eff < n:
        raise ValueError("structure jets too short for order %d" % n)
    sp = _StructureParts(st.truncated(n))
    monos = _monomials(n)
    columns = []
    row_monos = _monomials(n - 2)
    for slot in range(2):
        for (i, j) in monos:
            m = Jet2.monomial(i, j, 1, n)
            field = VectorField(m if slot == 0 else Jet2.zero(n),
                                m if slot == 1 else Jet2.zero(n))
            res = _FieldParts(field).full(sp)
            col = []
            for k in range(4):
                jet = res.coeff(k)
                for (p, q) in row_monos:
                    col.append(jet.coeff(p, q))
            columns.append(col)
    rows = [[col[r] for col in columns] for r in range(len(columns[0]))]
    basis = nullspace(rows, len(columns))
    if not basis:
        return 0
    # project solutions onto 2-jet coordinates of the field components
    proj_idx = [k for k, (i, j) in enumerate(monos) if i + j <= 2]
    proj_idx += [len(monos) + k for k, (i, j) in enumerate(monos) if i + j <= 2]
    projected = [[vec[k] for k in proj_idx] for vec in basis]
    return rank(projected, len(proj_idx))


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
        base = [list(v) for v in self.basis_vectors()]
        return rank(base + [delta]) == rank(base) if base else not any(delta)

    def basis_vectors(self):
        return [_vectorize(b, self.degree) for b in self.basis]


def _vectorize(st, degree):
    out = []
    for f in st:
        for (i, j) in _monomials(degree):
            out.append(Fraction(f.coeff(i, j)))
    return out


def _devectorize(vec, degree, order):
    monos = _monomials(degree)
    jets = []
    for s in range(4):
        terms = {}
        for k, (i, j) in enumerate(monos):
            c = vec[s * len(monos) + k]
            if c:
                terms[(i, j)] = c
        jets.append(Jet2.from_terms(terms, order))
    return ProjectiveStructure(*jets)


def invariant_structures(fields, degree):
    """All structures with polynomial coefficients of degree <= ``degree``
    preserved by every field in ``fields``.

    The residual is affine in the structure; equating its coefficients
    to zero through total degree ``degree - 1`` gives an exact affine
    system.  Field jets must carry at least ``degree + 3`` orders so
    every equated coefficient is trustworthy.
    """
    if not fields:
        raise ValueError("need at least one field")
    work = min(f.order for f in fields)
    if work < degree + 3:
        raise ValueError("field jets too short: need order >= %d" % (degree + 3))
    parts = [_FieldParts(f) for f in fields]
    monos = _monomials(degree)
    row_monos = _monomials(degree - 1)
    ncols = 4 * len(monos)
    rows = []
    rhs = []
    zero_st = ProjectiveStructure.zero(work)
    for part in parts:
        # the inhomogeneous term: residual(v, 0) = -inhom
        base_cols = []
        for slot in range(4):
            for (i, j) in monos:
                basis_st = _basis_structure(slot, i, j, work)
                base_cols.append(part.linear_part(_StructureParts(basis_st)))
        for k in range(4):
            inhom_jet = part.inhom.coeff(k)
            for (p, q) in row_monos:
                row = []
                for col in base_cols:
                    row.append(Fraction(col.coeff(k).coeff(p, q)))
                rows.append(row)
                rhs.append(Fraction(inhom_jet.coeff(p, q)))
    consistent, particular, basis = solve_affine(rows, rhs)
    if not consistent:
        return InvariantStructures(False, degree, None, ())
    part_st = _devectorize(particular, degree, degree)
    basis_sts = tuple(_devectorize(v, degree, degree) for v in basis)
    return InvariantStructures(True, degree, part_st, basis_sts)


def _basis_structure(slot, i, j, order):
    jets = [Jet2.zero(order)] * 4
    jets[slot] = Jet2.monomial(i, j, 1, order)
    return ProjectiveStructure(*jets)
