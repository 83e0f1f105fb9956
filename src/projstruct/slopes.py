"""Polynomials in the slope variable p = y' with 2-jet coefficients.

The residual of a vector field on a structure is returned as one, a
cubic in p, and ``structure_from_pencil`` multiplies two to form its
right-hand side.  ``_slope_terms`` is the one slope-product rule: it
lists the kernel terms of each coefficient of a product, and both
``SlopePoly.__mul__`` and ``pullback`` sum them through
``jets._sum_of_products``.
"""

from .jets import Jet2, _sum_of_products, first_nonzero


class SlopePoly:
    """c[0] + c[1] p + ... + c[k] p^k with Jet2 coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        self.coeffs = coeffs

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return Jet2.zero(self.coeffs[0].order)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return SlopePoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other):
        return SlopePoly([_sum_of_products(t) for t in _slope_terms(
            [(1, a) for a in self.coeffs], [(1, b) for b in other.coeffs])])

    def is_zero(self):
        return first_nonzero(self.coeffs) is None

    def __repr__(self):
        return "SlopePoly(%r)" % (self.coeffs,)


def _slope_terms(f, g):
    """The kernel terms of each slope coefficient of f g, for polynomials
    in p given as lists of (weight, jet) coefficients."""
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, (s, a) in enumerate(f):
        for j, (t, b) in enumerate(g):
            out[i + j].append((s * t, a, b))
    return out
