"""Polynomials in the slope variable p = y' with 2-jet coefficients.

The residual of a vector field on a structure is returned as one, a
cubic in p, and ``structure_from_pencil`` multiplies two to form its
right-hand side.  ``pullback`` and ``residual`` sum their coefficients
through ``jets._sum_of_products`` instead.
"""

from .jets import Jet2


class SlopePoly:
    """c[0] + c[1] p + ... + c[k] p^k with Jet2 coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return Jet2.zero(self.coeffs[0].order)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return SlopePoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other):
        order = min(c.order for c in self.coeffs + other.coeffs)
        out = [Jet2.zero(order) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return SlopePoly(out)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        return "SlopePoly(%r)" % (self.coeffs,)
