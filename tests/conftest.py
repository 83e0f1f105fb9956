from fractions import Fraction

import pytest
from hypothesis import strategies as st

from projstruct.duals import DualRational
from projstruct.jets import Jet2

# Property tests run at a modest order: the order-N algebra exercises the
# same code paths as order 12 while keeping the suite fast.
PROP_ORDER = 6


@pytest.fixture(scope="session")
def reports12():
    """One shared full verification run at the default working order."""
    from projstruct import run_all

    return run_all(order=12)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)


def _keys(order, x_only=False, max_degree=None):
    top = order if max_degree is None else min(order, max_degree)
    out = []
    for i in range(top + 1):
        for j in range(top + 1 - i):
            if x_only and j:
                continue
            out.append((i, j))
    return out


@st.composite
def jets(draw, order=PROP_ORDER, max_terms=4, x_only=False, zero_constant=False,
         unit_constant=False, max_degree=None):
    """Sparse random jets; sparse data keeps exact arithmetic quick."""
    keys = _keys(order, x_only=x_only, max_degree=max_degree)
    if zero_constant:
        keys = [k for k in keys if k != (0, 0)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms))
    coeffs = {}
    for key in chosen:
        coeffs[key] = draw(small_fractions)
    if unit_constant:
        coeffs[(0, 0)] = draw(nonzero_fractions)
    return Jet2.from_terms(coeffs, order)


@st.composite
def dual_jets(draw, order=PROP_ORDER, **kwargs):
    """A rational jet from ``jets`` plus a random eps-part, at a random eff."""
    re = draw(jets(order=order, **kwargs))
    ep = draw(jets(order=order, **kwargs))
    return Jet2({k: DualRational(re.coeff(*k), ep.coeff(*k))
                 for k in re.coeffs.keys() | ep.coeffs.keys()},
                order, draw(st.integers(-1, order)))


def univariate_germs(order=PROP_ORDER):
    """x-only jets of the form c1*x + ... with invertible linear part."""
    @st.composite
    def build(draw):
        tail = draw(jets(order=order, x_only=True, zero_constant=True))
        c1 = draw(nonzero_fractions)
        lin = Jet2.monomial(1, 0, c1, order)
        no_lin = tail - Jet2.monomial(1, 0, tail.coeff(1, 0), order)
        return lin + no_lin
    return build()


def diffeo_germs(order=PROP_ORDER):
    """Random origin-fixing coordinate changes with invertible linear part."""
    from projstruct.structures import DiffeoGerm

    @st.composite
    def build(draw):
        a = draw(small_fractions)
        b = draw(small_fractions)
        c = draw(small_fractions)
        d = draw(small_fractions)
        if a * d - b * c == 0:
            a = d = 1 + abs(b) + abs(c)  # force a unit determinant
        u_tail = draw(jets(order=order, max_terms=2, zero_constant=True))
        v_tail = draw(jets(order=order, max_terms=2, zero_constant=True))
        lin_u = Jet2.from_terms({(1, 0): a, (0, 1): b}, order)
        lin_v = Jet2.from_terms({(1, 0): c, (0, 1): d}, order)
        u = lin_u + _strip_linear(u_tail)
        v = lin_v + _strip_linear(v_tail)
        return DiffeoGerm(u, v)
    return build()


def _strip_linear(jet):
    return jet - Jet2.from_terms({(1, 0): jet.coeff(1, 0),
                                  (0, 1): jet.coeff(0, 1)}, jet.order)


def structures(order=PROP_ORDER, x_only=False, max_terms=3):
    """Random projective structures with sparse coefficient jets."""
    from projstruct.structures import ProjectiveStructure

    @st.composite
    def build(draw):
        return ProjectiveStructure(
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)),
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)),
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)),
            draw(jets(order=order, x_only=x_only, max_terms=max_terms)))
    return build()
