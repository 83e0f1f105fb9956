"""The record protocol that every ``Record`` subclass of the package keeps.

Each sample's expected repr is the one the same value printed when the
records were frozen dataclasses.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from projstruct import cases, cli, expressions, fields, reports
from projstruct.errors import DegenerateJacobian, DegenerateWedge
from projstruct.fields import VectorField
from projstruct.jets import Jet2
from projstruct.pencils import Foliation, Pencil
from projstruct.records import Record
from projstruct.reports import CheckResult
from projstruct.structures import DiffeoGerm, LiouvillePair, ProjectiveStructure

X, Y = Jet2.variable("x", 2), Jet2.variable("y", 2)
ONE, ZERO = Jet2.constant(1, 2), Jet2.zero(2)
J = "Jet2(%s; order=2, eff=2)"
ST = "ProjectiveStructure(A=%s, B=%s, C=%s, D=%s)" % (
    J % "1 * x", J % "0", J % "0", J % "1")


def _entry():
    return cases._AlgebraEntry(("0", "0", "0", "0"), ("d_dx", "d_dy"), (), 8)


ENTRY = ("_AlgebraEntry(quadruple=('0', '0', '0', '0'), fields=('d_dx', "
         "'d_dy'), brackets=(), dim=8, extra=<function _no_extra>)")


def _check():
    return CheckResult("symmetry:d_dy", "fail", "1 * x", "why")


CHECK = ("CheckResult(name='symmetry:d_dy', verdict='fail', "
         "residual_leading_term='1 * x', detail='why')")

# a builder of a fresh sample and the repr its value printed as a dataclass
SAMPLES = [
    (lambda: expressions.Lit(Fraction(1, 2)), "Lit(value=Fraction(1, 2))"),
    (lambda: expressions.Var("x"), "Var(name='x')"),
    (lambda: expressions.Param("lam"), "Param(name='lam')"),
    (lambda: expressions.Neg(expressions.Var("y")), "Neg(arg=Var(name='y'))"),
    (lambda: expressions.Chain(expressions.Var("x"),
                               (("+", expressions.Lit(Fraction(2))),)),
     "Chain(first=Var(name='x'), rest=(('+', Lit(value=Fraction(2, 1))),))"),
    (lambda: expressions.Pow(expressions.Var("x"), Fraction(-1, 2)),
     "Pow(base=Var(name='x'), exponent=Fraction(-1, 2))"),
    (lambda: expressions.Call("exp", expressions.Param("lam")),
     "Call(func='exp', arg=Param(name='lam'))"),
    (lambda: ProjectiveStructure(X, ZERO, ZERO, ONE), ST),
    (lambda: DiffeoGerm(X, X + Y),
     "DiffeoGerm(u=%s, v=%s)" % (J % "1 * x", J % "1 * y + 1 * x")),
    (lambda: LiouvillePair(X, ONE),
     "LiouvillePair(L1=%s, L2=%s)" % (J % "1 * x", J % "1")),
    (lambda: VectorField(X, ONE),
     "VectorField(a=%s, b=%s)" % (J % "1 * x", J % "1")),
    (lambda: fields.SymmetryDimensions(6, 7, 3, 3),
     "SymmetryDimensions(low_order=6, high_order=7, dim_low=3, dim_high=3)"),
    (lambda: fields.InvariantStructures(True, 1, ("0", "x", "0", "1"), ()),
     "InvariantStructures(consistent=True, degree=1, "
     "particular=('0', 'x', '0', '1'), basis=())"),
    (lambda: Foliation(ONE, X), "Foliation(P=%s, Q=%s)" % (J % "1", J % "1 * x")),
    (lambda: Pencil(Foliation(ONE, X), Foliation(ZERO, ONE)),
     "Pencil(omega0=Foliation(P=%s, Q=%s), omega_inf=Foliation(P=%s, Q=%s))"
     % (J % "1", J % "1 * x", J % "0", J % "1")),
    (_check, CHECK),
    (lambda: reports.CaseReport("thm31.iv", "trivial", {"g": "1"}, 12,
                                (_check(),)),
     "CaseReport(case='thm31.iv', title='trivial', params={'g': '1'}, "
     "order=12, checks=(%s,))" % CHECK),
    (_entry, ENTRY),
    (lambda: cases._PencilEntry(("1", "g", "0", "1"), ("0", "0", "0", "0"),
                                ()),
     "_PencilEntry(forms=('1', 'g', '0', '1'), quadruple=('0', '0', '0', "
     "'0'), symmetries=(), extra=<function _no_extra>)"),
    (lambda: cases.CaseRecord("thm31.iv", "trivial", ({},), _entry()),
     "CaseRecord(id='thm31.iv', title='trivial', samples=({},), runner=%s, "
     "admissible=None)" % ENTRY),
    (lambda: cli.InputDocument(2, ProjectiveStructure(X, ZERO, ZERO, ONE),
                               {"V": VectorField(ZERO, ONE)}, None,
                               {"lam": Fraction(2, 3)}),
     "InputDocument(order=2, structure=%s, fields={'V': VectorField(a=%s, "
     "b=%s)}, pencil=None, params={'lam': Fraction(2, 3)})"
     % (ST, J % "0", J % "1")),
]
SAMPLE_OF = {type(make()): (make, printed) for make, printed in SAMPLES}

# records holding a dict: unhashable, as they were as dataclasses
UNHASHABLE = {reports.CaseReport, cases.CaseRecord, cli.InputDocument}


def _record_classes():
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub._fields and sub.__module__.startswith("projstruct."):
                found.append(sub)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORD_CLASSES = _record_classes()


def test_every_record_class_of_the_package_has_a_sample():
    assert len(RECORD_CLASSES) == 21
    assert set(SAMPLE_OF) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_protocol(cls):
    make, printed = SAMPLE_OF[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(a)) == printed
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in (cls._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and not vars(a)
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a and copy.copy(a) == a
    assert a != tuple(a) and tuple(a) != a
    assert cls(*a) == a == cls(**dict(zip(cls._fields, a)))
    assert [getattr(a, name) for name in cls._fields] == list(a)
    with pytest.raises(TypeError):
        cls(*a, None)
    with pytest.raises(TypeError):
        cls()


def test_equality_is_class_aware():
    assert expressions.Var("x") != expressions.Param("x")
    assert not expressions.Var("x") == expressions.Param("x")
    st = ProjectiveStructure(X, ZERO, ZERO, ONE)
    assert st != (X, ZERO, ZERO, ONE) and (X, ZERO, ZERO, ONE) != st
    assert not st == (X, ZERO, ZERO, ONE)
    assert LiouvillePair(X, ONE) != VectorField(X, ONE)
    assert VectorField(X, ONE) != LiouvillePair(X, ONE)


def test_defaults_fill_in():
    assert CheckResult("a", "pass") == CheckResult("a", "pass", "0", "")
    assert CheckResult(name="a", verdict="pass").detail == ""


def test_a_record_is_a_tuple_of_its_fields():
    st = ProjectiveStructure(X, ZERO, ZERO, ONE)
    a, b, c, d = st
    assert (len(st), st[0], st[-1], a, d) == (4, X, ONE, X, ONE)
    assert ProjectiveStructure._fields == ("A", "B", "C", "D")
    assert st.A is st[0]


def test_post_init_checks_still_refuse():
    with pytest.raises(ValueError, match="share one order"):
        ProjectiveStructure(X, ZERO, ZERO, Jet2.zero(3))
    with pytest.raises(DegenerateJacobian):
        DiffeoGerm(X, X)
    with pytest.raises(DegenerateJacobian):
        DiffeoGerm(u=X, v=X)
    with pytest.raises(ValueError, match="vanishes at the origin"):
        Foliation(X, Y)
    with pytest.raises(DegenerateWedge):
        Pencil(Foliation(ONE, X), Foliation(ONE, X))


def test_a_field_without_a_default_may_not_follow_one_with():
    with pytest.raises(TypeError, match="follows"):
        class Bad(Record):
            first: int = 0
            second: int
