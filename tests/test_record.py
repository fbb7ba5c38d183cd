"""Record semantics: every frozen value type behaves as dataclass(frozen=True) made it."""

from fractions import Fraction
from operator import lt

import pytest

from cyclicsieve import actions, csp, genfunc, paths, qpoly, record, selftest
from cyclicsieve.actions import CyclicAction, OrbitDecomposition
from cyclicsieve.csp import (
    TARGETS,
    CspReport,
    CspRow,
    FeasibilityReport,
    HomomesyReport,
    LyndonParameters,
    LyndonReport,
    Target,
)
from cyclicsieve.genfunc import DiagonalSpec
from cyclicsieve.paths import AreaSequence, DyckPath, LatticeWord, MobiusWord
from cyclicsieve.qpoly import IntPolynomial, NonConstant
from cyclicsieve.selftest import CriterionResult


def _step(x):
    return x


ROW = CspRow(1, 1, NonConstant(IntPolynomial([0, 1])), 3, False)

# One sample per record class: its field values, and its repr where the
# fields print the same in every process (no function addresses).
SAMPLES = {
    AreaSequence: (((0, 1), 2), "AreaSequence(values=(0, 1), width=2)"),
    LatticeWord: ((1, "0011", 2), "LatticeWord(start=1, bits='0011', width=2)"),
    DyckPath: (("0011",), "DyckPath(bits='0011')"),
    MobiusWord: (("010",), "MobiusWord(half='010')"),
    NonConstant: ((IntPolynomial([0, 1]),), "NonConstant(remainder=IntPolynomial([0, 1]))"),
    CspRow: (
        (1, 1, NonConstant(IntPolynomial([0, 1])), 3, False),
        "CspRow(k=1, gcd=1, evaluation=NonConstant(remainder=IntPolynomial([0, 1])), fixed=3, match=False)",
    ),
    CspReport: (
        (3, (ROW,), False, 1, ()),
        "CspReport(order=3, rows=(CspRow(k=1, gcd=1, evaluation=NonConstant(remainder=IntPolynomial([0, 1])), "
        "fixed=3, match=False),), passed=False, first_mismatch=1, warnings=())",
    ),
    FeasibilityReport: (
        (2, {1: 2, 2: 2}, True, ""),
        "FeasibilityReport(order=2, s_values={1: 2, 2: 2}, feasible=True, diagnosis='')",
    ),
    LyndonParameters: (
        ({1: 2}, False, 2, Fraction(-1, 2)),
        "LyndonParameters(t={1: 2}, valid=False, failure_index=2, failure_value=Fraction(-1, 2))",
    ),
    LyndonReport: (
        (2, (True, False), ((2, 1),), False),
        "LyndonReport(max_n=2, member_verdicts=(True, False), relation_failures=((2, 1),), passed=False)",
    ),
    HomomesyReport: (
        ("maj", Fraction(3, 2), (Fraction(3, 2),), True, None),
        "HomomesyReport(statistic='maj', global_average=Fraction(3, 2), orbit_averages=(Fraction(3, 2),), "
        "homomesic=True, witness_orbit=None)",
    ),
    DiagonalSpec: (((3, 2), (1, -2)), "DiagonalSpec(target=(3, 2), diagonals=(1, -2))"),
    CriterionResult: (
        (1, "counting formula", True, "ok", 0.5),
        "CriterionResult(id=1, name='counting formula', passed=True, detail='ok', seconds=0.5)",
    ),
    CyclicAction: ((3, _step), None),
    OrbitDecomposition: ((CyclicAction(3, _step), ((0, 0, 1),), (3,)), None),
    Target: ((_step, _step, _step, None, None), None),
}

# Records whose fields hold a dict: like a frozen dataclass, they compare but do not hash.
UNHASHABLE = {FeasibilityReport, LyndonParameters}
ORDERED = [AreaSequence, LatticeWord, DyckPath, MobiusWord]
CLASSES = list(SAMPLES)


def fields(cls):
    return tuple(cls.__annotations__)


def twin(cls):
    """Another record class with the same name and fields, and none of the methods."""
    return record.record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields(cls), "object")}))


def test_samples_cover_every_record_class():
    found = {
        value
        for module in (actions, csp, genfunc, paths, qpoly, selftest)
        for value in vars(module).values()
        if isinstance(value, type) and value.__setattr__ is record._frozen_setattr
    }
    assert found == set(SAMPLES)
    assert len(found) == 16


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecord:
    def test_init_by_position_and_keyword(self, cls):
        values, _ = SAMPLES[cls]
        a = cls(*values)
        assert cls(**dict(zip(fields(cls), values))) == a
        assert tuple(getattr(a, name) for name in fields(cls)) == values
        with pytest.raises(TypeError):
            cls(*values, None)

    def test_equality_is_by_class_and_fields(self, cls):
        values, _ = SAMPLES[cls]
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert a != twin(cls)(*values)
        assert a != values
        assert a != object()

    def test_hash_is_the_field_tuple_hash(self, cls):
        values, _ = SAMPLES[cls]
        a, b = cls(*values), cls(*values)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(values)

    def test_repr(self, cls):
        values, expected = SAMPLES[cls]
        if expected is None:
            expected = f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields(cls), values)) + ")"
        assert repr(cls(*values)) == expected

    def test_frozen(self, cls):
        a = cls(*SAMPLES[cls][0])
        for name in (*fields(cls), "other"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(a, name, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(a, name)
        assert cls(*SAMPLES[cls][0]) == a

    def test_ordering(self, cls):
        a = cls(*SAMPLES[cls][0])
        other = next(c for c in ORDERED if c is not cls)
        with pytest.raises(TypeError):
            lt(a, other(*SAMPLES[other][0]))
        if cls not in ORDERED:
            with pytest.raises(TypeError):
                lt(a, a)


def test_order_is_the_field_tuple_order():
    a, b = AreaSequence((0, 1), 2), AreaSequence((1, 0), 2)
    assert a < b and a <= b and b > a and b >= a and a <= a and not a < a
    assert sorted([b, a]) == [a, b]
    assert LatticeWord(1, "0101", 2) < LatticeWord(2, "0101", 2)
    assert DyckPath("0011") < DyckPath("0101")
    assert max(MobiusWord("010"), MobiusWord("100")) == MobiusWord("100")


@pytest.mark.parametrize("name", ["__eq__", "__lt__", "__le__", "__gt__", "__ge__"])
def test_each_comparison_declines_another_record_class(name):
    a, b = AreaSequence((0, 1), 2), DyckPath("0011")
    assert getattr(a, name)(b) is NotImplemented
    assert getattr(b, name)(a) is NotImplemented
    method = getattr(AreaSequence, name)
    assert (method.__name__, method.__qualname__) == (name, f"AreaSequence.{name}")


def test_defaults_and_post_init():
    assert CspReport(1, (), True, None) == CspReport(1, (), True, None, ())
    assert DiagonalSpec((1, 1)).diagonals == ()
    assert DiagonalSpec((3, 2), [1, -2]).diagonals == (1, -2)  # normalised by __post_init__
    with pytest.raises(ValueError):
        AreaSequence((5,), 1)


def test_post_init_is_looked_up_at_each_call(monkeypatch):
    # A replaced __post_init__ is seen by later constructions, and may set a field.
    seen = []

    def counting(self):
        seen.append(self.order)
        object.__setattr__(self, "generator", None)

    monkeypatch.setattr(CyclicAction, "__post_init__", counting)
    assert CyclicAction(5, _step).generator is None
    assert seen == [5]


def test_reading_orbits_leaves_equality_and_hash_alone():
    a, b = TARGETS["cdp"].decompose(4, 2), TARGETS["cdp"].decompose(4, 2)
    before = hash(a), repr(a)
    assert a.orbits
    assert "orbits" in vars(a) and "orbits" not in vars(b)
    assert a == b and b == a
    assert (hash(a), repr(a)) == before == (hash(b), repr(b))
