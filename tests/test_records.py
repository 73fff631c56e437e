"""The package's immutable value types: construction, the checks their
``__init__`` makes, equality, hashing, immutability and repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from stratavol.cumulants import StratumSpec, VolumeResult, WickGroups, WickLeading
from stratavol.errors import DomainError, Record
from stratavol.exact_arith import PiScalar
from stratavol.npoint import EvaluatedPoint
from stratavol.partitions import IntPartition, SetPartition
from stratavol.qseries import QSeries
from stratavol.shifted_symmetric import PExpansion
from stratavol.verify import PropertyResult

HALF_PI3 = PiScalar(Fraction(1, 2), 3)


def _pi_scalar():
    assert PiScalar(Fraction(5)).pi_pow == 0
    assert PiScalar(0, 3).pi_pow == 0
    assert type(PiScalar(3, 1).coeff) is Fraction
    with pytest.raises(DomainError):
        PiScalar(1, -1)


def _qseries():
    assert type(QSeries((1, 2)).coeffs[1]) is Fraction
    f = Fraction(3, 7)
    assert QSeries((f,)).coeffs[0] is f
    for empty in ((), (c for c in [])):
        with pytest.raises(DomainError):
            QSeries(empty)


def _set_partition():
    assert SetPartition(((3, 1), (2,)), 3).blocks == ((1, 3), (2,))
    for blocks, n in [(((1,), ()), 1), (((1, 2), (2,)), 2), (((1,),), 2)]:
        with pytest.raises(DomainError):
            SetPartition(blocks, n)


def _evaluated_point():
    assert EvaluatedPoint("5/2").s == Fraction(5, 2)
    for s in (0, 1, -1):
        with pytest.raises(DomainError):
            EvaluatedPoint(s)


def _wick_groups():
    assert WickGroups([[1, 3], [2]]).groups == (IntPartition((3, 1)), IntPartition((2,)))
    for groups in ((), ((2,), ())):
        with pytest.raises(DomainError):
            WickGroups(groups)


def _stratum_spec():
    assert StratumSpec([1, 3]).mu == IntPartition((3, 1))
    for mu in ((), (1,)):
        with pytest.raises(DomainError):
            StratumSpec(mu)


def _property_result():
    assert PropertyResult("p", True).detail == ""


def _all_fields_required(cls):
    def check():
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*range(len(cls.__slots__) + 1))
        with pytest.raises(TypeError):
            cls(*range(len(cls.__slots__) - 1), nonsense=1)
    return check


# class, field values in slot order (already normalized), repr, checks
CASES = [
    (PiScalar, (Fraction(1, 2), 3), "PiScalar(coeff=Fraction(1, 2), pi_pow=3)", _pi_scalar),
    (QSeries, ((Fraction(1), Fraction(-2)),),
     "QSeries(coeffs=(Fraction(1, 1), Fraction(-2, 1)))", _qseries),
    (SetPartition, (((1, 3), (2,)), 3), "SetPartition(blocks=((1, 3), (2,)), n=3)",
     _set_partition),
    (PExpansion, (((IntPartition((2, 1)), Fraction(3)),),),
     "PExpansion(terms=((IntPartition([2, 1]), Fraction(3, 1)),))",
     _all_fields_required(PExpansion)),
    (EvaluatedPoint, (Fraction(5, 2),), "EvaluatedPoint(s=Fraction(5, 2))", _evaluated_point),
    (WickGroups, ((IntPartition((2,)), IntPartition((3, 1))),),
     "WickGroups(groups=(IntPartition([2]), IntPartition([3, 1])))", _wick_groups),
    (WickLeading, (HALF_PI3, 4),
     "WickLeading(value=PiScalar(coeff=Fraction(1, 2), pi_pow=3), hbar_exponent=4)",
     _all_fields_required(WickLeading)),
    (StratumSpec, (IntPartition((2,)),), "StratumSpec(mu=IntPartition([2]))", _stratum_spec),
    (VolumeResult, (IntPartition((2,)), 2, 4, HALF_PI3, HALF_PI3, "general"),
     "VolumeResult(mu=IntPartition([2]), genus=2, dim=4, "
     "volume=PiScalar(coeff=Fraction(1, 2), pi_pow=3), "
     "c_const=PiScalar(coeff=Fraction(1, 2), pi_pow=3), route='general')",
     _all_fields_required(VolumeResult)),
    (PropertyResult, ("p", False, "why"), "PropertyResult(name='p', passed=False, detail='why')",
     _property_result),
]


@pytest.mark.parametrize("cls, values, text, check", CASES, ids=[c[0].__name__ for c in CASES])
def test_record(cls, values, text, check):
    value = cls(*values)
    assert tuple(getattr(value, name) for name in cls.__slots__) == values
    assert cls(**dict(zip(cls.__slots__, values))) == value
    check()

    twin = cls(*values)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert len({value, twin}) == 1
    imposter = type(cls.__name__, (Record,), {"__slots__": cls.__slots__})(*values)
    assert value != imposter and imposter != value
    assert value != values

    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, values[0])
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")

    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
