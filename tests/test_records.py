"""The package's value classes behave as frozen dataclasses do.

Every class built on ``machine._Record`` is compared with its twin, a
frozen dataclass that ``dataclasses.make_dataclass`` builds with the same
name, fields, defaults and ``__post_init__``: on printing, equality and
hashing, ``__match_args__``, refused writes, the errors its constructor
raises, and copies made by ``pickle``, ``copy`` and ``__replace__``. The
twin's fields follow the dataclass rule, read here from the annotations
along the class's MRO, not from ``_Record``.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from haltseries.coefficients import BuiltinStream, ExplicitStream, TermShape
from haltseries.machine import DecJz, Halt, HaltedAt, Inc, MachineProgram, RunningAfter, _Record
from haltseries.series import (
    ConsistentUpToBudget,
    EvaluationPoint,
    ExpTailRate,
    LinearRate,
    RootEstimateReport,
    SeriesProbeReport,
    TabulatedRate,
    WitnessedBoundViolation,
    WitnessedDivergence,
)
from haltseries.reductions import (
    CauchyWindowCertificate,
    CauchyWindowKnobs,
    DetectorProgram,
    DetectorHalted,
    StillRunning,
    ThresholdCertificate,
    WindowFailure,
)

CERT = ThresholdCertificate(2, Fraction(3))
FAILURE = WindowFailure(1, 1, 2, Fraction(1, 2))

#: ``(class, positional arguments, changes for __replace__)`` per record
#: class. Raw ints where ``__post_init__`` converts, so that skipping it shows.
SAMPLES = [
    (Inc, (5,), {"register": 6}),
    (DecJz, (1, 0), {"target": 2}),
    (Halt, (), {}),
    (MachineProgram, ([Inc(0), Halt()], 1), {"register_count": 2}),
    (HaltedAt, (5,), {"steps": 6}),
    (RunningAfter, (5,), {"budget": 6}),
    (TermShape, (3, (1, 1), (1, 2)), {"start": 4}),
    (BuiltinStream, ("harmonic",), {"name": "geometric", "params": (2,)}),
    (ExplicitStream, ((1, 2), 3), {"tail": 4}),
    (EvaluationPoint, (1,), {"r": 2}),
    (ExpTailRate, (), {}),
    (LinearRate, (2, 3), {"offset": 4}),
    (TabulatedRate, (((1, 1, 4),),), {"rows": ((2, 1, 5),)}),
    (WitnessedDivergence, (3, Fraction(4), Fraction(2)), {"index": 4}),
    (WitnessedBoundViolation, ({"terms": 3},), {"detail": {"terms": 4}}),
    (ConsistentUpToBudget, (5,), {"budget": 6}),
    (SeriesProbeReport, (ConsistentUpToBudget(5), None, ((0, Fraction(1)),), 5),
     {"budget_used": 6}),
    (RootEstimateReport, (((1, 1.0),), 1.0, 1.0), {"limsup_proxy": 2.0}),
    (CauchyWindowKnobs, (3, 1, 8), {"horizon_scale": 4}),
    (DetectorProgram, (BuiltinStream("one"), None, True),
     {"stream": BuiltinStream("zero")}),
    (ThresholdCertificate, (2, Fraction(3)), {"index": 3}),
    (WindowFailure, (1, 1, 2, Fraction(1, 2)), {"gap": Fraction(1)}),
    (CauchyWindowCertificate, (2, Fraction(1, 4), (FAILURE,)), {"failures": ()}),
    (DetectorHalted, (2, CERT), {"iteration": 3}),
    (StillRunning, (5, ((1, Fraction(1)),), (0, 1), ((1, 1),)), {"budget": 6}),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def record_classes(base=_Record) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        found |= {cls} | record_classes(cls)
    return found


def twin(cls):
    """``cls`` as a frozen dataclass with the same name, fields, defaults
    and ``__post_init__``."""
    names = []
    for klass in reversed(cls.__mro__):
        names += [name for name in klass.__dict__.get("__annotations__", {}) if name not in names]
    fields = [(name, object, dataclasses.field(default=getattr(cls, name)))
              if hasattr(cls, name) else (name, object) for name in names]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace={"__post_init__": cls.__post_init__})


def outcome(make):
    """What ``make()`` gives: its repr, or the type of the error it raises."""
    try:
        return repr(make())
    except Exception as exc:
        return type(exc)


def test_every_record_class_has_a_sample():
    assert record_classes() == {cls for cls, _, _ in SAMPLES}
    assert len(SAMPLES) == len(IDS) == len(set(IDS))


@pytest.mark.parametrize("cls, args, changes", SAMPLES, ids=IDS)
def test_record_prints_hashes_and_matches_as_its_twin(cls, args, changes):
    Twin = twin(cls)
    record, double = cls(*args), Twin(*args)
    assert repr(record) == repr(double)
    assert cls.__match_args__ == Twin.__match_args__
    # A hash value, or TypeError when a field holds a dict, as in WitnessedBoundViolation.
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(double))
    values = tuple(getattr(record, name) for name in cls.__match_args__)
    for a, b in ((record, double), (record, values), (double, values)):
        assert (a == b, b == a, a != b, b != a) == (False, False, True, True)


@pytest.mark.parametrize("cls, args, changes", SAMPLES, ids=IDS)
def test_record_takes_arguments_and_defaults_as_its_twin(cls, args, changes):
    Twin = twin(cls)
    fields = cls.__match_args__
    required = len([name for name in fields if not hasattr(cls, name)])
    fine = [lambda k: k(*args), lambda k: k(*args[:required]),
            lambda k: k(**dict(zip(fields, args)))]
    full = tuple(getattr(cls(*args), name) for name in fields)
    # Too many positional arguments, an unknown keyword, a repeated one and a missing one.
    wrong = [lambda k: k(*full, 0), lambda k: k(*full, no_such_field=0)]
    if fields:
        wrong.append(lambda k: k(*full, **{fields[0]: full[0]}))
    if required:
        wrong.append(lambda k: k(*args[:required - 1]))
    for call in fine + wrong:
        assert outcome(lambda: call(cls)) == outcome(lambda: call(Twin))
    for call in wrong:
        with pytest.raises(TypeError):
            call(cls)
    for call in fine:
        assert isinstance(call(cls), cls)


@pytest.mark.parametrize("cls, args, changes", SAMPLES, ids=IDS)
def test_record_runs_post_init_once(cls, args, changes, monkeypatch):
    ran = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: ran.append(type(self)) or original(self))
    Twin = twin(cls)
    cls(*args), Twin(*args)
    assert ran == [cls, Twin]


@pytest.mark.parametrize("cls, args, changes", SAMPLES, ids=IDS)
def test_record_refuses_writes_as_its_twin(cls, args, changes):
    for record in (cls(*args), twin(cls)(*args)):
        shown = repr(record)
        for name in (*cls.__match_args__, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == shown


@pytest.mark.parametrize("cls, args, changes", SAMPLES, ids=IDS)
def test_record_copies_as_its_twin(cls, args, changes):
    record, double = cls(*args), twin(cls)(*args)
    copies = [pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record),
              record.__replace__()]
    for again in copies:
        assert type(again) is cls and repr(again) == repr(record)
        assert again == record
        assert vars(again).keys() == vars(record).keys()
    assert repr(copy.copy(double)) == repr(double)
    changed = record.__replace__(**changes)
    assert repr(changed) == repr(dataclasses.replace(double, **changes))
    assert (repr(changed) != repr(record)) is bool(changes)
    with pytest.raises(TypeError):
        record.__replace__(no_such_field=0)
    with pytest.raises(TypeError):
        dataclasses.replace(double, no_such_field=0)


def test_records_of_different_classes_never_compare_equal():
    # Halt() and ExpTailRate() hold no fields, and HaltedAt(5), RunningAfter(5),
    # ConsistentUpToBudget(5) and Inc(5) hold the same one; each pair differs by class only.
    records = [cls(*args) for cls, args, _ in SAMPLES]
    twins = [twin(cls)(*args) for cls, args, _ in SAMPLES]
    for i, (a, double_a) in enumerate(zip(records, twins)):
        for j, (b, double_b) in enumerate(zip(records, twins)):
            if i != j:
                assert (a == b, a != b) == (False, True)
                assert (double_a == double_b, double_a != double_b) == (False, True)
    assert Halt() != ExpTailRate() and HaltedAt(5) != RunningAfter(5) != Inc(5)
