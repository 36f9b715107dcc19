"""The record classes: construction, repr, equality, hashing, immutability, copies.

Every result and argument type of the package is a small record. These
tests pin the behaviour callers rely on: the constructor signatures
(no field has a default), the repr text, value equality with hashing over the fields
(identity for ContourGrid), FrozenInstanceError on assignment and
deletion, pickle and copy round trips, and the validation messages.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import re
import types
import weakref

import numpy as np
import pytest

import mzduality
from mzduality import (
    BlochObservable,
    BlochVector,
    ContourGrid,
    EquivalenceAudit,
    FringeScan,
    MinimizationResult,
    ProbPair,
    QubitState,
    RegionMinimum,
    UncertaintyVerdict,
    constrained_min_over_region,
)
from mzduality.entropic import _REGION_BLOCK
from mzduality.qubit import _checked_blochs, _checked_rows, _Record

VEC = BlochVector(0.6, 0.0, 0.8)
HOLDS = UncertaintyVerdict(1.0, 0.5, 0.5, True, False)
SATURATED = UncertaintyVerdict(1.0, 1.0, 0.0, True, True)

# (class, field names, field values, the same record built by keyword, repr text)
FROZEN = [
    (
        BlochVector,
        ("sx", "sy", "sz"),
        (0.6, 0.0, 0.8),
        BlochVector(sx=0.6, sy=0.0, sz=0.8),
        "BlochVector(sx=0.6, sy=0.0, sz=0.8)",
    ),
    (
        QubitState,
        ("bloch",),
        (VEC,),
        QubitState(bloch=VEC),
        "QubitState(bloch=BlochVector(sx=0.6, sy=0.0, sz=0.8))",
    ),
    (
        BlochObservable,
        ("alpha1", "alpha2", "axis"),
        (0.5, 2.0, (0.0, 0.0, 1.0)),
        BlochObservable(alpha1=0.5, alpha2=2.0, axis=(0.0, 0.0, 1.0)),
        "BlochObservable(alpha1=0.5, alpha2=2.0, axis=(0.0, 0.0, 1.0))",
    ),
    (
        ProbPair,
        ("p_plus", "p_minus"),
        (0.25, 0.75),
        ProbPair(p_plus=0.25, p_minus=0.75),
        "ProbPair(p_plus=0.25, p_minus=0.75)",
    ),
    (
        FringeScan,
        ("p_max", "p_min", "v_operational", "phases", "p_d1", "p_d2"),
        (1.0, 0.0, 1.0, (0.0, 3.0), (1.0, 0.0), (0.0, 1.0)),
        FringeScan(
            p_max=1.0, p_min=0.0, v_operational=1.0, phases=(0.0, 3.0), p_d1=(1.0, 0.0), p_d2=(0.0, 1.0)
        ),
        "FringeScan(p_max=1.0, p_min=0.0, v_operational=1.0, phases=(0.0, 3.0),"
        " p_d1=(1.0, 0.0), p_d2=(0.0, 1.0))",
    ),
    (
        UncertaintyVerdict,
        ("lhs", "rhs", "gap", "holds", "saturated"),
        (1.0, 0.5, 0.5, True, False),
        UncertaintyVerdict(lhs=1.0, rhs=0.5, gap=0.5, holds=True, saturated=False),
        "UncertaintyVerdict(lhs=1.0, rhs=0.5, gap=0.5, holds=True, saturated=False)",
    ),
    (
        EquivalenceAudit,
        ("duality", "sr", "lp"),
        (HOLDS, SATURATED, HOLDS),
        EquivalenceAudit(duality=HOLDS, sr=SATURATED, lp=HOLDS),
        "EquivalenceAudit(duality=UncertaintyVerdict(lhs=1.0, rhs=0.5, gap=0.5, holds=True,"
        " saturated=False), sr=UncertaintyVerdict(lhs=1.0, rhs=1.0, gap=0.0, holds=True,"
        " saturated=True), lp=UncertaintyVerdict(lhs=1.0, rhs=0.5, gap=0.5, holds=True,"
        " saturated=False))",
    ),
    (
        MinimizationResult,
        ("q", "min_value", "minimizers", "regime"),
        (0.5, 0.75, ((0.0, 1.0), (1.0, 0.0)), "I"),
        MinimizationResult(q=0.5, min_value=0.75, minimizers=((0.0, 1.0), (1.0, 0.0)), regime="I"),
        "MinimizationResult(q=0.5, min_value=0.75, minimizers=((0.0, 1.0), (1.0, 0.0)),"
        " regime='I')",
    ),
    (
        RegionMinimum,
        ("min_value", "argmin", "n_accepted"),
        (0.5, VEC, 3),
        RegionMinimum(min_value=0.5, argmin=VEC, n_accepted=3),
        "RegionMinimum(min_value=0.5, argmin=BlochVector(sx=0.6, sy=0.0, sz=0.8), n_accepted=3)",
    ),
]
FROZEN_IDS = [case[0].__name__ for case in FROZEN]


def values_of(record, names):
    return tuple(getattr(record, name) for name in names)


def other_values(values):
    """The same values with the first one changed to a different value of a valid kind."""
    first = values[0]
    if isinstance(first, BlochVector):
        changed = BlochVector(0.0, 0.0, 1.0)
    elif isinstance(first, UncertaintyVerdict):
        changed = SATURATED
    else:
        changed = first / 2.0
    if isinstance(first, float) and len(values) == 2:  # ProbPair: keep the sum at 1
        return (changed, 1.0 - changed)
    return (changed, *values[1:])


@pytest.mark.parametrize("cls, names, values, by_keyword, text", FROZEN, ids=FROZEN_IDS)
class TestFrozenRecords:
    def test_positional_and_keyword_construction(self, cls, names, values, by_keyword, text):
        record = cls(*values)
        assert values_of(record, names) == values
        assert values_of(by_keyword, names) == values
        assert list(inspect.signature(cls).parameters)[: len(names)] == list(names)

    def test_repr(self, cls, names, values, by_keyword, text):
        assert repr(cls(*values)) == text
        assert repr(by_keyword) == text

    def test_equality_and_hash(self, cls, names, values, by_keyword, text):
        record = cls(*values)
        other = cls(*other_values(values))
        assert record == by_keyword and not record != by_keyword
        assert record != other and not record == other
        assert record != values and not record == values  # another type: never equal
        assert record.__eq__(values) is NotImplemented
        assert hash(record) == hash(by_keyword) == hash(tuple(values))
        assert len({record, by_keyword, other}) == 2

    def test_frozen(self, cls, names, values, by_keyword, text):
        record = cls(*values)
        for name in (*names, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert values_of(record, names) == values

    def test_pickle_and_copy(self, cls, names, values, by_keyword, text):
        record = cls(*values)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(twin) is cls
            assert twin == record and hash(twin) == hash(record)
            assert values_of(twin, names) == values
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, names[0], None)


class TestSlottedBlochVector:
    # computed norm 1 + 3 * 2**-52: the norm rule rescales it to a vector whose
    # norm still rounds above 1, so a copy rebuilt through __init__ would move
    # its bits
    RAW = (-0.24143519364866614, 0.9053463551849369, -0.34936660461638686)
    # BlochVector(0.6, 0.0, 0.8) pickled while its fields lived in a __dict__
    OLD_PICKLES = [
        b"ccopy_reg\n_reconstructor\np0\n(cmzduality.qubit\nBlochVector\np1\nc__builtin__\n"
        b"object\np2\nNtp3\nRp4\n(dp5\nVsx\np6\nF0.6\nsVsy\np7\nF0.0\nsVsz\np8\nF0.8\nsb.",
        b"\x80\x02cmzduality.qubit\nBlochVector\nq\x00)\x81q\x01}q\x02(X\x02\x00\x00\x00sxq"
        b"\x03G?\xe3333333X\x02\x00\x00\x00syq\x04G\x00\x00\x00\x00\x00\x00\x00\x00X\x02\x00"
        b"\x00\x00szq\x05G?\xe9\x99\x99\x99\x99\x99\x9aub.",
    ]

    def test_fields_live_in_slots(self):
        assert BlochVector.__slots__ == ("sx", "sy", "sz")
        assert not hasattr(VEC, "__dict__")
        with pytest.raises(TypeError):
            vars(VEC)
        with pytest.raises(TypeError):
            weakref.ref(VEC)

    def test_pickle_and_copy_keep_a_rescaled_vector(self):
        (row,) = _checked_rows(np.array([self.RAW])).tolist()
        (bv,) = _checked_blochs(*[[x] for x in row])
        assert bv.as_tuple() == BlochVector(*self.RAW).as_tuple() != self.RAW
        assert bv.norm > 1.0 and BlochVector(*row).as_tuple() != tuple(row)
        twins = [pickle.loads(pickle.dumps(bv, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*twins, copy.copy(bv), copy.deepcopy(bv)]:
            assert type(twin) is BlochVector and twin == bv
            assert [x.hex() for x in twin.as_tuple()] == [x.hex() for x in row]

    def test_pickles_of_the_dict_class_still_load(self):
        for data in self.OLD_PICKLES:
            bv = pickle.loads(data)
            assert type(bv) is BlochVector and bv.as_tuple() == (0.6, 0.0, 0.8)
            with pytest.raises(dataclasses.FrozenInstanceError):
                bv.sx = 0.0

    def test_region_candidates_have_float_fields(self):
        seen = []
        n = 3 * _REGION_BLOCK + 1  # blocks of the sweep, the sphere and the ball
        constrained_min_over_region(1.0, lambda bv: seen.append(bv) or True, n, seed=4)
        assert len(seen) == n
        assert all(type(bv) is BlochVector for bv in seen)
        assert {type(x) for bv in seen for x in bv.as_tuple()} == {float}


class TestBlochObservable:
    def test_eps_unit_is_not_a_parameter_or_field(self):
        assert list(inspect.signature(BlochObservable).parameters) == ["alpha1", "alpha2", "axis"]
        with pytest.raises(ValueError):
            BlochObservable(0.0, 1.0, (0.0, 0.0, 1.001))
        obs = BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0 + 1e-13))
        assert obs.axis == (0.0, 0.0, 1.0)
        assert repr(obs) == "BlochObservable(alpha1=0.0, alpha2=1.0, axis=(0.0, 0.0, 1.0))"
        assert list(vars(obs)) == ["alpha1", "alpha2", "axis"]

    def test_fields_coerced(self):
        obs = BlochObservable(1, 2, [0, 0, 1])
        assert obs.axis == (0.0, 0.0, 1.0) and type(obs.axis) is tuple
        assert all(type(x) is float for x in (obs.alpha1, obs.alpha2, *obs.axis))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((float("inf"), 1.0, (0.0, 0.0, 1.0)), "alpha1, alpha2 must be finite, got inf, 1.0"),
            ((0.0, float("nan"), (0.0, 0.0, 1.0)), "alpha1, alpha2 must be finite, got 0.0, nan"),
            ((1.0, 0.0, (0.0, 0.0, 1.0)), "alpha2 must be nonzero (observable would be trivial)"),
            ((0.0, 1.0, (0.0, 0.0, 2.0)), "axis must be a unit vector: ||a|| = 2.0"),
        ],
    )
    def test_error_messages(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            BlochObservable(*args)
        assert str(excinfo.value) == message

    def test_nan_axis_rejected(self):
        # a NaN norm passed the old "> eps_unit" comparison and gave a NaN axis
        with pytest.raises(ValueError) as excinfo:
            BlochObservable(0.0, 1.0, (0.0, 0.0, float("nan")))
        assert str(excinfo.value) == "axis must be a unit vector: ||a|| = nan"


class TestProbPair:
    def test_round_off_clipped_to_unit_interval(self):
        pair = ProbPair(-1e-13, 1.0 + 1e-13)
        assert (pair.p_plus, pair.p_minus) == (0.0, 1.0)
        assert repr(pair) == "ProbPair(p_plus=0.0, p_minus=1.0)"

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5, -0.5), "p_plus = 1.5 outside [0, 1]"),
            ((0.5, float("nan")), "p_minus = nan outside [0, 1]"),
            ((float("inf"), 0.0), "p_plus = inf outside [0, 1]"),
            ((0.5, 0.6), "probabilities must sum to 1: 0.5 + 0.6"),
        ],
    )
    def test_error_messages(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            ProbPair(*args)
        assert str(excinfo.value) == message


class TestContourGrid:
    AXIS = np.array([0.0, 1.0])
    VALUES = np.array([[0.0, 1.0], [1.0, 2.0]])

    def test_constraint_defaults(self):
        # the constraint is a class constant, not a field a caller can set
        grid = ContourGrid(1.0, 2, self.AXIS, self.VALUES)
        assert grid.constraint == ContourGrid.constraint == "P^2+V^2=1"
        keyword = ContourGrid(q=1.0, n=2, axis=self.AXIS, values=self.VALUES)
        assert (keyword.q, keyword.n, keyword.constraint) == (1.0, 2, "P^2+V^2=1")
        assert keyword.axis is self.AXIS and keyword.values is self.VALUES
        message = "ContourGrid() got an unexpected keyword argument 'constraint'"
        with pytest.raises(TypeError, match=re.escape(message)):
            ContourGrid(1.0, 2, self.AXIS, self.VALUES, constraint="none")
        assert repr(grid) == (
            "ContourGrid(q=1.0, n=2, axis=array([0., 1.]), values=array([[0., 1.],\n"
            "       [1., 2.]]))"
        )

    def test_identity_equality(self):
        grid = ContourGrid(1.0, 2, self.AXIS, self.VALUES)
        twin = ContourGrid(1.0, 2, self.AXIS, self.VALUES)
        assert grid == grid and not grid != grid
        assert grid != twin and not grid == twin
        assert hash(grid) == object.__hash__(grid)
        assert len({grid, twin}) == 2

    def test_frozen_and_copies(self):
        grid = ContourGrid(1.0, 2, self.AXIS, self.VALUES)
        for name in ("q", "values", "constraint"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(grid, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(grid, name)
        for twin in (pickle.loads(pickle.dumps(grid)), copy.copy(grid)):
            assert type(twin) is ContourGrid and twin != grid
            assert (twin.q, twin.n, twin.constraint) == (1.0, 2, "P^2+V^2=1")
            assert np.array_equal(twin.axis, self.AXIS) and np.array_equal(twin.values, self.VALUES)


def all_records(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_records(sub)


def test_every_record_is_pinned():
    # a new record must join FROZEN or get its own test class, so that its
    # equality, hash, pickle and immutability are checked like the others';
    # and every record is a result type the package exports: an output
    # format is spelled by the CLI, not kept as a record
    own_tests = {ContourGrid: TestContourGrid}
    pinned = {case[0] for case in FROZEN} | set(own_tests)
    records = {cls for cls in all_records() if cls.__module__.startswith("mzduality")}
    assert ContourGrid in records
    assert sorted(cls.__qualname__ for cls in records - pinned) == []
    assert sorted(cls.__qualname__ for cls in records if cls.__name__ not in mzduality.__all__) == []


BASE_INIT = [case for case in FROZEN if case[0].__init__ is _Record.__init__]


@pytest.mark.parametrize(
    "cls, names, values, by_keyword, text", BASE_INIT, ids=[case[0].__name__ for case in BASE_INIT]
)
class TestBaseConstructor:
    def test_takes_the_base_init(self, cls, names, values, by_keyword, text):
        assert "__init__" not in vars(cls)
        assert str(inspect.signature(cls)) == f"({', '.join(names)})"
        shuffled = dict(reversed(list(zip(names, values))))
        assert list(vars(cls(**shuffled))) == list(names)  # fields stored in field order
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == by_keyword

    def test_too_many_positional_arguments(self, cls, names, values, by_keyword, text):
        message = f"{cls.__name__}() takes {len(names)} positional arguments but {len(names) + 1} were given"
        with pytest.raises(TypeError, match=re.escape(message)):
            cls(*values, values[0])

    def test_unknown_keyword(self, cls, names, values, by_keyword, text):
        message = f"{cls.__name__}() got an unexpected keyword argument 'extra'"
        with pytest.raises(TypeError, match=re.escape(message)):
            cls(*values, extra=values[0])

    def test_value_by_position_and_by_keyword(self, cls, names, values, by_keyword, text):
        message = f"{cls.__name__}() got multiple values for argument '{names[0]}'"
        with pytest.raises(TypeError, match=re.escape(message)):
            cls(*values, **{names[0]: values[0]})

    def test_missing_field(self, cls, names, values, by_keyword, text):
        message = f"{cls.__name__}() missing required argument: '{names[-1]}'"
        with pytest.raises(TypeError, match=re.escape(message)):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=re.escape(message)):
            cls(**dict(zip(names[:-1], values)))


def test_contour_grid_signature_lists_the_fields():
    assert ContourGrid._fields == ("q", "n", "axis", "values")
    assert str(inspect.signature(ContourGrid)) == "(q, n, axis, values)"
    grid = ContourGrid(1.0, 2, TestContourGrid.AXIS, TestContourGrid.VALUES)
    assert list(vars(grid)) == ["q", "n", "axis", "values"]
    with pytest.raises(TypeError, match=re.escape("ContourGrid() missing required argument: 'values'")):
        ContourGrid(1.0, 2, axis=TestContourGrid.AXIS)


def test_records_take_no_field_defaults():
    # a value assigned to a field name in a class body would be a default
    # that _Record.__init__ no longer reads; a class constant goes unannotated
    defaulted = [
        f"{cls.__qualname__}.{name}"
        for cls in all_records()
        for name in cls._fields
        if name in vars(cls) and not isinstance(vars(cls)[name], types.MemberDescriptorType)
    ]
    assert defaulted == []
