"""Unit tests for application state: copy semantics, sizes, snapshots."""

from dataclasses import dataclass, field

import pytest

import repro.kernel.state as state_module
from repro.kernel.state import RecordState, SavedState
from tests.helpers import make_event


@dataclass
class DemoState(RecordState):
    count: int = 0
    name: str = "x"
    values: list = field(default_factory=list)
    table: dict = field(default_factory=dict)
    tags: set = field(default_factory=set)


@dataclass
class NestedState(RecordState):
    inner: DemoState = field(default_factory=DemoState)
    flag: bool = False


class TestRecordStateCopy:
    def test_copy_is_deep_for_containers(self):
        state = DemoState(count=1, values=[1, [2]], table={"a": [3]}, tags={4})
        clone = state.copy()
        clone.values.append(9)
        clone.table["a"].append(9)
        clone.tags.add(9)
        assert state.values == [1, [2]]
        assert state.table == {"a": [3]}
        assert state.tags == {4}

    def test_copy_preserves_values(self):
        state = DemoState(count=3, name="abc", values=[1, 2], table={"k": 1})
        assert state.copy() == state

    def test_nested_record_states_are_copied(self):
        state = NestedState(inner=DemoState(count=5))
        clone = state.copy()
        clone.inner.count = 99
        assert state.inner.count == 5

    def test_equality_is_by_value_and_type(self):
        assert DemoState(count=1) == DemoState(count=1)
        assert DemoState(count=1) != DemoState(count=2)

        @dataclass
        class OtherState(RecordState):
            count: int = 1

        assert DemoState(count=1).__eq__(OtherState(count=1)) is NotImplemented

    def test_ndarray_fields_compare_by_value(self):
        numpy = pytest.importorskip("numpy")

        @dataclass
        class Arr(RecordState):
            n: int = 0
            values: object = None

        assert Arr(1, numpy.zeros(4)) == Arr(1, numpy.zeros(4))
        assert Arr(1, numpy.zeros(4)) != Arr(1, numpy.ones(4))
        assert Arr(1, numpy.zeros(4)) != Arr(1, numpy.zeros(3))  # shape
        assert Arr(1, numpy.zeros(4)) != Arr(1, numpy.zeros(4, dtype="<i8"))  # dtype
        assert Arr(1, numpy.zeros(4)) != Arr(1, [0.0] * 4)
        assert Arr(1, numpy.zeros(4)) != Arr(2, numpy.zeros(4))

    def test_uncopyable_field_raises(self):
        @dataclass
        class Bad(RecordState):
            gen: object = None

        bad = Bad(gen=(i for i in range(3)))
        with pytest.raises(TypeError, match="not copyable"):
            bad.copy()


class TestCompiledMethods:
    def test_subclass_of_a_used_state_gets_its_own_fields(self):
        DemoState(count=1).copy()  # compile the parent's methods first

        @dataclass
        class Extended(DemoState):
            extra: list = field(default_factory=list)

        state = Extended(count=2, extra=[1])
        clone = state.copy()
        assert type(clone) is Extended
        assert clone == state and clone.extra is not state.extra
        assert state.size_bytes() == DemoState(count=2).size_bytes() + 16
        assert state != Extended(count=2, extra=[2])

    def test_own_override_survives_and_reaches_the_compiled_method(self):
        calls = []

        @dataclass
        class Logged(RecordState):
            values: list = field(default_factory=list)

            def copy(self):
                calls.append(self)
                return super().copy()

        state = Logged(values=[1, 2])
        for _ in range(2):
            clone = state.copy()
            assert clone == state and clone.values is not state.values
        assert calls == [state, state]

    def test_dataclass_does_not_generate_its_own_equality(self):
        # @dataclass would add a tuple comparison, which cannot compare
        # ndarray fields; the class keeps RecordState's compiled one
        assert DemoState() == DemoState()
        assert DemoState.__dict__["__eq__"].__code__.co_filename == state_module.__file__
        assert DemoState.__hash__ is None


class TestRecordStateSize:
    def test_size_counts_fields(self):
        empty = DemoState()
        assert empty.size_bytes() > 0
        bigger = DemoState(values=[0] * 100)
        assert bigger.size_bytes() > empty.size_bytes() + 700

    def test_size_grows_with_dict(self):
        assert (
            DemoState(table={i: i for i in range(10)}).size_bytes()
            > DemoState().size_bytes()
        )


class TestSavedState:
    def test_initial_snapshot_precedes_everything(self):
        snap = SavedState(last_key=None, lvt=0.0, state=DemoState())
        assert snap.precedes(make_event(recv_time=0.0).key())

    def test_precedes_is_strict(self):
        key = make_event(recv_time=5.0).key()
        snap = SavedState(last_key=key, lvt=5.0, state=DemoState())
        assert not snap.precedes(key)
        assert snap.precedes(make_event(recv_time=5.5).key())
        assert not snap.precedes(make_event(recv_time=4.5).key())
