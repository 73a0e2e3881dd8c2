"""Property-based tests for the compiled ``RecordState`` methods.

``copy``, ``size_bytes`` and ``__eq__`` are generated per class with
inline fast paths; each must answer exactly what the per-field reference
answers (``_copy_value`` / ``_value_size`` / ``==``, ndarrays by shape,
dtype and elements), for classes drawn here with every supported field
type.
"""

import dataclasses
import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.state import RecordState, _copy_value, _value_size

try:
    import numpy
except ImportError:  # pragma: no cover - numpy is the ``array`` extra
    numpy = None

SCALARS = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(),
    st.text(max_size=6), st.none(),
)
HASHABLE = st.one_of(st.integers(), st.text(max_size=4))
NESTED = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(HASHABLE, children, max_size=3),
    ),
    max_leaves=10,
)


@dataclasses.dataclass
class Inner(RecordState):
    count: int = 0
    log: list = dataclasses.field(default_factory=list)


#: field kind -> strategy for one value of that kind
KINDS = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(max_size=8),
    "none": st.none(),
    "tuple": st.lists(SCALARS, max_size=4).map(tuple),
    "numbers": st.lists(st.one_of(st.integers(), st.floats(allow_nan=False)), max_size=8),
    "scalars": st.lists(SCALARS, max_size=8),
    "nested": st.lists(NESTED, max_size=4),
    "dict": st.dictionaries(HASHABLE, NESTED, max_size=4),
    "set": st.sets(HASHABLE, max_size=5),
    "record": st.builds(Inner, st.integers(), st.lists(NESTED, max_size=3)),
}
if numpy is not None:
    KINDS["ndarray"] = st.one_of(
        st.lists(st.integers(-99, 99), max_size=6).map(
            lambda xs: numpy.array(xs, dtype="<i8")
        ),
        st.lists(st.floats(-1e6, 1e6), max_size=6).map(
            lambda xs: numpy.array(xs, dtype="<f8")
        ),
    )

_class_ids = itertools.count()


@st.composite
def states(draw):
    """An instance of a freshly declared ``RecordState`` dataclass, plus a
    second instance of the same class that shares each field's value (as a
    copy) or holds a fresh draw of the same kind."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=6))
    cls = dataclasses.make_dataclass(
        f"Drawn{next(_class_ids)}",
        [(f"f{i}_{kind}", object) for i, kind in enumerate(kinds)],
        bases=(RecordState,),
    )
    values = [draw(KINDS[kind]) for kind in kinds]
    others = [
        _copy_value(value) if draw(st.booleans()) else draw(KINDS[kind])
        for kind, value in zip(kinds, values)
    ]
    return cls(*values), cls(*others)


def _names(state):
    return [f.name for f in dataclasses.fields(state)]


def _reference_equal(a, b) -> bool:
    """Per-field ``==``, with ndarrays compared by shape, dtype, elements."""
    if numpy is not None and (isinstance(a, numpy.ndarray) or isinstance(b, numpy.ndarray)):
        return (
            isinstance(a, numpy.ndarray) and isinstance(b, numpy.ndarray)
            and a.shape == b.shape and a.dtype == b.dtype
            and bool(numpy.array_equal(a, b))
        )
    if isinstance(a, RecordState):
        return type(a) is type(b) and all(
            _reference_equal(getattr(a, name), getattr(b, name)) for name in _names(a)
        )
    return a == b


def _mutable_nodes(value):
    """Every mutable container reachable from ``value``."""
    if isinstance(value, (list, set)):
        yield value
        for item in value:
            yield from _mutable_nodes(item)
    elif isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _mutable_nodes(item)
    elif isinstance(value, RecordState):
        yield value
        for name in _names(value):
            yield from _mutable_nodes(getattr(value, name))
    elif numpy is not None and isinstance(value, numpy.ndarray):
        yield value


@given(states())
def test_compiled_copy_matches_the_field_walk_and_shares_nothing(pair):
    state, _ = pair
    clone = state.copy()
    assert type(clone) is type(state)
    for name in _names(state):
        reference = _copy_value(getattr(state, name))
        assert type(getattr(clone, name)) is type(reference)
        assert _reference_equal(getattr(clone, name), reference)
    original_ids = {id(node) for node in _mutable_nodes(state)}
    assert not original_ids & {id(node) for node in _mutable_nodes(clone)}


@given(states())
def test_compiled_size_matches_the_field_walk(pair):
    state, _ = pair
    assert state.size_bytes() == sum(
        _value_size(getattr(state, name)) for name in _names(state)
    )
    assert state.copy().size_bytes() == state.size_bytes()


@given(states())
def test_compiled_equality_matches_per_field_equality(pair):
    state, other = pair
    assert state == state.copy()
    expected = all(
        _reference_equal(getattr(state, name), getattr(other, name))
        for name in _names(state)
    )
    assert (state == other) is expected
    assert (state != other) is not expected
