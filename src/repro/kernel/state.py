"""Application state protocol and saved-state records.

Time Warp objects must expose copyable state so the kernel can checkpoint
and restore it.  The contract mirrors WARPED's ``BasicState``:

* ``copy()`` returns a deep, independent snapshot — the kernel calls it
  for snapshot zero, every checkpoint save and every rollback restore, so
  a state that wants a pickle round-trip, an ndarray block copy or a
  ``deepcopy`` writes it in its own ``copy()``, where its layout is known;
* ``size_bytes()`` reports the modelled size, which the cost model charges
  per checkpoint (large states make frequent checkpointing expensive —
  the whole reason dynamic checkpoint intervals matter);
* equality is *value* equality, used by tests to verify that rollback +
  coast-forward reproduces the exact pre-straggler state.

:class:`RecordState` gives applications a dataclass-friendly base: any
dataclass whose fields are immutables, lists/dicts of immutables, or nested
``RecordState`` values inherits a correct ``copy``/``size_bytes``/``__eq__``.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from .event import EventKey, VirtualTime, payload_size_bytes


def _loaded_ndarray() -> type | None:
    """numpy's ``ndarray`` if numpy is already imported, else ``None``.

    Never imports numpy: no state can hold an ndarray before something
    else has loaded numpy, so the lazy lookup changes no size result and
    keeps numpy off ``import repro``.
    """
    return getattr(sys.modules.get("numpy"), "ndarray", None)


#: field types that are never an ndarray (sized without the numpy lookup)
_BUILTIN_SCALARS = frozenset({int, float, str, bool, bytes, tuple, type(None)})


@runtime_checkable
class AppState(Protocol):
    """Structural protocol every simulation-object state must satisfy."""

    def copy(self) -> "AppState":
        """Return an independent snapshot of this state."""
        ...

    def size_bytes(self) -> int:
        """Modelled size of the state in bytes (drives checkpoint cost)."""
        ...


def _copy_value(value: Any) -> Any:
    """Deep-copy a state field without the generality (and cost) of
    :func:`copy.deepcopy`.

    Supports the field types :class:`RecordState` documents.  Unknown
    mutable objects must themselves expose ``copy()``.  Exact-type checks
    come first: the overwhelming majority of state fields are plain ints,
    floats, strings, lists and dicts, and ``type(x) is T`` beats an
    ``isinstance`` chain on this path (run per field per checkpoint).
    An ndarray field takes the ``copy()`` branch: one C memcpy.
    """
    kind = type(value)
    if kind is int or kind is float or kind is str or value is None or kind is bool:
        return value
    if kind is list:
        return [_copy_value(item) for item in value]
    if kind is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    if isinstance(value, (int, float, str, bytes, bool, tuple, frozenset)):
        # tuples may contain mutables in theory; the documented contract is
        # that tuple fields hold immutables, so sharing is safe.
        return value
    if isinstance(value, list):
        return [_copy_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy_value(item) for key, item in value.items()}
    if isinstance(value, set):
        return set(value)
    if hasattr(value, "copy"):
        return value.copy()
    raise TypeError(
        f"state field of type {type(value).__name__} is not copyable; "
        "use immutables, list/dict/set containers, or objects with copy()"
    )


def _value_size(value: Any) -> int:
    """Modelled byte size of a state field (same spirit as payload sizes)."""
    if isinstance(value, list):
        return 8 + sum(_value_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(_value_size(k) + _value_size(v) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return 8 + sum(_value_size(item) for item in value)
    if hasattr(value, "size_bytes") and not isinstance(value, (int, float)):
        return int(value.size_bytes())
    kind = type(value)
    if kind not in _BUILTIN_SCALARS and kind is _loaded_ndarray():
        return 8 + value.nbytes
    return payload_size_bytes(value)


#: Per-class cache of dataclass field names.  ``dataclasses.fields()``
#: rebuilds a tuple of Field objects on every call, and the field walk
#: runs on every checkpoint save, rollback restore and state comparison —
#: the kernel's single hottest allocation site before this cache.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


@dataclass
class RecordState:
    """Base class turning any dataclass into a valid :class:`AppState`.

    Subclasses should be declared with ``@dataclass`` and fields drawn from
    the supported types (immutables, lists/dicts/sets thereof, or nested
    states).  ``copy`` walks the fields, so it stays correct as models
    evolve without per-class boilerplate.
    """

    def copy(self):
        cls = type(self)
        clone = cls.__new__(cls)
        for name in _field_names(cls):
            setattr(clone, name, _copy_value(getattr(self, name)))
        return clone

    def size_bytes(self) -> int:
        return sum(
            _value_size(getattr(self, name)) for name in _field_names(type(self))
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in _field_names(type(self))
        )

    __hash__ = None  # type: ignore[assignment]  # states are mutable


@dataclass(slots=True)
class SavedState:
    """One entry in an object's state queue.

    Attributes:
        last_key: total-order key of the last event executed before the
            snapshot was taken (``None`` for the initial pre-simulation
            snapshot).  Rollback selects the newest snapshot whose
            ``last_key`` precedes the straggler.
        lvt: the object's LVT at snapshot time.
        event_count: number of events the object had executed in total —
            used to restore the periodic-checkpoint phase counter.
        state: the snapshot itself (an independent copy).
        save_cost: modelled CPU cost charged when the snapshot was taken
            (recorded so the checkpoint controller's cost index can be
            audited per entry).
    """

    last_key: EventKey | None
    lvt: VirtualTime
    event_count: int
    state: AppState
    save_cost: float = 0.0

    def precedes(self, key: EventKey) -> bool:
        """True if this snapshot was taken strictly before ``key``."""
        return self.last_key is None or self.last_key < key
