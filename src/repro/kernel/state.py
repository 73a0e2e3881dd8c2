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
dataclass whose fields are immutables, lists/dicts of immutables, nested
``RecordState`` values or ndarrays inherits a correct
``copy``/``size_bytes``/``__eq__``, compiled once per class from its fields.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

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


def _values_equal(a: Any, b: Any) -> bool:
    """Value equality of two field values whose ``==`` may not answer a
    plain bool: ndarrays compare by shape, dtype and elements, nested
    states through their own ``__eq__``."""
    ndarray = _loaded_ndarray()
    if ndarray is not None and (isinstance(a, ndarray) or isinstance(b, ndarray)):
        return (
            isinstance(a, ndarray)
            and isinstance(b, ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and bool((a == b).all())
        )
    return bool(a == b)


#: field types shared by reference on copy (immutable) and sized inline
_SCALARS = frozenset({int, float, str, bool, type(None)})
#: list element types a list is sized as ``8 + 8 * len`` for
_NUMBERS = frozenset({int, float})
#: field types whose ``==`` answers a plain bool
_PLAIN_EQ = _SCALARS | {bytes, tuple, list, dict, set, frozenset}

# Per-field bodies of the compiled methods.  Each inlines the exact-type
# cases of ``_copy_value`` / ``_value_size`` (and a ``list.copy()`` for a
# list of scalars) and hands every other value to that function, so a
# compiled method returns exactly what the per-field walk returns.
_COPY_FIELD = """\
    v = self.{0}
    t = type(v)
    if t in _SCALARS:
        clone.{0} = v
    elif t is list and _SCALARS.issuperset(map(type, v)):
        clone.{0} = v.copy()
    else:
        clone.{0} = _copy_value(v)
"""
_SIZE_FIELD = """\
    v = self.{0}
    t = type(v)
    if t is int or t is float:
        n += 8
    elif v is None:
        pass
    elif t is str:
        n += len(v)
    elif t is bool:
        n += 1
    elif t is list and _NUMBERS.issuperset(map(type, v)):
        n += 8 + 8 * len(v)
    else:
        n += _value_size(v)
"""
_EQ_FIELD = """\
    a = self.{0}
    b = other.{0}
    if a is not b:
        t = type(a)
        if t in _PLAIN_EQ and type(b) is t:
            if a != b:
                return False
        elif not _values_equal(a, b):
            return False
"""


def _method_source(name: str, fields: tuple[dataclasses.Field, ...]) -> str:
    if name == "copy":
        head = "def copy(self):\n    clone = _new(_cls)\n"
        body = "".join(_COPY_FIELD.format(f.name) for f in fields)
        return head + body + "    return clone\n"
    if name == "size_bytes":
        head = "def size_bytes(self):\n    n = 0\n"
        body = "".join(_SIZE_FIELD.format(f.name) for f in fields)
        return head + body + "    return n\n"
    head = (
        "def __eq__(self, other):\n"
        "    if type(other) is not _cls:\n"
        "        return NotImplemented\n"
    )
    body = "".join(_EQ_FIELD.format(f.name) for f in fields if f.compare)
    return head + body + "    return True\n"


#: (class, method name) -> the method compiled for that class
_COMPILED: dict[tuple[type, str], Callable[..., Any]] = {}


def _compiled(cls: type, name: str) -> Callable[..., Any]:
    """``name`` compiled for ``cls``'s fields, built on first use.

    Like ``dataclasses`` does for ``__init__``, the method is generated as
    source and ``exec``-ed, here once per class at its first call rather
    than at class creation (the fields are only known once ``@dataclass``
    has run).  The compiled function replaces the lazy one in the class's
    own dict, so later calls go straight to it; a class that writes its
    own method and calls ``super()`` gets the compiled one from the cache.
    """
    fn = _COMPILED.get((cls, name))
    if fn is None:
        namespace = {**globals(), "_cls": cls, "_new": cls.__new__}
        source = _method_source(name, dataclasses.fields(cls))
        exec(compile(source, __file__, "exec"), namespace)
        fn = _COMPILED[cls, name] = namespace[name]
        # Filed under this module, so profiles count the calls as state
        # work, and named after the class: profiles key a function by
        # (file, line, name), which would otherwise merge every class's.
        qualname = fn.__qualname__ = f"{cls.__qualname__}.{name}"
        fn.__code__ = fn.__code__.replace(co_name=qualname)
        if cls is not RecordState and cls.__dict__.get(name) is _LAZY[name]:
            setattr(cls, name, fn)
    return fn


@dataclass
class RecordState:
    """Base class turning any dataclass into a valid :class:`AppState`.

    Subclasses should be declared with ``@dataclass`` and fields drawn from
    the supported types (immutables, lists/dicts/sets thereof, nested
    states or ndarrays).  ``copy``, ``size_bytes`` and ``__eq__`` are
    compiled per class from its fields on first use, so they stay correct
    as models evolve without per-class boilerplate, and each call is one
    frame with the common field types handled inline.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Give the class the lazy methods unless it (or a base between it
        # and RecordState) writes its own.  An ``__eq__`` in the class dict
        # also stops ``@dataclass`` from generating its tuple comparison.
        for name, lazy in _LAZY.items():
            inherited = getattr(cls, name)
            if name not in cls.__dict__ and (inherited is lazy or inherited in _COMPILED.values()):
                setattr(cls, name, lazy)

    def copy(self):
        return _compiled(type(self), "copy")(self)

    def size_bytes(self) -> int:
        return _compiled(type(self), "size_bytes")(self)

    def __eq__(self, other: object) -> bool:
        return _compiled(type(self), "__eq__")(self, other)

    __hash__ = None  # type: ignore[assignment]  # states are mutable


#: the lazy (compile-on-first-call) methods every subclass starts from
_LAZY = {name: RecordState.__dict__[name] for name in ("copy", "size_bytes", "__eq__")}


@dataclass(slots=True)
class SavedState:
    """One entry in an object's state queue.

    Attributes:
        last_key: total-order key of the last event executed before the
            snapshot was taken (``None`` for the initial pre-simulation
            snapshot).  Rollback selects the newest snapshot whose
            ``last_key`` precedes the straggler.
        lvt: the object's LVT at snapshot time.
        state: the snapshot itself (an independent copy).
        size: ``state.size_bytes()``, measured once when the snapshot is
            made; the restore charge and the memory high-water marks read
            it instead of walking the state again.

    What a save cost is charged to the LP's clock and counted in the
    object's :class:`~.checkpointing.CheckpointWindow`, not kept here.
    """

    last_key: EventKey | None
    lvt: VirtualTime
    state: AppState
    size: int = 0

    def precedes(self, key: EventKey) -> bool:
        """True if this snapshot was taken strictly before ``key``."""
        return self.last_key is None or self.last_key < key
