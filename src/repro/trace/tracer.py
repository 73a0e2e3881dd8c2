"""The trace emitter: one cheap append on the hot path, off by default.

Instrumented kernel sites all follow the same pattern::

    tracer = self.tracer
    if tracer.enabled:
        tracer.emit("rollback", self.clock, lp=self.lp_id, ...)

With tracing off (the default) every site costs one attribute load and a
false branch on the shared :data:`NULL_TRACER`; no record dict is ever
built.  With tracing on, :meth:`Tracer.emit` builds one dict and either
appends it to an in-memory buffer (optionally a bounded ring) or writes
one JSONL line.

Determinism: records carry only modelled quantities (modelled clocks, the
deterministic ``seq`` counter, controller state), never host wall time —
two runs of the same configuration produce byte-identical traces, and the
tier-1 suite enforces that.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO


_INF = float("inf")


def _sanitize(value: object) -> object:
    if type(value) is float and (value != value or value in (_INF, -_INF)):
        return "nan" if value != value else "inf" if value > 0 else "-inf"
    return value


def encode_record(record: dict) -> str:
    """One record as its canonical JSONL line (no newline).

    Keys are sorted and separators minimal so the encoding — and therefore
    the byte-identity guarantee — does not depend on emission-site field
    order.  Non-finite floats are encoded as the strings ``"inf"`` /
    ``"-inf"`` / ``"nan"`` so every line is strict JSON (re-encoding a
    record the reader revived round-trips)."""
    out = record
    for key, value in record.items():
        clean = _sanitize(value)
        if clean is not value:
            if out is record:
                out = dict(record)
            out[key] = clean
    return json.dumps(out, separators=(",", ":"), sort_keys=True,
                      allow_nan=False)


class NullTracer:
    """The disabled tracer: emit is a no-op, ``enabled`` is False."""

    __slots__ = ()
    enabled = False

    def emit(self, etype: str, t: float, **fields: object) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared disabled tracer; instrumented sites default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects structured trace records in memory or streams them as JSONL.

    Args:
        path: stream records to this file as JSON Lines.  The header line
            is written on open.  Mutually exclusive with ``capacity``.
        capacity: keep only the newest ``capacity`` records in memory (a
            ring buffer); ``None`` keeps all records.

    Use as a context manager when writing to a path so the file is closed
    (and flushed) deterministically::

        with Tracer.to_path("run.jsonl") as tracer:
            config = SimulationConfig(..., tracer=tracer)
            TimeWarpSimulation(partition, config).run()
    """

    __slots__ = ("enabled", "_seq", "_records", "_fh", "_owns_fh", "path")

    enabled: bool

    def __init__(
        self,
        *,
        path: str | Path | None = None,
        stream: IO[str] | None = None,
        capacity: int | None = None,
    ) -> None:
        if (path is not None or stream is not None) and capacity is not None:
            raise ValueError("ring-buffer capacity only applies to in-memory traces")
        if path is not None and stream is not None:
            raise ValueError("give either path or stream, not both")
        self.enabled = True
        self._seq = 1  # seq 0 is the header
        self.path = Path(path) if path is not None else None
        self._records: "deque[dict] | list[dict]"
        if capacity is not None:
            if capacity < 1:
                raise ValueError("capacity must be >= 1")
            self._records = deque(maxlen=capacity)
        else:
            self._records = []
        self._owns_fh = path is not None
        if path is not None:
            self._fh: IO[str] | None = open(path, "w", encoding="utf-8")
        else:
            self._fh = stream
        if self._fh is not None:
            self._fh.write(encode_record(self._header()) + "\n")

    # -- construction shorthands --------------------------------------- #
    @classmethod
    def to_path(cls, path: str | Path) -> "Tracer":
        """A tracer streaming JSONL records to ``path``."""
        return cls(path=path)

    @classmethod
    def in_memory(cls, capacity: int | None = None) -> "Tracer":
        """An in-memory tracer; bounded ring if ``capacity`` is given."""
        return cls(capacity=capacity)

    # -- emission ------------------------------------------------------ #
    @staticmethod
    def _header() -> dict:
        from .schema import SCHEMA_VERSION

        return {"type": "trace.header", "seq": 0, "t": 0.0,
                "schema": SCHEMA_VERSION, "lib": "repro"}

    def emit(self, etype: str, t: float, **fields: object) -> None:
        """Record one event of type ``etype`` at modelled time ``t`` (us)."""
        record: dict = {"type": etype, "t": t, "seq": self._seq}
        self._seq += 1
        for key, value in fields.items():
            record[key] = _sanitize(value)
        if self._fh is not None:
            self._fh.write(encode_record(record) + "\n")
        else:
            self._records.append(record)

    # -- access -------------------------------------------------------- #
    @property
    def records(self) -> list[dict]:
        """In-memory records, oldest first (header not included)."""
        return list(self._records)

    def select(self, *types: str) -> list[dict]:
        """In-memory records of the given types, oldest first."""
        return [r for r in self._records if r["type"] in types]

    def dumps(self) -> str:
        """The complete JSONL document for an in-memory trace.

        Always starts with a fresh header line, even if a bounded ring has
        evicted early records."""
        lines = [encode_record(self._header())]
        lines.extend(encode_record(r) for r in self._records)
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> Path:
        """Write an in-memory trace to ``path`` as JSONL."""
        path = Path(path)
        path.write_text(self.dumps(), encoding="utf-8")
        return path

    # -- lifecycle ----------------------------------------------------- #
    def close(self) -> None:
        """Flush and (if this tracer opened it) close the output stream.
        The tracer is disabled afterwards."""
        if self._fh is not None:
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
            self._fh = None
        self.enabled = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
