"""Controller-decision tracing: run observability for the feedback loops.

The paper's controllers are only trustworthy if every adjustment they
make is observable: *when* did χ move, *what* Hit Ratio flipped an object
lazy, *why* did the aggregation window widen.  This package records those
decisions — plus the rollbacks, GVT rounds, fossil collections and
transport flushes that surround them — as timestamped structured records
with a versioned schema (:mod:`repro.trace.schema`, prose companion in
``docs/observability.md``).

Enable by attaching a :class:`Tracer` to the run configuration::

    from repro.trace import Tracer

    with Tracer.to_path("run.jsonl") as tracer:
        config = SimulationConfig(..., tracer=tracer)
        TimeWarpSimulation(partition, config).run()

Tracing is off by default and costs one attribute check per potential
emission site (the shared :data:`NULL_TRACER`).  Traces are as
deterministic as the runs themselves: identical configurations produce
byte-identical JSONL.  Inspect traces with the ``repro-trace`` CLI;
``summarize(records).rounds`` folds one into the run's trajectory, one
row per advancing GVT round.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".reader": (
        "TraceFormatError",
        "load_trace",
        "read_trace",
        "summarize",
        "validate_trace",
    ),
    ".schema": ("RECORD_TYPES", "SCHEMA_VERSION", "validate_record"),
    ".tracer": ("NULL_TRACER", "NullTracer", "Tracer"),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
