"""The top-level Time Warp simulation facade.

Wires application objects, LPs, transport, network, GVT and controllers
into a runnable simulation and assembles the run statistics.  This is the
main entry point of the library:

    from repro import TimeWarpSimulation, SimulationConfig
    sim = TimeWarpSimulation(partition, config)
    stats = sim.run()
"""

from __future__ import annotations

from typing import Sequence

from ..comm.transport import CommModule
from ..cluster.executive import Executive
from ..gvt.manager import OmniscientGVT
from ..oracle.invariants import NULL_ORACLE
from ..stats.counters import CommittedTrace, RunStats, TraceRow
from ..trace.tracer import NULL_TRACER
from .config import SimulationConfig, step_value
from .errors import ConfigurationError, SchedulingError
from .event import Event
from .lp import LogicalProcess
from .simobject import SimulationObject

#: A partition maps LP index -> the simulation objects it hosts.
Partition = Sequence[Sequence[SimulationObject]]


def walk_directory(partition: Partition):
    """The one directory walk: ``(objects, name -> oid, oid -> group index)``.

    Oids follow partition flat order, NEVER placement: the event total
    order tie-breaks on oids (kernel/event.py EventKey), so every backend
    commits the sequential result, same-timestamp ties included.
    """
    if not partition or not any(partition):
        raise ConfigurationError("partition must contain at least one object")
    objects: list[SimulationObject] = []
    name_to_oid: dict[str, int] = {}
    group_of: list[int] = []
    for group_index, group in enumerate(partition):
        for obj in group:
            if obj.name in name_to_oid:
                raise ConfigurationError(f"duplicate object name {obj.name!r}")
            name_to_oid[obj.name] = len(objects)
            objects.append(obj)
            group_of.append(group_index)
    return objects, name_to_oid, group_of


def host_lp(
    lp_id: int,
    objects: Sequence[SimulationObject],
    name_to_oid: dict[str, int],
    routing: dict[int, int],
    config: SimulationConfig,
    network,
    tracer,
) -> LogicalProcess:
    """Build LP ``lp_id``: everything that does not depend on who schedules it.

    The LP hosts the objects ``routing`` (oid -> LP) sends to it and sends
    through ``network`` — the executive's modelled network, the worker
    itself or the conservative driver.  ``routing`` is shared, not
    copied: the ``lp_of`` resolver, the :class:`CommModule` and the
    ``forward`` hook read that one dict, so rewriting it in place
    retargets every send at once (live migration).
    """
    oracle = config.oracle if config.oracle is not None else NULL_ORACLE
    if oracle.enabled and oracle.tracer is NULL_TRACER:
        oracle.tracer = tracer
    lp = LogicalProcess(
        lp_id,
        config.costs_for_lp(lp_id),
        resolve_name=name_to_oid.__getitem__,
        lp_of=routing.__getitem__,
        end_time=config.end_time,
    )
    lp.tracer = tracer
    lp.oracle = oracle
    for oid, owner in routing.items():
        if owner == lp_id:
            obj = objects[oid]
            lp.attach(
                obj,
                oid,
                cancel_policy=config.cancellation(obj),
                ckpt_policy=config.checkpoint(obj),
            )
    comm = CommModule(
        host=lp,
        network=network,
        costs=lp.costs,
        policy=config.aggregation(lp_id),
        tracer=tracer,
    )
    comm.set_routing(routing)
    lp.comm = comm

    def forward(event: Event) -> None:
        # Live migration can leave stale addressing in flight (an aggregate
        # buffered against the old host, a message already on the wire):
        # re-route it through the rewritten map instead of crashing the LP.
        if routing[event.receiver] == lp_id:
            raise SchedulingError(
                f"object {event.receiver} routed to LP {lp_id} but not hosted"
            )
        lp.stats.remote_events_sent += 1
        comm.enqueue(event)

    lp.forward = forward
    return lp


def committed_trace(config: SimulationConfig, objects, lps) -> CommittedTrace | None:
    """The trace every LP records its commits into, if ``config.record_trace``."""
    if not config.record_trace:
        return None
    trace = CommittedTrace([obj.name for obj in objects])
    for lp in lps:
        lp.trace_sink = trace.record
    return trace


def sorted_trace(trace: CommittedTrace | None) -> list[TraceRow]:
    """``trace`` in total order; refused when the run recorded none."""
    if trace is None:
        raise ConfigurationError("run with record_trace=True to collect a trace")
    return trace.sorted()


def finish_lps(
    lps: Sequence[LogicalProcess], t: float, wire_counts: dict[str, int],
    undelivered_data: int,
) -> None:
    """End of a run proven quiescent: the oracle's checks against the wire
    totals the driver holds, then the final commit and ``finalize``."""
    oracle = lps[0].oracle
    if oracle.enabled:
        oracle.on_run_end(t, lps, wire_counts, undelivered_data)
    # nothing below the horizon can change any more: commit everything
    for lp in lps:
        lp.fossil_collect(float("inf"), final=True)
    for lp in lps:
        lp.finalize()


class TimeWarpSimulation:
    """One configured Time Warp run over a partitioned object graph."""

    def __init__(self, partition: Partition, config: SimulationConfig | None = None):
        self.config = config or SimulationConfig()
        self.config.validate("modelled")
        self._objects, self._name_to_oid, group_of = walk_directory(partition)
        self._oid_to_lp: dict[int, int] = dict(enumerate(group_of))

        # --- executive, logical processes, GVT ---------------------------
        tracer = self.config.tracer if self.config.tracer is not None else NULL_TRACER
        self.tracer = tracer
        self.executive = Executive([], self.config)
        self.executive.tracer = tracer
        self.executive.network.tracer = tracer
        self.executive.routing = self._oid_to_lp
        for lp_index in range(len(partition)):
            self.executive.host(host_lp(
                lp_index, self._objects, self._name_to_oid, self._oid_to_lp,
                self.config, self.executive.network, tracer,
            ))
        self.lps = self.executive.lps
        self.oracle = self.executive.oracle = self.lps[0].oracle
        if self.config.gvt_algorithm == "mattern":
            from ..gvt.mattern import MatternGVT

            self.executive.gvt_algorithm = MatternGVT(self.executive)
        else:
            self.executive.gvt_algorithm = OmniscientGVT(self.executive)

        # --- the run script's knob settings (DESIGN.md S24) --------------
        for step in (self.config.script or {}).get("steps", ()):
            target = step.get("target")
            if isinstance(target, str):
                target = self._resolve(target)
            elif target is not None and target >= len(self.lps):
                raise ConfigurationError(
                    f"script sets {step['knob']!r} on LP {target}, but the "
                    f"partition has {len(self.lps)} LP(s)"
                )
            self.executive.steps.setdefault(step["at"], []).append(
                (step["knob"], target, step_value(step))
            )

        # --- optional unified control plane (docs/control.md) -------------
        self.meta = None
        if self.config.meta_control is not None:
            self.meta = self.config.meta_control()
            self.meta.attach(self.executive)
        elif self.config.placement == "dynamic":
            # placement="dynamic" without an explicit meta_control factory
            # still means on-line placement: attach a placement-only loop
            from ..control.meta import MetaController

            self.meta = MetaController(knobs=("placement",))
            self.meta.attach(self.executive)

        # --- optional committed-event trace ------------------------------
        self.trace = committed_trace(self.config, self._objects, self.lps)

        self._ran = False
        self._finished = False
        self._horizon: float | None = None

    # ------------------------------------------------------------------ #
    def _resolve(self, name: str) -> int:
        try:
            return self._name_to_oid[name]
        except KeyError:
            raise ConfigurationError(f"unknown simulation object {name!r}") from None

    def object_named(self, name: str) -> SimulationObject:
        return self._objects[self._resolve(name)]

    # ------------------------------------------------------------------ #
    def run(self) -> RunStats:
        """Execute to quiescence and return the run statistics."""
        if self._ran:
            raise ConfigurationError("a TimeWarpSimulation can only run once")
        self._start()
        self.executive.run()
        return self._finish()

    # ------------------------------------------------------------------ #
    # phased execution (warped's simulateUntil)
    # ------------------------------------------------------------------ #
    def advance_to(self, virtual_time: float) -> None:
        """Run until everything at or below ``virtual_time`` is processed.

        May be called repeatedly with increasing horizons; between calls
        the simulation is quiescent and the committed prefix can be
        inspected (e.g. probe states, statistics).  Speculative state
        beyond GVT is *not* final until :meth:`finish`.
        """
        if self._finished:
            raise ConfigurationError("simulation already finished")
        if virtual_time > self.config.end_time:
            raise ConfigurationError(
                f"cannot advance past the configured end time "
                f"({virtual_time} > {self.config.end_time})"
            )
        if self._horizon is not None and virtual_time < self._horizon:
            raise ConfigurationError("horizons must be non-decreasing")
        self._horizon = virtual_time
        if not self._ran:
            self._start(horizon=virtual_time)
        else:
            for lp in self.lps:
                lp.end_time = virtual_time
            self.executive.resume()
        self.executive.run()

    def finish(self) -> RunStats:
        """Lift the horizon to the configured end time and finalize."""
        if self._finished:
            raise ConfigurationError("simulation already finished")
        if not self._ran:
            return self.run()
        self._horizon = self.config.end_time
        for lp in self.lps:
            lp.end_time = self.config.end_time
        self.executive.resume()
        self.executive.run()
        return self._finish()

    def _start(self, horizon: float | None = None) -> None:
        self._ran = True
        if horizon is not None:
            for lp in self.lps:
                lp.end_time = horizon
        self.executive.start()

    def _finish(self) -> RunStats:
        self._finished = True
        executive = self.executive
        network = executive.network
        finish_lps(
            self.lps, executive.wallclock,
            network.wire_counts(), network.undelivered_data_count(),
        )
        stats = RunStats()
        stats.final_gvt = executive.gvt
        for lp in self.lps:
            stats.fold_lp(lp.lp_id, lp.clock, lp.stats, lp.object_stats())
        return stats

    def sorted_trace(self) -> list[TraceRow]:
        """Committed-event trace in total order (for equivalence checks)."""
        return sorted_trace(self.trace)


def make_simulation(partition: Partition, config: SimulationConfig | None = None):
    """Build the simulation selected by ``config.backend``.

    ``"modelled"`` (the default) returns a :class:`TimeWarpSimulation`
    running every LP in this process on the deterministic modelled
    cluster; ``"parallel"`` returns a
    :class:`repro.parallel.ParallelSimulation` sharding the LPs across
    ``config.workers`` OS processes (docs/parallel.md).  Both expose
    ``run() -> RunStats``.
    """
    config = config or SimulationConfig()
    if config.backend == "parallel":
        from ..parallel.backend import ParallelSimulation

        return ParallelSimulation(partition, config)
    return TimeWarpSimulation(partition, config)
