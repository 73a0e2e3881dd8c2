"""The top-level Time Warp simulation facade.

Wires application objects, LPs, transport, network, GVT and controllers
into a runnable simulation and assembles the run statistics.  This is the
main entry point of the library:

    from repro import TimeWarpSimulation, SimulationConfig
    sim = TimeWarpSimulation(partition, config)
    stats = sim.run()
"""

from __future__ import annotations

from typing import Any, Sequence

from ..comm.transport import CommModule
from ..cluster.executive import Executive
from ..gvt.manager import OmniscientGVT
from ..gvt.mattern import MatternGVT
from ..oracle.invariants import NULL_ORACLE
from ..stats.counters import RunStats
from ..trace.tracer import NULL_TRACER
from .config import SimulationConfig
from .errors import ConfigurationError
from .event import Event
from .lp import LogicalProcess
from .simobject import SimulationObject
from .state import resolve_snapshot_strategy

#: A partition maps LP index -> the simulation objects it hosts.
Partition = Sequence[Sequence[SimulationObject]]


class TimeWarpSimulation:
    """One configured Time Warp run over a partitioned object graph."""

    def __init__(self, partition: Partition, config: SimulationConfig | None = None):
        self.config = config or SimulationConfig()
        self.config.validate()
        if not partition or not any(partition):
            raise ConfigurationError("partition must contain at least one object")

        # --- directory -------------------------------------------------
        self._objects: list[SimulationObject] = []
        self._name_to_oid: dict[str, int] = {}
        self._oid_to_lp: dict[int, int] = {}
        for lp_index, group in enumerate(partition):
            for obj in group:
                if obj.name in self._name_to_oid:
                    raise ConfigurationError(f"duplicate object name {obj.name!r}")
                oid = len(self._objects)
                self._objects.append(obj)
                self._name_to_oid[obj.name] = oid
                self._oid_to_lp[oid] = lp_index

        # --- logical processes ------------------------------------------
        self.lps: list[LogicalProcess] = []
        for lp_index in range(len(partition)):
            lp = LogicalProcess(
                lp_index,
                self.config.costs_for_lp(lp_index),
                resolve_name=self._name_to_oid.__getitem__,
                lp_of=self._oid_to_lp.__getitem__,
                end_time=self.config.end_time,
            )
            self.lps.append(lp)
        for oid, obj in enumerate(self._objects):
            lp = self.lps[self._oid_to_lp[oid]]
            lp.attach(
                obj,
                oid,
                cancel_policy=self.config.cancellation(obj),
                ckpt_policy=self.config.checkpoint(obj),
            )

        # --- executive, transport, GVT -----------------------------------
        tracer = self.config.tracer if self.config.tracer is not None else NULL_TRACER
        self.tracer = tracer
        oracle = self.config.oracle if self.config.oracle is not None else NULL_ORACLE
        if oracle.enabled and oracle.tracer is NULL_TRACER:
            oracle.tracer = tracer
        self.oracle = oracle
        self.executive = Executive(self.lps, self.config)
        self.executive.tracer = tracer
        self.executive.oracle = oracle
        self.executive.network.tracer = tracer
        snapshot_strategy = resolve_snapshot_strategy(self.config.snapshot)
        for lp in self.lps:
            lp.tracer = tracer
            lp.oracle = oracle
            lp.snapshot_strategy = snapshot_strategy
            comm = CommModule(
                host=lp,
                network=self.executive.network,
                costs=lp.costs,
                policy=self.config.aggregation(lp.lp_id),
                tracer=tracer,
            )
            comm.set_routing(self._oid_to_lp)
            lp.comm = comm
            # Live migration can leave a delivery in flight toward an
            # object's old host; re-route it through the (shared, already
            # rewritten) routing map instead of crashing the LP.
            lp.forward = self._make_forward(lp)
        self.executive.routing = self._oid_to_lp
        if self.config.gvt_algorithm == "mattern":
            gvt = MatternGVT(self.executive)
            self.executive.network.on_data_send = gvt.observe_send
            self.executive.on_data_receive = gvt.observe_receive
        else:
            gvt = OmniscientGVT(self.executive)
        self.executive.gvt_algorithm = gvt

        # --- optional unified control plane (docs/control.md) -------------
        self.meta = None
        if self.config.meta_control is not None:
            self.meta = self.config.meta_control()
            self.meta.attach(self.executive, self.config.snapshot)
        elif self.config.placement == "dynamic":
            # placement="dynamic" without an explicit meta_control factory
            # still means on-line placement: attach a placement-only loop
            from ..control.meta import MetaController

            self.meta = MetaController(knobs=("placement",))
            self.meta.attach(self.executive, self.config.snapshot)

        # --- optional committed-event trace ------------------------------
        self.trace: list[tuple[float, str, str, float, Any]] | None = None
        if self.config.record_trace:
            self.trace = []
            for lp in self.lps:
                lp.trace_sink = self._record_trace

        self._ran = False
        self._finished = False
        self._horizon: float | None = None

    # ------------------------------------------------------------------ #
    def _resolve(self, name: str) -> int:
        try:
            return self._name_to_oid[name]
        except KeyError:
            raise ConfigurationError(f"unknown simulation object {name!r}") from None

    @staticmethod
    def _make_forward(lp: LogicalProcess):
        def forward(event: Event) -> None:
            lp.stats.remote_events_sent += 1
            lp.comm.enqueue(event)

        return forward

    def _record_trace(self, event: Event) -> None:
        assert self.trace is not None
        self.trace.append(
            (
                event.recv_time,
                self._objects[event.receiver].name,
                self._objects[event.sender].name,
                event.send_time,
                event.payload,
            )
        )

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
        oracle = self.oracle
        if oracle.enabled:
            oracle.on_run_end(self.executive)
        # Final commit: quiescence means nothing below the horizon can
        # change any more, so everything processed is committed.
        for lp in self.lps:
            lp.fossil_collect(float("inf"), final=True)
        for lp in self.lps:
            lp.finalize()
        return self._assemble_stats()

    def _assemble_stats(self) -> RunStats:
        stats = RunStats()
        stats.execution_time = self.executive.execution_time
        stats.final_gvt = self.executive.gvt
        network = self.executive.network
        stats.physical_messages = network.messages_sent
        stats.events_on_wire = network.events_carried
        stats.bytes_on_wire = network.bytes_sent
        for lp in self.lps:
            stats.per_lp[lp.lp_id] = lp.stats
            stats.gvt_rounds += lp.stats.gvt_rounds
            stats.peak_state_entries = max(
                stats.peak_state_entries, lp.stats.peak_state_entries
            )
            stats.peak_state_bytes = max(
                stats.peak_state_bytes, lp.stats.peak_state_bytes
            )
            stats.peak_history_events = max(
                stats.peak_history_events, lp.stats.peak_history_events
            )
            for name, ostats in lp.object_stats().items():
                stats.per_object[name] = ostats
                stats.committed_events += ostats.events_committed
                stats.executed_events += ostats.events_executed
                stats.rolled_back_events += ostats.events_rolled_back
                stats.rollbacks += ostats.rollbacks
                stats.state_saves += ostats.state_saves
                stats.coast_forward_events += ostats.coast_forward_events
                stats.antis_sent += ostats.antis_sent
                stats.lazy_hits += ostats.lazy_hits
                stats.lazy_misses += ostats.lazy_misses
        return stats

    def sorted_trace(self) -> list[tuple[float, str, str, float, Any]]:
        """Committed-event trace in total order (for equivalence checks)."""
        if self.trace is None:
            raise ConfigurationError("run with record_trace=True to collect a trace")
        return sorted(self.trace, key=lambda t: (t[0], t[1], t[2], t[3], repr(t[4])))


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
    config.validate()
    if config.backend == "parallel":
        from ..parallel.backend import ParallelSimulation

        return ParallelSimulation(partition, config)
    return TimeWarpSimulation(partition, config)
