"""Sequential reference kernel.

Runs the *same* application objects as the Time Warp kernel, one event at
a time in global total order, with no rollback machinery.  It serves two
purposes:

* the golden reference for correctness — a Time Warp execution must commit
  exactly the events the sequential kernel executes (tests/properties);
* the sequential baseline a WARPED user could always fall back to (the
  kernel "can operate as a sequential kernel", Section 7 of the paper).

Execution time is modelled as the sum of per-event costs on a single
workstation — no communication, no state saving.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, Sequence

from ..cluster.costmodel import DEFAULT_COSTS, CostModel
from ..kernel.errors import (
    ApplicationError,
    ConfigurationError,
    SchedulingError,
    TimeWarpError,
)
from ..kernel.event import Event, EventKey, VirtualTime
from ..kernel.kernel import sorted_trace, suspend_collector
from ..kernel.simobject import SimulationObject
from ..stats.counters import CommittedTrace, RunStats, TraceRow


class _SequentialServices:
    """KernelServices adapter for sequential execution.

    It holds the kernel's event list and clocks, not the kernel: an
    object bound to it then closes no reference cycle through the kernel,
    so a dropped simulation is freed by reference counting at once, not
    by a later pass of the cyclic collector (docs/architecture.md, "The
    event loop and the cyclic collector").
    """

    __slots__ = ("_oid", "_name_to_oid", "_lvt", "_serials", "_heap")

    def __init__(self, kernel: "SequentialSimulation", oid: int) -> None:
        self._oid = oid
        self._name_to_oid = kernel._name_to_oid
        self._lvt = kernel._lvt
        self._serials = kernel._serials
        self._heap = kernel._heap

    @property
    def now(self) -> VirtualTime:
        return self._lvt[self._oid]

    def send(self, dest: str, delay: VirtualTime, payload: Any) -> None:
        try:
            receiver = self._name_to_oid[dest]
        except KeyError:
            raise SchedulingError(f"unknown simulation object {dest!r}") from None
        sender = self._oid
        now = self._lvt[sender]
        event = Event(
            sender=sender,
            receiver=receiver,
            send_time=now,
            recv_time=now + delay,
            payload=payload,
            serial=self._serials[sender],
        )
        self._serials[sender] += 1
        heapq.heappush(self._heap, (event.key(), event))


class SequentialSimulation:
    """Discrete event simulation of a flat object list, in total order."""

    def __init__(
        self,
        objects: Sequence[SimulationObject],
        *,
        end_time: VirtualTime = float("inf"),
        costs: CostModel = DEFAULT_COSTS,
        record_trace: bool = False,
        max_events: int | None = None,
    ) -> None:
        if not objects:
            raise ConfigurationError("need at least one simulation object")
        self.objects = list(objects)
        self.end_time = end_time
        self.costs = costs
        self.max_events = max_events
        self._name_to_oid: dict[str, int] = {}
        for oid, obj in enumerate(self.objects):
            if obj.name in self._name_to_oid:
                raise ConfigurationError(f"duplicate object name {obj.name!r}")
            self._name_to_oid[obj.name] = oid
        self._lvt = [0.0] * len(self.objects)
        self._serials = [0] * len(self.objects)
        self._heap: list[tuple[EventKey, Event]] = []
        self.events_executed = 0
        self.execution_time = 0.0
        names = [obj.name for obj in self.objects]
        self.trace = CommittedTrace(names) if record_trace else None
        self._ran = False

    @suspend_collector
    def run(self) -> RunStats:
        """Execute the model to ``end_time``; ``max_events`` is a runaway
        guard that raises :class:`SchedulingError` once exceeded.  Every
        executed event is committed."""
        record = self.trace.record if self.trace is not None else None
        max_events = self.max_events
        for event in self.events():
            if record is not None:
                record(event)
            if max_events is not None and self.events_executed > max_events:
                raise SchedulingError(
                    f"executed more than {max_events} events; runaway model?"
                )
        for obj in self.objects:
            obj.finalize()
        return RunStats(
            execution_time=self.execution_time,
            committed_events=self.events_executed,
            executed_events=self.events_executed,
        )

    def events(self) -> Iterator[Event]:
        """Initialize the model, then execute it in total order, yielding
        each event after it ran.

        A caller that stops iterating ends the run there, without raising
        and without ``finalize`` (how a placement pilot profiles a prefix
        of the run); :meth:`run` drives it to the end.
        """
        if self._ran:
            raise ConfigurationError("a SequentialSimulation can only run once")
        self._ran = True
        for oid, obj in enumerate(self.objects):
            obj.state = obj.initial_state()
            obj.bind(_SequentialServices(self, oid))
        for obj in self.objects:
            obj.initialize()

        heap = self._heap
        while heap:
            _, event = heapq.heappop(heap)
            if event.recv_time > self.end_time:
                continue  # beyond the horizon; drop (matches Time Warp)
            oid = event.receiver
            obj = self.objects[oid]
            self._lvt[oid] = event.recv_time
            try:
                obj.execute_process(event.payload)
            except TimeWarpError:
                raise
            except Exception as exc:
                raise ApplicationError(
                    obj.name, event.recv_time, event.payload
                ) from exc
            self.events_executed += 1
            self.execution_time += self.costs.event_execution(obj.grain_factor)
            yield event

    def sorted_trace(self) -> list[TraceRow]:
        return sorted_trace(self.trace)
