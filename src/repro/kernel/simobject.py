"""The WARPED-style application programming interface.

Applications model a system as a set of :class:`SimulationObject` subclasses
exchanging time-stamped events.  All Time Warp machinery — state saving,
rollback, cancellation, aggregation — is performed by the kernel without
intervention from the application, exactly as in the WARPED kernel the
paper modified.  The same objects run unchanged under the sequential
reference kernel (:mod:`repro.sequential`), which is how the test-suite
checks Time Warp executions for equivalence.

Determinism contract (required by coast-forward and lazy cancellation):
``execute_process`` must be a pure function of ``(self.state, event)`` —
any randomness must be derived from event payloads or state counters (see
:func:`repro.apps.base.token_hash`), never from global RNGs or wall time.
"""

from __future__ import annotations

import math
from typing import Any, Protocol

from .errors import ConfigurationError
from .event import VirtualTime
from .state import AppState


class KernelServices(Protocol):
    """What a kernel must provide to a simulation object while it runs."""

    @property
    def now(self) -> VirtualTime:
        """The object's current LVT."""
        ...

    def send(self, dest: str, delay: VirtualTime, payload: Any) -> None:
        """Schedule ``payload`` at object ``dest``, ``delay`` in the future."""
        ...


class SimulationObject:
    """Base class for application simulation objects.

    Subclasses override :meth:`initial_state`, :meth:`initialize`,
    :meth:`execute_process` and optionally :meth:`finalize` and
    :attr:`grain_factor`.
    """

    #: Relative CPU weight of executing one event at this object (the cost
    #: model multiplies its ``event_cost`` by this).  Lets an application
    #: express that e.g. a disk model does more work per event than a
    #: request source.
    grain_factor: float = 1.0

    #: The least ``delay`` this object ever passes to :meth:`send_event`:
    #: a promise every kernel enforces.  0.0 promises nothing beyond
    #: ``delay > 0``.  The process backend turns it into channel clocks
    #: that let a shard commit events no peer can undo at once
    #: (docs/parallel.md, "Events no peer can undo"); the conservative
    #: kernel synchronises on it.  Declare it before a kernel binds the
    #: object.
    lookahead: float = 0.0

    #: the least delay :meth:`send_event` accepts, fixed by :meth:`bind`:
    #: ``lookahead``, or the least positive float when that is 0.0, so
    #: one comparison enforces both rules
    _min_delay: float = math.nextafter(0.0, 1.0)

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("simulation objects need a non-empty name")
        self.name = name
        self._services: KernelServices | None = None
        #: the object's mutable state; managed (saved/restored) by the kernel
        self.state: AppState = None  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # application-facing services
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> VirtualTime:
        """Local virtual time (receive time of the event being executed)."""
        return self._bound_services().now

    def send_event(self, dest: str, delay: VirtualTime, payload: Any) -> None:
        """Send an event to the object named ``dest``.

        ``delay`` must be strictly positive: zero-delay messages would
        allow an unbounded number of events at one virtual time, which the
        models in this reproduction never need and which would complicate
        termination.  It must also be at least the declared
        :attr:`lookahead`.
        """
        if delay < self._min_delay:
            raise ConfigurationError(
                f"{self.name}: send_event delay must be > 0 and >= the "
                f"declared lookahead {self.lookahead!r}, got {delay!r}"
            )
        (self._services or self._bound_services()).send(dest, delay, payload)

    # ------------------------------------------------------------------ #
    # application-overridable behaviour
    # ------------------------------------------------------------------ #
    def initial_state(self) -> AppState:
        """Create this object's state; called once before the simulation."""
        raise NotImplementedError

    def initialize(self) -> None:
        """Hook run at virtual time 0; may send the first events."""

    def execute_process(self, event_payload: Any) -> None:
        """Process one event.  Must be deterministic in (state, payload)."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Hook run after the simulation terminates (post-commit)."""

    # ------------------------------------------------------------------ #
    # kernel-facing plumbing
    # ------------------------------------------------------------------ #
    def bind(self, services: KernelServices) -> None:
        """Attach kernel services (called by whichever kernel runs us)."""
        lookahead = self.lookahead
        if not lookahead >= 0:
            raise ConfigurationError(
                f"{self.name}: lookahead must be >= 0, got {lookahead!r}"
            )
        self._min_delay = lookahead or SimulationObject._min_delay
        self._services = services

    def _bound_services(self) -> KernelServices:
        if self._services is None:
            raise ConfigurationError(
                f"{self.name} is not attached to a kernel; "
                "send_event/now are only valid inside initialize/execute_process"
            )
        return self._services

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
