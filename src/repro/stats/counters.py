"""Instrumentation counters.

Every quantity the paper samples or reports lives here: committed events,
rollbacks and their lengths, coast-forward work, state saves, cancellation
comparisons (hits/misses), anti-messages, aggregation behaviour and the
modelled execution time.  Counters are plain attributes so the hot path
pays one attribute increment, and they aggregate cleanly for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Sequence

#: one committed event: ``(recv_time, receiver, sender, send_time, payload)``
#: with both objects by name
TraceRow = tuple[float, str, str, float, Any]


@dataclass(slots=True)
class ObjectStats:
    """Per-simulation-object counters."""

    events_executed: int = 0
    events_committed: int = 0
    events_rolled_back: int = 0
    rollbacks: int = 0
    primary_rollbacks: int = 0       # caused by a straggler positive message
    secondary_rollbacks: int = 0     # caused by an anti-message
    coast_forward_events: int = 0
    state_saves: int = 0
    state_restores: int = 0
    antis_sent: int = 0
    lazy_hits: int = 0
    lazy_misses: int = 0
    lazy_aggressive_hits: int = 0
    lazy_aggressive_misses: int = 0
    comparisons: int = 0
    mode_switches: int = 0
    control_invocations: int = 0
    sends: int = 0
    sends_suppressed: int = 0        # lazy hits: message never re-sent
    #: executed below the safe bound, so committed on the spot: no
    #: snapshot, send record or processed-list entry (docs/parallel.md)
    events_committed_at_once: int = 0

    def merge(self, other: "ObjectStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def hit_ratio(self) -> float:
        """Observed lifetime hit ratio (the controller uses a windowed one)."""
        hits = self.lazy_hits + self.lazy_aggressive_hits
        return hits / self.comparisons if self.comparisons else 0.0


@dataclass(slots=True)
class LPStats:
    """Per-LP counters (comm + GVT live here; object work aggregates up)."""

    #: every DATA message that left this LP, the events they carried and
    #: their wire bytes (control records are charged, not counted)
    physical_messages_sent: int = 0
    physical_events_sent: int = 0
    physical_bytes_sent: int = 0
    physical_messages_received: int = 0
    remote_events_sent: int = 0
    remote_events_received: int = 0
    intra_lp_events: int = 0
    aggregates_flushed_idle: int = 0
    gvt_rounds: int = 0
    fossil_collections: int = 0
    fossil_items: int = 0
    #: modelled µs: the LP charges its clock only; :meth:`RunStats.fold_lp`
    #: sets this to ``clock - idle_time``
    busy_time: float = 0.0
    idle_time: float = 0.0
    #: memory high-water marks, sampled at every fossil collection (the
    #: paper's intro lists "high memory usage" among Time Warp's costs;
    #: these are the history-queue sizes GVT keeps bounded)
    peak_state_entries: int = 0
    peak_state_bytes: int = 0
    peak_history_events: int = 0


class CommittedTrace(list):
    """Every kernel's committed-event record, one :data:`TraceRow` per
    event, appended in the order the kernel commits them."""

    __slots__ = ("_names",)

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__()
        #: oid -> object name
        self._names = names

    def record(self, event) -> None:
        names = self._names
        self.append((event.recv_time, names[event.receiver], names[event.sender],
                     event.send_time, event.payload))

    def sorted(self) -> list[TraceRow]:
        """The rows in total order, for equivalence checks across kernels."""
        return sorted(self, key=lambda t: (t[0], t[1], t[2], t[3], repr(t[4])))


@dataclass(slots=True)
class RunStats:
    """Whole-run summary assembled by the kernel at termination."""

    execution_time: float = 0.0          # modelled µs (max LP wall clock)
    committed_events: int = 0
    #: how many of ``committed_events`` were committed the moment they ran
    committed_at_once: int = 0
    executed_events: int = 0
    rolled_back_events: int = 0
    rollbacks: int = 0
    state_saves: int = 0
    coast_forward_events: int = 0
    antis_sent: int = 0
    lazy_hits: int = 0
    lazy_misses: int = 0
    physical_messages: int = 0
    events_on_wire: int = 0
    bytes_on_wire: int = 0
    gvt_rounds: int = 0
    final_gvt: float = 0.0
    peak_state_entries: int = 0
    peak_state_bytes: int = 0
    peak_history_events: int = 0
    per_object: dict[str, ObjectStats] = field(default_factory=dict)
    per_lp: dict[int, LPStats] = field(default_factory=dict)

    def fold_lp(
        self,
        lp_id: int,
        clock: float,
        lp_stats: LPStats,
        object_stats: dict[str, ObjectStats],
    ) -> None:
        """Fold one finished LP in — the one place a run total is built,
        whoever scheduled the LP: counters add, the makespan and the
        memory high-water marks take the max, breakdowns keep every key."""
        lp_stats.busy_time = clock - lp_stats.idle_time
        self.per_lp[lp_id] = lp_stats
        self.execution_time = max(self.execution_time, clock)
        self.physical_messages += lp_stats.physical_messages_sent
        self.events_on_wire += lp_stats.physical_events_sent
        self.bytes_on_wire += lp_stats.physical_bytes_sent
        self.gvt_rounds += lp_stats.gvt_rounds
        self.peak_state_entries = max(self.peak_state_entries, lp_stats.peak_state_entries)
        self.peak_state_bytes = max(self.peak_state_bytes, lp_stats.peak_state_bytes)
        self.peak_history_events = max(self.peak_history_events, lp_stats.peak_history_events)
        for name, ostats in object_stats.items():
            self.per_object[name] = ostats
            self.committed_events += ostats.events_committed
            self.committed_at_once += ostats.events_committed_at_once
            self.executed_events += ostats.events_executed
            self.rolled_back_events += ostats.events_rolled_back
            self.rollbacks += ostats.rollbacks
            self.state_saves += ostats.state_saves
            self.coast_forward_events += ostats.coast_forward_events
            self.antis_sent += ostats.antis_sent
            self.lazy_hits += ostats.lazy_hits
            self.lazy_misses += ostats.lazy_misses

    @property
    def execution_time_seconds(self) -> float:
        return self.execution_time / 1e6

    @property
    def committed_events_per_second(self) -> float:
        if self.execution_time <= 0:
            return 0.0
        return self.committed_events / self.execution_time_seconds

    @property
    def efficiency(self) -> float:
        """Committed / executed — the fraction of work that was not wasted."""
        return self.committed_events / self.executed_events if self.executed_events else 0.0

    @property
    def rollback_frequency(self) -> float:
        return self.rollbacks / self.executed_events if self.executed_events else 0.0

    def summary(self) -> str:
        return (
            f"time={self.execution_time_seconds:.3f}s "
            f"committed={self.committed_events} "
            f"({self.committed_events_per_second:,.0f} ev/s) "
            f"executed={self.executed_events} rollbacks={self.rollbacks} "
            f"efficiency={self.efficiency:.3f} "
            f"phys_msgs={self.physical_messages}"
        )

    def to_dict(self, *, include_breakdown: bool = False) -> dict:
        """JSON-serializable view (scalars always; per-object/per-LP
        breakdowns on request)."""
        from dataclasses import fields as dc_fields

        out: dict = {}
        for f in dc_fields(self):
            if f.name in ("per_object", "per_lp"):
                continue
            out[f.name] = getattr(self, f.name)
        out["committed_events_per_second"] = self.committed_events_per_second
        out["efficiency"] = self.efficiency
        if include_breakdown:
            out["per_object"] = {
                name: {
                    **{g.name: getattr(s, g.name) for g in dc_fields(s)},
                    "hit_ratio": s.hit_ratio,
                }
                for name, s in self.per_object.items()
            }
            out["per_lp"] = {
                lp: {g.name: getattr(s, g.name) for g in dc_fields(s)}
                for lp, s in self.per_lp.items()
            }
        return out
