"""Runtime invariant oracle for the Time Warp kernel.

Follows the null-tracer pattern from :mod:`repro.trace`: every hook site
holds an ``oracle`` attribute that defaults to the shared
:data:`NULL_ORACLE`, guards with ``if oracle.enabled:``, and therefore
costs one attribute load and one truth test when the oracle is off.

The real :class:`InvariantOracle` checks, while the simulation runs:

- **GVT monotonicity and safety** — no GVT round may estimate below the
  committed GVT.  A committed GVT of G certifies that no event below G
  exists anywhere, so a later estimate under G means either the earlier
  commit was unsafe or live state regressed below it.
- **Committed-event safety** — no rollback may target a virtual time
  below the committed GVT (a committed event would be undone).
- **State-restore fidelity** — a snapshot must be bit-equivalent at
  restore time to what was saved (no aliasing mutated it), and the
  restored working state must match the snapshot.
- **Anti-message pairing** — at the end of a run no anti-message may be
  left unannihilated (pending antis, live cancel-buffer entries, or
  events stranded in aggregation buffers).
- **Lookahead safety** — on the process backend, no event may arrive
  below the safe bound its shard derived from its peers' channel clocks
  (events below it may already be committed).
- **Wire conservation** — ``sent = delivered + lost + in-flight`` holds
  at every GVT commit and at the end of the run, where in-flight must be
  zero and any permanent loss is reported (this is how a dropped message
  on a non-retransmitting wire is *detected*).

Violations are recorded on ``oracle.violations``, emitted as
``oracle.violation`` trace records when a tracer is attached, and raise
:class:`~repro.kernel.errors.InvariantViolationError` in strict mode.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..kernel.errors import InvariantViolationError
from ..trace.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.state import SavedState


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One detected invariant violation."""

    invariant: str  # gvt_monotonic | gvt_safety | state_fidelity |
    #                 anti_pairing | wire_conservation | message_loss |
    #                 lookahead_safety
    t: float  # modelled wall-clock time of detection (us)
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.invariant}] t={self.t}: {self.detail}"


def state_digest(state: Any) -> str:
    """A stable, comparison-friendly digest of an application state.

    Dataclass states (the :class:`~repro.kernel.state.RecordState` family)
    digest field by field; anything else falls back to ``vars``/``repr``.
    Digests are only ever compared within one process, so ``repr``
    stability across interpreter runs is not required.
    """
    if dataclasses.is_dataclass(state) and not isinstance(state, type):
        return repr(
            [(f.name, getattr(state, f.name))
             for f in dataclasses.fields(state)]
        )
    attrs = getattr(state, "__dict__", None)
    if attrs is not None:
        return repr(sorted(attrs.items()))
    return repr(state)


class NullOracle:
    """Does nothing, fast.  Every hook site guards on ``enabled``."""

    __slots__ = ()
    enabled = False
    violations: tuple = ()

    def on_state_save(self, t, lp, obj, snapshot) -> None: ...

    def on_state_restore(self, t, lp, obj, snapshot, restored) -> None: ...

    def on_rollback(self, t, lp, obj, to_time) -> None: ...

    def on_arrival(self, t, lp, receiver, recv_time, bound) -> None: ...

    def on_gvt_estimate(self, t, estimate, committed) -> None: ...

    def on_wire_check(self, t, network) -> None: ...

    def on_run_end(self, t, lps, counts, undelivered_data) -> None: ...


#: Shared do-nothing instance, the default everywhere an oracle plugs in.
NULL_ORACLE = NullOracle()


class InvariantOracle:
    """Checks Time Warp invariants as the simulation runs (off by default;
    enable by passing one via ``SimulationConfig(oracle=...)``)."""

    enabled = True

    def __init__(self, *, strict: bool = False, tracer=NULL_TRACER) -> None:
        #: raise InvariantViolationError at the first violation
        self.strict = strict
        #: trace sink for oracle.violation records (the kernel attaches
        #: the run tracer automatically unless one was set explicitly)
        self.tracer = tracer
        self.violations: list[InvariantViolation] = []
        #: how many individual invariant checks ran (proof of coverage)
        self.checks = 0
        #: check count per hook kind (state_save, state_restore, rollback,
        #: gvt_estimate, wire_check, wire_final, message_loss,
        #: anti_pairing, lookahead_safety) — the verify harness uses which
        #: kinds fired as a coverage signal (docs/testing.md)
        self.checks_by_kind: Counter[str] = Counter()
        self._committed_gvt = float("-inf")
        #: id(snapshot) -> (snapshot, digest-at-save); pruned at GVT commits
        self._snapshots: dict[int, tuple[SavedState, str]] = {}

    # ------------------------------------------------------------------ #
    def _check(self, kind: str) -> None:
        self.checks += 1
        self.checks_by_kind[kind] += 1

    # ------------------------------------------------------------------ #
    def _violate(self, invariant: str, t: float, detail: str) -> None:
        violation = InvariantViolation(invariant, t, detail)
        self.violations.append(violation)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "oracle.violation", t, invariant=invariant, detail=detail
            )
        if self.strict:
            raise InvariantViolationError(str(violation))

    # ------------------------------------------------------------------ #
    # state fidelity
    # ------------------------------------------------------------------ #
    def on_state_save(self, t: float, lp: int, obj: str, snapshot) -> None:
        self._check("state_save")
        self._snapshots[id(snapshot)] = (snapshot, state_digest(snapshot.state))

    def on_state_restore(
        self, t: float, lp: int, obj: str, snapshot, restored
    ) -> None:
        self._check("state_restore")
        entry = self._snapshots.get(id(snapshot))
        if entry is None or entry[0] is not snapshot:
            return  # saved before the oracle was attached
        saved_digest = entry[1]
        if state_digest(snapshot.state) != saved_digest:
            self._violate(
                "state_fidelity", t,
                f"{obj} (lp {lp}): snapshot at lvt={snapshot.lvt!r} mutated "
                "between save and restore (history aliasing)",
            )
        elif state_digest(restored) != saved_digest:
            self._violate(
                "state_fidelity", t,
                f"{obj} (lp {lp}): restored state differs from snapshot "
                f"at lvt={snapshot.lvt!r}",
            )

    # ------------------------------------------------------------------ #
    # rollback vs committed GVT
    # ------------------------------------------------------------------ #
    def on_rollback(self, t: float, lp: int, obj: str, to_time) -> None:
        self._check("rollback")
        if to_time < self._committed_gvt:
            self._violate(
                "gvt_safety", t,
                f"{obj} (lp {lp}): rollback to virtual time {to_time!r} "
                f"below committed GVT {self._committed_gvt!r}",
            )

    # ------------------------------------------------------------------ #
    # arrivals vs the shard's safe bound
    # ------------------------------------------------------------------ #
    def on_arrival(
        self, t: float, lp: int, receiver: int, recv_time, bound
    ) -> None:
        self._check("lookahead_safety")
        if recv_time < bound:
            self._violate(
                "lookahead_safety", t,
                f"object {receiver} (lp {lp}): arrival at {recv_time!r} "
                f"below the safe bound {bound!r}",
            )

    # ------------------------------------------------------------------ #
    # GVT rounds
    # ------------------------------------------------------------------ #
    def on_gvt_estimate(self, t: float, estimate, committed) -> None:
        self._check("gvt_estimate")
        if estimate < self._committed_gvt:
            self._violate(
                "gvt_monotonic", t,
                f"GVT round estimated {estimate!r} below committed "
                f"GVT {self._committed_gvt!r}",
            )
        if estimate > self._committed_gvt:
            self._committed_gvt = estimate
            gvt = self._committed_gvt
            if self._snapshots:
                self._snapshots = {
                    key: entry
                    for key, entry in self._snapshots.items()
                    if entry[0].lvt >= gvt
                }

    # ------------------------------------------------------------------ #
    # wire conservation
    # ------------------------------------------------------------------ #
    def on_wire_check(self, t: float, network) -> None:
        self._wire_check(t, network.wire_counts())

    def _wire_check(self, t: float, counts: dict[str, int]) -> None:
        self._check("wire_check")
        if counts["sent"] != (
            counts["delivered"] + counts["lost"] + counts["in_flight"]
        ):
            self._violate(
                "wire_conservation", t,
                "sent != delivered + lost + in-flight: "
                f"{counts}",
            )

    # ------------------------------------------------------------------ #
    # end of run
    # ------------------------------------------------------------------ #
    def on_run_end(
        self, t: float, lps, counts: dict[str, int], undelivered_data: int
    ) -> None:
        """End-of-run checks over values, so any scheduler can call it:
        ``counts`` is a ``wire_counts()``-shaped dict (the modelled
        network's own, or the coordinator's global totals on a shard) and
        ``undelivered_data`` the DATA messages never handed to an LP."""
        self._wire_check(t, counts)
        self._check("wire_final")
        if counts["in_flight"]:
            self._violate(
                "wire_conservation", t,
                f"{counts['in_flight']} message(s) still in flight at end "
                "of run",
            )
        self._check("message_loss")
        if counts["lost"] or undelivered_data:
            self._violate(
                "message_loss", t,
                f"{counts['lost']} message(s) permanently lost and "
                f"{undelivered_data} DATA message(s) never "
                "delivered",
            )
        for lp in lps:
            self._check("anti_pairing")
            leftovers: list[str] = []
            for ctx in lp.members.values():
                pending = ctx.iq.pending_anti_count()
                if pending:
                    leftovers.append(
                        f"{ctx.obj.name}: {pending} unpaired anti-message(s)"
                    )
                live = ctx.cmp_buffer.min_live_time()
                if live is not None:
                    leftovers.append(
                        f"{ctx.obj.name}: live cancel-buffer entry at "
                        f"{live!r}"
                    )
            buffered = (
                lp.comm.buffered_event_count() if lp.comm is not None else 0
            )
            if buffered:
                leftovers.append(
                    f"{buffered} event(s) stranded in aggregation buffers"
                )
            if leftovers:
                self._violate(
                    "anti_pairing", t,
                    f"lp {lp.lp_id}: " + "; ".join(leftovers),
                )
