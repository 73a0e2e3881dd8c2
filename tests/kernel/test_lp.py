"""LP-level tests: rollback, coast-forward, cancellation mechanics.

These tests drive a :class:`LogicalProcess` directly, injecting crafted
events so the exact rollback behaviour can be asserted — no executive, no
network, deterministic by construction.
"""

from dataclasses import dataclass, field

import pytest

from repro.cluster.costmodel import CostModel
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.event import Event
from repro.kernel.lp import LogicalProcess
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState


@dataclass
class LogState(RecordState):
    seen: list = field(default_factory=list)
    counter: int = 0


class Recorder(SimulationObject):
    """Processes (tag, value) payloads; optionally forwards to a peer.

    Payload forms:
      ("note", v)        -- record v
      ("fwd", v, dest)   -- record v and send ("note", v) to dest at +10
      ("ctr", v)         -- record (v, counter) and bump counter
                            (order-sensitive output for lazy-miss tests)
      ("ctrfwd", v, dst) -- order-sensitive forward: payload includes the
                            counter, so regenerated sends differ after a
                            straggler reorders execution
    """

    def initial_state(self) -> LogState:
        return LogState()

    def execute_process(self, payload):
        state: LogState = self.state
        tag = payload[0]
        if tag == "note":
            state.seen.append(payload[1])
        elif tag == "fwd":
            state.seen.append(payload[1])
            self.send_event(payload[2], 10.0, ("note", payload[1]))
        elif tag == "ctr":
            state.seen.append((payload[1], state.counter))
            state.counter += 1
        elif tag == "ctrfwd":
            state.seen.append(payload[1])
            self.send_event(payload[2], 10.0, ("note", (payload[1], state.counter)))
            state.counter += 1
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown payload {payload!r}")


def build_lp(names=("a", "b"), chi=1, mode=Mode.AGGRESSIVE, monitor=False):
    name_to_oid = {name: i for i, name in enumerate(names)}
    lp = LogicalProcess(
        0,
        CostModel(),
        resolve_name=name_to_oid.__getitem__,
        lp_of=lambda oid: 0,
    )
    objs = {}
    for name, oid in name_to_oid.items():
        obj = Recorder(name)
        lp.attach(
            obj,
            oid,
            cancel_policy=StaticCancellation(mode, monitor=monitor),
            ckpt_policy=StaticCheckpoint(chi),
        )
        objs[name] = obj
    lp.initialize()
    return lp, objs, name_to_oid


EXTERNAL = 99  # a sender id for injected events (never resolved locally)
_serial = iter(range(10_000, 99_999))


def inject(lp, receiver_oid, recv_time, payload, send_time=None):
    event = Event(
        sender=EXTERNAL,
        receiver=receiver_oid,
        send_time=recv_time - 1.0 if send_time is None else send_time,
        recv_time=recv_time,
        payload=payload,
        serial=next(_serial),
    )
    lp.deliver_event(event)
    return event


def drain(lp):
    while lp.execute_one():
        pass


class TestForwardExecution:
    def test_events_execute_in_key_order_across_objects(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["b"], 3.0, ("note", "b3"))
        inject(lp, ids["a"], 1.0, ("note", "a1"))
        inject(lp, ids["a"], 2.0, ("note", "a2"))
        drain(lp)
        assert objs["a"].state.seen == ["a1", "a2"]
        assert objs["b"].state.seen == ["b3"]

    def test_clock_advances_with_work(self):
        lp, _, ids = build_lp()
        inject(lp, ids["a"], 1.0, ("note", 1))
        before = lp.clock
        drain(lp)
        assert lp.clock > before

    def test_intra_lp_send_delivered(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 1.0, ("fwd", "x", "b"))
        drain(lp)
        assert objs["b"].state.seen == ["x"]


class TestRollback:
    def test_straggler_restores_order(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 10.0, ("note", "late"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", "early"))
        drain(lp)
        assert objs["a"].state.seen == ["early", "late"]
        ctx = lp.members[ids["a"]]
        assert ctx.stats.rollbacks == 1
        assert ctx.stats.primary_rollbacks == 1

    def test_order_sensitive_state_is_repaired(self):
        lp, objs, ids = build_lp()
        for t in (10.0, 20.0, 30.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        inject(lp, ids["a"], 15.0, ("ctr", 15.0))
        drain(lp)
        assert objs["a"].state.seen == [
            (10.0, 0), (15.0, 1), (20.0, 2), (30.0, 3)
        ]

    def test_rollback_counts_rolled_events(self):
        lp, objs, ids = build_lp()
        for t in (10.0, 20.0, 30.0):
            inject(lp, ids["a"], t, ("note", t))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", 5.0))
        drain(lp)
        assert lp.members[ids["a"]].stats.events_rolled_back == 3

    def test_coast_forward_with_sparse_checkpoints(self):
        lp, objs, ids = build_lp(chi=3)
        for t in (10.0, 20.0, 30.0, 40.0, 50.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        # Straggler at 45: restore must go back to the chi=3 snapshot
        # (after event at 30) and coast through 40.
        inject(lp, ids["a"], 45.0, ("ctr", 45.0))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.stats.coast_forward_events == 1
        assert objs["a"].state.seen == [
            (10.0, 0), (20.0, 1), (30.0, 2), (40.0, 3), (45.0, 4), (50.0, 5)
        ]

    def test_coast_forward_does_not_resend(self):
        lp, objs, ids = build_lp(chi=4)
        for t in (10.0, 20.0, 30.0):
            inject(lp, ids["a"], t, ("fwd", t, "b"))
        drain(lp)
        assert objs["b"].state.seen == [10.0, 20.0, 30.0]
        # Straggler before 30 forces a coast through 10 and 20; their
        # sends must not be duplicated at b.
        inject(lp, ids["a"], 25.0, ("note", "x"))
        drain(lp)
        assert sorted(objs["b"].state.seen) == [10.0, 20.0, 30.0]


class TestAggressiveCancellation:
    def test_undone_sends_are_cancelled(self):
        lp, objs, ids = build_lp(mode=Mode.AGGRESSIVE)
        inject(lp, ids["a"], 10.0, ("fwd", "v1", "b"))
        drain(lp)
        assert objs["b"].state.seen == ["v1"]
        # Straggler at a before 10 -> a re-executes fwd and resends; the
        # anti cancels the first copy, so b must see v1 exactly once (the
        # resent copy) plus nothing else.
        inject(lp, ids["a"], 5.0, ("note", "s"))
        drain(lp)
        assert objs["b"].state.seen == ["v1"]
        assert lp.members[ids["a"]].stats.antis_sent == 1

    def test_anti_cascades_roll_back_receiver(self):
        lp, objs, ids = build_lp(mode=Mode.AGGRESSIVE)
        inject(lp, ids["a"], 10.0, ("ctrfwd", "v", "b"))
        drain(lp)
        assert objs["b"].state.seen == [("v", 0)]
        inject(lp, ids["a"], 5.0, ("ctrfwd", "u", "b"))
        drain(lp)
        # Order-sensitive payload: after repair b sees u with counter 0
        # and v with counter 1.
        assert objs["b"].state.seen == [("u", 0), ("v", 1)]
        assert lp.members[ids["b"]].stats.secondary_rollbacks >= 1


class TestLazyCancellation:
    def test_identical_regeneration_is_suppressed(self):
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("fwd", "v1", "b"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", "s"))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.stats.lazy_hits == 1
        assert ctx.stats.antis_sent == 0
        assert ctx.stats.sends_suppressed == 1
        assert objs["b"].state.seen == ["v1"]

    def test_divergent_regeneration_cancels_original(self):
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("ctrfwd", "v", "b"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("ctrfwd", "u", "b"))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.stats.lazy_misses >= 1
        assert ctx.stats.antis_sent >= 1
        assert objs["b"].state.seen == [("u", 0), ("v", 1)]

    def test_idle_expiry_resolves_dangling_entries(self):
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        event = inject(lp, ids["a"], 10.0, ("fwd", "v1", "b"))
        drain(lp)
        # Annihilate the cause event: a rolls back, parks the send, and
        # the cause will never re-execute.
        lp.deliver_event(event.anti_message())
        drain(lp)
        lp.on_idle()
        ctx = lp.members[ids["a"]]
        assert ctx.stats.lazy_misses == 1
        assert ctx.stats.antis_sent == 1
        assert objs["b"].state.seen == []


class TestAntiMessageHandling:
    def test_anti_for_unprocessed_annihilates_silently(self):
        lp, objs, ids = build_lp()
        event = inject(lp, ids["a"], 50.0, ("note", "x"))
        lp.deliver_event(event.anti_message())
        drain(lp)
        assert objs["a"].state.seen == []
        assert lp.members[ids["a"]].stats.rollbacks == 0

    def test_anti_before_positive_annihilates_on_arrival(self):
        lp, objs, ids = build_lp()
        event = Event(sender=EXTERNAL, receiver=ids["a"], send_time=1.0,
                      recv_time=2.0, payload=("note", "x"), serial=424242)
        lp.deliver_event(event.anti_message())
        lp.deliver_event(event)
        drain(lp)
        assert objs["a"].state.seen == []

    def test_anti_for_processed_causes_secondary_rollback(self):
        lp, objs, ids = build_lp()
        event = inject(lp, ids["a"], 10.0, ("ctr", "x"))
        inject(lp, ids["a"], 20.0, ("ctr", "y"))
        drain(lp)
        lp.deliver_event(event.anti_message())
        drain(lp)
        assert objs["a"].state.seen == [("y", 0)]
        assert lp.members[ids["a"]].stats.secondary_rollbacks == 1


class TestFossilCollection:
    def test_commits_and_prunes(self):
        lp, objs, ids = build_lp(chi=2)
        for t in (10.0, 20.0, 30.0, 40.0):
            inject(lp, ids["a"], t, ("note", t))
        drain(lp)
        committed = lp.fossil_collect(35.0)
        ctx = lp.members[ids["a"]]
        assert committed >= 1
        assert ctx.stats.events_committed == committed
        # a snapshot at or below GVT must survive for future rollbacks
        assert ctx.sq.entries[0].lvt < 35.0 or ctx.sq.entries[0].last_key is None

    def test_rollback_still_possible_after_fossil(self):
        lp, objs, ids = build_lp(chi=2)
        for t in (10.0, 20.0, 30.0, 40.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        lp.fossil_collect(25.0)
        inject(lp, ids["a"], 27.0, ("ctr", 27.0))
        drain(lp)
        seen = objs["a"].state.seen
        assert seen[-3:] == [(27.0, 2), (30.0, 3), (40.0, 4)]

    def test_final_commit_flushes_everything(self):
        lp, objs, ids = build_lp()
        for t in (10.0, 20.0):
            inject(lp, ids["a"], t, ("note", t))
        drain(lp)
        committed = lp.fossil_collect(float("inf"), final=True)
        assert committed == 2
        assert lp.members[ids["a"]].iq.processed == []


class TestLocalMin:
    def test_reflects_unprocessed_events(self):
        lp, _, ids = build_lp()
        assert lp.local_min() == float("inf")
        inject(lp, ids["a"], 42.0, ("note", "x"))
        assert lp.local_min() == 42.0

    def test_reflects_pending_lazy_antis(self):
        lp, _, ids = build_lp(mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("fwd", "v", "b"))
        drain(lp)
        # b's event at 20 is unprocessed; roll a back so the send parks.
        inject(lp, ids["a"], 5.0, ("note", "s"))
        # before draining, a's pending lazy entry (recv 20) and the
        # unprocessed events bound local_min
        assert lp.local_min() <= 20.0


class TestOptimismBound:
    def test_next_work_respects_bound(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 10.0, ("note", "x"))
        inject(lp, ids["a"], 100.0, ("note", "y"))
        lp.optimism_bound = 50.0
        drain(lp)
        assert objs["a"].state.seen == ["x"]
        # the blocked event is still pending work for termination purposes
        assert not lp.has_work()
        assert lp.has_work(ignore_window=True)

    def test_raising_bound_unblocks(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 100.0, ("note", "y"))
        lp.optimism_bound = 50.0
        drain(lp)
        assert objs["a"].state.seen == []
        lp.optimism_bound = 200.0
        drain(lp)
        assert objs["a"].state.seen == ["y"]

    def test_end_time_still_wins(self):
        lp, objs, ids = build_lp()
        lp.end_time = 50.0
        lp.optimism_bound = 1_000.0
        inject(lp, ids["a"], 100.0, ("note", "beyond"))
        drain(lp)
        assert objs["a"].state.seen == []
        assert not lp.has_work(ignore_window=True)

    def test_idle_hook_expires_only_members_with_nothing_left_to_run(self):
        # window-blocked: the LP's earliest event is below the horizon, so
        # the idle hook must ask each member whether it still has one
        lp, _, ids = build_lp(names=("a", "b", "c"), mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("fwd", "v", "b"))
        c10 = inject(lp, ids["c"], 10.0, ("fwd", "w", "b"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", "s"))  # parks a's send
        c5 = inject(lp, ids["c"], 5.0, ("note", "t"))  # parks c's send
        for event in (c5, c10):  # c is left with nothing to run
            lp.deliver_event(event.anti_message())
        a, c = lp.members[ids["a"]], lp.members[ids["c"]]
        assert a.cmp_buffer.pending() and c.cmp_buffer.pending()
        lp.optimism_bound = 1.0
        assert lp.next_work() is None and lp.has_work(ignore_window=True)
        lp.on_idle()
        assert a.cmp_buffer.pending()  # a still runs at 5 and 10
        assert not c.cmp_buffer.pending()  # c's send can never be regenerated

    def test_idle_hook_sees_what_an_earlier_expiry_annihilated(self):
        # expiring a's comparison sends an anti-message to b at once; it
        # annihilates b's last pending event, so b must expire too
        lp, _, ids = build_lp(names=("a", "b", "c"), mode=Mode.LAZY)
        a10 = inject(lp, ids["a"], 10.0, ("fwd", "v", "b"))  # sends b@20
        b15 = inject(lp, ids["b"], 15.0, ("fwd", "w", "c"))  # sends c@25
        drain(lp)
        a5 = inject(lp, ids["a"], 5.0, ("note", "s"))  # parks a's send
        b12 = inject(lp, ids["b"], 12.0, ("note", "t"))  # parks b's send
        for event in (a5, a10, b12, b15):  # leaves b@20 alone pending
            lp.deliver_event(event.anti_message())
        a, b = lp.members[ids["a"]], lp.members[ids["b"]]
        assert a.cmp_buffer.pending() and b.cmp_buffer.pending()
        assert [e.recv_time for e in lp.pending.of(ids["b"])] == [20.0]
        lp.optimism_bound = 1.0
        assert lp.next_work() is None and lp.has_work(ignore_window=True)
        lp.on_idle()
        assert not a.cmp_buffer.pending()
        assert not lp.pending.of(ids["b"])  # b@20 annihilated
        assert not b.cmp_buffer.pending()


class TestRelease:
    def test_released_member_cannot_reach_its_old_hosts_queue(self):
        lp, _, ids = build_lp()
        inject(lp, ids["a"], 1.0, ("note", "a1"))
        lp.execute_one()
        inject(lp, ids["a"], 5.0, ("note", "a5"))
        b6 = inject(lp, ids["b"], 6.0, ("note", "b6"))
        ctx = lp.members[ids["a"]]
        lp.release(ctx)
        assert list(lp.pending.live.values()) == [b6]  # a's event left with it
        late = Event(EXTERNAL, ids["a"], 6.0, 7.0, ("note", "late"), next(_serial))
        with pytest.raises(AttributeError):
            ctx.iq.insert_positive(late)
        early = Event(EXTERNAL, ids["a"], 0.0, 0.5, ("note", "early"), next(_serial))
        with pytest.raises(AttributeError):
            ctx.iq.rollback(early.key())  # would re-queue a1 on the old host
        assert list(lp.pending.live.values()) == [b6]
        assert [e.recv_time for e in ctx.iq.processed] == [1.0]


class TestReceivePath:
    def test_receive_physical_charges_and_delivers(self):
        lp, objs, ids = build_lp()
        from repro.comm.message import MessageKind, PhysicalMessage
        from repro.gvt.mattern import ColourAgent
        from repro.kernel.event import Event

        events = tuple(
            Event(sender=EXTERNAL, receiver=ids["a"], send_time=0.0,
                  recv_time=float(t), payload=("note", t), serial=5000 + t)
            for t in (1, 2, 3)
        )
        lp.agent = ColourAgent()
        before = lp.clock
        lp.receive_physical(
            PhysicalMessage(1, 0, MessageKind.DATA, events, colour=2)
        )
        assert lp.clock > before
        assert lp.stats.physical_messages_received == 1
        assert lp.stats.remote_events_received == 3
        assert dict(lp.agent.recv_by_stamp) == {2: 1}  # its colour, counted
        drain(lp)
        assert objs["a"].state.seen == [1, 2, 3]

    def test_unknown_receiver_rejected(self):
        lp, _, _ = build_lp()
        from repro.kernel.errors import SchedulingError
        from repro.kernel.event import Event

        stray = Event(sender=EXTERNAL, receiver=999, send_time=0.0,
                      recv_time=1.0, payload=None, serial=1)
        import pytest

        with pytest.raises(SchedulingError):
            lp.deliver_event(stray)


def raise_bound(lp, bound, lazy=False):
    """What a parallel worker does before each event: raise the safe
    bound, then hold the commit bound below live lazy entries."""
    lp.safe_bound = bound
    lp.refresh_commit_bound(lazy)


def drain_below(lp, bound):
    """Drain ``lp`` with the worker's per-event refresh of the bounds."""
    while True:
        raise_bound(lp, bound, lazy=True)
        if not lp.execute_one():
            return


class TestCommitAtOnce:
    """Events below the LP's commit bound (docs/parallel.md, "Events no
    peer can undo"): executed without snapshot, send record or processed
    entry, and committed on the spot."""

    def test_safe_events_skip_history_and_commit(self):
        lp, objs, ids = build_lp()
        raise_bound(lp, 25.0)
        for t in (10.0, 20.0):
            inject(lp, ids["a"], t, ("fwd", t, "b"))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.iq.processed == []
        assert len(ctx.oq) == 0
        assert len(ctx.sq) == 1  # snapshot zero only
        assert ctx.stats.events_committed == ctx.stats.events_committed_at_once == 2
        # the forwarded notes at 20 and 30 straddle the bound
        b = lp.members[ids["b"]]
        assert b.stats.events_committed_at_once == 1
        assert [e.recv_time for e in b.iq.processed] == [30.0]

    def test_rollback_after_a_safe_streak_restores_the_transition_save(self):
        lp, objs, ids = build_lp(chi=10)
        raise_bound(lp, 25.0)
        for t in (10.0, 20.0, 30.0, 40.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        ctx = lp.members[ids["a"]]
        # the first event past the bound saved the state 10 and 20 left
        transition = ctx.sq.latest()
        assert transition.lvt == 20.0 and transition.event_count == 2
        assert transition.state.seen == [(10.0, 0), (20.0, 1)]
        assert [e.recv_time for e in ctx.iq.processed] == [30.0, 40.0]
        inject(lp, ids["a"], 35.0, ("ctr", 35.0))  # straggler above the bound
        drain(lp)
        # restored the transition save, coasted through 30 only
        assert ctx.stats.coast_forward_events == 1
        assert ctx.stats.state_restores == 1
        assert objs["a"].state.seen == [
            (10.0, 0), (20.0, 1), (30.0, 2), (35.0, 3), (40.0, 4)
        ]
        lp.fossil_collect(float("inf"), final=True)
        assert ctx.stats.events_committed == 5

    def test_arrival_below_the_bound_is_refused(self):
        from repro.kernel.errors import CausalityViolationError

        lp, _, ids = build_lp()
        lp.safe_bound = 25.0
        late = Event(sender=EXTERNAL, receiver=ids["a"], send_time=0.0,
                     recv_time=24.0, payload=("note", 24), serial=1)
        with pytest.raises(CausalityViolationError,
                           match=r"shard 0: event for object 0 at t=24.0 .*25.0"):
            lp.check_arrivals((late,))

    def test_oracle_counts_the_lookahead_check(self):
        from repro.oracle import InvariantOracle

        lp, objs, ids = build_lp()
        lp.oracle = InvariantOracle()
        lp.safe_bound = 5.0
        ok = Event(sender=EXTERNAL, receiver=ids["a"], send_time=0.0,
                   recv_time=6.0, payload=("note", 6), serial=2)
        lp.check_arrivals((ok,))
        assert lp.oracle.checks_by_kind["lookahead_safety"] == 1
        assert not lp.oracle.violations

    def test_dropping_the_bound_saves_unsaved_members(self):
        lp, objs, ids = build_lp(chi=10)
        raise_bound(lp, 25.0)
        inject(lp, ids["a"], 10.0, ("ctr", 10.0))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.unsaved_key is not None
        lp.drop_safe_bound()
        assert lp.safe_bound == lp.commit_bound == float("-inf")
        assert ctx.unsaved_key is None
        assert ctx.sq.latest().state.seen == [(10.0, 0)]

    def test_live_lazy_entry_holds_commits_below_it(self):
        # a's event at 10 sends b a note at 20; annihilating that event
        # parks the note as a live lazy entry, and a's next event lies
        # past 20.  The safe bound rises above 20, yet b's note must not
        # commit at once: a's next event expires the entry as a miss and
        # sends b the anti-message at 20.
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        cause = inject(lp, ids["a"], 10.0, ("fwd", "m", "b"))
        assert lp.execute_one()  # a runs; the note waits at b
        lp.deliver_event(cause.anti_message())
        inject(lp, ids["a"], 30.0, ("note", "later"))
        raise_bound(lp, 25.0, lazy=True)
        assert lp.commit_bound == 20.0  # held at the live entry
        drain_below(lp, 25.0)
        a, b = lp.members[ids["a"]], lp.members[ids["b"]]
        assert a.stats.lazy_misses == 1 and a.stats.antis_sent == 1
        assert b.stats.events_committed_at_once == 0
        assert b.stats.rollbacks == 1  # the note, undone by its anti
        assert b.iq.pending_anti_count() == 0
        assert objs["b"].state.seen == []
        assert objs["a"].state.seen == ["later"]
        # with the entry resolved, the commit bound is the safe bound
        raise_bound(lp, 25.0, lazy=True)
        assert lp.commit_bound == 25.0

    def test_fossil_bound_keeps_history_a_local_send_can_reach(self):
        # b ran ahead to 50 before the bound rose; a's event at 10 will
        # send b a straggler at 20, below the safe bound of 60
        lp, objs, ids = build_lp()
        inject(lp, ids["b"], 50.0, ("note", "late"))
        drain(lp)
        inject(lp, ids["a"], 10.0, ("fwd", "x", "b"))
        raise_bound(lp, 60.0)
        assert lp.fossil_bound() == 10.0  # the next event, not S
        lp.fossil_collect(lp.fossil_bound())
        drain_below(lp, 60.0)
        assert lp.members[ids["b"]].stats.rollbacks == 1
        assert objs["b"].state.seen == ["x", "late"]
