"""Differential properties: ArrayInputQueue / EventArena vs the python path.

The numpy fast path's whole contract is *bit-identical behaviour*: the
array-backed queue must pop, annihilate, roll back and drain exactly like
the boxed-heap :class:`~repro.kernel.queues.InputQueue`, tie-breaks
included, and a full Time Warp run pinned to ``fastpath="numpy"`` must
commit the same trace as ``fastpath="python"``.  These tests hold the two
implementations against each other under hypothesis-driven interleavings.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.cluster.costmodel import CostModel
from repro.kernel.arena import ArrayInputQueue, EventArena, SOA_LAYOUT
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.lp import LogicalProcess
from repro.kernel.queues import InputQueue
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState
from tests.helpers import make_event

# Coarse time grid: EventKey ties on recv_time are frequent, so the
# (receiver, sender, send_time, serial) tie-breaks are genuinely exercised.
tie_times = st.sampled_from([0.0, 10.0, 10.0, 25.0, 50.0])


@st.composite
def queue_scripts(draw):
    """A random interleaving of inserts, batches, pops, antis, rollbacks."""
    n = draw(st.integers(3, 30))
    events = [
        make_event(
            sender=draw(st.integers(0, 3)),
            receiver=draw(st.integers(0, 3)),
            send_time=draw(st.sampled_from([0.0, 5.0, 10.0])),
            recv_time=draw(tie_times),
            serial=i,
        )
        for i in range(n)
    ]
    script = []
    i = 0
    while i < n:
        # mix single inserts with batch inserts of 2-4 events
        if draw(st.booleans()):
            script.append(("insert", [events[i]]))
            i += 1
        else:
            width = min(draw(st.integers(2, 4)), n - i)
            script.append(("insert", events[i:i + width]))
            i += width
    extra = draw(st.lists(
        st.sampled_from(["pop", "anti", "rollback"]), max_size=20))
    for op in extra:
        script.append((op, draw(st.integers(0, n - 1))))
    draw(st.randoms()).shuffle(script)
    return events, script


def _apply(q, events, op, arg):
    """Run one script step; return an observation tuple for comparison."""
    if op == "insert":
        if len(arg) == 1:
            # stragglers roll back first, as in the LP delivery protocol
            rolled = ()
            if q.processed and arg[0].key() < q.processed[-1].key():
                rolled = tuple(q.rollback(arg[0].key()))
            return ("insert", rolled, q.insert_positive(arg[0]))
        keys = [e.key() for e in arg]
        rolled = ()
        if q.processed and min(keys) < q.processed[-1].key():
            rolled = tuple(q.rollback(min(keys)))
        if isinstance(q, ArrayInputQueue):
            count = q.insert_batch(arg)
        else:
            count = sum(q.insert_positive(e) for e in arg)
        return ("batch", rolled, count)
    if op == "pop":
        if q.peek_next() is None:
            return ("pop", None)
        return ("pop", q.pop_next())
    if op == "anti":
        event = events[arg]
        hit = q.insert_anti(event.anti_message())
        if hit is not None:
            # processed hit: roll back and re-deliver, as the LP does
            rolled = tuple(q.rollback(event.key()))
            again = q.insert_anti(event.anti_message())
            return ("anti", hit, rolled, again)
        return ("anti", None)
    rolled = tuple(q.rollback(events[arg].key()))
    return ("rollback", rolled)


@given(queue_scripts())
@settings(max_examples=200, deadline=None)
def test_array_queue_matches_python_queue(script_data):
    events, script = script_data
    ref = InputQueue()
    arr = ArrayInputQueue(EventArena(capacity=4))  # tiny: forces growth

    for op, arg in script:
        assert _apply(ref, events, op, arg) == _apply(arr, events, op, arg)
        assert ref.head_key() == arr.head_key()
        assert sorted(ref.iter_future(), key=lambda e: e.key()) == \
            sorted(arr.iter_future(), key=lambda e: e.key())

    # drain and compare the full surviving order, tie-breaks included
    while ref.peek_next() is not None or arr.peek_next() is not None:
        assert ref.pop_next() == arr.pop_next()
    assert ref.processed == arr.processed


@given(queue_scripts())
@settings(max_examples=100, deadline=None)
def test_array_queue_matches_python_queue_through_compaction(script_data):
    """Same differential, but with compaction forced after every script
    step — remaps must preserve heap order and id indexing exactly."""
    events, script = script_data
    ref = InputQueue()
    arena = EventArena(capacity=4)
    arr = ArrayInputQueue(arena)

    for op, arg in script:
        assert _apply(ref, events, op, arg) == _apply(arr, events, op, arg)
        arena.compact()
        assert arena.live_count() == len(arr._future_ids)
    while ref.peek_next() is not None or arr.peek_next() is not None:
        assert ref.pop_next() == arr.pop_next()


@given(st.lists(
    st.tuples(st.integers(0, 3), st.floats(0, 100, allow_nan=False)),
    min_size=1, max_size=40,
))
def test_arena_round_trip_preserves_event_multiset(rows):
    """insert_columns -> annihilate some -> drain handles: the surviving
    multiset is exactly the inserted multiset minus the annihilated one."""
    events = [
        make_event(sender=sender, recv_time=recv, serial=i, payload=("p", i))
        for i, (sender, recv) in enumerate(rows)
    ]
    arena = EventArena(capacity=4)
    arena.insert_columns(
        np.array([e.sender for e in events], dtype="<u4"),
        np.array([e.receiver for e in events], dtype="<u4"),
        np.array([e.serial for e in events], dtype="<u8"),
        np.array([e.sign for e in events], dtype="<i1"),
        np.array([e.send_time for e in events], dtype="<f8"),
        np.array([e.recv_time for e in events], dtype="<f8"),
        [e.payload for e in events],
    )
    victims = events[::3]
    matched = arena.match_antis(
        [e.sender for e in victims], [e.serial for e in victims]
    )
    assert len(matched) == len(victims)
    for slot in matched:
        arena.kill(slot)

    arena.flush()  # kills are deferred; raw alive reads need a flush
    survivors = sorted(
        (arena.handle(s) for s in np.nonzero(arena.alive[:arena._n])[0]),
        key=lambda e: e.key(),
    )
    expected = sorted(
        (e for e in events if e not in victims), key=lambda e: e.key()
    )
    assert survivors == expected
    assert all(s.payload == e.payload for s, e in zip(survivors, expected))


def test_soa_layout_matches_event_scalar_fields():
    # the wire packs frames in this exact layout; a drifted field order
    # would corrupt insert_columns silently
    assert [attr for attr, _, _, _ in SOA_LAYOUT] == [
        "sender", "receiver", "serial", "sign", "send_time", "recv_time"
    ]


@pytest.mark.parametrize("app", ["phold", "raid"])
def test_fastpath_trace_is_byte_identical(app):
    """A full Time Warp run commits the exact same trace on both paths."""
    from repro.verify.scenario import APP_SPECS, Scenario
    from repro import TimeWarpSimulation

    traces = {}
    for fastpath in ("python", "numpy"):
        scenario = Scenario(
            app=app, fastpath=fastpath, cancellation="lazy", checkpoint=4
        )
        config = scenario.build_config(record_trace=True)
        sim = TimeWarpSimulation(scenario.build_partition(), config)
        sim.run()
        traces[fastpath] = sim.sorted_trace()
    assert traces["python"] == traces["numpy"]
    assert repr(traces["python"]).encode() == repr(traces["numpy"]).encode()


# --------------------------------------------------------------------- #
# both event stores behind the LP's schedule heap
# --------------------------------------------------------------------- #
class _Sink(SimulationObject):
    """Counts events; sends nothing, so a script fully decides the order."""

    def initial_state(self):
        return _Ticks()

    def execute_process(self, payload):
        self.state.ticks += 1


@dataclass
class _Ticks(RecordState):
    ticks: int = 0


def _sink_lp(fastpath, members=3):
    lp = LogicalProcess(
        0, CostModel(), resolve_name=int, lp_of=lambda oid: 0,
        fastpath=fastpath,
    )
    for oid in range(members):
        lp.attach(
            _Sink(str(oid)), oid,
            cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
            ckpt_policy=StaticCheckpoint(2),
        )
    lp.initialize()
    return lp


@st.composite
def lp_scripts(draw):
    """Deliveries (stragglers included), antis for earlier deliveries and
    execution bursts, in a random order."""
    n = draw(st.integers(3, 25))
    script = []
    for serial in range(n):
        event = make_event(
            sender=9, receiver=draw(st.integers(0, 2)),
            send_time=draw(st.sampled_from([0.0, 5.0])),
            recv_time=draw(tie_times), serial=serial,
        )
        script.append(("deliver", event))
        if draw(st.integers(0, 3)) == 0:
            script.append(("deliver", event.anti_message()))
    for _ in range(draw(st.integers(1, 12))):
        script.append(("execute", draw(st.integers(1, 4))))
    draw(st.randoms()).shuffle(script)
    return script


def _scan(lp):
    """What the per-member scan the schedule heap replaced would pick."""
    heads = [(ctx.iq.head_key(), ctx) for ctx in lp.members.values()]
    live = [(key, ctx) for key, ctx in heads if key is not None]
    return min(live, key=lambda pair: pair[0])[1] if live else None


@given(lp_scripts())
@settings(max_examples=200, deadline=None)
def test_lp_schedule_pops_both_stores_in_the_same_order(script):
    lps = {fastpath: _sink_lp(fastpath) for fastpath in ("python", "numpy")}
    executed = {fastpath: [] for fastpath in lps}
    for fastpath, lp in lps.items():
        for op, arg in script:
            if op == "deliver":
                lp.deliver_event(arg)
            else:
                for _ in range(arg):
                    ctx = lp.next_work()
                    assert ctx is _scan(lp)
                    if not lp.execute_one():
                        break
                    executed[fastpath].append(ctx.iq.processed[-1].key())
            # the schedule agrees with a fresh scan after every step
            assert lp.next_work() is _scan(lp)
            for ctx in lp.members.values():
                assert ctx.head_key == ctx.iq.head_key()
        while lp.execute_one():
            pass
    assert executed["python"] == executed["numpy"]
    assert lps["python"].clock == lps["numpy"].clock
    for oid, ctx in lps["python"].members.items():
        other = lps["numpy"].members[oid]
        assert ctx.iq.processed == other.iq.processed
        assert ctx.stats.rollbacks == other.stats.rollbacks
