"""Property-based tests for the core data structures (hypothesis)."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import pick, token_hash, uniform
from repro.cluster.costmodel import NetworkModel
from repro.comm.message import MessageKind, PhysicalMessage
from repro.comm.network import Network
from repro.core.filters import SampleWindow
from repro.core.thresholding import DeadZoneThreshold
from repro.kernel.event import payload_size_bytes
from repro.kernel.queues import InputQueue, PendingQueue
from tests.helpers import make_event

# --------------------------------------------------------------------- #
# events
# --------------------------------------------------------------------- #
events_strategy = st.builds(
    make_event,
    sender=st.integers(0, 5),
    receiver=st.integers(0, 5),
    send_time=st.floats(0, 100, allow_nan=False),
    recv_time=st.floats(0, 100, allow_nan=False),
    serial=st.integers(0, 10_000),
)


@given(st.lists(events_strategy, min_size=2, max_size=20))
def test_event_key_total_order(events):
    keys = [e.key() for e in events]
    assert sorted(keys) == sorted(sorted(keys))  # sorting is stable/consistent
    for a in keys:
        for b in keys:
            assert (a < b) + (b < a) + (a == b) >= 1


@given(events_strategy)
def test_anti_message_involution_properties(event):
    anti = event.anti_message()
    assert anti.key()[0] == event.key()[0]
    assert anti.event_id() == event.event_id()
    assert anti.size_bytes() <= event.size_bytes()


payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=20), st.binary(max_size=20)),
    lambda children: st.tuples(children, children),
    max_leaves=10,
)


@given(payloads)
def test_payload_size_is_non_negative(payload):
    assert payload_size_bytes(payload) >= 0


@given(payloads, payloads)
def test_payload_size_additive_over_tuples(a, b):
    assert payload_size_bytes((a, b)) == payload_size_bytes(a) + payload_size_bytes(b)


# --------------------------------------------------------------------- #
# input queue vs a naive reference model
# --------------------------------------------------------------------- #
@st.composite
def queue_scripts(draw):
    """A random interleaving of inserts, pops, antis and rollbacks."""
    n = draw(st.integers(3, 25))
    events = [
        make_event(recv_time=draw(st.floats(0, 100, allow_nan=False)), serial=i)
        for i in range(n)
    ]
    script = []
    for event in events:
        script.append(("insert", event))
    extra = draw(st.lists(
        st.sampled_from(["pop", "anti", "rollback"]), max_size=15))
    for op in extra:
        script.append((op, draw(st.integers(0, n - 1))))
    draw(st.randoms()).shuffle(script)
    return events, script


@given(queue_scripts())
@settings(max_examples=200)
def test_input_queue_matches_reference(script_data):
    events, script = script_data
    pending = PendingQueue()  # the future side, LP-wide
    q = InputQueue(pending)  # the processed side
    # reference model: sets of pending / processed / annihilated ids
    inserted, processed, cancelled = set(), [], set()

    def reference_rollback(key):
        rolled = q.rollback(key)
        assert rolled == [e for e in processed if e.key() >= key]
        processed[:] = [e for e in processed if e.key() < key]

    for op, arg in script:
        if op == "insert":
            event = arg
            # Mirror the LP delivery protocol: stragglers roll back first.
            if processed and event.key() < processed[-1].key():
                reference_rollback(event.key())
            if q.insert_positive(event):
                inserted.add(event.event_id())
            else:
                cancelled.add(event.event_id())
        elif op == "pop":
            expected = sorted(
                (e for e in events
                 if e.event_id() in inserted
                 and e.event_id() not in cancelled
                 and e not in processed),
                key=lambda e: e.key(),
            )
            if expected:
                got = pending.pop()
                q.mark_processed(got)
                assert got is expected[0]
                processed.append(got)
            else:
                assert pending.peek() is None
        elif op == "anti":
            event = events[arg]
            eid = event.event_id()
            if eid in cancelled:
                continue
            result = q.insert_anti(event.anti_message())
            if event in processed:
                # The LP's _handle_anti path: roll back to the positive,
                # then re-deliver the anti so the pair annihilates.
                assert result is event
                reference_rollback(event.key())
                again = q.insert_anti(event.anti_message())
                assert again is None
                cancelled.add(eid)
            else:
                assert result is None
                cancelled.add(eid)
        elif op == "rollback":
            reference_rollback(events[arg].key())

    # drain and compare the full surviving order
    remaining = sorted(
        (e for e in events
         if e.event_id() in inserted and e.event_id() not in cancelled
         and e not in processed),
        key=lambda e: e.key(),
    )
    drained = []
    while pending.peek() is not None:
        drained.append(pending.pop())
    assert drained == remaining


# --------------------------------------------------------------------- #
# filters and thresholds vs reference
# --------------------------------------------------------------------- #
@given(st.lists(st.booleans(), max_size=200), st.integers(1, 32))
def test_sample_window_matches_reference(samples, depth):
    window = SampleWindow(depth)
    for s in samples:
        window.record(s)
    tail = samples[-depth:]
    assert window.ratio() == sum(tail) / depth
    streak = 0
    for s in reversed(samples):
        if s:
            break
        streak += 1
    assert window.consecutive_false == streak


@given(
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
    st.lists(st.floats(-0.5, 1.5, allow_nan=False), max_size=100),
)
def test_dead_zone_threshold_reference(a, b, values):
    lower, upper = min(a, b), max(a, b)
    t = DeadZoneThreshold(lower, upper, low=0, high=1, initial=0)
    state = 0
    for v in values:
        if v > upper:
            state = 1
        elif v < lower:
            state = 0
        assert t.update(v) == state


# --------------------------------------------------------------------- #
# hashing
# --------------------------------------------------------------------- #
@given(st.lists(st.integers(0, 2**63), min_size=1, max_size=6))
def test_token_hash_stable_and_bounded(parts):
    h = token_hash(*parts)
    assert h == token_hash(*parts)
    assert 0 <= h < 2**64
    assert 0 <= pick(h, 17) < 17
    x = uniform(h, -3.0, 4.0)
    assert -3.0 <= x < 4.0


# --------------------------------------------------------------------- #
# network FIFO
# --------------------------------------------------------------------- #
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2),
                  st.floats(0, 1000, allow_nan=False)),
        min_size=1, max_size=40,
    ),
    st.floats(0, 0.9, allow_nan=False),
)
def test_network_fifo_per_channel(sends, jitter):
    deliveries = []
    net = Network(NetworkModel(jitter=jitter),
                  lambda dst, at, msg: deliveries.append((msg.src_lp, dst, at)))
    clock = 0.0
    for src, dst, advance in sends:
        clock += advance
        net.send(
            PhysicalMessage(src, dst, MessageKind.DATA, events=(make_event(),)),
            clock,
        )
    by_channel = {}
    for src, dst, at in deliveries:
        by_channel.setdefault((src, dst), []).append(at)
    for arrivals in by_channel.values():
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)
