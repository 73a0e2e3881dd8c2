"""Property: aggregation re-times but never reorders, drops or duplicates.

DESIGN.md §6 "Aggregation transparency": per (source LP, destination LP)
channel, the sequence of application events delivered equals the
sequence enqueued, for any policy and any interleaving of enqueues,
wall-clock flushes and forced flushes — except events annihilated *in*
the buffer, which must vanish in matched positive/anti pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel, NetworkModel
from repro.comm.aggregation import FixedWindow, NoAggregation
from repro.comm.network import Network
from repro.comm.transport import CommModule
from repro.core.aggregation_controller import SAAWPolicy
from tests.helpers import TransportHost, make_event


@st.composite
def transport_scripts(draw):
    n = draw(st.integers(1, 30))
    ops = []
    for serial in range(n):
        ops.append(("send", serial, draw(st.integers(1, 3)),
                    draw(st.booleans())))
        if draw(st.booleans()):
            ops.append(("advance", draw(st.floats(1.0, 500.0)), None, None))
        if draw(st.integers(0, 9)) == 0:
            ops.append(("flush_due", None, None, None))
        if draw(st.integers(0, 9)) == 0:
            ops.append(("flush_all", None, None, None))
    policy_kind = draw(st.sampled_from(["none", "faw", "saaw"]))
    window = draw(st.floats(10.0, 1000.0))
    return ops, policy_kind, window


@given(transport_scripts())
@settings(max_examples=150)
def test_channel_sequences_preserved(script):
    ops, policy_kind, window = script
    policy = {
        "none": lambda: NoAggregation(),
        "faw": lambda: FixedWindow(window),
        "saaw": lambda: SAAWPolicy(initial_window_us=window),
    }[policy_kind]()

    host = TransportHost()
    delivered: list = []
    network = Network(
        NetworkModel(jitter=0.3),
        lambda dst, at, msg: delivered.append(msg),
    )
    comm = CommModule(host, network, CostModel(), policy)
    comm.set_routing({1: 1, 2: 2, 3: 3})

    enqueued: dict[int, list] = {1: [], 2: [], 3: []}
    annihilated: set = set()
    live_positive_serials: dict[int, set] = {1: set(), 2: set(), 3: set()}

    for op, a, b, c in ops:
        if op == "send":
            serial, dst, is_anti = a, b, c
            if is_anti and serial in live_positive_serials[dst]:
                # cancelling a positive we queued earlier on this channel
                event = make_event(receiver=dst, serial=serial).anti_message()
            elif is_anti:
                event = make_event(receiver=dst, serial=1000 + serial,
                                   sign=1).anti_message()
            else:
                event = make_event(receiver=dst, serial=serial)
                live_positive_serials[dst].add(serial)
            comm.enqueue(event)
            enqueued[dst].append(event)
        elif op == "advance":
            host.clock += a
            # run any due scheduled flushes, oldest first (the executive's
            # wall-clock ordering)
            for dst, at, gen in sorted(host.flushes):
                if at <= host.clock:
                    comm.flush_due(dst, gen)
            host.flushes = [f for f in host.flushes if f[1] > host.clock]
        elif op == "flush_due":
            for dst, at, gen in list(host.flushes):
                comm.flush_due(dst, gen)
        elif op == "flush_all":
            comm.flush_all()
    comm.flush_all()

    # reconstruct delivered per-channel sequences
    got: dict[int, list] = {1: [], 2: [], 3: []}
    for msg in delivered:
        got[msg.dst_lp].extend(msg.events)

    for dst in (1, 2, 3):
        sent = enqueued[dst]
        # remove in-buffer annihilated pairs: a positive directly followed
        # (in channel order) by its anti that hit the buffer never flies.
        # The surviving sequence must match exactly, in order.
        cancelled_ids = set()
        received_ids = {e.event_id() for e in got[dst]}
        for e in sent:
            if e.event_id() not in received_ids:
                cancelled_ids.add(e.event_id())
        survivors = [e for e in sent if e.event_id() not in cancelled_ids]
        assert got[dst] == survivors
        # annihilation only ever removes matched +/- pairs
        sign_sum: dict = {}
        for e in sent:
            if e.event_id() in cancelled_ids:
                sign_sum[e.event_id()] = sign_sum.get(e.event_id(), 0) + e.sign
        assert all(v == 0 for v in sign_sum.values())
