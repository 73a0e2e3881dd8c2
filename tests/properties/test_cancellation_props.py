"""Property tests for the comparison buffer and the conservative kernel.

The comparison buffer is the trickiest small structure in the kernel
(content-indexed matching + key-ordered expiry with tombstones); it is
checked against a brute-force reference over random park/match/expire
scripts.  The conservative kernel is checked for sequential equivalence
over random PHOLD topologies and lookahead choices.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SequentialSimulation, SimulationConfig
from repro.apps.phold import PHOLDParams, build_phold
from repro.conservative import ConservativeSimulation
from repro.kernel.cancellation import ComparisonBuffer
from repro.kernel.event import SentRecord
from tests.helpers import flatten, make_event


# --------------------------------------------------------------------- #
# comparison buffer vs reference
# --------------------------------------------------------------------- #
@st.composite
def buffer_scripts(draw):
    n = draw(st.integers(1, 20))
    ops = []
    for serial in range(n):
        payload = draw(st.sampled_from(["p", "q", "r"]))
        recv = draw(st.sampled_from([10.0, 20.0, 30.0]))
        cause = draw(st.floats(0.0, 50.0))
        lazy = draw(st.booleans())
        ops.append(("park", serial, payload, recv, cause, lazy))
        if draw(st.booleans()):
            ops.append(("match", None, draw(st.sampled_from(["p", "q", "r"])),
                        draw(st.sampled_from([10.0, 20.0, 30.0])), None, None))
        if draw(st.integers(0, 4)) == 0:
            ops.append(("expire", None, None, None,
                        draw(st.floats(0.0, 50.0)), None))
    return ops


@given(buffer_scripts())
@settings(max_examples=200)
def test_comparison_buffer_matches_reference(ops):
    buf = ComparisonBuffer()
    # reference: list of live entries in insertion order
    reference: list[dict] = []

    for op, serial, payload, recv, cause, lazy in ops:
        if op == "park":
            event = make_event(recv_time=recv, payload=payload, serial=serial)
            cause_key = make_event(recv_time=cause, serial=10_000 + serial).key()
            record = SentRecord(event=event, cause_key=cause_key)
            buf.park(record, lazy=lazy)
            reference.append({"record": record, "lazy": lazy,
                              "content": event.content(),
                              "cause_key": cause_key, "live": True,
                              "seq": len(reference)})
        elif op == "match":
            probe = make_event(recv_time=recv, payload=payload, serial=77_777)
            got = buf.match(probe)
            expected = next(
                (e for e in reference
                 if e["live"] and e["content"] == probe.content()), None
            )
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.record is expected["record"]
                expected["live"] = False
        elif op == "expire":
            limit = make_event(recv_time=cause, serial=88_888).key()
            expired = buf.expire_through(limit)
            expected = sorted(
                (e for e in reference
                 if e["live"] and e["cause_key"] <= limit),
                key=lambda e: (e["cause_key"], e["seq"]),
            )
            assert [x.record for x in expired] == [e["record"] for e in expected]
            for e in expected:
                e["live"] = False

    # drain: everything still live expires exactly once, in cause order
    remaining = buf.expire_all()
    live = [e for e in reference if e["live"]]
    live.sort(key=lambda e: e["cause_key"])
    got_records = sorted((x.record for x in remaining),
                         key=lambda r: r.cause_key)
    assert got_records == [e["record"] for e in live]
    # min_live_time agrees with the reference before drain is empty
    assert buf.min_live_time() is None


# --------------------------------------------------------------------- #
# conservative kernel equivalence
# --------------------------------------------------------------------- #
@given(
    n_objects=st.integers(4, 12),
    n_lps=st.integers(2, 4),
    min_delay=st.floats(4.0, 20.0),
    seed=st.integers(0, 500),
    skew=st.floats(1.0, 2.5),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_conservative_matches_sequential(n_objects, n_lps, min_delay, seed,
                                         skew):
    params = PHOLDParams(
        n_objects=n_objects, n_lps=min(n_lps, n_objects),
        jobs_per_object=2, min_delay=min_delay,
        max_delay=min_delay * 4, seed=seed,
    )
    end = 600.0
    seq = SequentialSimulation(flatten(build_phold(params)), end_time=end,
                               record_trace=True)
    seq.run()
    cons = ConservativeSimulation(
        build_phold(params),
        SimulationConfig(end_time=end, record_trace=True,
                         lp_speed_factors={1: skew}),
    )
    cons.run()
    assert cons.sorted_trace() == seq.sorted_trace()
