"""Differential fuzzing under network faults (docs/robustness.md).

The acceptance bar for the fault layer: 100 seeded plans mixing drops,
duplicates, delays and reorders, on both PHOLD and SMMP, every one
matching the sequential golden trace with zero oracle violations —
plus proof that the oracle *can* fail when recovery is disabled.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.transport import ReliableReceiver
from repro.faults import FaultRates
from repro.faults.fuzz import DEFAULT_RATES, fault_scenarios, make_plan
from repro.verify import run_scenario
from repro.verify.runner import run_and_report
from tests.helpers import PHOLD


def run_plan(plan):
    return run_scenario(PHOLD.with_(faults=plan.to_dict()), collect_trace_features=False)


def sweep(plans):
    cases = [
        run_scenario(scenario, collect_trace_features=False)
        for scenario in fault_scenarios(plans)
    ]
    assert all(c.ok for c in cases), [c.describe() for c in cases if not c.ok]
    return cases


class TestSweep:
    def test_smoke_sweep(self):
        cases = sweep(10)
        assert len(cases) == 20
        assert sum(c.raw["faults_injected"] for c in cases) > 0
        assert sum(c.raw["retransmissions"] for c in cases) > 0
        assert all(c.oracle_checks > 0 for c in cases)

    def test_acceptance_sweep_100_plans(self):
        # Both GVT estimators face every second plan (even = omniscient,
        # odd = mattern); every case must commit the golden trace.
        cases = sweep(100)
        assert len(cases) == 200
        assert all(c.trace_match is True for c in cases)
        by_gvt = {c.scenario.gvt_algorithm for c in cases}
        assert by_gvt == {"omniscient", "mattern"}

    def test_report_renders_failures(self, capsys):
        plan = make_plan(1, FaultRates(drop=0.15), retransmit=False)
        scenario = PHOLD.with_(faults=plan.to_dict())
        assert run_and_report([scenario], "faults", collect_trace_features=False) == 1
        out = capsys.readouterr().out
        assert "FAIL[violation:message_loss] phold" in out
        assert "'retransmit': False" in out  # the line names the plan
        assert "1 scenario(s), 1 failure(s)" in out
        assert out.rstrip().endswith("FAIL")


class TestOracleCanFail:
    def test_unrecovered_drop_is_detected(self):
        # Retransmission off: an injected drop is permanent and must be
        # *detected* — the acceptance criterion that proves the oracle
        # (and the differential check) can fail.
        case = run_plan(make_plan(1, FaultRates(drop=0.15), retransmit=False))
        assert not case.ok
        assert case.trace_match is False
        assert "message_loss" in case.violations

    def test_reordering_alone_is_absorbed_by_rollback(self):
        # Time Warp's whole premise: out-of-order arrival is not a fault
        # the application can observe — rollback repairs it.
        plan = make_plan(
            2, FaultRates(duplicate=0.2, reorder=0.3), retransmit=False
        )
        case = run_plan(plan)
        assert case.ok, case.describe()


class TestDefaultRates:
    def test_sweep_rates_meet_the_acceptance_bar(self):
        assert DEFAULT_RATES.drop > 0
        assert DEFAULT_RATES.duplicate > 0
        assert DEFAULT_RATES.reorder > 0


@st.composite
def wire_schedules(draw):
    """An arbitrary arrival schedule: a shuffled, duplicated prefix of
    sequence numbers 0..n-1 as the wire might present them."""
    n = draw(st.integers(min_value=1, max_value=12))
    seqs = list(range(n))
    arrivals = draw(st.permutations(seqs))
    extra = draw(st.lists(st.sampled_from(seqs), max_size=8))
    interleaved = draw(st.permutations(list(arrivals) + extra))
    return n, interleaved


class TestReceiverProperties:
    @given(wire_schedules())
    @settings(max_examples=200, deadline=None)
    def test_ordered_receiver_releases_in_sequence_exactly_once(self, case):
        n, arrivals = case
        receiver = ReliableReceiver(ordered=True)
        released = []
        for seq in arrivals:
            ready = receiver.accept(seq, f"m{seq}")
            if ready is not None:
                released.extend(ready)
        assert released == [f"m{i}" for i in range(n)]
        assert receiver.held_count() == 0
        assert receiver.cumulative_ack() == n - 1

    @given(wire_schedules())
    @settings(max_examples=200, deadline=None)
    def test_unordered_receiver_dedups_in_arrival_order(self, case):
        n, arrivals = case
        receiver = ReliableReceiver(ordered=False)
        released = []
        for seq in arrivals:
            ready = receiver.accept(seq, f"m{seq}")
            if ready is not None:
                released.extend(ready)
        first_sight = list(dict.fromkeys(arrivals))
        assert released == [f"m{s}" for s in first_sight]
        assert sorted(released) == sorted(f"m{i}" for i in range(n))
