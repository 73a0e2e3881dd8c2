"""Tests for counters and reports."""

import pytest

from repro import SimulationConfig, StaticCancellation, Mode, TimeWarpSimulation
from repro.apps.raid import RAIDParams, build_raid
from repro.stats.counters import LPStats, ObjectStats, RunStats
from repro.stats.report import (
    _class_of,
    class_report,
    full_report,
    lp_report,
    per_class_breakdown,
)


class TestObjectStats:
    def test_merge_adds_counters(self):
        a = ObjectStats(events_executed=3, rollbacks=1, lazy_hits=2)
        b = ObjectStats(events_executed=4, rollbacks=2, comparisons=5)
        a.merge(b)
        assert a.events_executed == 7
        assert a.rollbacks == 3
        assert a.lazy_hits == 2
        assert a.comparisons == 5

    def test_hit_ratio(self):
        s = ObjectStats(lazy_hits=3, lazy_aggressive_hits=1, comparisons=8)
        assert s.hit_ratio == 0.5
        assert ObjectStats().hit_ratio == 0.0


class TestRunStats:
    def test_zero_division_guards(self):
        empty = RunStats()
        assert empty.committed_events_per_second == 0.0
        assert empty.efficiency == 0.0
        assert empty.rollback_frequency == 0.0

    def test_summary_fields(self):
        stats = RunStats(execution_time=2_000_000.0, committed_events=100,
                         executed_events=120, rollbacks=5)
        text = stats.summary()
        assert "time=2.000s" in text
        assert "committed=100" in text
        assert "efficiency=0.833" in text

    def test_fold_lp_adds_counters_maxes_peaks_keeps_every_key(self):
        """The one fold both drivers use (facade ``_finish``, backend
        ``_merge``): two hand-built LPs in, one run total out."""
        stats = RunStats()
        stats.fold_lp(
            0, 900.0,
            LPStats(gvt_rounds=3, peak_state_entries=7, peak_state_bytes=100,
                    peak_history_events=40),
            {"a": ObjectStats(events_committed=5, events_executed=8,
                              events_rolled_back=3, rollbacks=2, state_saves=8,
                              coast_forward_events=1, antis_sent=4,
                              lazy_hits=1, lazy_misses=2)},
        )
        stats.fold_lp(
            1, 400.0,
            LPStats(gvt_rounds=2, peak_state_entries=9, peak_state_bytes=60,
                    peak_history_events=41),
            {"b": ObjectStats(events_committed=10, events_executed=11,
                              events_rolled_back=1, rollbacks=1, state_saves=11,
                              coast_forward_events=2, antis_sent=1,
                              lazy_hits=3, lazy_misses=0),
             "c": ObjectStats(events_committed=1, events_executed=1)},
        )
        assert stats.execution_time == 900.0  # the makespan: max, not sum
        assert (stats.peak_state_entries, stats.peak_state_bytes,
                stats.peak_history_events) == (9, 100, 41)
        assert stats.gvt_rounds == 5
        assert stats.committed_events == 16
        assert stats.executed_events == 20
        assert stats.rolled_back_events == 4
        assert stats.rollbacks == 3
        assert stats.state_saves == 19
        assert stats.coast_forward_events == 3
        assert stats.antis_sent == 5
        assert (stats.lazy_hits, stats.lazy_misses) == (4, 2)
        assert set(stats.per_lp) == {0, 1}
        assert set(stats.per_object) == {"a", "b", "c"}
        assert stats.per_object["b"].events_committed == 10

    def test_to_dict_is_json_serializable(self):
        import json

        stats = RunStats(execution_time=1e6, committed_events=10,
                         executed_events=12)
        data = stats.to_dict()
        json.dumps(data)
        assert data["committed_events"] == 10
        assert "per_object" not in data

    def test_to_dict_with_breakdown(self):
        stats = RunStats()
        stats.per_object["x"] = ObjectStats(events_executed=3)
        stats.per_lp[0] = LPStats(gvt_rounds=2)
        data = stats.to_dict(include_breakdown=True)
        assert data["per_object"]["x"]["events_executed"] == 3
        assert data["per_lp"][0]["gvt_rounds"] == 2

    def test_to_dict_breakdown_includes_hit_ratio(self):
        # hit_ratio is a property, not a dataclass field, so the breakdown
        # has to compute it explicitly
        stats = RunStats()
        stats.per_object["x"] = ObjectStats(lazy_hits=3, comparisons=4)
        stats.per_object["y"] = ObjectStats()
        data = stats.to_dict(include_breakdown=True)
        assert data["per_object"]["x"]["hit_ratio"] == 0.75
        assert data["per_object"]["y"]["hit_ratio"] == 0.0


class TestClassOf:
    @pytest.mark.parametrize("name,cls", [
        ("disk-3", "disk"),
        ("bank-17", "bank"),
        ("gate", "gate"),
        ("multi-part-2", "multi-part"),
        ("odd-name-", "odd-name-"),
    ])
    def test_classification(self, name, cls):
        assert _class_of(name) == cls


class TestReports:
    @pytest.fixture(scope="class")
    def stats(self):
        config = SimulationConfig(
            cancellation=lambda o: StaticCancellation(Mode.LAZY),
            lp_speed_factors={1: 1.1, 2: 1.2, 3: 1.3},
        )
        sim = TimeWarpSimulation(build_raid(RAIDParams(requests_per_source=25)),
                                 config)
        return sim.run()

    def test_per_class_breakdown_totals(self, stats):
        classes = per_class_breakdown(stats)
        assert set(classes) == {"rsrc", "fork", "disk"}
        total = sum(c.events_committed for c in classes.values())
        assert total == stats.committed_events

    def test_class_report_renders(self, stats):
        text = class_report(stats)
        assert "disk" in text and "fork" in text
        assert len(text.splitlines()) == 2 + 3  # header + rule + 3 classes

    def test_lp_report_renders(self, stats):
        text = lp_report(stats)
        assert len(text.splitlines()) == 2 + 4  # header + rule + 4 LPs
        assert "%" in text

    def test_full_report(self, stats):
        text = full_report(stats, title="RAID run")
        assert text.startswith("RAID run")
        assert "Per object class" in text
        assert "Per logical process" in text

    def test_physical_message_accounting(self, stats):
        sent = sum(lp.physical_messages_sent for lp in stats.per_lp.values())
        received = sum(lp.physical_messages_received for lp in stats.per_lp.values())
        assert sent == stats.physical_messages
        assert received == sent  # everything sent was delivered
