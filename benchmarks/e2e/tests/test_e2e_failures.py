"""Failure accounting: a crashing rep is counted, described and survived."""

import json
import struct

import run
from reps import account, run_rep, series_summary, timed_series
from workloads import VerificationError


class _Stats:
    committed_events = 100
    committed_events_per_second = 5.0


class _Sim:
    def run(self):
        return _Stats()


class StubInstance:
    """A workload whose ``fail_on``-th constructions raise like the shm race."""

    seed = 1
    backend = "modelled"

    def __init__(self, fail_on=(), wrong_on=()):
        self.calls = 0
        self.fail_on, self.wrong_on = set(fail_on), set(wrong_on)

    def make(self, *, config=None, full=False):
        self.calls += 1
        if self.calls in self.fail_on:
            raise struct.error("unpack_from requires a buffer of at least 12 bytes")
        return _Sim()

    def verify(self, sim, stats):
        if self.calls in self.wrong_on:
            raise VerificationError("committed 99 != golden 100")


def test_a_crashing_rep_is_recorded_and_the_series_continues():
    stub = StubInstance(fail_on={2, 5})
    reps = timed_series([stub], seconds=0.0, min_reps=6)
    assert len(reps) == 6
    assert [r["probe_after_s"] for r in reps[:-1]] == [r["probe_before_s"] for r in reps[1:]]
    failed = [r for r in reps if not r["ok"]]
    assert len(failed) == 2
    for rec in failed:
        assert rec["error"].startswith("error: unpack_from requires a buffer")
        assert "test_e2e_failures.py" in rec["error"] and " in make" in rec["error"]
        assert rec["wrong"] is False
    assert series_summary(reps)["bench.reps"] == 4


def test_a_wrong_answer_is_a_failed_rep_marked_wrong():
    rec = run_rep(StubInstance(wrong_on={1}), model_rates={})
    assert not rec["ok"] and rec["wrong"] is True
    assert rec["error"].startswith("VerificationError: committed 99")


def test_a_modelled_rate_that_changes_between_reps_fails_the_rep():
    rates = {1: 4.0}  # an earlier rep of this instance reported 4.0, now 5.0
    rec = run_rep(StubInstance(), model_rates=rates)
    assert not rec["ok"] and rec["wrong"] is True


def _child_result(oks):
    """What the measure child returns for reps that went ``oks``."""
    rep = {"seed": 1, "wall_s": 0.5, "probe_before_s": 0.05, "probe_after_s": 0.05,
           "committed": 100}
    reps = [
        {**rep, "ok": True} if ok
        else {"seed": 1, "ok": False, "wrong": False, "error": "WorkerFailedError: x",
              "probe_before_s": 0.05, "probe_after_s": 0.05}
        for ok in oks
    ]
    metrics = {}
    if any(oks):
        metrics = {"events_per_ref_s": series_summary(reps)["events_per_ref_s"],
                   "peak_rss_mb": 40.0, "model_events_per_s": 5.0}
    return {"workload": "par_cross_2w", **account(reps), "metrics": metrics,
            "bench": {}, "provenance": {"fastpath": "python"}}


def test_run_reports_attempted_and_failed_and_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.3)
    monkeypatch.setattr(run, "run_child", lambda *a: _child_result([True, False, True]))
    assert run.main(["--workload", "par_cross_2w", "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    line = json.loads(out[-1])
    assert (line["attempted"], line["failed"], line["correct"]) == (3, 1, True)
    assert any("failed_rep WorkerFailedError" in text for text in out)


def test_run_exits_nonzero_only_without_a_successful_rep(monkeypatch, capsys):
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.3)
    monkeypatch.setattr(run, "run_child", lambda *a: _child_result([False, False]))
    assert run.main(["--workload", "par_cross_2w", "--seconds", "1"]) == 1
    assert not capsys.readouterr().out.splitlines()[-1].startswith("{")
