"""Tests for the process-sharded parallel backend (docs/parallel.md).

The expensive pieces — real worker processes, real pipes — run once per
app/worker-count through module-scoped fixtures; everything else
exercises construction, validation and dispatch without forking.
"""

import gc
import mmap
import multiprocessing
import os
import queue
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import SimulationConfig, TimeWarpSimulation, make_simulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import Player
from repro.comm.aggregation import FixedWindow
from repro.gvt.mattern import GvtStart, ShardReport
from repro.kernel.config import RUN_BY
from repro.kernel.errors import ConfigurationError
from repro.parallel import (
    GvtCoordinator,
    ParallelSimulation,
    WorkerFailedError,
    resolve_strategy,
)
from repro.parallel.ipc import MigrateDone, PauseEpoch, ShardDone, ShardError
from repro.verify import Scenario, run_scenario, sequential_golden
from tests.helpers import PHOLD, Mailbox, inspection_shard

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)


@pytest.fixture(scope="module")
def phold_2w():
    return run_scenario(PHOLD.with_(backend="parallel", workers=2))


@pytest.fixture(scope="module")
def smmp_2w():
    return run_scenario(Scenario(app="smmp", backend="parallel", workers=2))


@needs_fork
class TestDifferential:
    def test_phold_two_workers_matches_golden(self, phold_2w):
        assert phold_2w.ok, phold_2w.describe()
        assert phold_2w.committed == phold_2w.expected > 0
        assert phold_2w.digest_match  # per-object counts + final states
        assert phold_2w.mismatches == ()

    def test_phold_oracle_armed_and_clean(self, phold_2w):
        assert phold_2w.oracle_checks > 0
        assert phold_2w.violations == ()

    def test_smmp_two_workers_matches_golden(self, smmp_2w):
        assert smmp_2w.ok, smmp_2w.describe()
        assert smmp_2w.committed == smmp_2w.expected > 0

    def test_single_worker_matches_golden(self):
        result = run_scenario(PHOLD.with_(backend="parallel", workers=1))
        assert result.ok, result.describe()
        # one shard: nothing crosses a process boundary, nothing rolls back
        assert result.raw["stats"].rollbacks == 0

    def test_render_mentions_outcome(self, phold_2w):
        text = phold_2w.describe()
        assert text.startswith("PASS phold end_time=300.0 backend=parallel workers=2")
        assert "committed 167/167" in text
        assert "oracle check(s)" in text


@needs_fork
class TestEventDrivenTermination:
    """The coordinator's period wait ends when the last busy shard runs
    dry, so a run shorter than one GVT period no longer lasts a period."""

    PERIOD_US = 2_000_000.0

    @pytest.mark.parametrize(
        "workers, fallback", [(2, False), (2, True), (1, False)],
        ids=["shm", "queue", "one-worker"],
    )
    def test_run_does_not_wait_out_the_gvt_period(self, workers, fallback, request):
        if fallback:
            request.getfixturevalue("queue_wire")
        result = run_scenario(PHOLD.with_(
            backend="parallel", gvt_period=self.PERIOD_US, workers=workers
        ))
        assert result.ok, result.describe()
        assert result.committed == result.expected > 0
        # the first round always finds the fleet active, and the next one
        # used to start a full period later
        assert result.wall_s < self.PERIOD_US / 1e6, result.describe()


def test_importing_the_backend_does_not_import_the_harness():
    # keeps the harness off the e2e benchmark's import path (setup_s, peak_rss_mb)
    code = (
        "import repro.parallel, sys; print(sorted({'repro.verify', "
        "'repro.parallel.validate', 'repro.faults.fuzz'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_placed_parallel_set_up_imports_neither_numpy_nor_networkx():
    # a default run uses neither, and each import costs 0.1-0.2 s of setup_s
    code = (
        "import sys, repro, repro.apps, repro.parallel, repro.partition\n"
        "from repro.apps import PHOLDParams, build_phold\n"
        "params = PHOLDParams(n_objects=16, n_lps=2, locality=0.9, seed=5)\n"
        "config = repro.SimulationConfig(backend='parallel', workers=2, end_time=500)\n"
        "sim = repro.parallel.ParallelSimulation.from_builder(\n"
        "    lambda: build_phold(params), config)\n"
        "assert set(sim.assignment.values()) == {0, 1}\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_default_modelled_run_imports_no_subsystem_it_does_not_use():
    # a package names its exports and a subsystem is imported where it is
    # used (docs/architecture.md): none of these runs in a default run
    code = (
        "import sys\n"
        "from repro import SimulationConfig, TimeWarpSimulation\n"
        "from repro.apps import PHOLDParams, build_phold\n"
        "partition = build_phold(PHOLDParams(n_objects=8, n_lps=2, seed=5))\n"
        "stats = TimeWarpSimulation(partition, SimulationConfig(end_time=500)).run()\n"
        "assert stats.committed_events > 0\n"
        "unused = ('repro.faults', 'repro.trace.reader', 'repro.trace.schema',\n"
        "          'repro.control.meta', 'repro.kernel.migration',\n"
        "          'repro.conservative', 'repro.stats.report', 'repro.apps.raid',\n"
        "          'repro.apps.logic', 'repro.apps.pingpong', 'repro.bench.figures')\n"
        "print(sorted(m for m in sys.modules if m.startswith(unused)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@needs_fork
def test_a_ring_wired_run_loads_no_hashlib():
    # multiprocessing.shared_memory imports secrets, hence hashlib and
    # libcrypto: 3.4 MiB resident in every process (docs/parallel.md)
    code = (
        "import sys, repro\n"
        "from repro.apps import PHOLDParams, build_phold\n"
        "from repro.parallel import ParallelSimulation\n"
        "params = PHOLDParams(n_objects=16, n_lps=2, locality=0.9, seed=5)\n"
        "config = repro.SimulationConfig(backend='parallel', workers=2, end_time=200)\n"
        "ParallelSimulation.from_builder(lambda: build_phold(params), config).run()\n"
        "loaded = {'hashlib', 'secrets', 'multiprocessing.shared_memory'}\n"
        "print(sorted(loaded & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@needs_fork
class TestDirectConstruction:
    def test_make_simulation_run_and_run_once(self):
        config = SimulationConfig(
            backend="parallel", workers=2, end_time=PHOLD.end_time
        )
        sim = make_simulation(PHOLD.build_partition(), config)
        assert isinstance(sim, ParallelSimulation)
        stats = sim.run()
        assert stats.committed_events == sequential_golden(PHOLD).committed
        with pytest.raises(ConfigurationError, match="only run once"):
            sim.run()


class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SimulationConfig(backend="distributed").validate()

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SimulationConfig(backend="parallel", workers=0).validate()

    @pytest.mark.parametrize("kwargs,name", [
        ({"record_trace": True}, "record_trace"),
        ({"time_window": 100.0}, "time_window"),
        pytest.param(
            {"script": {"steps": [{"at": 1, "kind": "set",
                                   "knob": "time_window", "value": 50.0}]}},
            "'parallel' does not run step kind 'set'", id="kwargs2-set_step",
        ),
    ])
    def test_modelled_only_features_rejected(self, kwargs, name):
        config = SimulationConfig(backend="parallel", workers=2, **kwargs)
        with pytest.raises(ConfigurationError, match=name):
            config.validate()

    def test_docs_table_lists_exactly_what_validate_refuses(self):
        text = (Path(__file__).parents[2] / "docs/parallel.md").read_text(encoding="utf-8")
        section = text.split("## What the backend does not support")[1].split("\n## ")[0]
        refused = tuple(name for name, drivers in RUN_BY.items() if "parallel" not in drivers)
        assert tuple(re.findall(r"^\| `(\w+)` \|", section, re.M)) == refused

    def test_modelled_backend_unchanged(self):
        sim = make_simulation(PHOLD.build_partition(), SimulationConfig())
        assert isinstance(sim, TimeWarpSimulation)


class TestSharding:
    def _partition(self):
        return PHOLD.build_partition()

    def _names(self, partition):
        return [obj.name for group in partition for obj in group]

    def test_shard_map_places_objects(self):
        partition = self._partition()
        names = self._names(partition)
        shard_map = {name: i % 2 for i, name in enumerate(names)}
        sim = ParallelSimulation(
            partition, SimulationConfig(backend="parallel", workers=2),
            shard_map=shard_map,
        )
        for name, shard in shard_map.items():
            assert sim.shard_of(name) == shard

    def test_shard_map_missing_object_rejected(self):
        partition = self._partition()
        with pytest.raises(ConfigurationError, match="missing object"):
            ParallelSimulation(
                partition, SimulationConfig(backend="parallel", workers=2),
                shard_map={},
            )

    def test_shard_map_out_of_range_rejected(self):
        partition = self._partition()
        shard_map = dict.fromkeys(self._names(partition), 5)
        with pytest.raises(ConfigurationError, match="workers=2"):
            ParallelSimulation(
                partition, SimulationConfig(backend="parallel", workers=2),
                shard_map=shard_map,
            )

    def test_empty_shard_rejected(self):
        partition = self._partition()
        shard_map = dict.fromkeys(self._names(partition), 0)
        with pytest.raises(ConfigurationError, match="no objects"):
            ParallelSimulation(
                partition, SimulationConfig(backend="parallel", workers=2),
                shard_map=shard_map,
            )

    def test_empty_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ParallelSimulation(
                [[]], SimulationConfig(backend="parallel", workers=1)
            )

    def test_groups_fold_round_robin_when_counts_differ(self):
        # 3 modelled-LP groups onto 2 workers: groups 0,2 -> shard 0
        partition = self._partition()
        assert len(partition) == 3
        sim = ParallelSimulation(
            partition, SimulationConfig(backend="parallel", workers=2)
        )
        for group_index, group in enumerate(partition):
            for obj in group:
                assert sim.shard_of(obj.name) == group_index % 2


class TestResolveStrategy:
    def test_names_resolve(self):
        for name in ("round_robin", "greedy_growth", "kernighan_lin"):
            assert callable(resolve_strategy(name))

    def test_callable_passes_through(self):
        def custom(graph, n_lps):
            return {}

        assert resolve_strategy(custom) is custom

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown partition"):
            resolve_strategy("metis")


class _FakeProcess:
    """What ``collect`` reads of a worker ``Process``: its name and its
    exit code (``None`` while it runs)."""

    def __init__(self, name, exitcode):
        self.name, self.exitcode = name, exitcode

    def is_alive(self):
        return self.exitcode is None


def _report(shard, pass_no, total):
    """A quiet shard's cut for pass ``pass_no`` of round 1."""
    return ShardReport(
        shard=shard, round=1, pass_no=pass_no, local_min=0.0,
        white_sent=total, white_received=total, red_min=float("inf"),
        red_sent=0, active=False, total_sent=total, total_received=total,
    )


class TestShutdownWait:
    """``GvtCoordinator.collect`` — the one wait on the report queue —
    as a unit over a plain queue (no processes, so no liveness to read)."""

    def test_silent_worker_is_a_typed_located_error(self):
        """A worker that never sends its ShardDone must end the wait in a
        WorkerFailedError naming it — not in a bare queue.Empty."""
        reports = queue.Queue()
        coordinator = GvtCoordinator([None, None], reports, timeout_s=0.05)
        reports.put(ShardDone(0))  # shard 0 reports; shard 1 never does
        started = time.monotonic()
        with pytest.raises(WorkerFailedError, match=r"shutdown stalled.*\[1\]"):
            coordinator.collect(ShardDone, {0, 1}, "shutdown")
        assert time.monotonic() - started < 1.0

    def test_a_shard_that_reported_and_then_died_is_noticed(self):
        """Shard 0 sends its ShardDone and then dies with exit code 7
        while shard 1 stays silent: the wait must name the dead shard on
        the next silent tick, not stall until the timeout."""
        reports = queue.Queue()
        coordinator = GvtCoordinator(
            [None, None], reports, timeout_s=3.0,
            processes={0: _FakeProcess("repro-shard-0", 7),
                       1: _FakeProcess("repro-shard-1", None)},
        )
        reports.put(ShardDone(0))
        started = time.monotonic()
        with pytest.raises(WorkerFailedError, match=r"repro-shard-0 died.*exit code 7"):
            coordinator.collect(ShardDone, {0, 1}, "shutdown")
        assert time.monotonic() - started < 2.0

    def test_a_shard_that_reported_and_exited_cleanly_is_not_dead(self):
        reports = queue.Queue()
        coordinator = GvtCoordinator(
            [None, None], reports, timeout_s=0.05,
            processes={0: _FakeProcess("repro-shard-0", 0)},
        )
        reports.put(ShardDone(0))
        with pytest.raises(WorkerFailedError, match=r"shutdown stalled.*\[1\]"):
            coordinator.collect(ShardDone, {0, 1}, "shutdown")

    def test_stale_and_foreign_records_are_dropped(self):
        reports = queue.Queue()
        coordinator = GvtCoordinator([None, None], reports, timeout_s=0.05)
        for record in (
            _report(0, pass_no=1, total=9),
            MigrateDone(shard=0, epoch=1),  # another kind entirely
            ShardDone(5),  # a shard nobody is waiting on
            _report(0, pass_no=2, total=3),
            _report(1, pass_no=2, total=4),
        ):
            reports.put(record)
        got = coordinator.collect(
            ShardReport, {0, 1}, "GVT round 1 pass 2",
            match=lambda m: m.pass_no == 2,
        )
        assert {shard: r.total_sent for shard, r in got.items()} == {0: 3, 1: 4}

    def test_shard_error_carries_the_phase_and_the_traceback(self):
        reports = queue.Queue()
        coordinator = GvtCoordinator([None, None], reports, timeout_s=5.0)
        reports.put(ShardError(1, "Traceback: boom"))
        with pytest.raises(
            WorkerFailedError, match=r"shard 1 crashed during GVT round 3 pass 1"
        ) as failure:
            coordinator.collect(ShardDone, {0, 1}, "GVT round 3 pass 1")
        assert "boom" in str(failure.value)

    def test_broadcast_reaches_active_shards_only(self):
        inboxes = [queue.Queue() for _ in range(3)]
        coordinator = GvtCoordinator(inboxes, queue.Queue(), active={0, 2})
        coordinator.broadcast("record")
        assert [inbox.qsize() for inbox in inboxes] == [1, 0, 1]


class TestElasticDrain:
    def test_a_shard_dead_while_draining_names_the_elastic_epoch(self):
        """The epoch's drain is GVT rounds on the paused fleet: shard 0
        answers the first pass, shard 1 is dead, and the wait ends in an
        error naming the epoch, not a bare round."""
        inboxes, reports = [queue.Queue(), queue.Queue()], queue.Queue()
        sim = ParallelSimulation(
            PHOLD.build_partition(),
            SimulationConfig(backend="parallel", workers=2), timeout_s=3.0,
        )
        coordinator = GvtCoordinator(
            inboxes, reports, timeout_s=sim.timeout_s,
            processes={0: _FakeProcess("repro-shard-0", None),
                       1: _FakeProcess("repro-shard-1", 9)},
        )
        reports.put(_report(0, pass_no=1, total=0))
        with pytest.raises(
            WorkerFailedError,
            match=r"repro-shard-1 died during elastic epoch.*exit code 9",
        ):
            sim._elastic_epoch(coordinator, (), (), ())
        assert [inboxes[1].get_nowait() for _ in range(2)] == [
            PauseEpoch(1), GvtStart(1, 1),
        ]

    def test_a_paused_shard_cuts_with_no_aggregate_buffered(self):
        """A straggler delivered inside an epoch rolls the shard back and
        buffers anti-messages; the cut that follows sends them before its
        report leaves, so after the cut the shard only ever sends in
        answer to a later receipt (what the drain's proof rests on)."""
        config = SimulationConfig(
            end_time=500.0, aggregation=lambda _lp: FixedWindow(100.0)
        )
        mailboxes = {0: Mailbox(), 1: Mailbox()}
        buffered_at_report = Mailbox()
        ahead, behind = shards = [
            inspection_shard(
                shard_id, build_phold(PHOLDParams(n_objects=8, n_lps=2)),
                config, mailboxes=mailboxes, to_coordinator=buffered_at_report,
            )
            for shard_id in (0, 1)
        ]
        buffered_at_report.put = lambda _record: buffered_at_report.append(
            ahead.lp.comm.buffered_event_count()
        )
        for runtime in shards:
            runtime.lp.initialize()
        while ahead.lp.execute_one():
            pass
        behind.lp.execute_one()
        behind._flush()
        ahead._handle(PauseEpoch(1))
        for batch in mailboxes[0]:
            ahead._handle(batch)
        assert ahead.lp.comm.buffered_event_count() > 0  # antis wait
        ahead._handle(GvtStart(1, 1))
        assert buffered_at_report == [0]


class _Crasher(Player):
    """A ping-pong player that, in a forked worker (never in the parent),
    kills its process outright after 40 volleys: no exception, no
    ShardError, just exit code 7."""

    parent_pid = os.getpid()

    def execute_process(self, payload: int) -> None:
        if payload > 40 and os.getpid() != self.parent_pid:
            self.die()
        super().execute_process(payload)

    def die(self) -> None:
        os._exit(7)


class _Victim(_Crasher):
    """SIGKILLed instead, leaving the time of death (CLOCK_MONOTONIC, one
    clock for the host) in a page shared with the parent."""

    died_at = mmap.mmap(-1, 8)

    def die(self) -> None:
        self.died_at[:] = struct.pack("d", time.monotonic())
        os.kill(os.getpid(), signal.SIGKILL)


def _shm_listing():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _open_resources(want=None):
    """(open fds, /dev/shm entries), re-read until it equals ``want`` —
    without one, until it stops changing: the feeder threads of a run's
    queues close their pipe ends a moment after the run returns."""
    deadline = time.monotonic() + 5.0
    previous = None
    while True:
        gc.collect()
        now = (len(os.listdir("/proc/self/fd")), len(_shm_listing()))
        if now == (previous if want is None else want):
            return now
        if time.monotonic() > deadline:
            return now
        previous = now
        time.sleep(0.05)


@needs_fork
class TestWorkerFailure:
    def test_dead_worker_is_noticed_in_seconds_not_at_the_timeout(self):
        """SIGKILL-style death: nothing reaches the report queue, so only
        the liveness check on a silent tick can end the wait (timeout_s
        stays at its 120 s default)."""
        sim = ParallelSimulation(
            [[_Crasher("victim", "bystander", 10_000, serve=True)],
             [Player("bystander", "victim", 10_000)]],
            SimulationConfig(backend="parallel", workers=2),
        )
        shm_before = _shm_listing()
        started = time.monotonic()
        with pytest.raises(WorkerFailedError, match=r"repro-shard-0 died.*exit code 7"):
            sim.run()
        assert time.monotonic() - started < 10.0
        assert not any(p.is_alive() for p in sim._processes.values())
        assert _shm_listing() <= shm_before  # every ring segment unlinked

    def test_killed_worker_ends_the_wait_at_once(self):
        """The victim's process sentinel is in the coordinator's wait set:
        its death ends the wait, not the next 1 s silent tick."""
        sim = ParallelSimulation(
            [[_Victim("victim", "bystander", 10_000, serve=True)],
             [Player("bystander", "victim", 10_000)]],
            SimulationConfig(backend="parallel", workers=2),
        )
        shm_before = _shm_listing()
        with pytest.raises(
            WorkerFailedError, match=r"repro-shard-0 died.*exit code -9"
        ):
            sim.run()
        (died_at,) = struct.unpack("d", _Victim.died_at[:])
        assert 0.0 < time.monotonic() - died_at < 1.0
        assert not any(p.is_alive() for p in sim._processes.values())
        assert _shm_listing() <= shm_before

    def test_keyboard_interrupt_stops_the_fleet_promptly(self):
        """Ctrl-C in the coordinator: workers are terminated before the
        joins, so the interrupt surfaces at once with no child left."""
        sim = ParallelSimulation(
            PHOLD.build_partition(),
            SimulationConfig(backend="parallel", workers=2),
        )

        def interrupted(coordinator, gvt_period_s):
            raise KeyboardInterrupt

        sim._drive = interrupted
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sim.run()
        assert time.monotonic() - started < 3.0
        assert not any(p.is_alive() for p in sim._processes.values())


@needs_fork
@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestNothingLeftOpen:
    JOIN_AND_LEAVE = {
        "seed": 2,
        "steps": [
            {"at": 1, "kind": "join", "count": 1},
            {"at": 2, "kind": "leave", "count": 1},
        ],
    }

    @staticmethod
    def _run(script=None):
        config = SimulationConfig(
            backend="parallel", workers=2, end_time=PHOLD.end_time,
            gvt_period=1_000.0, script=script,
        )
        sim = ParallelSimulation(PHOLD.build_partition(), config)
        sim.run()
        return sim.worker_timeline

    def test_twenty_runs_leave_no_fd_and_no_segment(self):
        self._run()  # lazy process-wide state (shm resource tracker)
        before = _open_resources()
        for index in range(20):
            timeline = self._run(self.JOIN_AND_LEAVE if index == 7 else None)
            if index == 7:  # the pool grew and shrank
                assert [n for _at, n in timeline] == [2, 3, 2]
        assert _open_resources(before) == before

    def test_a_failed_run_closes_its_wake_fds_too(self):
        self._run()
        before = _open_resources()
        sim = ParallelSimulation(
            [[_Crasher("victim", "bystander", 10_000, serve=True)],
             [Player("bystander", "victim", 10_000)]],
            SimulationConfig(backend="parallel", workers=2),
        )
        with pytest.raises(WorkerFailedError):
            sim.run()
        del sim
        assert _open_resources(before) == before
