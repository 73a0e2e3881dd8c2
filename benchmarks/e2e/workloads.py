"""The four benchmark workloads, driven through the public API only.

Each workload turns a seed into one model :class:`Instance`: a builder of
fresh partitions, the configuration to run it under, and the sequential
golden every rep is verified against.  Neither ``wire`` nor ``fastpath``
is pinned anywhere here — the benchmark measures whatever the defaults
resolve to, so a later change that flips a default shows up as a gain;
the resolved values are reported as provenance.

The reasons for each workload (``why``) are the ones recorded in
``BENCHMARK.json``; README.md has the long form.
"""

from __future__ import annotations

from collections import Counter
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import FixedWindow, SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.apps import PHOLDParams, SMMPParams, build_phold, build_smmp
from repro.kernel.arena import resolve_fastpath

# ``repro.parallel``, ``repro.bench.harness`` and the control registry are
# imported where a workload needs them: ``setup_s`` times what a user's own
# script for that workload would import, no more.

#: a hung shard must fail the rep well inside the driver's per-run limit
PARALLEL_TIMEOUT_S = 30.0


class VerificationError(AssertionError):
    """A rep finished but its committed result differs from the golden."""


@dataclass(frozen=True)
class Golden:
    """What the sequential kernel commits on one model instance."""

    total: int
    per_object: Counter
    states: dict[str, Any]
    #: wall seconds of the sequential run (the layer ladder's floor)
    wall_s: float = 0.0


@dataclass
class Instance:
    """One seeded model of a workload, ready to be built repeatedly."""

    seed: int
    builder: Callable[[], list]
    config: SimulationConfig
    golden: Golden | None = None
    #: parallel only: the strategy's placement per worker count, reused
    #: after the first construction so timed loops do not re-profile the
    #: model every rep
    assignments: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def backend(self) -> str:
        return self.config.backend  # "modelled" | "parallel"

    # -- construction ---------------------------------------------------
    def make(self, *, config: SimulationConfig | None = None, full: bool = False):
        """A constructed, ready-to-run simulation.

        ``full`` forces the whole public set-up path for parallel runs
        (``profile_model`` + ``kernighan_lin`` inside ``from_builder``);
        otherwise a placement computed once is reused via ``shard_map``.
        """
        config = config or self.config
        if self.backend == "modelled":
            return TimeWarpSimulation(self.builder(), config)
        from repro.parallel import ParallelSimulation

        if full or config.workers not in self.assignments:
            sim = ParallelSimulation.from_builder(
                self.builder, config, strategy="kernighan_lin",
                timeout_s=PARALLEL_TIMEOUT_S,
            )
            self.assignments[config.workers] = sim.assignment
            return sim
        return ParallelSimulation(
            self.builder(), config, shard_map=self.assignments[config.workers],
            timeout_s=PARALLEL_TIMEOUT_S,
        )

    # -- golden ---------------------------------------------------------
    def compute_golden(self) -> Golden:
        seq = SequentialSimulation(
            [obj for group in self.builder() for obj in group],
            record_trace=True, end_time=self.config.end_time,
        )
        started = time.perf_counter()
        seq.run()
        wall_s = time.perf_counter() - started
        self.golden = Golden(
            total=seq.events_executed,
            per_object=Counter(entry[1] for entry in seq.trace),
            states={obj.name: obj.state for obj in seq.objects},
            wall_s=wall_s,
        )
        return self.golden

    def verify(self, sim, stats) -> None:
        """Raise :class:`VerificationError` unless ``sim`` committed the golden."""
        golden = self.golden
        if golden is None:
            raise RuntimeError("compute_golden() must run before verify()")
        violations = getattr(sim, "violations", None)
        if violations:
            raise VerificationError(
                f"{len(violations)} invariant violation(s): {violations[:2]}"
            )
        if stats.committed_events != golden.total:
            raise VerificationError(
                f"committed {stats.committed_events} != golden {golden.total}"
            )
        for name, want in golden.states.items():
            got = stats.per_object[name].events_committed
            if got != golden.per_object.get(name, 0):
                raise VerificationError(
                    f"{name} committed {got} != golden "
                    f"{golden.per_object.get(name, 0)}"
                )
            state = (
                sim.object_named(name).state
                if isinstance(sim, TimeWarpSimulation)
                else sim.final_states[name]
            )
            if state != want:
                raise VerificationError(f"final state of {name} differs from golden")

    def modelled_rate(self) -> float:
        """Committed events per *modelled* second of this model on the
        simulated 1998 cluster (deterministic; verified like any rep).

        For a parallel workload this is its modelled twin: the same model
        and configuration under the modelled executive.
        """
        sim = TimeWarpSimulation(self.builder(), replace(self.config, backend="modelled"))
        stats = sim.run()
        self.verify(sim, stats)
        return stats.committed_events_per_second

    def provenance(self, wires=()) -> dict[str, str]:
        """The defaults this run resolved to (``wires``: as observed on reps)."""
        out = {"fastpath": resolve_fastpath(self.config.fastpath)}
        if self.backend == "parallel":
            out["wire"] = "+".join(sorted(wires)) or self.config.wire
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instance: Callable[[int], Instance]
    #: seeded model instances per end-to-end run.  One seed must change the
    #: inputs, yet a metric may not move much from seed to seed.  A single
    #: PHOLD or SMMP model moves both rates of a modelled workload by ~5.5 %
    #: (IQR/median over ten seeds), so those pool eight; the process backend
    #: is dominated by scheduling noise instead and pays ~1 s per instance
    #: for its modelled twin, so it pools four.
    batch_size: int

    def batch(self, seed: int) -> list[Instance]:
        """The instances of ``seed`` (disjoint from every other seed's)."""
        return [
            self.instance(seed * self.batch_size + j) for j in range(self.batch_size)
        ]


# --------------------------------------------------------------------- #
def _phold_skew(seed: int) -> Instance:
    params = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=2, seed=seed)
    config = SimulationConfig(
        end_time=6_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0}
    )
    return Instance(seed, lambda: build_phold(params), config)


def _smmp_online(seed: int) -> Instance:
    from repro.bench.harness import SMMP_PROFILE
    from repro.control import dynamic_config_kwargs

    params = SMMPParams(requests_per_processor=120, seed=seed)
    config = SMMP_PROFILE.config(
        seed=seed,
        **dynamic_config_kwargs(("checkpoint", "cancellation", "aggregation")),
    )
    return Instance(seed, lambda: build_smmp(params), config)


def _par_phold(seed: int, locality: float, end_time: float) -> Instance:
    params = PHOLDParams(
        n_objects=16, n_lps=2, jobs_per_object=3, locality=locality, seed=seed
    )
    config = SimulationConfig(
        backend="parallel", workers=2, end_time=end_time,
        # a modest FAW window so the IPC path runs batched, as a
        # deployment would (docs/parallel.md)
        aggregation=lambda _lp: FixedWindow(50.0),
    )
    return Instance(seed, lambda: build_phold(params), config)


def _par_local_2w(seed: int) -> Instance:
    return _par_phold(seed, locality=0.9, end_time=12_000.0)


def _par_cross_2w(seed: int) -> Instance:
    return _par_phold(seed, locality=0.0, end_time=3_000.0)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "phold_skew",
            "rollback-heavy modelled PHOLD under LP speed skew: kernel.lp "
            "rollback/coast-forward, annihilation and the executive dominate; "
            "controllers and aggregation do nothing",
            _phold_skew, batch_size=8,
        ),
        Workload(
            "smmp_online",
            "communication-heavy modelled SMMP, the paper's three controllers "
            "on, few rollbacks: comm, core, state saves and single insert/pop "
            "dominate; the one workload whose modelled rate follows the "
            "controllers",
            _smmp_online, batch_size=8,
        ),
        Workload(
            "par_local_2w",
            "process backend, 2 workers, 90% shard-local PHOLD: worker loop, "
            "GVT rounds and the backend's fixed cost dominate; the wire does "
            "little, so it is the bypass for wire changes",
            _par_local_2w, batch_size=4,
        ),
        Workload(
            "par_cross_2w",
            "same model with no locality: half of all events cross shards, so "
            "wire encode/decode, the shm ring + doorbell and cross-shard "
            "rollback dominate",
            _par_cross_2w, batch_size=4,
        ),
    )
}
