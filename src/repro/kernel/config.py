"""Simulation configuration: the paper's notion of *configuration* as data.

A :class:`SimulationConfig` bundles the sub-algorithm selections and
parameter settings of the simulator — cancellation strategy, checkpoint
policy, aggregation policy, GVT algorithm and period — together with the
modelled platform (cost model, network, per-LP speed factors).  The bench
harness sweeps these objects to regenerate the paper's figures.

Policy fields are *factories* (one policy instance is created per object,
or per LP for aggregation) and receive the thing they will govern, so an
application can, for example, give disks and forks different controllers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar

from ..cluster.costmodel import DEFAULT_COSTS, DEFAULT_NETWORK, CostModel, NetworkModel
from .cancellation import CancellationPolicy, StaticCancellation, Mode
from .checkpointing import CheckpointPolicy, StaticCheckpoint
from .errors import ConfigurationError
from .simobject import SimulationObject

if TYPE_CHECKING:  # pragma: no cover - avoids a kernel <-> comm import cycle
    from ..comm.aggregation import AggregationPolicy
    from ..control.meta import MetaController
    from ..core.window_controller import TimeWindowPolicy
    from ..faults.plan import FaultPlan
    from ..oracle.invariants import InvariantOracle
    from ..trace.tracer import Tracer

CancellationFactory = Callable[[SimulationObject], CancellationPolicy]
CheckpointFactory = Callable[[SimulationObject], CheckpointPolicy]
AggregationFactory = Callable[[int], "AggregationPolicy"]
TimeWindowFactory = Callable[[], "TimeWindowPolicy"]
MetaControlFactory = Callable[[], "MetaController"]


def default_cancellation(_obj: SimulationObject) -> CancellationPolicy:
    """WARPED's default: aggressive cancellation, no monitoring."""
    return StaticCancellation(Mode.AGGRESSIVE)


def default_checkpoint(_obj: SimulationObject) -> CheckpointPolicy:
    """WARPED's default: save state after every event."""
    return StaticCheckpoint(1)


def default_aggregation(_lp_id: int) -> "AggregationPolicy":
    """No aggregation: one physical message per remote event."""
    from ..comm.aggregation import NoAggregation

    return NoAggregation()


#: the drivers that run a :class:`SimulationConfig`: the modelled
#: executive (:class:`~repro.kernel.kernel.TimeWarpSimulation`), the
#: conservative round loop and the process backend
DRIVERS = ("modelled", "conservative", "parallel")

#: step kinds of a run script (:attr:`SimulationConfig.script`) per
#: driver: the modelled executive changes knobs, the process backend
#: moves objects and grows or shrinks its worker pool
STEP_KINDS = {"modelled": ("set",), "parallel": ("migrate", "join", "leave")}

#: field -> the drivers that run it, for each field not every driver runs.
#: A driver refuses such a field off its default instead of silently
#: ignoring it (:meth:`SimulationConfig.validate`), so lifting a refusal
#: is one edit here; verify and docs/parallel.md read this dict too.
RUN_BY: dict[str, frozenset] = {
    "faults": frozenset({"modelled"}),
    "time_window": frozenset({"modelled"}),
    "meta_control": frozenset({"modelled"}),
    "gvt_algorithm": frozenset({"modelled"}),
    "gvt_period": frozenset({"modelled", "parallel"}),
    "placement": frozenset({"modelled", "parallel"}),
    "script": frozenset({"modelled", "parallel"}),
    "record_trace": frozenset({"modelled", "conservative"}),
    "tracer": frozenset({"modelled", "conservative"}),
    "lp_speed_factors": frozenset({"modelled", "conservative"}),
    "network": frozenset({"modelled", "conservative"}),
}


def step_value(step: dict):
    """The value a ``set`` step assigns, in the knob's own type: the
    cancellation mode arrives as its JSON string."""
    if step["knob"] != "cancellation":
        return step["value"]
    try:
        return Mode(step["value"])
    except ValueError:
        raise ConfigurationError(
            f"unknown cancellation mode {step['value']!r} "
            f"(known: {', '.join(m.value for m in Mode)})"
        ) from None


def validate_script(script: dict, driver: str) -> None:
    """Validate a run script (see :attr:`SimulationConfig.script`).

    Raises :class:`ConfigurationError` on a malformed script or on a step
    kind ``driver`` does not run.  A ``set`` step's value is checked by
    its knob's :class:`~repro.control.spec.KnobSpec`; the names of object
    targets are resolved when the simulation is built.  Impossible
    parallel steps (a ``leave`` when one worker remains) are legal here
    and skipped at run time.
    """
    from ..control.registry import get_knob

    if not isinstance(script, dict):
        raise ConfigurationError("script must be a dict")
    unknown = set(script) - {"seed", "steps"}
    if unknown:
        raise ConfigurationError(f"unknown script key(s): {sorted(unknown)}")
    if not isinstance(script.get("seed", 0), int):
        raise ConfigurationError("script seed must be an int")
    steps = script.get("steps", [])
    if not isinstance(steps, (list, tuple)):
        raise ConfigurationError("script steps must be a list")
    kinds = STEP_KINDS.get(driver, ())
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ConfigurationError(f"script step {i} must be a dict")
        at = step.get("at")
        if not isinstance(at, int) or at < 1:
            raise ConfigurationError(
                f"script step {i}: 'at' must be a GVT-commit index >= 1"
            )
        kind = step.get("kind")
        if kind not in kinds:
            raise ConfigurationError(
                f"script step {i}: backend {driver!r} does not run step "
                f"kind {kind!r} (it runs: {', '.join(kinds) or 'none'})"
            )
        allowed = (
            {"at", "kind", "knob", "target", "value"} if kind == "set"
            else {"at", "kind", "count"}
        )
        extra = set(step) - allowed
        if extra:
            raise ConfigurationError(
                f"script step {i}: unknown key(s) {sorted(extra)}"
            )
        if kind != "set":
            count = step.get("count", 1)
            if not isinstance(count, int) or count < 1:
                raise ConfigurationError(
                    f"script step {i}: 'count' must be an int >= 1"
                )
            continue
        spec = get_knob(step.get("knob"))
        if spec.meta_managed:
            raise ConfigurationError(
                f"script step {i}: knob {spec.name!r} belongs to the "
                "MetaController, not to a set step"
            )
        if "value" not in step:
            raise ConfigurationError(f"script step {i}: 'value' is missing")
        spec.validate_value(step_value(step))
        target = step.get("target")
        if spec.target == "global":
            valid, wants = "target" not in step, "no 'target'"
        elif spec.target == "lp":
            valid = isinstance(target, int) and target >= 0
            wants = "an LP id as 'target'"
        else:
            valid, wants = isinstance(target, str), "an object name as 'target'"
        if not valid:
            raise ConfigurationError(
                f"script step {i}: knob {spec.name!r} takes {wants}, "
                f"got {target!r}"
            )


@dataclass
class SimulationConfig:
    """Everything that parameterizes one Time Warp run."""

    cancellation: CancellationFactory = default_cancellation
    checkpoint: CheckpointFactory = default_checkpoint
    aggregation: AggregationFactory = default_aggregation

    #: execution backend: "modelled" runs every LP in this process on the
    #: deterministic modelled cluster; "parallel" shards LPs across
    #: ``workers`` OS processes with batched IPC and distributed GVT
    #: (docs/parallel.md).  Parallel runs are validated differentially,
    #: not tick-for-tick.
    backend: str = "modelled"
    #: worker-process count for the parallel backend (ignored otherwise)
    workers: int = 1

    #: not fields (passing either to the constructor is a ``TypeError``):
    #: the frozen end-to-end benchmark reads these names for its
    #: provenance line and both go with the next ``benchmark`` PR.  There
    #: is one event store (see :mod:`repro.kernel.arena`), and the data
    #: wire of a parallel run is chosen by the backend from what it
    #: observes and reported as ``ParallelSimulation.wire``.
    fastpath: ClassVar[None] = None
    wire: ClassVar[str] = "shm"

    #: "omniscient" (exact, centrally computed) or "mattern" (distributed)
    gvt_algorithm: str = "omniscient"
    #: wall-clock µs between GVT round initiations
    gvt_period: float = 50_000.0

    #: optional optimism throttling (extension): a factory for the
    #: bounded-time-window policy, e.g.
    #: ``lambda: AdaptiveTimeWindow()``.  ``None`` = pure Time Warp.
    time_window: TimeWindowFactory | None = None

    #: optional unified control plane (docs/control.md): a factory for a
    #: :class:`repro.control.MetaController` driving the meta-managed
    #: global knobs (GVT period, placement) at GVT rounds, e.g.
    #: ``lambda: MetaController()``.  ``None`` = those knobs stay static.
    meta_control: MetaControlFactory | None = None

    #: optional :class:`repro.trace.Tracer` receiving structured records
    #: for every controller decision, rollback, GVT round, fossil
    #: collection and transport flush (docs/observability.md).  ``None``
    #: (the default) costs one attribute check per potential emission.
    tracer: "Tracer | None" = None

    #: virtual-time horizon; events beyond it are never executed
    end_time: float = float("inf")

    costs: CostModel = DEFAULT_COSTS
    network: NetworkModel = DEFAULT_NETWORK

    #: per-LP CPU speed factor (>1 = slower workstation); keyed by LP id.
    #: LPs not listed run at factor 1.0.  Heterogeneity is one source of
    #: the LVT skew that produces rollbacks on a real NOW.
    lp_speed_factors: dict[int, float] = field(default_factory=dict)

    #: safety valve for tests: abort after this many executed events
    max_executed_events: int | None = None

    #: record committed (object, time, payload) triples for equivalence tests
    record_trace: bool = False

    #: optional :class:`repro.faults.FaultPlan`: replace the perfect wire
    #: with a fault-injecting one (docs/robustness.md).  ``None`` (the
    #: default) keeps the zero-overhead perfect wire.
    faults: "FaultPlan | None" = None

    #: optional :class:`repro.oracle.InvariantOracle` checking Time Warp
    #: invariants during the run (docs/robustness.md).  ``None`` (the
    #: default) costs one attribute check per potential hook.
    oracle: "InvariantOracle | None" = None

    #: object placement over LPs/workers: "static" pins the initial
    #: partition for the whole run; "dynamic" puts placement under
    #: on-line control — the MetaController's PlacementController on the
    #: modelled backend, the coordinator-side load balancer (live LP
    #: migration) on the parallel backend (docs/control.md, the
    #: ``placement`` knob).
    placement: str = "static"

    #: optional run script: seeded steps, each due at the ``at``-th GVT
    #: commit that advances GVT.  The modelled executive runs ``set``
    #: steps (external knob adjustment, paper reference [26]), e.g.
    #: ``{"at": 3, "kind": "set", "knob": "checkpoint", "target":
    #: "disk-0", "value": 16}``; the process backend runs ``migrate``,
    #: ``join`` and ``leave`` steps (docs/parallel.md).  See
    #: :data:`STEP_KINDS` and :func:`validate_script`.
    script: "dict | None" = None

    def validate(self, driver: str | None = None) -> None:
        """Refuse, in one error, what ``driver`` (by default the one
        ``backend`` selects) does not run: each :data:`RUN_BY` field off
        its default, and ``backend="parallel"`` in process; then check
        every value."""
        from ..control.registry import get_knob

        if self.backend not in ("modelled", "parallel"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        driver = driver or self.backend
        refused = [
            f"{name} (run by {', '.join(d for d in DRIVERS if d in drivers)})"
            for name, drivers in RUN_BY.items()
            if driver not in drivers
            and getattr(self, name) != getattr(_DEFAULTS, name)
        ]
        if driver != "parallel" and self.backend == "parallel":
            refused.append("backend='parallel' (run by parallel)")
        if refused:
            raise ConfigurationError(
                f"backend {driver!r} does not run: {', '.join(refused)}; "
                "leave them at their defaults"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.gvt_algorithm not in ("omniscient", "mattern"):
            raise ConfigurationError(
                f"unknown GVT algorithm {self.gvt_algorithm!r}"
            )
        get_knob("gvt_period").validate_value(self.gvt_period)
        get_knob("placement").validate_value(self.placement)
        for lp_id, factor in self.lp_speed_factors.items():
            if factor <= 0:
                raise ConfigurationError(
                    f"speed factor for LP {lp_id} must be positive, got {factor}"
                )
        if self.faults is not None:
            self.faults.validate()
        if self.script is not None:
            validate_script(self.script, driver)

    def costs_for_lp(self, lp_id: int) -> CostModel:
        factor = self.lp_speed_factors.get(lp_id, 1.0)
        return self.costs if factor == 1.0 else self.costs.scaled(factor)


_DEFAULTS = SimulationConfig()
