"""The seeded :class:`Scenario` spec and its stable JSON form.

A scenario pins *everything* that selects one verification run: the
application and its topology parameters, every configuration knob the
paper treats as tunable (cancellation variant, checkpoint interval,
aggregation policy, GVT algorithm/period, optimism window), the
execution backend (modelled Time Warp, conservative, process-sharded
parallel), modelled heterogeneity, and an optional fault plan.
Serialization is canonical (sorted keys, all fields explicit) so a
scenario file replays byte-identically and diffs cleanly.

The knob fields mirror the paper's configuration space and are declared
once, as rows of :data:`AXES` — field, values, the backends that take
the knob, coverage tag.  Validation, the sweep
(:mod:`repro.verify.lattice`), the fuzzer, coverage and the shrinker all
read that table; which backend runs a config field is
:data:`repro.kernel.config.RUN_BY`'s to say, through the scenario's own
config.

All of these are **modelled-only** with respect to the committed result:
whatever the knobs, a run must commit exactly the events the sequential
kernel executes.  That metamorphic claim is what the verify harness
checks across the lattice.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..apps.phold import PHOLDParams, build_phold
from ..apps.pingpong import build_pingpong
from ..apps.raid import RAIDParams, build_raid
from ..apps.smmp import SMMPParams, build_smmp
from ..comm.aggregation import FixedWindow, NoAggregation
from ..core.aggregation_controller import SAAWPolicy
from ..core.cancellation_controller import (
    DynamicCancellation,
    PermanentAggressive,
    PermanentSet,
    single_threshold,
)
from ..core.checkpoint_controller import DynamicCheckpoint
from ..core.window_controller import AdaptiveTimeWindow
from ..faults.plan import FaultPlan
from ..kernel.cancellation import Mode, StaticCancellation
from ..kernel.checkpointing import MAX_INTERVAL, StaticCheckpoint
from ..kernel.config import DRIVERS, RUN_BY, SimulationConfig
from ..kernel.errors import ConfigurationError

SCHEMA_SCENARIO = "repro-verify-scenario-1"

BACKENDS = DRIVERS
_TIME_WARP = frozenset({"modelled", "parallel"})


@dataclass(frozen=True)
class Axis:
    """One switchable knob of the configuration lattice."""

    #: the :class:`Scenario` field
    field: str
    #: the values the sweep walks and the fuzzer draws
    values: tuple
    #: backends on which the field may leave its default
    backends: frozenset
    #: coverage-feature prefix
    tag: str
    #: value -> coverage label (several values may share one bucket)
    label: Callable[[Any], str] = str
    #: a validity domain wider than ``values``, where there is one
    accepts: Callable[[Any], bool] | None = None

    def feature(self, value) -> str:
        return f"{self.tag}:{self.label(value)}"

    def admits(self, value) -> bool:
        return value in self.values or (
            self.accepts is not None and self.accepts(value)
        )


def _checkpoint_bucket(checkpoint: int | str) -> str:
    if checkpoint == "dynamic":
        return "dynamic"
    chi = int(checkpoint)
    if chi == 1:
        return "1"
    if chi <= 4:
        return "2-4"
    if chi <= 16:
        return "5-16"
    return "17+"


#: the lattice, in the paper's vocabulary (docs/testing.md)
AXES = (
    # aggressive / lazy / dynamic (DC) / ST / PS-n / PA-n
    Axis("cancellation",
         ("aggressive", "lazy", "dynamic", "st", "ps32", "pa10"),
         _TIME_WARP, "cancel"),
    # a static chi in [1, MAX_INTERVAL] or the dynamic controller
    Axis("checkpoint", (1, 2, 4, 8, 16, 32, 64, "dynamic"),
         _TIME_WARP, "ckpt", label=_checkpoint_bucket,
         accepts=lambda v: not isinstance(v, str) and 1 <= v <= MAX_INTERVAL),
    # none / FAW / SAAW, ``aggregation_window`` the (initial) window
    Axis("aggregation", ("none", "fixed", "saaw"), _TIME_WARP, "agg"),
    # the process backend always runs its own distributed coordinator
    Axis("gvt_algorithm", ("omniscient", "mattern"),
         RUN_BY["gvt_algorithm"], "gvt"),
    Axis("time_window", ("none", "adaptive"), RUN_BY["time_window"], "window"),
    # the unified MetaController over the meta-managed global knobs
    # (GVT period, placement; docs/control.md)
    Axis("meta_control", ("off", "on"), RUN_BY["meta_control"], "meta"),
)

#: field -> the backends on which it may leave its default, for what the
#: lattice refuses on top of :data:`repro.kernel.config.RUN_BY` (which
#: the scenario's config enforces): the policy axes only where a
#: rollback exercises them, and a fleet only on the process backend.
FIELD_BACKENDS: dict[str, frozenset] = {
    **{axis.field: axis.backends for axis in AXES if axis.field not in RUN_BY},
    "workers": frozenset({"parallel"}),
}


# --------------------------------------------------------------------- #
# application registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class AppSpec:
    """One verifiable application: builder, sizing, shrink floors."""

    name: str
    #: verify-sized parameter baseline (small: scenarios run in ~ms)
    base_params: dict
    #: partition builder given the merged parameter dict
    build: Callable[[dict], list]
    #: default virtual-time horizon (PHOLD is unbounded and needs one)
    default_end_time: float
    #: fuzzable topology knobs: name -> candidate values (first = floor,
    #: used by the shrinker)
    fuzz_values: dict[str, tuple]

    def merged(self, overrides: dict) -> dict:
        unknown = set(overrides) - set(self.base_params)
        if unknown:
            raise ConfigurationError(
                f"{self.name}: unknown app param(s) {sorted(unknown)} "
                f"(fuzzable: {sorted(self.base_params)})"
            )
        return {**self.base_params, **overrides}


def _build_phold_app(params: dict) -> list:
    return build_phold(PHOLDParams(**params))


def _build_smmp_app(params: dict) -> list:
    return build_smmp(SMMPParams(**params))


def _build_raid_app(params: dict) -> list:
    return build_raid(RAIDParams(**params))


def _build_pingpong_app(params: dict) -> list:
    return build_pingpong(rounds=params["rounds"], delay=params["delay"])


APP_SPECS: dict[str, AppSpec] = {
    "phold": AppSpec(
        name="phold",
        base_params={
            "n_objects": 8, "n_lps": 3, "jobs_per_object": 2,
            "state_size_ints": 4, "deterministic_fraction": 1.0,
            "locality": 0.0, "seed": 11,
        },
        build=_build_phold_app,
        default_end_time=200.0,
        fuzz_values={
            "n_objects": (4, 6, 8, 12),
            "n_lps": (1, 2, 3, 4),
            "jobs_per_object": (1, 2, 3),
            "state_size_ints": (0, 4, 8),
            "deterministic_fraction": (0.0, 0.5, 1.0),
            "locality": (0.0, 0.5, 0.9),
            "seed": (2, 11, 23),
        },
    ),
    "smmp": AppSpec(
        name="smmp",
        base_params={
            "n_processors": 4, "n_lps": 2, "n_banks": 4,
            "requests_per_processor": 5, "pipeline_depth": 2,
        },
        build=_build_smmp_app,
        default_end_time=float("inf"),
        # value sets are closed under combination: every n_lps divides
        # every n_processors and n_banks choice (SMMPParams.validate)
        fuzz_values={
            "n_processors": (4, 8),
            "n_lps": (1, 2, 4),
            "n_banks": (4, 8),
            "requests_per_processor": (2, 5, 8),
            "pipeline_depth": (1, 2, 3),
        },
    ),
    "raid": AppSpec(
        name="raid",
        base_params={
            "n_sources": 4, "n_forks": 2, "n_disks": 4, "n_lps": 2,
            "requests_per_source": 6, "pipeline_depth": 2, "seed": 7,
        },
        build=_build_raid_app,
        default_end_time=float("inf"),
        # closed under combination: n_forks | n_sources, n_lps | n_forks,
        # n_lps | n_disks for every choice (RAIDParams.validate)
        fuzz_values={
            "n_sources": (4, 8),
            "n_forks": (2, 4),
            "n_disks": (4, 8),
            "n_lps": (1, 2),
            "requests_per_source": (2, 6, 10),
            "pipeline_depth": (1, 2, 3),
            "seed": (3, 7, 13),
        },
    ),
    "pingpong": AppSpec(
        name="pingpong",
        base_params={"rounds": 60, "delay": 10.0},
        build=_build_pingpong_app,
        default_end_time=float("inf"),
        fuzz_values={
            "rounds": (5, 20, 60, 120),
            "delay": (5.0, 10.0),
        },
    ),
}


# --------------------------------------------------------------------- #
# the scenario itself
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """A complete, replayable description of one verification run."""

    app: str = "phold"
    #: overrides over the app's verify-sized baseline (see APP_SPECS)
    app_params: dict = field(default_factory=dict)
    #: virtual-time horizon; ``None`` = the app's default
    end_time: float | None = None

    backend: str = "modelled"
    #: worker-process count (parallel backend only)
    workers: int = 1

    cancellation: str = "aggressive"
    checkpoint: int | str = 1
    aggregation: str = "none"
    #: FAW window / SAAW initial window, wall-clock microseconds
    aggregation_window: float = 100.0
    gvt_algorithm: str = "omniscient"
    gvt_period: float = 50_000.0
    time_window: str = "none"
    meta_control: str = "off"

    #: modelled per-LP slowdown factors, keyed by LP id (JSON: str keys)
    lp_speed_factors: dict = field(default_factory=dict)
    #: :meth:`FaultPlan.to_dict` form, or ``None`` for a perfect wire
    faults: dict | None = None
    #: seeded run script keyed by GVT-commit index: knob settings on the
    #: modelled backend, live migrations and worker join/leave on the
    #: parallel one (:func:`repro.kernel.config.validate_script` pins the
    #: shape).  ``None`` is omitted from the JSON form so scenarios
    #: without a script keep their ids.
    script: dict | None = None

    #: generator provenance (which fuzz seed produced this scenario);
    #: does not influence execution
    seed: int = 0

    # -- validation ---------------------------------------------------- #
    def validate(self) -> None:
        """The scenario's own rules, then its config's for its backend
        (:meth:`SimulationConfig.validate`)."""
        spec = APP_SPECS.get(self.app)
        if spec is None:
            raise ConfigurationError(
                f"unknown app {self.app!r} (known: {sorted(APP_SPECS)})"
            )
        spec.merged(self.app_params)  # raises on unknown params
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r} (known: {BACKENDS})"
            )
        for axis in AXES:
            value = getattr(self, axis.field)
            if not axis.admits(value):
                raise ConfigurationError(
                    f"unknown {axis.field} {value!r} (known: {axis.values})"
                )
        if self.aggregation_window <= 0:
            raise ConfigurationError("aggregation_window must be positive")
        for name, backends in FIELD_BACKENDS.items():
            if (
                self.backend not in backends
                and getattr(self, name) != getattr(_DEFAULTS, name)
            ):
                raise ConfigurationError(
                    f"backend={self.backend!r} does not take {name} (only "
                    f"{', '.join(sorted(backends))} does); leave it at the "
                    "default"
                )
        self.build_config().validate(self.backend)

    # -- derived ------------------------------------------------------- #
    @property
    def spec(self) -> AppSpec:
        return APP_SPECS[self.app]

    def merged_params(self) -> dict:
        return self.spec.merged(self.app_params)

    def effective_end_time(self) -> float:
        return (
            self.end_time
            if self.end_time is not None
            else self.spec.default_end_time
        )

    def build_partition(self) -> list:
        return self.spec.build(self.merged_params())

    def build_config(self, **extra: Any) -> SimulationConfig:
        """The :class:`SimulationConfig` this scenario describes.

        ``extra`` lets the runner attach run-local plumbing (oracle,
        tracer, record_trace, max_executed_events) without those living
        in the serialized spec.
        """
        kwargs: dict[str, Any] = dict(
            cancellation=_cancellation_factory(self.cancellation),
            checkpoint=_checkpoint_factory(self.checkpoint),
            aggregation=_aggregation_factory(
                self.aggregation, self.aggregation_window
            ),
            gvt_algorithm=self.gvt_algorithm,
            gvt_period=self.gvt_period,
            end_time=self.effective_end_time(),
            backend="parallel" if self.backend == "parallel" else "modelled",
            workers=self.workers,
            faults=None if self.faults is None else FaultPlan.from_dict(self.faults),
            lp_speed_factors=_speed_factors(self.lp_speed_factors),
            script=self.script,
        )
        if self.time_window == "adaptive":
            kwargs["time_window"] = lambda: AdaptiveTimeWindow()
        if self.meta_control == "on":
            from ..control.meta import MetaController

            kwargs["meta_control"] = lambda: MetaController()
        kwargs.update(extra)
        return SimulationConfig(**kwargs)

    # -- canonical JSON ------------------------------------------------ #
    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"schema": SCHEMA_SCENARIO}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "end_time" and value == float("inf"):
                value = None  # JSON has no Infinity; None means app default
            if f.name == "script" and value is None:
                continue  # keep script-less corpus ids stable
            doc[f.name] = value
        return doc

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, two-space indent."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        schema = data.pop("schema", SCHEMA_SCENARIO)
        if schema != SCHEMA_SCENARIO:
            raise ConfigurationError(
                f"unsupported scenario schema {schema!r} "
                f"(expected {SCHEMA_SCENARIO!r})"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s): {sorted(unknown)}"
            )
        scenario = cls(**data)
        scenario.validate()
        return scenario

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def scenario_id(self) -> str:
        """Short content hash naming repro/corpus files."""
        doc = self.to_dict()
        doc.pop("seed", None)  # provenance, not behaviour
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def with_(self, **changes: Any) -> "Scenario":
        """`dataclasses.replace` spelled for shrinker/fuzzer call sites."""
        return replace(self, **changes)


_DEFAULTS = Scenario()


# --------------------------------------------------------------------- #
# knob -> factory resolution
# --------------------------------------------------------------------- #
def _cancellation_factory(variant: str):
    makers = {
        "aggressive": lambda: StaticCancellation(Mode.AGGRESSIVE),
        "lazy": lambda: StaticCancellation(Mode.LAZY),
        "dynamic": lambda: DynamicCancellation(),
        "st": lambda: single_threshold(),
        "ps32": lambda: PermanentSet(lock_after=32),
        "pa10": lambda: PermanentAggressive(miss_streak=10),
    }
    make = makers[variant]
    return lambda _obj: make()


def _checkpoint_factory(checkpoint: int | str):
    if checkpoint == "dynamic":
        return lambda _obj: DynamicCheckpoint()
    return lambda _obj: StaticCheckpoint(int(checkpoint))


def _speed_factors(factors: dict) -> dict[int, float]:
    """``lp_speed_factors`` keyed by LP id (JSON keys arrive as strings)."""
    try:
        typed = {int(k): float(v) for k, v in factors.items()}
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"lp_speed_factors maps LP ids to numbers, got {factors}"
        ) from None
    if any(lp_id < 0 for lp_id in typed):
        raise ConfigurationError(f"negative LP id in lp_speed_factors {factors}")
    return typed


def _aggregation_factory(variant: str, window: float):
    if variant == "none":
        return lambda _lp: NoAggregation()
    if variant == "fixed":
        return lambda _lp: FixedWindow(window)
    return lambda _lp: SAAWPolicy(initial_window_us=window)
