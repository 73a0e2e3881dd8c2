"""The knob registry: every tunable of the simulator, declared as data.

One :class:`~repro.control.spec.KnobSpec` per knob the paper's
configuration space exposes — the four with in-kernel dynamic
controllers (checkpoint interval, cancellation strategy, aggregation
window, optimism window) and the two global ones the
:class:`~repro.control.meta.MetaController` drives (GVT period, object
placement).  The four legacy controllers in :mod:`repro.core` are *not*
re-implemented here: each registry entry's ``make_dynamic`` returns the
same policy object with the same defaults the kernel has always used, so
a run configured through the registry is byte-trace-identical to one
configured by hand.

Generic consumers:

* :func:`dynamic_config_kwargs` — SimulationConfig kwargs that put any
  subset of knobs under on-line control (``repro-bench ablate`` uses it
  for the dynamic cell of every sweep);
* :func:`render_knob_table` — the markdown reference table embedded in
  ``docs/control.md`` (``repro-control docs``), drift-guarded by
  ``tests/control/test_docs.py``.
"""

from __future__ import annotations

import importlib
from typing import Any

from ..comm.aggregation import FixedWindow, NoAggregation
from ..kernel.cancellation import Mode, StaticCancellation
from ..kernel.checkpointing import MAX_INTERVAL, StaticCheckpoint
from ..kernel.errors import ConfigurationError
from .spec import KnobSpec

#: registration order is presentation order (docs table, CLI listing)
KNOBS: dict[str, KnobSpec] = {}


def register(spec: KnobSpec) -> KnobSpec:
    if spec.name in KNOBS:
        raise ConfigurationError(f"duplicate knob {spec.name!r}")
    KNOBS[spec.name] = spec
    return spec


def get_knob(name: str) -> KnobSpec:
    try:
        return KNOBS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown knob {name!r} (registered: {sorted(KNOBS)})"
        ) from None


def _policy(module: str, name: str, *args: Any):
    """A factory of ``repro.core.<module>.<name>(*args)``, one policy per
    target.  The class is imported when a knob is built, so validating a
    config loads no controller."""
    cls = getattr(importlib.import_module(f"..core.{module}", __package__), name)
    return lambda *_target: cls(*args)


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #
def _check_checkpoint(value: Any) -> None:
    if not isinstance(value, int) or not 1 <= value <= MAX_INTERVAL:
        raise ConfigurationError(
            f"checkpoint interval must be an int in [1, {MAX_INTERVAL}], "
            f"got {value!r}"
        )


def _check_cancellation(value: Any) -> None:
    if not isinstance(value, Mode):
        raise ConfigurationError(
            f"cancellation value must be a Mode, got {value!r}"
        )


def _check_aggregation(value: Any) -> None:
    if value is not None and (not isinstance(value, (int, float)) or value <= 0):
        raise ConfigurationError(
            f"aggregation window must be a positive number of us or None, "
            f"got {value!r}"
        )


def _check_time_window(value: Any) -> None:
    if value is not None and (not isinstance(value, (int, float)) or value <= 0):
        raise ConfigurationError(
            f"time window must be a positive width in virtual time or None, "
            f"got {value!r}"
        )


def _check_gvt_period(value: Any) -> None:
    if not isinstance(value, (int, float)) or value <= 0:
        raise ConfigurationError(
            f"gvt_period must be a positive number of us, got {value!r}"
        )


def _check_placement(value: Any) -> None:
    if value not in ("static", "dynamic"):
        raise ConfigurationError(
            f"placement must be 'static' or 'dynamic', got {value!r}"
        )


# --------------------------------------------------------------------- #
# the six knobs
# --------------------------------------------------------------------- #
register(KnobSpec(
    name="checkpoint",
    title="Checkpoint interval",
    parameter="checkpoint interval chi",
    target="object",
    domain=f"int in [1, {MAX_INTERVAL}] or dynamic",
    sampled_output="Ec: state-saving + coast-forward cost per window event",
    initial="chi = 1 (save every event)",
    transfer="+-1 step: increment chi unless Ec rose significantly",
    period="16 processed events per object",
    constraint=f"1 <= chi <= {MAX_INTERVAL}",
    record_type="ctrl.checkpoint",
    config_field="checkpoint",
    static_values=tuple((f"chi={c}", c) for c in (1, 2, 4, 8, 16, 32, 64)),
    check=_check_checkpoint,
    make_static=lambda chi: (lambda _obj, c=chi: StaticCheckpoint(c)),
    make_dynamic=lambda: _policy("checkpoint_controller", "DynamicCheckpoint"),
    doc="Section 4: infrequent state saving trades save cost against "
        "coast-forward cost; the paper's heuristic walks chi by +-1 "
        "toward the U-curve minimum of Ec.",
))

register(KnobSpec(
    name="cancellation",
    title="Cancellation strategy",
    parameter="cancellation strategy (aggressive | lazy)",
    target="object",
    domain="aggressive | lazy | dynamic (DC)",
    sampled_output="HR: lazy hit ratio over the filter depth",
    initial="aggressive",
    transfer="dead zone on HR: >= 0.45 -> lazy, <= 0.2 -> aggressive",
    period="8 resolved comparisons per object",
    constraint="value must be a kernel Mode",
    record_type="ctrl.cancellation",
    config_field="cancellation",
    static_values=(
        ("aggressive", Mode.AGGRESSIVE),
        ("lazy", Mode.LAZY),
    ),
    check=_check_cancellation,
    make_static=lambda mode: (lambda _obj, m=mode: StaticCancellation(m)),
    make_dynamic=lambda: _policy("cancellation_controller", "DynamicCancellation"),
    doc="Section 5: lazy cancellation wins when rollbacks regenerate the "
        "same messages (high HR); the DC controller monitors HR in both "
        "modes and switches inside a dead zone.",
))

register(KnobSpec(
    name="aggregation",
    title="Message aggregation window",
    parameter="aggregation window W (us)",
    target="lp",
    domain="none | fixed W > 0 us | dynamic (SAAW)",
    sampled_output="R(age): age-modified message reception rate",
    initial="W = 100 us",
    transfer="SAAW: W *= 1 +- 0.1 as R(age) rises/falls",
    period="every flushed aggregate",
    constraint="W must be positive (None = no aggregation)",
    record_type="ctrl.aggregation",
    config_field="aggregation",
    static_values=(
        ("none", None),
        ("W=50", 50.0),
        ("W=200", 200.0),
        ("W=1000", 1000.0),
    ),
    check=_check_aggregation,
    make_static=lambda w: (
        (lambda _lp: NoAggregation())
        if w is None
        else (lambda _lp, v=float(w): FixedWindow(v))
    ),
    make_dynamic=lambda: _policy("aggregation_controller", "SAAWPolicy"),
    doc="Section 6 (DyMA): batching events into one physical message "
        "amortizes per-message cost but delays delivery; SAAW adapts the "
        "window to the observed reception rate.",
))

register(KnobSpec(
    name="time_window",
    title="Bounded time window",
    parameter="optimism window width (virtual time)",
    target="global",
    domain="unbounded | static width > 0 | adaptive",
    sampled_output="wasted-work ratio: rolled back / executed per GVT interval",
    initial="unbounded (pure Time Warp)",
    transfer="multiplicative shrink/grow outside the [0.08, 0.25] waste band",
    period="every advancing GVT round",
    constraint="width must be positive (None = unbounded)",
    record_type="ctrl.window",
    config_field="time_window",
    static_values=(
        ("unbounded", None),
        ("W=50", 50.0),
        ("W=200", 200.0),
        ("W=1000", 1000.0),
    ),
    check=_check_time_window,
    make_static=lambda w: (
        None if w is None
        else _policy("window_controller", "StaticTimeWindow", float(w))
    ),
    make_dynamic=lambda: _policy("window_controller", "AdaptiveTimeWindow"),
    doc="Extension: throttle optimism to GVT + W so far-future execution "
        "cannot run ahead and be rolled back; the adaptive policy servos "
        "W on the observed waste ratio.",
))

register(KnobSpec(
    name="gvt_period",
    title="GVT period",
    parameter="GVT round period (wall-clock us)",
    target="global",
    domain="period > 0 us or dynamic (meta)",
    sampled_output="uncommitted-history backlog per LP (events)",
    initial="50,000 us",
    transfer="dead zone on backlog: > 512 -> halve period, < 64 -> grow 1.5x",
    period="every 4 advancing GVT rounds",
    constraint="period clamped to [1e3, 1e6] us",
    record_type="ctrl.gvt",
    config_field="gvt_period",
    meta_managed=True,
    static_values=(
        ("P=5ms", 5_000.0),
        ("P=20ms", 20_000.0),
        ("P=50ms", 50_000.0),
        ("P=200ms", 200_000.0),
    ),
    check=_check_gvt_period,
    make_static=lambda period: float(period),
    doc="Frequent GVT rounds reclaim memory sooner but spend bandwidth "
        "and CPU on control traffic (ablation A4); the meta-controller "
        "servos the period on the uncommitted-history backlog.",
))

register(KnobSpec(
    name="placement",
    title="Object placement",
    parameter="object -> host placement",
    target="global",
    domain="static | dynamic (live migration)",
    sampled_output="cost-weighted per-host committed-event imbalance "
                   "over the control window",
    initial="the configured partition (static)",
    transfer="imbalance > 1.25x mean -> migrate the object that most "
             "lowers the peak",
    period="every 8 advancing GVT rounds",
    constraint="moves never empty a host; chosen move must strictly "
               "lower the peak",
    record_type="ctrl.placement",
    config_field="placement",
    meta_managed=True,
    static_values=(("static", "static"),),
    check=_check_placement,
    make_static=lambda value: str(value),
    doc="Where each object runs is itself a knob: the meta-controller's "
        "placement loop live-migrates the full Time Warp context of hot "
        "objects between modelled LPs, and the parallel backend's "
        "coordinator balancer does the same between worker processes "
        "through checkpoint handoff (docs/parallel.md).",
))


# --------------------------------------------------------------------- #
# generic consumers
# --------------------------------------------------------------------- #
def dynamic_config_kwargs(knobs: tuple[str, ...] | None = None) -> dict[str, Any]:
    """SimulationConfig kwargs putting ``knobs`` under on-line control.

    Per-object/per-LP knobs map to their dynamic policy factory;
    meta-managed knobs are collected into one ``meta_control`` factory.
    ``None`` selects every registered knob (the full control plane).
    """
    names = tuple(KNOBS) if knobs is None else knobs
    kwargs: dict[str, Any] = {}
    meta: list[str] = []
    for name in names:
        spec = get_knob(name)
        if spec.meta_managed:
            meta.append(name)
        else:
            kwargs[spec.config_field] = spec.dynamic_config_value()
    if meta:
        from .meta import MetaController

        picked = tuple(meta)
        kwargs["meta_control"] = lambda: MetaController(knobs=picked)
    return kwargs


def static_config_kwargs(knob: str, value: Any) -> dict[str, Any]:
    """SimulationConfig kwargs pinning one knob to one static value."""
    spec = get_knob(knob)
    config_value = spec.static_config_value(value)
    if config_value is None:  # e.g. time_window "unbounded"
        return {}
    return {spec.config_field: config_value}


def render_knob_table() -> str:
    """The markdown knob reference table for docs/control.md."""

    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    header = (
        "| knob | target | domain | O (sampled output) | "
        "T (transfer) | P (period) | constraint | trace record |\n"
        "|---|---|---|---|---|---|---|---|"
    )
    rows = [
        f"| `{spec.name}` | {cell(spec.target)} | {cell(spec.domain)} | "
        f"{cell(spec.sampled_output)} | {cell(spec.transfer)} | "
        f"{cell(spec.period)} | {cell(spec.constraint)} | "
        f"`{spec.record_type}` |"
        for spec in KNOBS.values()
    ]
    return "\n".join([header, *rows])
