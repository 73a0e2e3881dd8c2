"""The declarative knob specification: one ``KnobSpec`` per tunable.

The paper describes each of its on-line controllers as a control system
``<O, I, S, T, P>`` (Section 3).  A :class:`KnobSpec` is the one place
that tuple is written down: it declares everything the control plane
needs to know about one tunable before any run exists — its value
domain, the sampled output ``O`` a dynamic policy feeds on, the initial
configuration ``S``, the transfer model ``T`` and period ``P`` of that
policy, the safety constraint on values, and the factories that turn a
chosen value (or the decision to go dynamic) into the
:class:`~repro.kernel.config.SimulationConfig` field it governs.  What a
running controller did is not restated here either: every invocation is
one ``ctrl.*`` trace record (``record_type``), whose ``o`` is ``O``,
whose ``old``/``new`` are ``I``, whose ``verdict`` names the branch of
``T`` that fired, and whose cadence is ``P``.

SmartConf (PAPERS.md) calls this shape a *configuration specification*:
once a knob is declared this way, generic machinery — the
:class:`~repro.control.meta.MetaController`, the ``repro-bench ablate``
static-vs-dynamic benchmark, the auto-generated reference table in
``docs/control.md`` — works for it without knob-specific code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..kernel.errors import ConfigurationError


@dataclass(frozen=True)
class KnobSpec:
    """Everything the control plane knows about one tunable.

    The ``<O, I, S, T, P>`` fields are prose (they render into the knob
    reference table of ``docs/control.md``); the callables are the
    executable side: ``check`` enforces the safety constraint,
    ``make_static``/``make_dynamic`` produce the value to assign to
    ``config_field`` on a :class:`~repro.kernel.config.SimulationConfig`.
    """

    #: registry key ("checkpoint", "cancellation", ...)
    name: str
    #: human title for tables and reports
    title: str
    #: the configured input ``I``
    parameter: str
    #: what one policy instance governs: "object" | "lp" | "global"
    target: str
    #: the value domain, as prose
    domain: str
    #: the sampled output ``O`` of the dynamic policy
    sampled_output: str
    #: the initial configuration ``S``
    initial: str
    #: the transfer model ``T`` of the dynamic policy
    transfer: str
    #: the control period ``P`` of the dynamic policy
    period: str
    #: the safety constraint, as prose (``check`` is the executable form)
    constraint: str
    #: the ``ctrl.*`` trace record type the dynamic policy emits
    record_type: str
    #: the :class:`SimulationConfig` field this knob maps onto
    config_field: str
    #: True when the dynamic side lives in the MetaController (global
    #: knobs sampled at GVT rounds) rather than in a per-object/per-LP
    #: policy created by ``make_dynamic``
    meta_managed: bool = False
    #: named static settings for the ablation sweep: (label, value)
    static_values: tuple[tuple[str, Any], ...] = ()
    #: raise :class:`ConfigurationError` on an out-of-domain value
    check: Callable[[Any], None] | None = None
    #: static value -> the config-field value that pins it
    make_static: Callable[[Any], Any] | None = None
    #: () -> the config-field value that puts the knob under on-line
    #: control (None for meta-managed knobs: enabling them means
    #: registering them with a MetaController instead)
    make_dynamic: Callable[[], Any] | None = field(default=None, repr=False)
    #: one-paragraph description for docs/control.md
    doc: str = ""

    def validate_value(self, value: Any) -> None:
        """Enforce the safety constraint on a static setting."""
        if self.check is not None:
            self.check(value)

    def static_config_value(self, value: Any) -> Any:
        """The ``config_field`` value pinning this knob to ``value``."""
        self.validate_value(value)
        if self.make_static is None:
            raise ConfigurationError(
                f"knob {self.name!r} has no static form"
            )
        return self.make_static(value)

    def dynamic_config_value(self) -> Any:
        """The ``config_field`` value putting this knob under on-line
        control; meta-managed knobs have none (use the MetaController)."""
        if self.make_dynamic is None:
            raise ConfigurationError(
                f"knob {self.name!r} is meta-managed: enable it through "
                "MetaController(knobs=...), not a config factory "
                "(docs/control.md)"
            )
        return self.make_dynamic()
