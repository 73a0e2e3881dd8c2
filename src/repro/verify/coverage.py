"""Lightweight coverage feedback for the configuration-lattice fuzzer.

Coverage is a set of small string *features* extracted from each run:
the lattice point it sat on (backend, cancellation variant, checkpoint
bucket, aggregation, GVT, faults on/off) and the behaviour it
actually exercised (rollback count and depth buckets, anti-messages,
lazy hits, controller transitions, events a parallel shard committed at
once below its safe bound, which invariant-oracle check kinds fired,
which trace record types were emitted).  The fuzzer biases knob
selection toward values whose features have been seen least, the way a
grey-box fuzzer biases toward rare branch counters — cheap, and enough
to push runs into unexplored lattice regions.
"""

from __future__ import annotations

from .scenario import AXES, Scenario


def bucket(n: int) -> str:
    """Logarithmic count bucket: 0 / 1-9 / 10-99 / 100+."""
    if n <= 0:
        return "0"
    if n < 10:
        return "1-9"
    if n < 100:
        return "10-99"
    return "100+"


def features_for(scenario: Scenario, result, raw: dict) -> set[str]:
    """The feature set one finished run contributes to the map.

    ``result`` is the :class:`~repro.verify.runner.ScenarioResult` under
    construction; ``raw`` is the runner's backend-specific bag (stats,
    oracle, trace record types).
    """
    s = scenario
    features = {
        f"app:{s.app}",
        f"backend:{s.backend}"
        + (f":{s.workers}" if s.backend == "parallel" else ""),
        *(axis.feature(getattr(s, axis.field)) for axis in AXES),
        f"faults:{'on' if s.faults else 'off'}",
        f"speed:{'hetero' if s.lp_speed_factors else 'uniform'}",
        # "on" only when a step ran, so the fuzzer keeps drawing scripts
        "script:" + (
            "off" if not s.script else "on" if raw.get("steps_run") else "unrun"
        ),
    }
    if "migrations" in raw:
        features.add(f"migrations:{bucket(raw['migrations'])}")
    stats = raw.get("stats")
    if stats is not None:
        features.add(f"rollbacks:{bucket(stats.rollbacks)}")
        features.add(f"antis:{bucket(stats.antis_sent)}")
        features.add(f"gvt_rounds:{bucket(stats.gvt_rounds)}")
        features.add(f"lazy:{'hit' if stats.lazy_hits else 'none'}")
        if stats.rollbacks:
            depth = stats.rolled_back_events / stats.rollbacks
            if depth < 2.0:
                features.add("rb_depth:shallow")
            elif depth < 4.0:
                features.add("rb_depth:medium")
            else:
                features.add("rb_depth:deep")
        switches = sum(
            ostats.mode_switches for ostats in stats.per_object.values()
        )
        features.add(f"switches:{bucket(switches)}")
        if s.backend == "parallel":
            features.add(f"safe:{bucket(stats.committed_at_once)}")
    oracle = raw.get("oracle")
    # the parallel backend sums its workers' counts into checks_by_kind
    kinds = raw.get(
        "checks_by_kind", oracle.checks_by_kind if oracle is not None else ()
    )
    for kind in kinds:
        features.add(f"oracle:{kind}")
    for rtype in raw.get("trace_types", ()):
        features.add(f"trace:{rtype}")
    return features


class CoverageMap:
    """Feature -> times-seen counts, plus the novelty test."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.runs = 0

    def add(self, features: frozenset | set) -> set[str]:
        """Record one run's features; returns the never-seen-before ones."""
        self.runs += 1
        fresh = set()
        for feature in features:
            seen = self.counts.get(feature, 0)
            if not seen:
                fresh.add(feature)
            self.counts[feature] = seen + 1
        return fresh

    def seen(self, feature: str) -> int:
        return self.counts.get(feature, 0)

    def covered(self, prefix: str) -> list[str]:
        """Covered features under a prefix, e.g. ``backend:``."""
        return sorted(f for f in self.counts if f.startswith(prefix))

    def render(self) -> str:
        groups: dict[str, list[str]] = {}
        for feature in sorted(self.counts):
            prefix = feature.split(":", 1)[0]
            groups.setdefault(prefix, []).append(feature)
        lines = [f"coverage: {len(self.counts)} feature(s) over {self.runs} run(s)"]
        for prefix, members in sorted(groups.items()):
            values = ", ".join(
                f"{m.split(':', 1)[1]}x{self.counts[m]}" for m in members
            )
            lines.append(f"  {prefix}: {values}")
        return "\n".join(lines)
