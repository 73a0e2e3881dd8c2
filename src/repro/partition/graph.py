"""Object-communication graphs, measured by profiling a pilot.

The paper's models ship with partitions hand-crafted "to take advantage
of the fast intra-LP communication".  For arbitrary user models this
package does the same automatically: profile a *pilot* — the model's
first events on the sequential kernel — build the weighted
object-communication graph, and hand it to a partitioning strategy
(:mod:`repro.partition.strategies`).

The pilot is the paper's control period applied to placement: a short
sample of the run's own behaviour, ``PILOT_EVENTS_PER_OBJECT`` events
per object, not a rehearsal of the whole run.  Profiling counts the
``(sender, receiver)`` pair of every event the sequential kernel
executes, so it needs no Time Warp machinery and no model changes — the
same trick the WARPED model generators used (static knowledge), except
measured instead of assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from ..kernel.errors import ConfigurationError
from ..kernel.kernel import suspend_collector
from ..kernel.simobject import SimulationObject
from ..sequential.kernel import SequentialSimulation


@dataclass
class CommGraph:
    """A weighted, undirected object-communication graph.

    ``weights[(a, b)]`` (names sorted) is the number of events exchanged
    between objects ``a`` and ``b``; ``loads[a]`` is the number of events
    object ``a`` executed (its CPU weight).
    """

    objects: list[str] = field(default_factory=list)
    weights: dict[tuple[str, str], int] = field(default_factory=dict)
    loads: dict[str, int] = field(default_factory=dict)

    def add_message(self, src: str, dst: str, count: int = 1) -> None:
        if src == dst:
            return
        key = (src, dst) if src <= dst else (dst, src)
        self.weights[key] = self.weights.get(key, 0) + count

    def edge_weight(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        return self.weights.get(key, 0)

    def neighbours(self, name: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for (a, b), w in self.weights.items():
            if a == name:
                out[b] = w
            elif b == name:
                out[a] = w
        return out

    def total_weight(self) -> int:
        return sum(self.weights.values())

    def cut_weight(self, assignment: dict[str, int]) -> int:
        """Total weight of edges crossing LP boundaries under
        ``assignment`` (object name -> LP index)."""
        cut = 0
        for (a, b), w in self.weights.items():
            if assignment[a] != assignment[b]:
                cut += w
        return cut

    def adjacency(self) -> dict[str, dict[str, int]]:
        """``{object: {neighbour: weight}}`` in ``objects`` order, each
        neighbour map in ``weights`` order (the KL strategy's input)."""
        adjacency: dict[str, dict[str, int]] = {name: {} for name in self.objects}
        for (a, b), w in self.weights.items():
            adjacency[a][b] = w
            adjacency[b][a] = w
        return adjacency


#: events the placement pilot profiles per simulation object: on the
#: 16-object PHOLD benchmarks (2 048 events) its KL placement cuts within
#: a few percent of a full-horizon profile's (EXPERIMENTS.md)
PILOT_EVENTS_PER_OBJECT = 128


@suspend_collector
def profile_model(
    objects: Sequence[SimulationObject],
    *,
    end_time: float = float("inf"),
    max_events: int | None = None,
) -> CommGraph:
    """Measure the model's communication graph from a sequential pilot.

    Profiles at most ``max_events`` events (default: the pilot,
    ``PILOT_EVENTS_PER_OBJECT * len(objects)``), in timestamp order, or
    fewer if ``end_time`` comes first; then it stops — a long or endless
    model is never an error.  The model's objects are *consumed* (they
    run); build fresh objects for the actual partitioned run.
    """
    if not objects:
        raise ConfigurationError("nothing to profile")
    if max_events is None:
        max_events = PILOT_EVENTS_PER_OBJECT * len(objects)
    seq = SequentialSimulation(list(objects), end_time=end_time)
    pairs = Counter(
        (event.sender, event.receiver)
        for event in islice(seq.events(), max_events)
    )

    names = [obj.name for obj in seq.objects]
    graph = CommGraph(objects=names)
    loads = dict.fromkeys(names, 0)
    for (src, dst), count in pairs.items():
        graph.add_message(names[src], names[dst], count)
        loads[names[dst]] += count
    graph.loads = loads
    return graph
