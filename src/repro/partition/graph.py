"""Object-communication graphs, measured by profiling.

The paper's models ship with partitions hand-crafted "to take advantage
of the fast intra-LP communication".  For arbitrary user models this
package does the same automatically: profile the model sequentially,
build the weighted object-communication graph, and hand it to a
partitioning strategy (:mod:`repro.partition.strategies`).

Profiling runs the *sequential* kernel with a counting shim around the
send path, so it needs no Time Warp machinery and no model changes — the
same trick the WARPED model generators used (static knowledge), except
measured instead of assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..kernel.errors import ConfigurationError
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


def profile_model(
    objects: Sequence[SimulationObject],
    *,
    end_time: float = float("inf"),
    max_events: int | None = 200_000,
) -> CommGraph:
    """Run the model sequentially and measure its communication graph.

    The model's objects are *consumed* (they run); build fresh objects
    for the actual partitioned run.
    """
    if not objects:
        raise ConfigurationError("nothing to profile")
    graph = CommGraph(objects=[obj.name for obj in objects])
    counts: Counter[tuple[str, str]] = Counter()
    loads: Counter[str] = Counter()

    seq = SequentialSimulation(list(objects), end_time=end_time,
                               max_events=max_events, record_trace=True)
    seq.run()
    for _recv_time, receiver, sender, _send_time, _payload in seq.trace or []:
        counts[(sender, receiver)] += 1
        loads[receiver] += 1

    for (src, dst), count in counts.items():
        graph.add_message(src, dst, count)
    graph.loads = dict(loads)
    for name in graph.objects:
        graph.loads.setdefault(name, 0)
    return graph
