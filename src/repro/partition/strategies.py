"""Partitioning strategies: object graph -> LP assignment.

All strategies return ``dict[object name, LP index]`` with every LP
non-empty and loads roughly balanced; :func:`apply_assignment` turns an
assignment back into the partition-of-objects shape the kernels take.

* :func:`round_robin` — ignores communication entirely (the baseline a
  locality-aware partitioner must beat).
* :func:`greedy_growth` — seeds one region per LP and repeatedly attaches
  the unassigned object with the strongest connection to the lightest
  eligible region; cheap and surprisingly good on pipeline-shaped models.
* :func:`kernighan_lin` — recursive Kernighan–Lin bisection with a
  load-balancing post-pass; the quality reference.  Plain dicts and
  :mod:`heapq`, no graph library: a port of networkx 3.x
  ``kernighan_lin_bisection``, whose bisections it reproduces on every
  subset of at least half the graph (and so every 2-LP placement).
  Nodes are always visited in ``graph.objects`` order, so placement is
  independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Sequence

from ..kernel.errors import ConfigurationError
from ..kernel.simobject import SimulationObject
from .graph import CommGraph

Assignment = dict[str, int]


def _validate(graph: CommGraph, n_lps: int) -> None:
    if n_lps < 1:
        raise ConfigurationError("need at least one LP")
    if n_lps > len(graph.objects):
        raise ConfigurationError(
            f"cannot split {len(graph.objects)} objects over {n_lps} LPs"
        )


def round_robin(graph: CommGraph, n_lps: int) -> Assignment:
    """Deal objects out in name order, ignoring communication."""
    _validate(graph, n_lps)
    return {name: i % n_lps for i, name in enumerate(graph.objects)}


def greedy_growth(graph: CommGraph, n_lps: int) -> Assignment:
    """Grow one region per LP along the heaviest communication edges."""
    _validate(graph, n_lps)
    total_load = sum(graph.loads.values()) or len(graph.objects)
    capacity = total_load / n_lps * 1.15 + 1  # slack so growth can finish

    # Seeds: the n_lps heaviest-load objects, pairwise spread apart.
    by_load = sorted(graph.objects, key=lambda n: -graph.loads.get(n, 0))
    seeds = by_load[:n_lps]
    assignment: Assignment = {}
    region_load = [0.0] * n_lps
    for lp, seed in enumerate(seeds):
        assignment[seed] = lp
        region_load[lp] = graph.loads.get(seed, 1)

    unassigned = [n for n in graph.objects if n not in assignment]
    # Attach the strongest-affinity object to the lightest eligible region.
    while unassigned:
        best = None  # (affinity, -region load, name, lp)
        for name in unassigned:
            affinity_per_lp = [0.0] * n_lps
            for neighbour, weight in graph.neighbours(name).items():
                lp = assignment.get(neighbour)
                if lp is not None:
                    affinity_per_lp[lp] += weight
            for lp in range(n_lps):
                if region_load[lp] > capacity:
                    continue
                candidate = (affinity_per_lp[lp], -region_load[lp], name, lp)
                if best is None or candidate > best:
                    best = candidate
        if best is None:  # every region at capacity: relax onto lightest
            name = unassigned[0]
            lp = min(range(n_lps), key=region_load.__getitem__)
            best = (0.0, 0.0, name, lp)
        _, _, name, lp = best
        assignment[name] = lp
        region_load[lp] += graph.loads.get(name, 1)
        unassigned.remove(name)
    return assignment


def _kl_sweep(
    adjacency: dict[str, dict[str, int]], side: dict[str, int]
) -> list[tuple[int, int, str, str]]:
    """One KL pass: move single nodes, alternating sides, cheapest first.

    Returns ``(cumulative cost, moves, node from side 0, node from side 1)``
    per pair.  Each side keeps a lazy-deletion min-heap of ``(cost,
    insertion count, node)``: an entry is live only while it matches
    ``live[side][node]``, so a cost update is a push, never a search.
    """
    heaps: tuple[list, list] = ([], [])
    live: tuple[dict, dict] = ({}, {})
    counter = itertools.count()

    def push(s: int, node: str, cost: int) -> None:
        live[s][node] = cost
        heapq.heappush(heaps[s], (cost, next(counter), node))

    def pop(s: int) -> tuple[str, int]:
        while True:
            cost, _, node = heapq.heappop(heaps[s])
            if live[s].get(node) == cost:
                del live[s][node]
                return node, cost

    def moved(node: str) -> None:
        for nbr, weight in adjacency[node].items():
            s = side[nbr]
            if nbr in live[s]:
                delta = -2 * weight if s == side[node] else 2 * weight
                if delta:
                    push(s, nbr, live[s][nbr] + delta)

    for node, nbrs in adjacency.items():
        cost = sum(w if side[v] else -w for v, w in nbrs.items())
        push(side[node], node, cost if side[node] else -cost)
    pairs = []
    total = 0
    while live[0] and live[1]:
        u, cost_u = pop(0)
        moved(u)
        v, cost_v = pop(1)
        moved(v)
        total += cost_u + cost_v
        pairs.append((total, len(pairs) + 1, u, v))
    return pairs


def _kl_bisection(
    adjacency: dict[str, dict[str, int]],
    nodes: Sequence[str],
    seed: int,
    max_iter: int = 10,
) -> tuple[list[str], list[str]]:
    """Split ``nodes`` in two halves with a small cut (sizes differ by at
    most one; the first half is the larger).

    ``adjacency`` is :meth:`CommGraph.adjacency`; both halves come back in
    its order.  A random split (``random.Random(seed)``) is improved by up
    to ``max_iter`` sweeps, each applying its cheapest negative prefix.
    """
    members = set(nodes)
    order = [name for name in adjacency if name in members]
    sub = {
        name: {v: w for v, w in adjacency[name].items() if v in members}
        for name in order
    }
    shuffled = order[:]
    random.Random(seed).shuffle(shuffled)
    upper = set(shuffled[: len(shuffled) // 2])
    side = {name: int(name in upper) for name in order}
    for _ in range(max_iter):
        pairs = _kl_sweep(sub, side)
        best, moves, _, _ = min(pairs)
        if best >= 0:
            break
        for _, _, u, v in pairs[:moves]:
            side[u] = 1
            side[v] = 0
    return (
        [name for name in order if not side[name]],
        [name for name in order if side[name]],
    )


def kernighan_lin(graph: CommGraph, n_lps: int, seed: int = 0) -> Assignment:
    """Recursive Kernighan–Lin bisection, then rebalance."""
    _validate(graph, n_lps)
    adjacency = graph.adjacency()

    def bisect(nodes: list[str], k: int) -> Assignment:
        if k == 1:
            return {name: 0 for name in nodes}
        left_k = k // 2
        right_k = k - left_k
        # partition proportionally to k on each side
        left, right = _kl_bisection(adjacency, nodes, seed)
        # KL gives a 50/50 split; for odd k shift nodes toward the larger
        # side so each side can host its share of LPs
        want_left = round(len(nodes) * left_k / k)
        while len(left) > want_left and left:
            right.append(left.pop())
        while len(left) < want_left and right:
            left.append(right.pop())
        out: Assignment = {}
        for name, lp in bisect(left, left_k).items():
            out[name] = lp
        for name, lp in bisect(right, right_k).items():
            out[name] = left_k + lp
        return out

    assignment = bisect(list(graph.objects), n_lps)
    # guarantee non-empty LPs (tiny graphs can starve a side)
    used = set(assignment.values())
    for lp in range(n_lps):
        if lp not in used:
            donor = max(
                (name for name in assignment),
                key=lambda n: graph.loads.get(n, 0),
            )
            assignment[donor] = lp
            used.add(lp)
    return assignment


def apply_assignment(
    objects: Sequence[SimulationObject], assignment: Assignment, n_lps: int
) -> list[list[SimulationObject]]:
    """Materialize an assignment as the kernels' partition shape."""
    partition: list[list[SimulationObject]] = [[] for _ in range(n_lps)]
    for obj in objects:
        try:
            partition[assignment[obj.name]].append(obj)
        except KeyError:
            raise ConfigurationError(
                f"assignment is missing object {obj.name!r}"
            ) from None
    if any(not group for group in partition):
        raise ConfigurationError("assignment leaves an LP empty")
    return partition


def partition_quality(graph: CommGraph, assignment: Assignment) -> dict:
    """Summary metrics: cut fraction and load imbalance."""
    n_lps = max(assignment.values()) + 1
    loads = [0.0] * n_lps
    for name, lp in assignment.items():
        loads[lp] += graph.loads.get(name, 1)
    total = graph.total_weight()
    cut = graph.cut_weight(assignment)
    mean_load = sum(loads) / n_lps if n_lps else 0.0
    return {
        "cut_fraction": (cut / total) if total else 0.0,
        "imbalance": (max(loads) / mean_load) if mean_load else 1.0,
        "lp_loads": loads,
    }
