"""Load-driven move selection for dynamic placement.

Both dynamic-placement drivers — the MetaController on the modelled
backend and the coordinator of the parallel backend — ask one
:class:`~repro.control.meta.PlacementController`, which reduces to one
question: given per-object executed-event counts grouped by host,
which objects should move where?  :func:`choose_moves` answers it with a
deliberately simple greedy rule (the hottest host donates the object
that most lowers the peak host load), because the *interesting*
machinery is the migration itself; the policy only needs to be
deterministic, cheap, and monotone-improving so it cannot flap.

Host heterogeneity enters through ``factors``: a host's load is its
event count times its cost factor (the modelled per-LP speed factor; 1.0
for the parallel backend's identical worker processes), so on a skewed
NOW the balancer drains the slow workstations instead of piling onto
them.

All tie-breaks are total orders over (load, id) so two runs fed the same
samples pick the same moves.
"""

from __future__ import annotations

#: (oid, src_host, dst_host)
Move = tuple[int, int, int]


def choose_moves(
    loads: dict[int, dict[int, int]],
    *,
    threshold: float = 1.25,
    factors: dict[int, float] | None = None,
    max_moves: int = 1,
) -> tuple[Move, ...]:
    """Pick up to ``max_moves`` rebalancing moves from a load sample.

    ``loads`` maps host -> {object id -> executed events}; ``factors``
    maps host -> cost factor (missing hosts default to 1.0), making a
    host's load ``factor * sum(events)``.  A move is only proposed when
    the hottest host exceeds ``threshold`` times the mean host load,
    hosts at least two objects (never empty a host implicitly), and the
    donation strictly lowers the peak of the (src, dst) pair.  The input
    is not mutated.
    """
    if len(loads) < 2 or max_moves < 1:
        return ()
    given = factors or {}
    factor = {host: given.get(host, 1.0) for host in loads}
    work = {host: dict(per) for host, per in loads.items()}
    totals = {
        host: factor[host] * sum(per.values()) for host, per in work.items()
    }
    moves: list[Move] = []
    for _ in range(max_moves):
        src = min(totals, key=lambda host: (-totals[host], host))
        dst = min(totals, key=lambda host: (totals[host], host))
        mean = sum(totals.values()) / len(totals)
        if src == dst or len(work[src]) < 2:
            break
        if mean <= 0 or totals[src] <= threshold * mean:
            break
        # The donor object that most lowers max(src, dst) after the move;
        # an improvement at all requires that peak to drop below the
        # current hot-host load.
        best: tuple[float, int] | None = None
        for oid, events in work[src].items():
            if events <= 0:
                continue
            peak = max(
                totals[src] - factor[src] * events,
                totals[dst] + factor[dst] * events,
            )
            if peak >= totals[src]:
                continue
            if best is None or (peak, oid) < best:
                best = (peak, oid)
        if best is None:
            break
        _, oid = best
        events = work[src].pop(oid)
        work[dst][oid] = events
        totals[src] -= factor[src] * events
        totals[dst] += factor[dst] * events
        moves.append((oid, src, dst))
    return tuple(moves)
