#!/usr/bin/env python
"""Watching the on-line controllers converge.

Runs SMMP with all four control systems active — dynamic check-pointing,
dynamic cancellation, SAAW aggregation and the adaptive optimism window —
and prints one row per GVT round showing every knob's trajectory: the
mean checkpoint interval climbing away from save-every-event, objects
flipping from the aggressive initial strategy to lazy, the aggregation
windows drifting, and the optimism window clamping when rollback waste
spikes.

The table is a fold over the run's controller-decision trace (JSONL,
schema in docs/observability.md; ``repro-trace timeline FILE`` prints the
same table), and the example cross-checks that trace against the kernel:
the last ``ctrl.checkpoint`` record per object must land exactly on the
checkpoint interval the object finished the run with — the trace *is* the
controller's trajectory, not a parallel account of it.

This is the paper's thesis as a time series: the configuration is not a
setting, it is a *signal*.

Run:  python examples/controller_convergence.py [requests-per-processor] [trace-path]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    AdaptiveTimeWindow,
    DynamicCancellation,
    DynamicCheckpoint,
    NetworkModel,
    SAAWPolicy,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.smmp import SMMPParams, build_smmp
from repro.trace import Tracer, load_trace, read_trace, summarize, validate_trace
from repro.trace.cli import render_rounds


def main() -> None:
    requests = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    if len(sys.argv) > 2:
        trace_path = Path(sys.argv[2])
    else:
        fd, name = tempfile.mkstemp(prefix="controller_convergence_",
                                    suffix=".jsonl")
        import os
        os.close(fd)
        trace_path = Path(name)

    with Tracer.to_path(trace_path) as tracer:
        config = SimulationConfig(
            checkpoint=lambda obj: DynamicCheckpoint(period=16),
            cancellation=lambda obj: DynamicCancellation(period=8),
            aggregation=lambda lp: SAAWPolicy(initial_window_us=8_000.0),
            time_window=lambda: AdaptiveTimeWindow(min_window=50.0),
            lp_speed_factors={1: 1.2, 2: 1.4, 3: 1.7},
            network=NetworkModel(jitter=0.4),
            gvt_period=25_000.0,
            tracer=tracer,
        )
        params = SMMPParams(requests_per_processor=requests)
        sim = TimeWarpSimulation(build_smmp(params), config)
        stats = sim.run()

    print(f"SMMP, {requests} requests/processor, all four controllers live\n")
    print(render_rounds(summarize(read_trace(trace_path)).rounds))
    print()
    print(stats.summary())

    # -- the trace agrees with the kernel -------------------------------- #
    errors = validate_trace(trace_path)
    assert not errors, errors[:5]
    moves = load_trace(trace_path, types=("ctrl.checkpoint",))
    final_chi = {ctx.obj.name: ctx.chi
                 for lp in sim.lps for ctx in lp.members.values()}
    last_move = {r["obj"]: r["new"] for r in moves}
    mismatched = {name for name, chi in last_move.items()
                  if final_chi[name] != chi}
    assert not mismatched, f"trace diverged from kernel for {sorted(mismatched)}"
    n_records = sum(1 for _ in open(trace_path))
    print(f"\ntrace: {n_records} records -> {trace_path}")
    print(f"trace chi trajectory matches final intervals for "
          f"{len(last_move)} controlled objects")
    print("inspect with: repro-trace summarize", trace_path)


if __name__ == "__main__":
    main()
