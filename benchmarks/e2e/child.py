"""In-process side of the benchmark: runs inside one fresh interpreter.

``run.py`` launches this file as a child process (``PYTHONHASHSEED=0``)
in one of three modes and reads one JSON result document from its last
stdout line (``measure`` and ``trace`` share its shape: ``workload``,
``attempted``, ``failed``, ``failures``, ``correct``, ``provenance``,
``metrics``, ``bench``):

``setup``    import, build the model and construct a ready-to-run
             simulation over the full public path, print ``READY`` — the
             parent times launch-to-READY.
``measure``  goldens, two warm-up reps, then probe-bracketed timed reps
             for ``--seconds``; every rep verified.  Tracing off.
``trace``    the per-layer pass (see trace.py).

The modules it uses are imported inside the mode functions so that
``setup`` pays for exactly what a user's own script would import.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WARMUP_REPS = 2
RESULT_PREFIX = "RESULT "


# --------------------------------------------------------------------- #
def mode_setup(args) -> dict:
    from workloads import WORKLOADS

    instance = WORKLOADS[args.workload].batch(args.seed)[0]
    sim = instance.make(full=True)
    print("READY", flush=True)
    return {"constructed": type(sim).__name__}


def mode_measure(args) -> dict:
    import statistics

    from reps import account, peak_rss_mb, run_rep, series_summary, timed_series
    from workloads import WORKLOADS

    batch = WORKLOADS[args.workload].batch(args.seed)
    for instance in batch:
        instance.compute_golden()
    model_rates: dict = {}
    warmups = [
        run_rep(instance, model_rates=model_rates)
        for instance in batch[:WARMUP_REPS]
    ]
    reps = timed_series(batch, seconds=args.seconds, model_rates=model_rates)
    rss_mb = peak_rss_mb()  # before the modelled twins below can raise it
    result = {
        "workload": args.workload,
        **account(warmups + reps),
        "provenance": batch[0].provenance({r["wire"] for r in reps if "wire" in r}),
        "metrics": {},
        "bench": {},
    }
    if any(r["ok"] for r in reps):
        for instance in batch:
            if instance.seed not in model_rates:  # parallel: the modelled twin
                model_rates[instance.seed] = instance.modelled_rate()
        bench = series_summary(reps)
        result["metrics"] = {
            "events_per_ref_s": bench.pop("events_per_ref_s"),
            "peak_rss_mb": rss_mb,
            "model_events_per_s": statistics.fmean(model_rates.values()),
        }
        result["bench"] = bench
    return result


def mode_trace(args) -> dict:
    from trace import trace_pass
    from workloads import WORKLOADS

    return trace_pass(WORKLOADS[args.workload], args.seed)


def stop_resource_tracker() -> None:
    """Reap multiprocessing's resource tracker before exiting.

    The shm rings start it; left alone it exits a moment *after* this
    process, and the benchmark must leave no process behind.  The handle
    is private to multiprocessing, hence the guarded lookups.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


MODES = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure mode: length of the timed loop")
    args = parser.parse_args(argv)
    try:
        result = MODES[args.mode](args)
    finally:
        stop_resource_tracker()
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
