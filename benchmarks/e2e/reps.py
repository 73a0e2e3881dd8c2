"""Verified, probe-bracketed reps: the unit every series is made of.

Every rep runs inside ``try/except``: a crash is recorded with its
exception class and innermost traceback frame, counted as a failed rep,
and the series goes on.  Nothing is retried.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
import traceback
from pathlib import Path

from estimate import iqr_share, median_rate, percentile, ref_seconds
from probe import run_probe

#: a timed series always tries this many reps, however slow the host is
MIN_REPS = 16


def describe_failure(exc: BaseException) -> str:
    """``Class: message | file:line in func`` of the innermost frame."""
    message = str(exc).strip().splitlines()
    frames = traceback.extract_tb(exc.__traceback__)
    where = ""
    if frames:
        last = frames[-1]
        where = f" | {Path(last.filename).name}:{last.lineno} in {last.name}"
    text = f"{type(exc).__name__}: {message[-1] if message else ''}{where}"
    return text[:300]


def run_rep(instance, *, model_rates: dict, config=None, full: bool = False,
            around_run=contextlib.nullcontext, inspect=None) -> dict:
    """One verified rep of ``instance``; failures are recorded, not raised.

    ``around_run`` is a context-manager factory wrapped around
    construction + ``run()`` (the trace pass hangs its profiler there);
    ``wall_s`` is always the wall time of ``run()`` alone.  ``inspect`` is
    an optional ``(sim, stats) -> dict`` whose result joins the record;
    the simulation itself is dropped so a long series holds no garbage.
    ``model_rates`` remembers each instance's modelled rate: a later rep
    that reports another value is nondeterministic, hence failed.
    """
    rec: dict = {"ok": False, "seed": instance.seed}
    try:
        with around_run():
            sim = instance.make(config=config, full=full)
            gc.collect()
            started = time.perf_counter()
            stats = sim.run()
            rec["wall_s"] = time.perf_counter() - started
        instance.verify(sim, stats)
        if instance.backend == "modelled":
            rate = stats.committed_events_per_second
            first = model_rates.setdefault(instance.seed, rate)
            if rate != first:
                raise AssertionError(
                    f"modelled rate {rate!r} differs from first rep {first!r}"
                )
        else:
            rec["wire"] = sim.wire
        if inspect is not None:
            rec.update(inspect(sim, stats))
        rec.update(ok=True, committed=stats.committed_events)
    except Exception as exc:  # a crash is a counted failure, not an abort
        rec["error"] = describe_failure(exc)
        # a finished run with the wrong answer, as opposed to a crash
        rec["wrong"] = isinstance(exc, AssertionError)
    return rec


def timed_series(instances, *, seconds: float, min_reps: int = MIN_REPS,
                 **rep_kwargs) -> list[dict]:
    """Probe-bracketed reps over ``instances`` in turn, for ``seconds`` and
    at least ``min_reps`` (so ``seconds=0`` runs exactly ``min_reps``).

    A probe runs before the first rep and after every rep, so rep ``i`` is
    bracketed by probes ``i`` and ``i + 1`` and neighbours share one; each
    record carries its own pair as ``probe_before_s`` / ``probe_after_s``.
    """
    rep_kwargs.setdefault("model_rates", {})
    reps: list[dict] = []
    before = run_probe()
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        rec = run_rep(instances[len(reps) % len(instances)], **rep_kwargs)
        after = run_probe()
        rec["probe_before_s"], rec["probe_after_s"] = before, after
        reps.append(rec)
        before = after
    return reps


def account(reps: list[dict]) -> dict:
    """Failure accounting of a list of reps, in the result document's keys.

    ``correct`` is false when a rep *finished with a wrong answer*; a
    crash is a failure, not an incorrect output.
    """
    failures = [r["error"] for r in reps if not r["ok"]]
    return {
        "attempted": len(reps),
        "failed": len(failures),
        "failures": failures,
        "correct": not any(r.get("wrong") for r in reps),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB




def ok_ref_s(reps: list[dict]) -> list[float]:
    """Reference seconds of each successful rep."""
    return [
        ref_seconds(r["wall_s"], r["probe_before_s"], r["probe_after_s"])
        for r in reps if r["ok"]
    ]


def series_summary(reps: list[dict]) -> dict[str, float]:
    """``events_per_ref_s`` of an untraced series and its ``bench.*`` notes.

    Within one model instance the estimate is the median of the per-rep
    normalised rates.  A batch holds several seeded instances whose true
    rates differ by a few percent, so the batch value is the mean of the
    per-instance medians: the median stays the defence against timing
    outliers, the mean only pools different inputs.
    """
    ok = [r for r in reps if r["ok"]]
    ref_s = ok_ref_s(reps)
    by_instance: dict[int, tuple[list, list]] = {}
    for rec, seconds in zip(ok, ref_s):
        work, times = by_instance.setdefault(rec["seed"], ([], []))
        work.append(rec["committed"])
        times.append(seconds)
    probes = [r["probe_before_s"] for r in reps] + [reps[-1]["probe_after_s"]]
    return {
        "events_per_ref_s": statistics.fmean(
            median_rate(work, times) for work, times in by_instance.values()
        ),
        "bench.wall_events_per_s": statistics.median(
            r["committed"] / r["wall_s"] for r in ok
        ),
        "bench.probe_ms_p50": 1e3 * statistics.median(probes),
        "bench.rep_ref_s_p50": statistics.median(ref_s),
        "bench.rep_ref_s_p80": percentile(ref_s, 0.80),
        "bench.reps": len(ok),
        "bench.rep_ratio_iqr": statistics.median(
            iqr_share([w / t for w, t in zip(work, times)])
            for work, times in by_instance.values()
        ),
    }
