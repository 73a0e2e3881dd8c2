"""The per-GVT-round trajectory table is a fold over the trace.

One RAID run with dynamic cancellation, dynamic checkpointing and the
adaptive optimism window, traced in memory; ``summarize(...).rounds`` must
give one row per advancing ``gvt.round`` and agree with the kernel.
"""

import pytest

from repro import (
    AdaptiveTimeWindow,
    DynamicCancellation,
    DynamicCheckpoint,
    NetworkModel,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.raid import RAIDParams, build_raid
from repro.trace import Tracer, summarize
from repro.trace.cli import main as trace_cli


@pytest.fixture(scope="module")
def run():
    tracer = Tracer.in_memory()
    config = SimulationConfig(
        cancellation=lambda o: DynamicCancellation(),
        checkpoint=lambda o: DynamicCheckpoint(period=16),
        time_window=lambda: AdaptiveTimeWindow(min_window=20.0),
        gvt_period=20_000.0,
        lp_speed_factors={1: 1.1, 2: 1.2, 3: 1.3},
        network=NetworkModel(jitter=0.4),
        tracer=tracer,
    )
    sim = TimeWarpSimulation(build_raid(RAIDParams(requests_per_source=60)),
                             config)
    sim.run()
    return sim, tracer, summarize(tracer.records).rounds


def test_one_row_per_advancing_round(run):
    _, tracer, rows = run
    advancing = [r for r in tracer.select("gvt.round") if r["advanced"]]
    assert len(rows) == len(advancing) >= 2
    assert [row.gvt for row in rows] == [r["gvt"] for r in advancing]


def test_progress_never_decreases(run):
    _, _, rows = run
    for column in ("t", "gvt", "executed"):
        values = [getattr(row, column) for row in rows]
        assert values == sorted(values), column


def test_waste_is_never_negative(run):
    _, _, rows = run
    assert all(row.waste >= 0.0 for row in rows)
    assert any(row.rolled_back for row in rows)


def test_chi_trajectory_moves(run):
    _, _, rows = run
    chis = [row.mean_chi for row in rows if row.chi]
    assert chis and min(chis) >= 1.0
    assert max(chis) > chis[0]


def test_final_chi_is_the_kernels(run):
    sim, _, rows = run
    final = rows[-1].chi
    kernel = {ctx.obj.name: ctx.chi
              for lp in sim.lps for ctx in lp.members.values()}
    assert final
    assert {name: kernel[name] for name in final} == final


def test_mode_counts_cover_the_controlled_objects(run):
    _, tracer, rows = run
    controlled: set[str] = set()
    expected = []
    for record in tracer.records:
        if record["type"] == "ctrl.cancellation":
            controlled.add(record["obj"])
        elif record["type"] == "gvt.round" and record["advanced"]:
            expected.append(len(controlled))
    assert [row.lazy + row.aggressive for row in rows] == expected
    assert expected[-1] > 0


def test_optimism_window_is_positive(run):
    _, _, rows = run
    assert all(row.optimism_window > 0 for row in rows)


def test_cli_prints_header_and_one_line_per_row(run, tmp_path, capsys):
    _, tracer, rows = run
    path = tracer.dump(tmp_path / "run.jsonl")
    assert trace_cli(["timeline", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "gvt" in lines[0]
    assert len(lines) == 2 + len(rows)
