"""The kernel checkpoints through the state's own ``copy()`` (WARPED's
``BasicState`` contract): snapshot zero, every save and every restore."""

from dataclasses import dataclass

import pytest

from repro.apps.phold import PHOLDObject, PHOLDParams, build_phold
from repro.kernel.config import SimulationConfig
from repro.kernel.kernel import TimeWarpSimulation
from repro.kernel.state import RecordState


def test_kernel_checkpoints_through_the_states_own_copy(monkeypatch):
    copies = []  # (source, clone, equal at copy time), one per copy()

    @dataclass
    class Counted(RecordState):
        """PHOLD's state fields, with every ``copy()`` logged."""

        jobs_processed: int = 0
        sequence: int = 0
        scratch: list = None  # type: ignore[assignment]

        def copy(self):
            clone = super().copy()
            copies.append((self, clone, clone == self))
            return clone

    monkeypatch.setattr(PHOLDObject, "initial_state", lambda self: Counted(scratch=[0] * 4))
    params = PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=2)
    stats = TimeWarpSimulation(
        build_phold(params),
        SimulationConfig(end_time=2_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0}),
    ).run()

    restores = sum(o.state_restores for o in stats.per_object.values())
    assert restores > 0  # the run rolls back
    assert len(copies) == params.n_objects + stats.state_saves + restores
    for source, clone, equal in copies:
        assert equal
        assert clone is not source and clone.scratch is not source.scratch


def test_ndarray_field_is_copied_and_sized():
    # state.py finds ndarray in sys.modules once numpy is loaded
    numpy = pytest.importorskip("numpy")

    @dataclass
    class _Arr(RecordState):
        values: object = None
        scalar: int = 0

    original = _Arr(values=numpy.arange(8, dtype="<i8"), scalar=3)
    assert original.size_bytes() == 8 + original.values.nbytes + 8
    snap = original.copy()
    assert type(snap.values) is numpy.ndarray
    assert snap.values is not original.values
    snap.values[0] = 99
    assert original.values[0] == 0
