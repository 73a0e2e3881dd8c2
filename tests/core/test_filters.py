"""Unit tests for the control-system data filters."""

import pytest

from repro.core.filters import SampleWindow
from repro.kernel.errors import ConfigurationError


class TestSampleWindow:
    def test_requires_positive_depth(self):
        with pytest.raises(ConfigurationError):
            SampleWindow(0)

    def test_ratio_divides_by_full_depth(self):
        window = SampleWindow(4)
        window.record(True)
        # one hit out of depth 4, even though only 1 sample seen
        assert window.ratio() == 0.25

    def test_ratio_slides(self):
        window = SampleWindow(3)
        for value in (True, True, True):
            window.record(value)
        assert window.ratio() == 1.0
        window.record(False)  # evicts a True
        assert window.ratio() == pytest.approx(2 / 3)

    def test_eviction_of_false_keeps_count(self):
        window = SampleWindow(2)
        window.record(False)
        window.record(True)
        window.record(True)  # evicts the False
        assert window.ratio() == 1.0

    def test_consecutive_false_streak(self):
        window = SampleWindow(8)
        for value in (False, False, True, False, False, False):
            window.record(value)
        assert window.consecutive_false == 3
        window.record(True)
        assert window.consecutive_false == 0

    def test_warmup_and_counts(self):
        window = SampleWindow(2)
        assert not window.is_warm()
        window.record(True)
        window.record(False)
        assert window.is_warm()
        assert window.samples_seen == 2
        assert len(window) == 2

