"""Unit tests for the application-facing SimulationObject API."""

import pytest

from repro.kernel.errors import ConfigurationError
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState
from dataclasses import dataclass


@dataclass
class S(RecordState):
    n: int = 0


class Obj(SimulationObject):
    def initial_state(self):
        return S()

    def execute_process(self, payload):
        pass


class FakeServices:
    def __init__(self):
        self.sent = []
        self.now = 5.0

    def send(self, dest, delay, payload):
        self.sent.append((dest, delay, payload))


class TestSimulationObject:
    def test_needs_a_name(self):
        with pytest.raises(ConfigurationError):
            Obj("")

    def test_unbound_services_raise(self):
        obj = Obj("x")
        with pytest.raises(ConfigurationError, match="not attached"):
            obj.send_event("y", 1.0, None)
        with pytest.raises(ConfigurationError):
            _ = obj.now

    def test_send_requires_positive_delay(self):
        obj = Obj("x")
        obj.bind(FakeServices())
        with pytest.raises(ConfigurationError, match="delay must be > 0"):
            obj.send_event("y", 0.0, None)
        with pytest.raises(ConfigurationError):
            obj.send_event("y", -1.0, None)

    def test_send_delegates_to_services(self):
        obj = Obj("x")
        services = FakeServices()
        obj.bind(services)
        obj.send_event("y", 2.0, ("p",))
        assert services.sent == [("y", 2.0, ("p",))]

    def test_now_reads_services(self):
        obj = Obj("x")
        obj.bind(FakeServices())
        assert obj.now == 5.0

    def test_default_hooks_are_noops(self):
        obj = Obj("x")
        obj.initialize()
        obj.finalize()

    def test_base_class_requires_overrides(self):
        class Bare(SimulationObject):
            pass

        bare = Bare("b")
        with pytest.raises(NotImplementedError):
            bare.initial_state()
        with pytest.raises(NotImplementedError):
            bare.execute_process(None)

    def test_default_grain_factor(self):
        assert Obj("x").grain_factor == 1.0


class TestLookaheadDeclaration:
    """``send_event`` enforces the declared lookahead; ``bind`` refuses a
    negative one (kernels bind every object they run)."""

    class _Sender(SimulationObject):
        def initial_state(self):
            return None

    def _bound(self, lookahead):
        obj = self._Sender("s")
        obj.lookahead = lookahead
        sent = []

        class Services:
            now = 0.0

            def send(self, dest, delay, payload):
                sent.append(delay)

        obj.bind(Services())
        return obj, sent

    @pytest.mark.parametrize("lookahead,delay,ok", [
        (0.0, 0.5, True), (0.0, 0.0, False), (0.0, -1.0, False),
        (5.0, 5.0, True), (5.0, 6.0, True), (5.0, 4.999, False),
    ])
    def test_delay_must_clear_the_declaration(self, lookahead, delay, ok):
        obj, sent = self._bound(lookahead)
        if ok:
            obj.send_event("x", delay, None)
            assert sent == [delay]
        else:
            with pytest.raises(ConfigurationError, match="lookahead"):
                obj.send_event("x", delay, None)

    def test_negative_lookahead_refused_at_bind(self):
        with pytest.raises(ConfigurationError, match="lookahead must be >= 0"):
            self._bound(-1.0)
