"""Ping-pong: the minimal two-object model, used heavily by the tests.

Each player receives a counter token and returns it after a fixed delay
until ``rounds`` exchanges have happened.  With the two players on
different LPs, the model exercises every inter-LP code path (network,
aggregation, rollback when LP clocks skew) while remaining small enough
to reason about exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.simobject import SimulationObject
from ..kernel.state import RecordState


@dataclass
class PingPongState(RecordState):
    tokens_seen: int = 0
    last_value: int = -1
    log: list[int] = field(default_factory=list)


class Player(SimulationObject):
    """One ping-pong player."""

    def __init__(self, name: str, peer: str, rounds: int, delay: float = 10.0,
                 serve: bool = False) -> None:
        super().__init__(name)
        self.peer = peer
        self.rounds = rounds
        self.delay = delay
        self.lookahead = delay
        self.serve = serve

    def initial_state(self) -> PingPongState:
        return PingPongState()

    def initialize(self) -> None:
        if self.serve:
            self.send_event(self.peer, self.delay, 0)

    def execute_process(self, payload: int) -> None:
        state: PingPongState = self.state
        state.tokens_seen += 1
        state.last_value = payload
        state.log.append(payload)
        if payload + 1 < self.rounds:
            self.send_event(self.peer, self.delay, payload + 1)


def build_pingpong(
    rounds: int = 100, delay: float = 10.0, split: bool = True
) -> list[list[SimulationObject]]:
    """Build the two players; ``split`` puts them on separate LPs."""
    ping = Player("ping", "pong", rounds, delay, serve=True)
    pong = Player("pong", "ping", rounds, delay)
    if split:
        return [[ping], [pong]]
    return [[ping, pong]]
