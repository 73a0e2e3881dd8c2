"""PHOLD: the classic synthetic Time Warp stress workload (extension).

Each object holds a population of jobs; processing a job forwards it to a
pseudo-randomly chosen object after a pseudo-random delay.  All draws are
counter-based hashes of the job identity and hop count, so execution is
deterministic under rollback (see :mod:`repro.apps.base`).  PHOLD has no
natural end: runs bound it with ``SimulationConfig.end_time``.

PHOLD generates abundant cross-LP traffic and LVT skew, which makes it the
test-suite's workhorse for rollback-heavy property tests, and a natural
ablation workload for the controllers (its hit ratio is tunable through
``deterministic_fraction``: job payload mutations can be made
order-sensitive, defeating lazy cancellation on a controllable share of
objects).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.errors import ConfigurationError
from ..kernel.simobject import SimulationObject
from ..kernel.state import RecordState
from .base import chance, pick, token_hash, uniform


@dataclass(frozen=True)
class PHOLDParams:
    """Model-size and behaviour knobs."""

    n_objects: int = 16
    n_lps: int = 4
    jobs_per_object: int = 2
    min_delay: float = 5.0
    max_delay: float = 50.0
    #: fraction of objects whose outputs depend only on the incoming job
    #: (lazy-friendly); the rest mix an order-sensitive state counter into
    #: their forwarding decision (lazy-hostile).
    deterministic_fraction: float = 1.0
    #: size of each object's scratch table (ints).  PHOLD's natural state
    #: is tiny; raising this makes checkpointing expensive, which the
    #: checkpoint-interval ablation needs to expose both arms of the
    #: chi U-curve.
    state_size_ints: int = 0
    #: probability a forwarded job stays inside the sender's contiguous
    #: LP-sized block of objects (0.0 = classic uniform PHOLD).  Gives the
    #: model tunable communication locality, which partition-aware runs
    #: (repro.partition, the parallel backend) need to have something to
    #: exploit.
    locality: float = 0.0
    seed: int = 1

    def validate(self) -> None:
        if self.n_objects < 2:
            raise ConfigurationError("PHOLD needs at least two objects")
        if self.n_lps < 1 or self.n_lps > self.n_objects:
            raise ConfigurationError("n_lps must be in [1, n_objects]")
        if not 0 < self.min_delay <= self.max_delay:
            raise ConfigurationError("delays must satisfy 0 < min <= max")
        if not 0.0 <= self.deterministic_fraction <= 1.0:
            raise ConfigurationError("deterministic_fraction must be in [0, 1]")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigurationError("locality must be in [0, 1]")


@dataclass
class PHOLDState(RecordState):
    jobs_processed: int = 0
    #: order-sensitive counter mixed into routing by non-deterministic
    #: objects — this is what defeats lazy cancellation for them
    sequence: int = 0
    #: optional scratch table (see PHOLDParams.state_size_ints)
    scratch: list = None  # type: ignore[assignment]

    def copy(self) -> "PHOLDState":
        clone = PHOLDState(jobs_processed=self.jobs_processed,
                           sequence=self.sequence)
        clone.scratch = None if self.scratch is None else self.scratch.copy()
        return clone

    def size_bytes(self) -> int:
        return 16 + (0 if self.scratch is None else 8 + 8 * len(self.scratch))


class PHOLDObject(SimulationObject):
    """One PHOLD node."""

    def __init__(self, index: int, params: PHOLDParams) -> None:
        super().__init__(f"phold-{index}")
        self.index = index
        self.params = params
        self.lookahead = params.min_delay
        #: whether this object's output is a pure function of the job
        self.deterministic = chance(
            token_hash(params.seed, 7, index), params.deterministic_fraction
        )

    def initial_state(self) -> PHOLDState:
        state = PHOLDState()
        if self.params.state_size_ints:
            state.scratch = [0] * self.params.state_size_ints
        return state

    def initialize(self) -> None:
        params = self.params
        for job in range(params.jobs_per_object):
            job_id = self.index * params.jobs_per_object + job
            h = token_hash(params.seed, job_id)
            delay = uniform(h, params.min_delay, params.max_delay)
            self.send_event(self._dest_name(h), delay, (job_id, 0))

    def execute_process(self, payload: tuple[int, int]) -> None:
        job_id, hop = payload
        state: PHOLDState = self.state
        state.jobs_processed += 1
        if state.scratch is not None:
            state.scratch[job_id % len(state.scratch)] += 1
        if self.deterministic:
            h = token_hash(self.params.seed, job_id, hop, self.index)
        else:
            state.sequence += 1
            h = token_hash(self.params.seed, job_id, hop, self.index, state.sequence)
        delay = uniform(
            token_hash(h, 1), self.params.min_delay, self.params.max_delay
        )
        self.send_event(self._dest_name(h), delay, (job_id, hop + 1))

    def _dest_name(self, h: int) -> str:
        params = self.params
        if params.locality > 0.0 and chance(token_hash(h, 3), params.locality):
            # Stay inside the sender's contiguous block (the same blocks
            # build_phold deals out, one per LP).
            block = (params.n_objects + params.n_lps - 1) // params.n_lps
            start = (self.index // block) * block
            size = min(block, params.n_objects - start)
            if size > 1:
                dest = start + pick(token_hash(h, 2), size - 1)
                if dest >= self.index:
                    dest += 1  # never self: keeps every hop a real message
                return f"phold-{dest}"
        dest = pick(token_hash(h, 2), params.n_objects - 1)
        if dest >= self.index:
            dest += 1  # never self: keeps every hop a real message
        return f"phold-{dest}"


def build_phold(params: PHOLDParams | None = None) -> list[list[SimulationObject]]:
    """Build a PHOLD partition: contiguous blocks of objects per LP."""
    params = params or PHOLDParams()
    params.validate()
    objects = [PHOLDObject(i, params) for i in range(params.n_objects)]
    per_lp = (params.n_objects + params.n_lps - 1) // params.n_lps
    return [
        list(objects[i : i + per_lp]) for i in range(0, params.n_objects, per_lp)
    ]
