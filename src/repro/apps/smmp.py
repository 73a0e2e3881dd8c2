"""SMMP: the shared-memory multiprocessor model of the paper's evaluation.

Models ``n_processors`` CPUs, each with a private cache, sharing a banked
global memory.  As in the paper's configuration: 16 processors simulated
in 4 LPs, cache access 10 ns, main memory 100 ns, cache hit ratio 90 %,
100 simulation objects, and memory requests are *not serialized* — a bank
answers each request a fixed latency after its arrival regardless of
other pending requests (the paper notes this deliberate simplification).

Object pipeline per CPU ``i`` (all per-request decisions are deterministic
hashes of the request token, so every SMMP object is lazy-cancellation
friendly — the paper observed exactly this: "all the objects strictly
favor lazy-cancellation"):

    src-i --> cache-i --(90 % hit)--> src-i
                 |(miss)
                 v
             membus-i --> bank-j  (j = hash of token, unserialized)
                              |
                              v
                          cache-i --> src-i --> stat-k (completion count)

The default sizing (16 CPUs, 48 banks, 4 stat collectors, 4 LPs) gives
16*3 + 48 + 4 = 100 simulation objects, matching the paper.  Each source
keeps ``pipeline_depth`` requests outstanding, which creates the
optimistic parallelism (and hence the rollbacks) a closed single-request
loop would not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.errors import ConfigurationError
from ..kernel.simobject import SimulationObject
from ..kernel.state import RecordState
from .base import chance, pick, token_hash


@dataclass(frozen=True)
class SMMPParams:
    """Configuration of the SMMP model (paper defaults)."""

    n_processors: int = 16
    n_lps: int = 4
    n_banks: int = 48
    requests_per_processor: int = 1000
    cache_time: float = 10.0       # ns, paper: cache speed 10 ns
    memory_time: float = 100.0     # ns, paper: main memory 100 ns
    hit_ratio: float = 0.90        # paper: 90 %
    bus_time: float = 2.0          # ns, membus forwarding
    fill_time: float = 2.0         # ns, cache fill on response
    think_time: float = 5.0        # ns, source think time between requests
    pipeline_depth: int = 4        # outstanding requests per source
    #: fraction of requests that are writes; with a write-through cache
    #: every write reaches its memory bank regardless of hit/miss, which
    #: produces the inter-LP communication intensity the paper's
    #: aggregation results imply (a 30 % gain from aggregation requires a
    #: communication-bound run)
    write_fraction: float = 0.3
    #: cache tag-store entries modelled in state; drives state size and
    #: therefore checkpointing cost
    cache_tag_entries: int = 512
    seed: int = 42

    def validate(self) -> None:
        if self.n_processors < 1:
            raise ConfigurationError("need at least one processor")
        if not 1 <= self.n_lps <= self.n_processors:
            raise ConfigurationError("n_lps must be in [1, n_processors]")
        if self.n_processors % self.n_lps:
            raise ConfigurationError("n_lps must divide n_processors")
        if self.n_banks % self.n_lps:
            raise ConfigurationError("n_lps must divide n_banks")
        if not 0.0 <= self.hit_ratio <= 1.0:
            raise ConfigurationError("hit_ratio must be in [0, 1]")
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        if self.requests_per_processor < 1:
            raise ConfigurationError("requests_per_processor must be >= 1")

    @property
    def n_objects(self) -> int:
        return 3 * self.n_processors + self.n_banks + self.n_lps


# --------------------------------------------------------------------- #
# request tokens
# --------------------------------------------------------------------- #
def _request_token(params: SMMPParams, cpu: int, req_id: int) -> tuple:
    """The paper's test vector: creation info + target address digest."""
    h = token_hash(params.seed, cpu, req_id)
    return (cpu, req_id, h & 0xFFFFFFFF)


# --------------------------------------------------------------------- #
# simulation objects
# --------------------------------------------------------------------- #
@dataclass
class SourceState(RecordState):
    issued: int = 0
    completed: int = 0


class Source(SimulationObject):
    """CPU-side request generator.

    *Open loop*, as in the paper: each test vector carries its creation
    time with it, so the request schedule is pre-determined — the
    generator paces itself with a self-addressed "tick" chain and never
    depends on when responses come back.  This is what makes every SMMP
    object a pure function of its input events, and hence the whole model
    lazy-cancellation friendly (the paper: "all the objects strictly
    favor lazy-cancellation").

    Responses are still consumed (completion accounting and an intra-LP
    note to the stat collector); they just do not gate further requests.
    """

    def __init__(self, cpu: int, params: SMMPParams) -> None:
        super().__init__(f"src-{cpu}")
        self.cpu = cpu
        self.params = params

    def initial_state(self) -> SourceState:
        return SourceState()

    def initialize(self) -> None:
        if self.params.requests_per_processor > 0:
            self.send_event(f"src-{self.cpu}", self.params.think_time, ("tick",))

    def execute_process(self, payload: tuple) -> None:
        state: SourceState = self.state
        if payload[0] == "tick":
            token = _request_token(self.params, self.cpu, state.issued)
            state.issued += 1
            self.send_event(f"cache-{self.cpu}", 1.0, token)
            if state.issued < self.params.requests_per_processor:
                self.send_event(f"src-{self.cpu}", self.params.think_time, ("tick",))
            return
        # A response for one of our outstanding requests.  Completion
        # notifications go to the CPU's own LP's collector (intra-LP).
        state.completed += 1
        lp = self.cpu // (self.params.n_processors // self.params.n_lps)
        self.send_event(f"stat-{lp}", 1.0, payload[:2])


@dataclass
class CacheState(RecordState):
    hits: int = 0
    misses: int = 0
    fills: int = 0
    #: modelled tag store: gives the cache a realistic (large) state, the
    #: paper's motivation for tuning the checkpoint interval
    tags: list[int] = field(default_factory=list)

    # The tag store is a flat list of ints and the cache state is copied
    # on every checkpoint: specialized copy/size keep the *real* cost of
    # the reproduction proportional to the *modelled* cost.  RecordState's
    # compiled methods must look at every tag to prove the list holds only
    # scalars; these know it, and run 19x faster at 512 tags
    # (test_micro_record_state_copy_size).
    def copy(self) -> "CacheState":
        return CacheState(hits=self.hits, misses=self.misses,
                          fills=self.fills, tags=self.tags.copy())

    def size_bytes(self) -> int:
        return 3 * 8 + 8 + 8 * len(self.tags)


class Cache(SimulationObject):
    """Private cache: 90 % deterministic hits at 10 ns, misses to memory."""

    grain_factor = 1.2  # tag lookup is slightly heavier than source logic

    def __init__(self, cpu: int, params: SMMPParams) -> None:
        super().__init__(f"cache-{cpu}")
        self.cpu = cpu
        self.params = params

    def initial_state(self) -> CacheState:
        return CacheState(tags=[0] * self.params.cache_tag_entries)

    def execute_process(self, payload: tuple) -> None:
        params = self.params
        state: CacheState = self.state
        kind = payload[0] if isinstance(payload[0], str) else None
        if kind == "fill":
            # Memory response: fill the line, answer the CPU.
            _, cpu, req_id, address = payload
            state.fills += 1
            state.tags[address % len(state.tags)] = address
            self.send_event(f"src-{self.cpu}", params.fill_time, (cpu, req_id))
            return
        cpu, req_id, address = payload
        is_write = chance(
            token_hash(params.seed, 11, cpu, req_id), params.write_fraction
        )
        if is_write:
            # Write-through, no-write-allocate: ack the CPU at cache
            # speed, propagate the write to its memory bank.
            state.tags[address % len(state.tags)] = address
            self.send_event(f"src-{self.cpu}", params.cache_time, (cpu, req_id))
            self.send_event(
                f"membus-{self.cpu}", params.cache_time,
                ("w", cpu, req_id, address),
            )
        elif chance(token_hash(params.seed, 3, cpu, req_id), params.hit_ratio):
            state.hits += 1
            self.send_event(f"src-{self.cpu}", params.cache_time, (cpu, req_id))
        else:
            state.misses += 1
            self.send_event(
                f"membus-{self.cpu}", params.cache_time, (cpu, req_id, address)
            )


@dataclass
class MembusState(RecordState):
    forwarded: int = 0
    write_acks: int = 0


class Membus(SimulationObject):
    """Bus interface: routes a miss to its (hash-selected) memory bank."""

    def __init__(self, cpu: int, params: SMMPParams) -> None:
        super().__init__(f"membus-{cpu}")
        self.cpu = cpu
        self.params = params

    def initial_state(self) -> MembusState:
        return MembusState()

    def execute_process(self, payload: tuple) -> None:
        state: MembusState = self.state
        if payload[0] == "wack":
            state.write_acks += 1
            return
        write = payload[0] == "w"
        cpu, req_id, address = payload[1:] if write else payload
        state.forwarded += 1
        bank = pick(token_hash(self.params.seed, 5, address), self.params.n_banks)
        token = ("w", cpu, req_id, address) if write else (cpu, req_id, address)
        self.send_event(f"bank-{bank}", self.params.bus_time, token)


@dataclass
class BankState(RecordState):
    served: int = 0
    writes_absorbed: int = 0


class Bank(SimulationObject):
    """One global-memory bank.

    Unserialized, as in the paper: every request is answered exactly
    ``memory_time`` after its arrival, so the response is a pure function
    of the request — rollbacks at banks regenerate identical output.
    """

    grain_factor = 1.5  # the memory access is the heavyweight event

    def __init__(self, index: int, params: SMMPParams) -> None:
        super().__init__(f"bank-{index}")
        self.index = index
        self.params = params

    def initial_state(self) -> BankState:
        return BankState()

    def execute_process(self, payload: tuple) -> None:
        state: BankState = self.state
        state.served += 1
        if payload[0] == "w":
            # Write-through store: acknowledge to the bus interface so it
            # can release the store-buffer entry.
            _, cpu, req_id, address = payload
            state.writes_absorbed += 1
            self.send_event(
                f"membus-{cpu}", self.params.memory_time, ("wack", cpu, req_id)
            )
            return
        cpu, req_id, address = payload
        self.send_event(
            f"cache-{cpu}", self.params.memory_time, ("fill", cpu, req_id, address)
        )


@dataclass
class StatState(RecordState):
    completions: int = 0
    last_cpu: int = -1


class StatCollector(SimulationObject):
    """Per-LP completion counter (the 4 extra objects of the 100)."""

    def __init__(self, index: int) -> None:
        super().__init__(f"stat-{index}")
        self.index = index

    def initial_state(self) -> StatState:
        return StatState()

    def execute_process(self, payload: tuple) -> None:
        state: StatState = self.state
        state.completions += 1
        state.last_cpu = payload[0]


# --------------------------------------------------------------------- #
# builder
# --------------------------------------------------------------------- #
def build_smmp(params: SMMPParams | None = None) -> list[list[SimulationObject]]:
    """Build the SMMP partition: per-CPU pipelines stay LP-local, banks
    are distributed evenly (so ~ (n_lps-1)/n_lps of misses cross LPs)."""
    params = params or SMMPParams()
    params.validate()
    cpus_per_lp = params.n_processors // params.n_lps
    banks_per_lp = params.n_banks // params.n_lps
    partition: list[list[SimulationObject]] = []
    for lp in range(params.n_lps):
        group: list[SimulationObject] = []
        for cpu in range(lp * cpus_per_lp, (lp + 1) * cpus_per_lp):
            group.append(Source(cpu, params))
            group.append(Cache(cpu, params))
            group.append(Membus(cpu, params))
        for bank in range(lp * banks_per_lp, (lp + 1) * banks_per_lp):
            group.append(Bank(bank, params))
        group.append(StatCollector(lp))
        partition.append(group)
    return partition


def total_requests(params: SMMPParams) -> int:
    return params.n_processors * params.requests_per_processor
