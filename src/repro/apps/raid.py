"""RAID: the disk-array model of the paper's evaluation.

Models a RAID-5-style disk array: request generators (sources) issue
striped I/O requests through fork processes to a set of disks.  The
paper's configuration — 20 sources generating 1000 requests each to 8
disks via 4 forks, partitioned into 4 LPs (5 sources + 1 fork + 2 disks
per LP) — is the default.

Request tokens carry the geometry the paper lists: number of disks,
cylinder / track / sector addressing, sector size, the stripe to read and
parity information.

The model reproduces the paper's central cancellation observation:

* **disks favor lazy cancellation** — a disk's service time is a pure
  function of the request's own geometry (seek distance from the
  cylinder's home band, rotational latency from the token, transfer time
  from the sector count), so after a rollback the disk regenerates
  byte-identical responses;
* **forks favor aggressive cancellation** — the fork spreads read load
  over the stripe's replica group using a rotating dispatch counter, an
  *arrival-order-sensitive* decision, so a straggler re-orders every
  subsequent routing choice and regenerated messages differ.

With 8 disk objects to 4 fork objects, lazy beats aggressive overall,
and per-object dynamic cancellation beats both — Figure 6 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.errors import ConfigurationError
from ..kernel.simobject import SimulationObject
from ..kernel.state import RecordState
from .base import chance, pick, token_hash, uniform


@dataclass(frozen=True)
class RAIDParams:
    """Configuration of the RAID model (paper defaults)."""

    n_sources: int = 20
    n_forks: int = 4
    n_disks: int = 8
    n_lps: int = 4
    requests_per_source: int = 1000

    # geometry (classic late-90s disk)
    cylinders: int = 1024
    tracks_per_cylinder: int = 8
    sectors_per_track: int = 32
    sector_bytes: int = 512
    max_sectors_per_request: int = 8

    # timing (µs of virtual time)
    seek_per_cylinder: float = 0.02
    seek_base: float = 40.0
    rotation_max: float = 80.0
    transfer_per_sector: float = 4.0
    fork_time: float = 5.0
    think_time: float = 20.0
    write_fraction: float = 0.3
    pipeline_depth: int = 3

    seed: int = 7

    def validate(self) -> None:
        if self.n_sources < 1 or self.n_forks < 1 or self.n_disks < 1:
            raise ConfigurationError("sources, forks and disks must be >= 1")
        if self.n_sources % self.n_forks:
            raise ConfigurationError("n_forks must divide n_sources")
        if self.n_lps < 1:
            raise ConfigurationError("n_lps must be >= 1")
        if self.n_forks % self.n_lps:
            raise ConfigurationError("n_lps must divide n_forks")
        if self.n_disks % self.n_lps:
            raise ConfigurationError("n_lps must divide n_disks")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        if self.pipeline_depth < 1 or self.requests_per_source < 1:
            raise ConfigurationError("pipeline_depth/requests must be >= 1")

    @property
    def n_objects(self) -> int:
        return self.n_sources + self.n_forks + self.n_disks


# --------------------------------------------------------------------- #
# request tokens: (src, req_id, stripe, cylinder, track, sector,
#                  n_sectors, is_write, parity_disk_hint)
# --------------------------------------------------------------------- #
def make_request(params: RAIDParams, src: int, req_id: int) -> tuple:
    """Build the geometry-bearing request token the paper describes."""
    h = token_hash(params.seed, src, req_id)
    stripe = pick(token_hash(h, 1), params.cylinders * params.tracks_per_cylinder)
    cylinder = pick(token_hash(h, 2), params.cylinders)
    track = pick(token_hash(h, 3), params.tracks_per_cylinder)
    sector = pick(token_hash(h, 4), params.sectors_per_track)
    n_sectors = 1 + pick(token_hash(h, 5), params.max_sectors_per_request)
    is_write = chance(token_hash(h, 6), params.write_fraction)
    parity_disk = (stripe + 1) % params.n_disks
    return (src, req_id, stripe, cylinder, track, sector, n_sectors,
            is_write, parity_disk)


# --------------------------------------------------------------------- #
# simulation objects
# --------------------------------------------------------------------- #
@dataclass
class RSourceState(RecordState):
    issued: int = 0
    completed: int = 0


class RAIDSource(SimulationObject):
    """One request generator (closed loop with a small pipeline)."""

    def __init__(self, index: int, params: RAIDParams) -> None:
        super().__init__(f"rsrc-{index}")
        self.index = index
        self.params = params
        self.lookahead = params.think_time  # times a stagger >= 1
        # All of a fork's sources are LP-local (the partition exploits
        # fast intra-LP communication, as the paper's model generators
        # do).  Forks therefore roll back only when disk-response
        # reordering upsets their sources — rarely, but with a near-zero
        # hit ratio when it happens, which is the paper's fork profile.
        self.fork = index // (params.n_sources // params.n_forks)

    def initial_state(self) -> RSourceState:
        return RSourceState()

    def initialize(self) -> None:
        state: RSourceState = self.state
        depth = min(self.params.pipeline_depth, self.params.requests_per_source)
        for _ in range(depth):
            self._issue(state, stagger=state.issued + 1)

    def _issue(self, state: RSourceState, stagger: int = 1) -> None:
        token = make_request(self.params, self.index, state.issued)
        state.issued += 1
        self.send_event(f"fork-{self.fork}", self.params.think_time * stagger, token)

    def execute_process(self, payload: tuple) -> None:
        state: RSourceState = self.state
        state.completed += 1
        if state.issued < self.params.requests_per_source:
            self._issue(state)


@dataclass
class ForkState(RecordState):
    dispatched: int = 0
    #: rotating offset used to balance reads over the replica group —
    #: the arrival-order-sensitive state that makes forks lazy-hostile
    rotation: int = 0


class Fork(SimulationObject):
    """Striping / load-balancing fork.

    Writes go to the stripe's primary disk and (as a second message) to
    the parity disk; reads are balanced over the primary and its
    neighbour using the rotating dispatch counter.  The fork is a *queued*
    dispatcher: its dispatch latency grows with recent queue occupancy
    (``dispatched`` modulo a small burst window), so both the routing of
    reads and the timing of every dispatch are arrival-order-sensitive —
    a rolled-back fork regenerates different messages, which is why forks
    favor aggressive cancellation in the paper.
    """

    def __init__(self, index: int, params: RAIDParams) -> None:
        super().__init__(f"fork-{index}")
        self.index = index
        self.params = params
        self.lookahead = params.fork_time

    def initial_state(self) -> ForkState:
        return ForkState()

    def execute_process(self, payload: tuple) -> None:
        params = self.params
        state: ForkState = self.state
        (src, req_id, stripe, cylinder, track, sector, n_sectors,
         is_write, parity_disk) = payload
        state.dispatched += 1
        # Queueing delay: a function of how many dispatches this fork has
        # made recently — order-sensitive by construction.
        dispatch_time = params.fork_time * (1.0 + 0.25 * (state.dispatched % 8))
        primary = stripe % params.n_disks
        if is_write:
            self.send_event(f"disk-{primary}", dispatch_time, payload)
            parity_token = (src, req_id, stripe, cylinder, track, sector,
                            1, True, parity_disk)
            self.send_event(
                f"disk-{parity_disk}", dispatch_time, ("parity",) + parity_token
            )
        else:
            state.rotation += 1
            replica = (primary + state.rotation % 2) % params.n_disks
            self.send_event(f"disk-{replica}", dispatch_time, payload)


@dataclass
class DiskState(RecordState):
    served: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    #: per-zone access histogram: gives the disk a sizeable state so the
    #: checkpoint-interval trade-off is visible
    zone_histogram: list[int] = field(default_factory=list)

    # Specialized hot-path copy/size (see CacheState in smmp.py).
    def copy(self) -> "DiskState":
        return DiskState(served=self.served, sectors_read=self.sectors_read,
                         sectors_written=self.sectors_written,
                         zone_histogram=self.zone_histogram.copy())

    def size_bytes(self) -> int:
        return 3 * 8 + 8 + 8 * len(self.zone_histogram)


class Disk(SimulationObject):
    """One disk of the array.

    Service time is computed from the request's own geometry only (home-
    band seek model), so regenerated responses are identical after any
    rollback — the lazy-friendly half of the paper's observation.
    """

    grain_factor = 2.0  # seek/rotation arithmetic: the heavy events

    N_ZONES = 256

    def __init__(self, index: int, params: RAIDParams) -> None:
        super().__init__(f"disk-{index}")
        self.index = index
        self.params = params
        # seek, rotation and transfer only add to the base seek
        self.lookahead = params.seek_base

    def initial_state(self) -> DiskState:
        return DiskState(zone_histogram=[0] * self.N_ZONES)

    def execute_process(self, payload: tuple) -> None:
        params = self.params
        is_parity = payload[0] == "parity"
        token = payload[1:] if is_parity else payload
        (src, req_id, stripe, cylinder, track, sector, n_sectors,
         is_write, parity_disk) = token
        state: DiskState = self.state
        state.served += 1
        zone = cylinder * self.N_ZONES // params.cylinders
        state.zone_histogram[zone] += 1
        if is_write:
            state.sectors_written += n_sectors
        else:
            state.sectors_read += n_sectors

        # Geometry-determined service time: seek from the home band of
        # the cylinder's zone, rotational latency from the token, then
        # the transfer.
        home = (zone + 0.5) * params.cylinders / self.N_ZONES
        seek = params.seek_base + params.seek_per_cylinder * abs(cylinder - home)
        rotation = uniform(
            token_hash(params.seed, 9, src, req_id, self.index),
            0.0,
            params.rotation_max,
        )
        service = seek + rotation + params.transfer_per_sector * n_sectors
        if not is_parity:
            # Parity updates complete silently; data requests are answered.
            self.send_event(f"rsrc-{src}", service, (src, req_id, self.index))


# --------------------------------------------------------------------- #
# builder
# --------------------------------------------------------------------- #
def build_raid(params: RAIDParams | None = None) -> list[list[SimulationObject]]:
    """Build the paper's partition: each LP hosts ``n_sources/n_lps``
    sources, ``n_forks/n_lps`` forks and ``n_disks/n_lps`` disks."""
    params = params or RAIDParams()
    params.validate()
    sources = [RAIDSource(i, params) for i in range(params.n_sources)]
    forks = [Fork(i, params) for i in range(params.n_forks)]
    disks = [Disk(i, params) for i in range(params.n_disks)]
    src_per_lp = params.n_sources // params.n_lps
    fork_per_lp = params.n_forks // params.n_lps
    disk_per_lp = params.n_disks // params.n_lps
    partition: list[list[SimulationObject]] = []
    for lp in range(params.n_lps):
        group: list[SimulationObject] = []
        group.extend(sources[lp * src_per_lp : (lp + 1) * src_per_lp])
        group.extend(forks[lp * fork_per_lp : (lp + 1) * fork_per_lp])
        group.extend(disks[lp * disk_per_lp : (lp + 1) * disk_per_lp])
        partition.append(group)
    return partition


def total_requests(params: RAIDParams) -> int:
    return params.n_sources * params.requests_per_source
