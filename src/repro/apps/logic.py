"""Gate-level digital logic simulation — the paper's motivating domain.

The authors' observations about cancellation strategies came from
"digital systems models written in the hardware description language
VHDL"; this module provides that class of workload: gate-level circuits
with per-gate propagation delays, driven by test vectors.

Included circuit builders:

* :func:`build_ripple_adder` — an n-bit ripple-carry adder fed random
  operand pairs; the simulation's outputs are checked against Python
  integer addition, so a Time Warp run *computes real sums* under
  rollback (the strongest possible end-to-end check of causal
  correctness).
* :func:`build_xor_chain` — a deep chain of XORs (a parity tree spine):
  maximal signal-propagation depth, minimal fan-out.

Gates are pure functions of their latched input values — but the *latch*
is order-sensitive state (a gate output depends on which input edges have
arrived), which makes glitch propagation genuinely interesting for lazy
cancellation: re-converging signals regenerate identical output events
(lazy hits), re-ordered edges do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..kernel.errors import ConfigurationError
from ..kernel.simobject import SimulationObject
from ..kernel.state import RecordState
from .base import token_hash

#: gate propagation delays in ns (inverters are faster than 2-input gates)
GATE_DELAY = {"and": 4.0, "or": 4.0, "xor": 6.0, "not": 2.0, "buf": 1.0}

_GATE_FUNC: dict[str, Callable[[int, int], int]] = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "not": lambda a, _b: 1 - a,
    "buf": lambda a, _b: a,
}


@dataclass
class GateState(RecordState):
    #: latched input values, by input pin index
    inputs: list = field(default_factory=lambda: [0, 0])
    output: int = 0
    evaluations: int = 0


class Gate(SimulationObject):
    """One logic gate.  Payloads: ``(pin, value)`` signal edges."""

    grain_factor = 0.6  # gate evaluation is light

    def __init__(self, name: str, kind: str,
                 fanout: Sequence[tuple[str, int]]) -> None:
        super().__init__(name)
        if kind not in _GATE_FUNC:
            raise ConfigurationError(f"unknown gate kind {kind!r}")
        self.kind = kind
        #: (destination gate, destination pin) pairs
        self.fanout = list(fanout)

    def initial_state(self) -> GateState:
        return GateState()

    def execute_process(self, payload: tuple) -> None:
        pin, value = payload
        state: GateState = self.state
        state.inputs[pin] = value
        state.evaluations += 1
        new_output = _GATE_FUNC[self.kind](state.inputs[0], state.inputs[1])
        if new_output != state.output:
            state.output = new_output
            delay = GATE_DELAY[self.kind]
            for dest, dest_pin in self.fanout:
                self.send_event(dest, delay, (dest_pin, new_output))


@dataclass
class VectorSourceState(RecordState):
    applied: int = 0


class VectorSource(SimulationObject):
    """Drives one circuit input with a pre-determined test-vector stream."""

    def __init__(self, name: str, bits: Sequence[int], period: float,
                 fanout: Sequence[tuple[str, int]]) -> None:
        super().__init__(name)
        self.bits = list(bits)
        self.period = period
        self.fanout = list(fanout)

    def initial_state(self) -> VectorSourceState:
        return VectorSourceState()

    def initialize(self) -> None:
        if self.bits:
            self.send_event(self.name, self.period, ("tick",))

    def execute_process(self, payload: tuple) -> None:
        state: VectorSourceState = self.state
        value = self.bits[state.applied]
        state.applied += 1
        for dest, pin in self.fanout:
            self.send_event(dest, 1.0, (pin, value))
        if state.applied < len(self.bits):
            self.send_event(self.name, self.period, ("tick",))


@dataclass
class ProbeState(RecordState):
    #: (time, value) observations
    waveform: list = field(default_factory=list)
    value: int = 0


class Probe(SimulationObject):
    """Records a signal's waveform (the circuit's observable output)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def initial_state(self) -> ProbeState:
        return ProbeState()

    def execute_process(self, payload: tuple) -> None:
        _pin, value = payload
        state: ProbeState = self.state
        state.value = value
        state.waveform.append((self.now, value))

    def value_at(self, time: float) -> int:
        """The settled value of the signal at virtual time ``time``."""
        value = 0
        for t, v in self.state.waveform:
            if t <= time:
                value = v
            else:
                break
        return value


# --------------------------------------------------------------------- #
# circuit builders
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdderParams:
    bits: int = 8
    n_vectors: int = 32
    n_lps: int = 4
    #: virtual time between test vectors; must exceed the adder's settle
    #: time (~ 3 gate delays per bit of carry chain)
    vector_period: float = 400.0
    seed: int = 5

    def validate(self) -> None:
        if self.bits < 1:
            raise ConfigurationError("need at least 1 bit")
        if self.n_lps < 1:
            raise ConfigurationError("need at least 1 LP")
        if self.vector_period < 20.0 * self.bits:
            raise ConfigurationError(
                "vector_period too small for the carry chain to settle"
            )


def adder_vectors(params: AdderParams) -> list[tuple[int, int]]:
    """The operand pairs applied to the adder, derived from the seed."""
    pairs = []
    for i in range(params.n_vectors):
        a = token_hash(params.seed, 2 * i) % (1 << params.bits)
        b = token_hash(params.seed, 2 * i + 1) % (1 << params.bits)
        pairs.append((a, b))
    return pairs


def build_ripple_adder(params: AdderParams | None = None):
    """Build an n-bit ripple-carry adder as a partitioned gate netlist.

    Per bit ``i``: a full adder from 2 XORs, 2 ANDs and an OR::

        s_i  = a_i ^ b_i ^ c_i
        c_i+1 = (a_i & b_i) | ((a_i ^ b_i) & c_i)

    Partitioning slices the carry chain into contiguous bit ranges, one
    per LP — so every carry crossing a slice boundary is an inter-LP
    message, and faster LPs speculatively compute sums with stale
    carries, to be rolled back when the true carry ripples in.  This is
    the classic "optimism along the critical path" structure of parallel
    digital logic simulation.

    Returns ``(partition, probes)`` where ``probes`` maps output names
    ("s0".."s{n-1}", "cout") to :class:`Probe` objects.
    """
    params = params or AdderParams()
    params.validate()
    vectors = adder_vectors(params)

    gates: list[SimulationObject] = []
    probes: dict[str, Probe] = {}

    # Probes for the sum bits and carry out.
    for i in range(params.bits):
        probes[f"s{i}"] = Probe(f"probe-s{i}")
    probes["cout"] = Probe("probe-cout")

    def fan(*dests: tuple[str, int]):
        return list(dests)

    for i in range(params.bits):
        # xor1 = a ^ b ; feeds sum xor and the carry-select and2
        gates.append(Gate(f"xor1-{i}", "xor",
                          fan((f"xor2-{i}", 0), (f"and2-{i}", 0))))
        # xor2 = xor1 ^ c_i -> sum bit probe
        gates.append(Gate(f"xor2-{i}", "xor", fan((f"probe-s{i}", 0))))
        # and1 = a & b ; and2 = xor1 & c_i ; or1 = and1 | and2 -> c_{i+1}
        gates.append(Gate(f"and1-{i}", "and", fan((f"or1-{i}", 0))))
        gates.append(Gate(f"and2-{i}", "and", fan((f"or1-{i}", 1))))
        if i + 1 < params.bits:
            carry_out = fan((f"xor2-{i+1}", 1), (f"and2-{i+1}", 1))
        else:
            carry_out = fan(("probe-cout", 0))
        gates.append(Gate(f"or1-{i}", "or", carry_out))

    # Input sources: one per operand bit.
    a_ops = [a for a, _ in vectors]
    b_ops = [b for _, b in vectors]
    sources: list[SimulationObject] = []
    for i in range(params.bits):
        sources.append(VectorSource(
            f"in-a{i}", [(a >> i) & 1 for a in a_ops], params.vector_period,
            fan((f"xor1-{i}", 0), (f"and1-{i}", 0)),
        ))
        sources.append(VectorSource(
            f"in-b{i}", [(b >> i) & 1 for b in b_ops], params.vector_period,
            fan((f"xor1-{i}", 1), (f"and1-{i}", 1)),
        ))

    # Partition: contiguous bit slices of the carry chain.
    bits_per_lp = (params.bits + params.n_lps - 1) // params.n_lps
    partition: list[list[SimulationObject]] = [[] for _ in range(params.n_lps)]
    for obj in gates + sources + list(probes.values()):
        # every object's name ends with its bit index (cout -> last LP)
        tail = obj.name.rsplit("-", 1)[-1]
        digits = "".join(ch for ch in tail if ch.isdigit())
        bit = int(digits) if digits else params.bits - 1
        partition[min(bit // bits_per_lp, params.n_lps - 1)].append(obj)
    return [group for group in partition if group], probes


def read_adder_outputs(
    params: AdderParams, probes: dict[str, Probe]
) -> list[int]:
    """Settled sum (including carry-out) after each vector period."""
    sums = []
    for v in range(1, params.n_vectors + 1):
        settle = v * params.vector_period + params.vector_period - 1.0
        total = sum(
            probes[f"s{i}"].value_at(settle) << i for i in range(params.bits)
        )
        total += probes["cout"].value_at(settle) << params.bits
        sums.append(total)
    return sums


def build_xor_chain(length: int = 64, n_lps: int = 4, n_vectors: int = 16,
                    period: float = 500.0, seed: int = 9):
    """A chain of XOR gates toggled from one end; returns (partition, probe)."""
    if length < 1 or n_lps < 1:
        raise ConfigurationError("length and n_lps must be >= 1")
    probe = Probe("probe-out")
    gates = []
    for i in range(length):
        dest = f"chain-{i+1}" if i + 1 < length else "probe-out"
        gates.append(Gate(f"chain-{i}", "xor", [(dest, 0)]))
    bits = [token_hash(seed, i) & 1 for i in range(n_vectors)]
    source = VectorSource("chain-in", bits, period, [("chain-0", 0)])
    per_lp = (length + n_lps - 1) // n_lps
    partition: list[list[SimulationObject]] = [[] for _ in range(n_lps)]
    partition[0].append(source)
    for i, gate in enumerate(gates):
        partition[min(i // per_lp, n_lps - 1)].append(gate)
    partition[-1].append(probe)
    return [g for g in partition if g], probe
