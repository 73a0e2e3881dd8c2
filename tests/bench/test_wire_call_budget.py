"""A deterministic gate on the wire codec's Python calls per frame.

Like ``test_call_budget.py``, this counts calls — Python frames and C
built-ins, under ``cProfile`` — because they repeat exactly where
timings drift with the host.  Two fixed frames are encoded and decoded,
and the calls one round trip makes must stay within a budget set 5 %
above the reading when it was pinned (wire version 3):

* a ``par_cross_2w``-shaped frame, one message of five ``(int, int)``
  PHOLD payloads: 38 calls, down from 148 at wire version 2, whose
  tagged encoding made one ``_encode_payload``/``_decode_payload`` call
  and two ``struct`` calls per value and sized every payload again on
  the receiving side;
* an SMMP-shaped frame, two messages each carrying a ``("tick",)`` and a
  ``(cpu, req_id)`` payload: 39 calls, down from 128 at version 2.

The failure message names the functions that grew.
"""

import cProfile
import pstats
import re
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.comm.message import MessageKind, PhysicalMessage
from repro.kernel.event import Event
from repro.parallel.wire import decode_batch, encode_batch

REPRO_ROOT = Path(repro.__file__).resolve().parent
ROUND_TRIPS = 10


def _event(serial: int, payload) -> Event:
    return Event(3, 9, 10.0 + serial, 20.0 + serial, payload, serial)


PAR_CROSS = (
    PhysicalMessage(
        3, 9, MessageKind.DATA, tuple(_event(s, (s, 7 * s)) for s in range(5)), colour=2
    ),
)
SMMP = (
    PhysicalMessage(3, 9, MessageKind.DATA, (_event(0, ("tick",)), _event(1, (2, 41))), colour=1),
    PhysicalMessage(4, 9, MessageKind.DATA, (_event(2, ("tick",)), _event(3, (0, 42))), colour=1),
)

#: calls per round trip by function, as read when the budget was pinned
PAR_CROSS_READING = {
    "<built-in method __new__ of type object>": 10,  # Event keys and ids
    "<built-in method builtins.len>": 8,
    "kernel/event.py:__init__": 5,
    "<method 'unpack_from' of '_struct.Struct' objects>": 3,
    "parallel/wire.py:encode_batch": 1,
    "parallel/wire.py:decode_batch": 1,
    "<string>:__init__": 1,  # DataBatch
    "<built-in method _pickle.dumps>": 1,
    "<method 'load' of '_pickle.Unpickler' objects>": 1,
    "comm/message.py:__init__": 1,
    "<method 'pack' of '_struct.Struct' objects>": 1,
    "<method 'append' of 'list' objects>": 1,
    "<built-in method builtins.next>": 1,  # the message serial
    "<built-in method builtins.sum>": 1,
    "<method 'tell' of '_io.BytesIO' objects>": 1,
    "<method 'seek' of '_io.BytesIO' objects>": 1,
}
SMMP_READING = {
    "<built-in method builtins.len>": 9,
    "<built-in method __new__ of type object>": 8,
    "kernel/event.py:__init__": 4,
    "<method 'unpack_from' of '_struct.Struct' objects>": 3,
    "comm/message.py:__init__": 2,
    "<method 'append' of 'list' objects>": 2,
    "<built-in method builtins.next>": 2,
    "parallel/wire.py:encode_batch": 1,
    "parallel/wire.py:decode_batch": 1,
    "<string>:__init__": 1,
    "<built-in method _pickle.dumps>": 1,
    "<method 'load' of '_pickle.Unpickler' objects>": 1,
    "<method 'pack' of '_struct.Struct' objects>": 1,
    "<built-in method builtins.sum>": 1,
    "<method 'tell' of '_io.BytesIO' objects>": 1,
    "<method 'seek' of '_io.BytesIO' objects>": 1,
}


def _label(filename: str, name: str) -> str:
    if filename == "~":  # a C built-in: its name is all there is
        return re.sub(r" at 0x[0-9a-f]+", "", name)
    try:
        module = Path(filename).resolve().relative_to(REPRO_ROOT).as_posix()
    except ValueError:
        module = Path(filename).name
    return f"{module}:{name}"


def _calls_per_round_trip(messages) -> Counter:
    decode_batch(encode_batch(1, messages))  # the frame's struct is cached after this
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(ROUND_TRIPS):
        decode_batch(encode_batch(1, messages))
    profile.disable()
    calls: Counter = Counter()
    for (filename, _line, name), (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        calls[_label(filename, name)] += ncalls
    calls.pop("<method 'disable' of '_lsprof.Profiler' objects>", None)
    return Counter({label: count / ROUND_TRIPS for label, count in calls.items()})


@pytest.mark.parametrize(
    "messages, reading",
    [(PAR_CROSS, PAR_CROSS_READING), (SMMP, SMMP_READING)],
    ids=["par_cross", "smmp"],
)
def test_codec_calls_per_frame_within_budget(messages, reading):
    calls = _calls_per_round_trip(messages)
    decoded = decode_batch(encode_batch(1, messages)).messages
    assert [m.events for m in decoded] == [m.events for m in messages]
    budget = 1.05 * sum(reading.values())
    total = sum(calls.values())
    grew = "\n".join(
        f"  {label:56s} {count:5.1f} (pinned at {reading.get(label, 0)})"
        for label, count in calls.most_common()
        if count > reading.get(label, 0)
    )
    assert total <= budget, (
        f"{total:.1f} Python calls per encode + decode round trip exceed the budget "
        f"of {budget:.1f}; the functions that grew:\n{grew}"
    )
