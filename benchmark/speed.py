"""Machine-speed probe, for op times that do not swing with a shared host.

On a virtual machine that shares physical cores, the same op runs up to
1.6x slower for seconds at a time while a neighbour is busy; a
median over a 20 s run still moves by about 20% from run to run.  A
fixed probe slows down with it.  It has two parts: numpy strided
updates of a small state (the simulator's kind of work) and JSON
encoding with string formatting (the CLI's and the builders' kind of
work); each workload runs the parts that mirror its op, because a
neighbour slows the two kinds by different amounts.  The loop runs the
probe between ops, and an op's normalised time is its time scaled by
the parts' ``REFERENCE_S`` over the median probe time within
``WINDOW_S`` of the op.  The probe shares no code with the package, so
no change to the program moves it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# Median time of each probe part between ops on an Intel Xeon 2.0 GHz VM
# with 2 vCPUs (Python 3.11, numpy 2.4) in a quiet spell.  They only fix
# the unit of normalised times, which compare across runs and commits,
# not with raw times.
REFERENCE_S = {"numpy": 0.6e-3, "python": 0.55e-3}
WINDOW_S = 0.5
EVERY_S = 0.05

_QUBITS = 13
_PAYLOAD = {format(i, "013b"): 1.0 / (i + 3) for i in range(160)}


def _numpy_part() -> None:
    state = np.zeros((2,) * _QUBITS, dtype=complex)
    state.flat[0] = 1.0
    for q in range(_QUBITS):
        lo = (slice(None),) * q + (0,)
        hi = (slice(None),) * q + (1,)
        low = state[lo].copy()
        state[lo] = (low + state[hi]) * 0.5
        state[hi] = low - state[hi]


def _python_part() -> None:
    text = json.dumps(_PAYLOAD, indent=2, sort_keys=True)
    "\n".join(f"{key},{value!r}" for key, value in json.loads(text).items())


PARTS = {"numpy": _numpy_part, "python": _python_part}


class Speed:
    """Probe times by when they ran; gives each op its local slowdown.

    `parts` names the probe parts to run, chosen to mirror the op.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[p] for p in parts]
        self.reference = sum(REFERENCE_S[p] for p in parts)
        self.times: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> float:
        """Seconds to run the probe parts once."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= EVERY_S:
            self.seconds.append(self.probe())
            self.times.append(now)

    def factor(self, at: float) -> float:
        """The reference time over the median probe time within WINDOW_S of `at`."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if hi - lo < 3:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))[:3]
            local = [self.seconds[i] for i in nearest]
        else:
            local = self.seconds[lo:hi]
        return self.reference / statistics.median(local)
