"""Dense state-vector simulation of the gate set in `circuits`.

Amplitudes are stored as one complex128 array of length 2**width, in
C order with qubit 0 as the most significant bit of the array index, so
a printed basis index reads exactly like the layout's bitstring (visit
slot 1 leftmost).  Gates act in place through strided views; nothing is
ever promoted to a dense matrix.

`run` compiles a circuit's gate list once into a plan of three kernels,
swap, H butterfly and phase multiply, with the X gates folded into the
control polarity of the gates they conjugate (see `compile_gates`).  At
n=4 the 2048 gates become 872 kernel calls.  The plan only changes which
amplitudes a kernel touches, never its arithmetic, so results are
bit-identical to gate-by-gate application.  The gate IR, gate counts and
text dump of `circuits` are unchanged; `apply_gate` is a one-gate plan
through the same kernels.  The kernels allocate nothing: each plan
execution keeps its temporaries in one half-state scratch buffer, so the
kernels' working set is 1.5 states however many gates a run has.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, GateKind
from .core import CapacityError, HoboLayout

# 2**22 complex128 amplitudes = 64 MiB; enough for the 4-city layout
# (width 15) with headroom, and still desk scale.
MAX_WIDTH = 22

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Largest |norm^2 - 1| that `run` accepts.
NORM_TOLERANCE = 1e-10


class NormError(ValueError):
    """A state's squared norm is not 1 to within `NORM_TOLERANCE`."""


@dataclass
class StateVector:
    width: int
    amplitudes: np.ndarray

    def copy(self) -> StateVector:
        return StateVector(self.width, self.amplitudes.copy())

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class Distribution:
    """Probabilities over main-register bitstrings."""

    probs: dict[str, float]


def new_state(width: int) -> StateVector:
    """The all-zeros basis state on `width` qubits."""
    if not 1 <= width <= MAX_WIDTH:
        raise CapacityError(f"width must be in 1..{MAX_WIDTH}, got {width}")
    amps = np.zeros(2**width, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(width, amps)


def _axis_index(assignments: dict[int, int]) -> tuple:
    # The trailing Ellipsis stands for the remaining full axes and makes
    # the result a writable view even when every axis is fixed.
    index: list = [slice(None)] * (max(assignments) + 1)
    for qubit, value in assignments.items():
        index[qubit] = value
    return (*index, ...)


# Kernels act in place on the state view; `scratch` is the flat
# half-state buffer of the plan execution (see `_execute`).


def _swap(view: np.ndarray, scratch: np.ndarray, idx0: tuple, idx1: tuple) -> None:
    lo = view[idx0]
    tmp = scratch[: lo.size].reshape(lo.shape)
    np.copyto(tmp, lo)
    lo[...] = view[idx1]
    view[idx1] = tmp


def _butterfly(view: np.ndarray, scratch: np.ndarray, idx0: tuple, idx1: tuple) -> None:
    # Same operations as (lo + hi) * c and (lo - hi) * c on fresh arrays.
    lo = view[idx0]
    hi = view[idx1]
    diff = scratch.reshape(lo.shape)
    np.subtract(lo, hi, out=diff)
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _phase(view: np.ndarray, scratch: np.ndarray, idx: tuple, factor: complex) -> None:
    view[idx] *= factor


def compile_gates(gates) -> tuple:
    """Kernel steps equal to applying `gates` one by one.

    Each step is (kernel, first index tuple, second index tuple or phase
    factor), run as ``kernel(view, scratch, first, second)``.

    One forward pass keeps a Pauli-X frame: the qubits whose NOT is
    still pending.  An X gate toggles the frame and emits nothing.  A
    framed control of CX, MCX or MCP fires on 0 instead of 1, as does a
    framed MCP target (the gate is a symmetric diagonal); a frame on a
    CX or MCX target commutes through.  An H on a framed qubit first
    emits the pending NOT as a swap, and the frame left at the end is
    flushed the same way.  Steps only choose which amplitudes each
    kernel touches, never its arithmetic, so the result is bit-identical
    to gate-by-gate application.
    """
    frame: set[int] = set()
    steps: list[tuple] = []

    def flush(qubit: int) -> None:
        frame.discard(qubit)
        steps.append((_swap, _axis_index({qubit: 0}), _axis_index({qubit: 1})))

    for gate in gates:
        kind, target = gate.kind, gate.target
        if kind is GateKind.X:
            frame ^= {target}
        elif kind is GateKind.H:
            if target in frame:
                flush(target)
            steps.append((_butterfly, _axis_index({target: 0}), _axis_index({target: 1})))
        else:
            on = {c: int(c not in frame) for c in gate.controls}
            if kind is GateKind.MCP:
                idx = _axis_index({**on, target: int(target not in frame)})
                steps.append((_phase, idx, cmath.exp(1j * gate.phase)))
            else:  # CX and MCX
                steps.append(
                    (_swap, _axis_index({**on, target: 0}), _axis_index({**on, target: 1}))
                )
    for qubit in sorted(frame):
        flush(qubit)
    return tuple(steps)


def circuit_plan(circuit: Circuit) -> tuple:
    """The circuit's compiled steps, built on first use.

    The plan is kept on the circuit instance, not in a module-level
    cache, so it is freed together with its circuit.
    """
    plan = vars(circuit).get("_plan")
    if plan is None:
        plan = compile_gates(circuit.gates)
        object.__setattr__(circuit, "_plan", plan)  # Circuit is frozen
    return plan


def _execute(plan: tuple, state: StateVector) -> StateVector:
    view = state.amplitudes.reshape((2,) * state.width)
    scratch = np.empty(2 ** (state.width - 1), dtype=np.complex128)
    for kernel, first, second in plan:
        kernel(view, scratch, first, second)
    return state


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    if any(q >= state.width for q in gate.qubits()):
        raise ValueError(f"gate {gate} outside width {state.width}")
    return _execute(compile_gates((gate,)), state)


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the circuit in place through its compiled plan.

    Raises NormError if the state's squared norm is not 1 afterwards, so
    an input that was not normalised or a drifting kernel is reported.
    """
    if circuit.layout.width != state.width:
        raise ValueError(
            f"circuit width {circuit.layout.width} != state width {state.width}"
        )
    _execute(circuit_plan(circuit), state)
    drift = abs(state.norm_sq() - 1.0)
    if not drift < NORM_TOLERANCE:
        raise NormError(f"state norm drifted: |norm^2 - 1| = {drift:.3g}")
    return state


def main_distribution(state: StateVector, layout: HoboLayout) -> Distribution:
    """Marginal probabilities of the main register over all ancillas."""
    if state.width != layout.width:
        raise ValueError(f"state width {state.width} != layout width {layout.width}")
    n_main = layout.main_qubits
    probs = np.abs(state.amplitudes) ** 2
    marginal = probs.reshape(2**n_main, -1).sum(axis=1)
    return Distribution(
        {format(i, f"0{n_main}b"): float(p) for i, p in enumerate(marginal)}
    )


def sample(dist: Distribution, shots: int, seed: int) -> dict[str, int]:
    """Multinomial counts over the distribution, deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    keys = list(dist.probs)
    pvals = np.asarray([dist.probs[k] for k in keys], dtype=float)
    pvals = pvals / pvals.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, pvals)
    return {k: int(c) for k, c in zip(keys, counts) if c > 0}


def success_probability(dist: Distribution, targets) -> float:
    """Total probability mass on the target bitstrings."""
    targets = set(targets)
    if not targets:
        raise ValueError("targets must be non-empty")
    return float(sum(dist.probs.get(t, 0.0) for t in targets))
