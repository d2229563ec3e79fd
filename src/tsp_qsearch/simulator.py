"""Dense state-vector simulation of the gate set in `circuits`.

Amplitudes are stored as one complex128 array of length 2**width, in
C order with qubit 0 as the most significant bit of the array index, so
a printed basis index reads exactly like the layout's bitstring (visit
slot 1 leftmost).  Gates act in place through strided views and index
arrays; nothing is ever promoted to a dense matrix.

`run` compiles a circuit once into a plan of kernel steps (see
`compile_gates`).  The X gates fold into the control polarity of the
gates they conjugate, leaving swap, H butterfly and phase-multiply
operations.  Each run of two or more swaps becomes one permutation step,
`flat[moved] = flat[source]` over the positions the run moves, and each
run of two or more H becomes one layer step, which gathers only the
groups of amplitudes that hold a nonzero value, applies the same
butterflies to them and scatters them back.  A repeated part compiles
once into a step that loops its plan, so compile cost depends on the
distinct parts, not on q1 or q2; the X frame is flushed and fusion stops
at such a step, and parts run once are fused across their joins.  Every
feasibility oracle R1 uncomputes its ancillas, so it is one permutation.
At n=4 the 2048 gates become 4 steps (marker swap, H layer, G1 * q1 and
G2 * q2) that unroll to one swap, 10 permutations of 512 moved
amplitudes, 25 H layers and 60 phase multiplies.

The plan only changes which amplitudes a kernel touches, never its
arithmetic.  So the state is `np.array_equal` to gate-by-gate
application, and every nonzero real and imaginary part is bit-identical
to it; a zero part may have either sign.  A group an H layer skips
keeps its zeros where the gate-by-gate butterflies may write -0.0, and
a later H can carry such a sign into the zero real or imaginary part of
a nonzero amplitude (-0.0+0.5j against 0.0+0.5j).  Matching the signs
would mean gathering every group that holds a -0.0, and the phase
kernel leaves many.  `apply_gate` is a one-gate plan, which keeps the
plain swap, butterfly and phase kernels.  A lone swap or H step
allocates its own half-state temporary; a permutation or layer step
allocates arrays only as large as the amplitudes it moves or gathers.
"""

from __future__ import annotations

import cmath
import itertools
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

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.width,):
            raise ValueError(
                f"width {self.width} needs {2**self.width} amplitudes, got shape {self.amplitudes.shape}"
            )

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


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


def _swap(view: np.ndarray, idx0: tuple, idx1: tuple) -> None:
    lo = view[idx0]
    tmp = lo.copy()
    lo[...] = view[idx1]
    view[idx1] = tmp


def _butterfly(view: np.ndarray, idx0: tuple, idx1: tuple) -> None:
    # Same operations as (lo + hi) * c and (lo - hi) * c on fresh arrays.
    lo = view[idx0]
    hi = view[idx1]
    diff = lo - hi
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _phase(view: np.ndarray, idx: tuple, factor: complex) -> None:
    view[idx] *= factor


def _permute(view: np.ndarray, moved: np.ndarray, source: np.ndarray) -> None:
    flat = view.reshape(-1)
    flat[moved] = flat[source]


# The halves of a (rows, 2, stride) view, for butterflies on gathered groups.
_LOWER = (slice(None), 0, ...)
_UPPER = (slice(None), 1, ...)


def _layer(view: np.ndarray, groups: tuple, strides: tuple) -> None:
    # Only groups holding a nonzero amplitude are gathered, run through
    # the run's butterflies in order and scattered back; H maps an
    # all-zero group to zeros.  `!= 0` on the float parts counts -0.0
    # as zero.  A gathered group is a row of 2**m amplitudes, and the
    # butterfly on the run's j-th qubit pairs entries 2**(m-1-j) apart.
    shape, reduce_axes, base, inner = groups
    occupied = (view.view(np.float64) != 0).reshape(shape)
    for axis in reduce_axes:
        occupied = occupied.any(axis=axis)
    index = base[np.flatnonzero(occupied)][:, None] + inner
    flat = view.reshape(-1)
    block = flat[index]
    for stride in strides:
        _butterfly(block.reshape(-1, 2, stride), _LOWER, _UPPER)
    flat[index] = block


def compile_gates(gates, width: int) -> tuple:
    """Kernel steps equal to applying `gates` one by one on `width` qubits.

    Each step is (kernel, first, second), run as
    ``kernel(view, first, second)``.  One forward pass keeps a Pauli-X
    frame: the qubits whose NOT is still pending.  An X gate toggles the
    frame and emits nothing.  A framed control of CX, MCX or MCP fires
    on 0 instead of 1, as does a framed MCP target (the gate is a
    symmetric diagonal); a frame on a CX or MCX target commutes through.
    An H on a framed qubit first emits the pending NOT as a swap, and
    the frame left at the end is flushed the same way.  `_fuse` then
    joins the operations into steps.
    """
    return _fuse(_frame_pass(gates), width, {})


def _frame_pass(gates) -> list[tuple]:
    """The operations of `gates`, ending with the swaps that flush the X frame."""
    frame: set[int] = set()
    # (kernel, fixed-axis assignments, target qubit or phase factor)
    ops: list[tuple] = []
    for gate in gates:
        kind, target = gate.kind, gate.target
        if kind is GateKind.X:
            frame ^= {target}
        elif kind is GateKind.H:
            if target in frame:
                frame.discard(target)
                ops.append((_swap, (), target))
            ops.append((_butterfly, (), target))
        else:
            on = tuple((c, int(c not in frame)) for c in gate.controls)
            if kind is GateKind.MCP:
                fires = (*on, (target, int(target not in frame)))
                ops.append((_phase, fires, cmath.exp(1j * gate.phase)))
            else:  # CX and MCX
                ops.append((_swap, on, target))
    return ops + [(_swap, (), qubit) for qubit in sorted(frame)]


def _step(kernel, on: tuple, last) -> tuple:
    """The plain kernel step of one operation of `compile_gates`."""
    if kernel is _phase:
        return (_phase, _axis_index(dict(on)), last)
    return (kernel, _axis_index({**dict(on), last: 0}), _axis_index({**dict(on), last: 1}))


def _fuse(ops: list[tuple], width: int, built: dict) -> tuple:
    """Steps for `ops`: a permutation step for each run of two or more
    swaps, a layer step for each run of two or more H, and one kernel
    step for every other operation.  Repeated blocks give equal runs,
    so each distinct run is built once and kept in `built`.
    """
    steps: list[tuple] = []
    for kernel, run in itertools.groupby(ops, key=lambda op: op[0]):
        run = tuple(run)
        if kernel is _phase or len(run) == 1:
            steps += [_step(*op) for op in run]
            continue
        if run not in built:
            built[run] = _permutation(run, width) if kernel is _swap else _h_layer(run, width)
        steps.append(built[run])
    return tuple(steps)


def _permutation(run: tuple, width: int) -> tuple:
    # Apply the swaps to the positions themselves: afterwards position p
    # holds the index whose amplitude the run moves to p.
    positions = np.arange(2**width, dtype=np.int32)
    view = positions.reshape((2,) * width)
    for op in run:
        _, idx0, idx1 = _step(*op)
        _swap(view, idx0, idx1)
    moved = np.flatnonzero(positions != np.arange(2**width, dtype=np.int32)).astype(np.int32)
    return (_permute, moved, positions[moved])


def _h_layer(run: tuple, width: int) -> tuple:
    # A group is the 2**m amplitudes that share every bit outside the
    # run's m qubits; `base` holds each group's first flat index, in the
    # C order of the other axes, and `inner` the offsets within a group.
    qubits = sorted({target for _, _, target in run})
    positions = np.arange(2**width, dtype=np.int32).reshape((2,) * width)
    base = positions[tuple(0 if a in qubits else slice(None) for a in range(width))].ravel()
    inner = positions[tuple(slice(None) if a in qubits else 0 for a in range(width))].ravel()
    # Occupancy is reduced over the float view, whose extra last axis
    # splits each amplitude into its real and imaginary part.  Adjacent
    # axes are merged and reduced outermost first: numpy reduces a long
    # outer axis quickly and a short inner one slowly.
    blocks = [
        (reduced, len(list(axes)))
        for reduced, axes in itertools.groupby([a in qubits for a in range(width)] + [True])
    ]
    shape = tuple(2**size for _, size in blocks)
    reduced_at = [i for i, (reduced, _) in enumerate(blocks) if reduced]
    reduce_axes = tuple(i - done for done, i in enumerate(reduced_at))
    strides = tuple(2 ** (len(qubits) - 1 - qubits.index(target)) for _, _, target in run)
    return (_layer, (shape, reduce_axes, base, inner), strides)


def circuit_plan(circuit: Circuit) -> tuple:
    """The circuit's compiled steps, built on first use.

    A part repeated more than once becomes the step
    ``(_repeat, circuit_plan(part), times)``; the leaves between such
    parts compile together as in `compile_gates`.  A plan is kept on its
    circuit, so it is freed with it and a shared part compiles once.
    """
    return _unit_plan(circuit, {})


def _unit_plan(circuit: Circuit, built: dict) -> tuple:
    # `built` holds the fused runs of every unit compiled in one call.
    plan = vars(circuit).get("_plan")
    if plan is None:
        plan = ()
        for repeated, units in itertools.groupby(_units(circuit), key=lambda unit: unit[1] > 1):
            if repeated:
                plan += tuple((_repeat, _unit_plan(part, built), times) for part, times in units)
            else:
                gates = itertools.chain.from_iterable(leaf.leaf for leaf, _ in units)
                plan += _fuse(_frame_pass(gates), circuit.layout.width, built)
        object.__setattr__(circuit, "_plan", plan)  # Circuit is frozen
    return plan


def _units(circuit: Circuit):
    # In order, (leaf, 1) for each leaf run once and (part, times) for each repeated part.
    if not circuit.parts:
        yield circuit, 1
    for part, times in circuit.parts:
        if times == 1:
            yield from _units(part)
        elif times:
            yield part, times


def _repeat(view: np.ndarray, plan: tuple, times: int) -> None:
    for _ in range(times):
        for kernel, first, second in plan:
            kernel(view, first, second)


def _execute(plan: tuple, state: StateVector) -> StateVector:
    _repeat(state.amplitudes.reshape((2,) * state.width), plan, 1)
    return state


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    if not all(0 <= q < state.width for q in gate.qubits()):
        raise ValueError(f"gate {gate} outside width {state.width}")
    return _execute(compile_gates((gate,), state.width), state)


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


def main_distribution(state: StateVector, layout: HoboLayout) -> dict[str, float]:
    """Marginal probabilities of the main register over all ancillas, by bitstring."""
    if state.width != layout.width:
        raise ValueError(f"state width {state.width} != layout width {layout.width}")
    n_main = layout.main_qubits
    probs = np.abs(state.amplitudes) ** 2
    marginal = probs.reshape(2**n_main, -1).sum(axis=1)
    return {format(i, f"0{n_main}b"): float(p) for i, p in enumerate(marginal)}


def sample(dist: dict[str, float], shots: int, seed: int) -> dict[str, int]:
    """Multinomial counts over the bitstring probabilities, deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    keys = list(dist)
    pvals = np.asarray([dist[k] for k in keys], dtype=float)
    pvals = pvals / pvals.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, pvals)
    return {k: int(c) for k, c in zip(keys, counts) if c > 0}


def success_probability(dist: dict[str, float], targets) -> float:
    """Total probability mass on the target bitstrings."""
    targets = set(targets)
    if not targets:
        raise ValueError("targets must be non-empty")
    return float(sum(dist.get(t, 0.0) for t in targets))
