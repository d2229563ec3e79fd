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
`flat[moved] = flat[source]` over the positions the run moves.  Each
run of two or more H on distinct qubits becomes one H layer step, one
contiguous pass per qubit on a copy with the run's axes first (see
`_hadamards`).  A repeated part compiles once into a step that loops
its plan, so compile cost depends on the distinct parts, not on q1 or
q2; the X frame is flushed and swap and H runs stop at such a step.

The plan runs on a view of the state that holds only the live qubits,
the main register and the marker, with every ancilla bit 0: 512 of the
32,768 amplitudes at n=4.  Every feasibility oracle R1 uncomputes its
ancillas, so it is one permutation of the view, which flips the marker
of each feasible tour.  At n=4 the 2048 gates become 4 steps (marker
swap, one H layer on 9 qubits, G1 * q1 and G2 * q2) that unroll to 96.
If the state holds a nonzero amplitude with an ancilla bit set, or the
circuit wakes an ancilla (an H or phase names one, or a swap leaves one
set), the same compile over all qubits runs on the whole state instead.

Each step does the arithmetic of the gates it replaces, so every
amplitude of the view is bit-identical to gate-by-gate `apply_gate`,
zero signs included: an H layer does a lone H's arithmetic, qubit by
qubit in gate order.  Outside the view both are zero, though the
gate-by-gate phase steps may leave -0.0 there.  A lone swap or H step
allocates a half-state temporary, an H layer two view-sized buffers,
and a permutation step arrays only as large as the amplitudes it moves.
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
        if self.amplitudes.dtype != np.complex128:
            raise ValueError(f"amplitudes must be complex128, got {self.amplitudes.dtype}")

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


def _hadamards(view: np.ndarray, transposes: tuple, passes: int) -> None:
    # H on the first `passes` axes of view.transpose(transposes[0]), in
    # order.  A pass does _butterfly's arithmetic on the low and high halves
    # of one buffer and writes the results to the other's even and odd
    # slots, so its axis moves last; transposes[1] restores the view's order.
    first = view.transpose(transposes[0]).flatten()
    src, dst = ((*b.reshape(2, -1), b[::2], b[1::2], b) for b in (first, np.empty_like(first)))
    for _ in range(passes):
        (lo, hi, _, _, _), (_, _, sums, diffs, out) = src, dst
        np.add(lo, hi, out=sums)
        np.subtract(lo, hi, out=diffs)
        out *= _INV_SQRT2
        src, dst = dst, src
    view[...] = src[-1].reshape(view.shape).transpose(transposes[1])


def _phase(view: np.ndarray, idx: tuple, factor: complex) -> None:
    view[idx] *= factor


def _permute(view: np.ndarray, moved: np.ndarray, source: np.ndarray) -> None:
    flat = view.reshape(-1)
    flat[moved] = flat[source]


class _Woken(Exception):
    """A step needs a qubit outside the view it is compiled for."""


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
    return _fuse(_frame_pass(gates), tuple(range(width)), {})


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


def _fuse(ops: list[tuple], qubits: tuple[int, ...], built: dict) -> tuple:
    """Steps for `ops` on the view whose axis i is qubit qubits[i]: one
    step for each run of two or more swaps (a permutation, built once
    per distinct run and kept in `built`, as repeated blocks repeat it)
    or of H on distinct qubits (an H layer), and one kernel step for
    every other operation.  Raises `_Woken` if the view cannot hold the
    state after a step.
    """
    axes = {qubit: axis for axis, qubit in enumerate(qubits)}
    steps: list[tuple] = []
    for kernel, run in itertools.groupby(ops, key=lambda op: op[0]):
        run = tuple(run)
        if kernel is _butterfly:
            layers: list[list[tuple]] = [[]]
            for op in run:
                layers += [[]] if op in layers[-1] else []  # split at a repeated qubit
                layers[-1].append(op)
            steps += [_hadamard_step(layer, axes) if len(layer) > 1 else _step(*layer[0], axes) for layer in layers]
        elif kernel is not _swap or len(run) == 1:
            steps += [_step(*op, axes) for op in run]
        else:
            if run not in built:
                built[run] = _permutation(run, qubits)
            steps.append(built[run])
    return tuple(steps)


def _step(kernel, on: tuple, last, axes: dict) -> tuple:
    """The plain kernel step of one operation, on the view where qubit q is axis axes[q]."""
    try:
        on = {axes[qubit]: value for qubit, value in on}
        if kernel is _phase:
            return (_phase, _axis_index(on), last)
        target = axes[last]
    except KeyError:
        raise _Woken from None
    return (kernel, _axis_index({**on, target: 0}), _axis_index({**on, target: 1}))


def _hadamard_step(ops: list[tuple], axes: dict) -> tuple:
    """The H layer step of two or more H operations on distinct qubits."""
    run = [axes.get(qubit) for _, _, qubit in ops]
    if None in run:
        raise _Woken
    rest = [axis for axis in range(len(axes)) if axis not in run]
    return (_hadamards, ((*run, *rest), tuple(np.argsort(rest + run))), len(run))


def _permutation(run: tuple, qubits: tuple[int, ...]) -> tuple:
    # Bit q of a label is qubit q: labels[p] starts as the basis state at
    # view position p, with every qubit outside the view 0.  Each swap
    # flips its target bit where its controls match, so afterwards
    # labels[p] is where the run moves the amplitude at p.
    shifts = range(len(qubits))[::-1]  # axis 0 is the most significant bit
    positions = np.arange(2 ** len(qubits), dtype=np.int64)
    labels = np.zeros_like(positions)
    for qubit, shift in zip(qubits, shifts):
        labels |= (positions >> shift & 1) << qubit
    for _, on, target in run:
        controls = sum(1 << qubit for qubit, _ in on)
        fires = sum(value << qubit for qubit, value in on)
        labels[(labels & controls) == fires] ^= 1 << target
    if np.any(labels & ~sum(1 << qubit for qubit in qubits)):
        raise _Woken
    dest = np.zeros_like(positions)
    for qubit, shift in zip(qubits, shifts):
        dest |= (labels >> qubit & 1) << shift
    moved = np.flatnonzero(dest != positions)
    return (_permute, dest[moved], moved)


def _live_qubits(layout: HoboLayout) -> tuple[int, ...]:
    """The main register and the marker, the qubits every ancilla sits between."""
    return (*range(layout.main_qubits), *range(layout.width - layout.marker_qubits, layout.width))


def circuit_plan(circuit: Circuit, qubits: tuple[int, ...]) -> tuple | None:
    """The circuit's compiled steps on the view of `qubits`, built on first use.

    None if the view cannot hold the state while the circuit runs.  A
    part repeated more than once becomes the step
    ``(_repeat, plan of the part, times)``; the leaves between such
    parts compile together as in `compile_gates`.  Plans are kept on
    their circuit, by view, so they are freed with it and a shared part
    compiles once.
    """
    try:
        return _unit_plan(circuit, qubits, {})
    except _Woken:
        return None


def _unit_plan(circuit: Circuit, qubits: tuple[int, ...], built: dict) -> tuple:
    # `built` holds the fused runs of every unit compiled in one call.
    plans = vars(circuit).setdefault("_plans", {})  # Circuit is frozen
    if qubits not in plans:
        plan = ()
        try:
            for repeated, units in itertools.groupby(_units(circuit), key=lambda unit: unit[1] > 1):
                if repeated:
                    plan += tuple((_repeat, _unit_plan(part, qubits, built), times) for part, times in units)
                else:
                    gates = itertools.chain.from_iterable(leaf.leaf for leaf, _ in units)
                    plan += _fuse(_frame_pass(gates), qubits, built)
        except _Woken:
            plan = None
        plans[qubits] = plan
    if plans[qubits] is None:
        raise _Woken
    return plans[qubits]


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


def _execute(plan: tuple, amplitudes: np.ndarray) -> None:
    _repeat(amplitudes.reshape((2,) * (amplitudes.size.bit_length() - 1)), plan, 1)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    if not all(0 <= q < state.width for q in gate.qubits()):
        raise ValueError(f"gate {gate} outside width {state.width}")
    _execute(compile_gates((gate,), state.width), state.amplitudes)
    return state


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the circuit in place through its compiled plan.

    Raises NormError if the state's squared norm is not 1 afterwards, so
    an input that was not normalised or a drifting kernel is reported.
    """
    layout = circuit.layout
    if layout.width != state.width:
        raise ValueError(f"circuit width {layout.width} != state width {state.width}")
    # Axis 1 runs over the ancillas; index 0 is the view.
    amps = state.amplitudes.reshape(2**layout.main_qubits, -1, 2**layout.marker_qubits)
    plan = None if amps[:, 1:].any() else circuit_plan(circuit, _live_qubits(layout))
    if plan is None:
        _execute(circuit_plan(circuit, tuple(range(state.width))), state.amplitudes)
    else:
        live = amps[:, 0].copy()
        _execute(plan, live)
        amps[:, 0] = live
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
