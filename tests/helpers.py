"""Shared test utilities: basis-state preparation, dense assembly and a reference model of the search."""

import math

import numpy as np

from tsp_qsearch import (
    DatasetError,
    HoboLayout,
    StateVector,
    apply_gate,
    build_g1,
    circuits,
    enumerate_feasible,
    new_state,
    simulator,
)
from tsp_qsearch.circuits import h, x

# The builders that keep one circuit per layout, the phase oracles' gate counts
# and paths per key set, and the simulator's cache of tour positions.
BUILDER_CACHES = (
    build_g1,
    circuits._h_layer,
    circuits._marker_prep,
    circuits._zero_reflection,
    circuits._key_shape,
    simulator._tour_positions,
)


def clear_builder_caches() -> None:
    """Forget every circuit kept per layout, and so every plan and run compiled on one.

    A compile after this is cold: no part brings steps compiled before.
    """
    for cache in BUILDER_CACHES:
        cache.cache_clear()


def prepare_main_basis(layout: HoboLayout, main_bits: str, marker_minus: bool = True) -> StateVector:
    """Full-width state: main register in `main_bits`, ancillas zero.

    With marker_minus the marker qubit is put into (|0> - |1>)/sqrt(2),
    the configuration every phase-kickback block expects.
    """
    state = new_state(layout.width)
    for qubit, ch in enumerate(main_bits):
        if ch == "1":
            apply_gate(state, x(qubit))
    if marker_minus:
        apply_gate(state, x(layout.marker))
        apply_gate(state, h(layout.marker))
    return state


def main_amplitudes(state: StateVector, layout: HoboLayout) -> np.ndarray:
    """Main-register amplitudes of a state of the form main x |0..0> x |->.

    Reads the marker=0 slice and scales by sqrt(2); valid only when the
    ancillas are exactly zero and the marker exactly |-> (the caller
    asserts that separately where it matters).
    """
    n_anc = layout.width - layout.main_qubits
    block = state.amplitudes.reshape(2**layout.main_qubits, 2**n_anc)
    return block[:, 0] * math.sqrt(2)


def off_workspace_mass(state: StateVector, layout: HoboLayout) -> float:
    """Largest amplitude magnitude outside the anc=0, marker in {0,1} slices."""
    n_anc = layout.width - layout.main_qubits
    block = np.abs(state.amplitudes.reshape(2**layout.main_qubits, 2**n_anc))
    mask = np.ones(2**n_anc, dtype=bool)
    mask[0] = False  # anc zero, marker 0
    mask[1] = False  # anc zero, marker 1
    return float(block[:, mask].max())


def two_step_reference(phases: dict[str, float], q1: int, q2: int) -> np.ndarray:
    """The main-register amplitudes of the two-step search, from a model of n! + 1 coordinates.

    The M tours of `phases` keep one coordinate each; the N - M other
    states of the register, which no block tells apart, share one, their
    uniform superposition.  The search starts from the uniform state s.
    Stage 1 is q1 rounds of R1 (-1 on the tours) and D1 = I - 2|s><s|,
    which leave psi1; stage 2 is q2 rounds of R2 (e^{iw} on each tour)
    and D2 = I - 2|psi1><psi1|.  Numpy only: no gate, circuit or plan.
    """
    size, m = 2 ** len(next(iter(phases))), len(phases)
    s = np.append(np.ones(m), math.sqrt(size - m)) / math.sqrt(size)
    v = s.astype(complex)
    for _ in range(q1):
        v[:m] *= -1
        v -= 2 * s * np.vdot(s, v)
    psi1 = v.copy()
    factors = np.exp(1j * np.array(list(phases.values())))
    for _ in range(q2):
        v[:m] *= factors
        v -= 2 * psi1 * np.vdot(psi1, v)
    amplitudes = np.full(size, v[m] / math.sqrt(size - m))
    amplitudes[[int(bits, 2) for bits in phases]] = v[:m]
    return amplitudes


def gates_unitary(gates, width: int) -> np.ndarray:
    """Dense matrix of a gate sequence, assembled column by column."""
    dim = 2**width
    unitary = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        state = StateVector(width, np.zeros(dim, dtype=complex))
        state.amplitudes[col] = 1.0
        for gate in gates:
            apply_gate(state, gate)
        unitary[:, col] = state.amplitudes
    return unitary


def align_global_phase(actual: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale `actual` by a unit phase so it best matches `reference`."""
    flat_a, flat_r = actual.ravel(), reference.ravel()
    pivot = np.argmax(np.abs(flat_r))
    phase = flat_a[pivot] / flat_r[pivot]
    phase /= abs(phase)
    return actual / phase


def onehot_expansion(bits: str, n: int) -> np.ndarray:
    """n x n visit matrix of a bitstring: row = slot, column = city code."""
    k = max(1, (n - 1).bit_length())
    matrix = np.zeros((n, n))
    for slot in range(n):
        code = int(bits[slot * k : (slot + 1) * k], 2)
        if code < n:
            matrix[slot, code] = 1.0
    return matrix


def reference_phase_dict(n: int, phases: dict) -> dict[str, float]:
    """What `PhaseAssignment(n, phases).phases` was when it checked value by value.

    A copy of the earlier ``__post_init__``: it raises what that raised
    and returns the canonical dict it stored.
    """
    feasible = enumerate_feasible(n)
    if set(phases) != set(feasible):
        raise DatasetError(
            f"phase keys must be exactly the {len(feasible)} feasible bitstrings of n={n}"
        )
    values = list(phases.values())
    if not all(0.0 < v < 2 * math.pi for v in values):
        raise DatasetError("phases must lie in the open interval (0, 2*pi)")
    if values.count(min(values)) != 1 or values.count(max(values)) != 1:
        raise DatasetError("phase minimum and maximum must each be unique")
    return {key: float(phases[key]) for key in feasible}
