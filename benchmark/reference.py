"""Independent numpy model of the probabilities the CLI must report.

Shares no code with ``tsp_qsearch``.  Every ancilla of the paper's
circuit is computed and exactly uncomputed, so on the main register of
n*k qubits each block is a diagonal or a reflection:

* first stage: Grover over all 2**(n*k) bitstrings, with a sign flip on
  the feasible tours (R1) and the reflection about the uniform state
  (D1);
* second stage: the cost diagonal e^{i w} on the tours (R2), then the
  reflection about the first stage's output state (D2).

The operator-level (matrix) model instead reflects about the uniform
superposition of the n! tours.  Global phases are dropped; they do not
change a probability.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def bits_per_city(n: int) -> int:
    return max(1, (n - 1).bit_length())


def feasible(n: int) -> list[str]:
    """Bitstrings of the n! tours: each city c written as c-1 in k bits, in visit order."""
    k = bits_per_city(n)
    return sorted(
        "".join(format(c, f"0{k}b") for c in order)
        for order in itertools.permutations(range(n))
    )


def amplify(psi: np.ndarray, axis: np.ndarray, diag: np.ndarray, steps: int) -> list[np.ndarray]:
    """States after 0..steps rounds of `diag` followed by the reflection about `axis`."""
    states = [psi]
    for _ in range(steps):
        psi = diag * psi
        psi = 2 * axis * np.vdot(axis, psi) - psi
        states.append(psi)
    return states


def circuit_distributions(phases: dict[str, float], n: int, q1: int, steps: int) -> list[np.ndarray]:
    """Main-register probabilities after q1 first-stage and t = 0..steps second-stage rounds.

    Entry i of each array is the probability of the bitstring that
    reads i in binary (qubit 0 most significant).  Phases are applied
    as raw angles, as the circuit's cost oracle does.
    """
    size = 2 ** (n * bits_per_city(n))
    uniform = np.full(size, size**-0.5, dtype=complex)
    rows = [int(bits, 2) for bits in phases]
    flip = np.ones(size, dtype=complex)
    flip[rows] = -1
    prepared = amplify(uniform, uniform, flip, q1)[-1]
    cost = np.ones(size, dtype=complex)
    cost[rows] = np.exp(1j * np.array(list(phases.values())))
    return [np.abs(s) ** 2 for s in amplify(prepared, prepared, cost, steps)]


def matrix_distributions(
    phases: dict[str, float], steps: int, rescale: bool
) -> tuple[list[str], list[np.ndarray]]:
    """Tour order and tour probabilities after t = 0..steps rounds of the matrix model.

    With `rescale` the cost range is mapped affinely onto [0, 2*pi].
    """
    tours = sorted(phases)
    angles = np.array([phases[t] for t in tours])
    if rescale:
        angles = 2 * math.pi * (angles - angles.min()) / (angles.max() - angles.min())
    uniform = np.full(len(tours), len(tours) ** -0.5, dtype=complex)
    states = amplify(uniform, uniform, np.exp(1j * angles), steps)
    return tours, [np.abs(s) ** 2 for s in states]
