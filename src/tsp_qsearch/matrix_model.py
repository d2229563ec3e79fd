"""Operator-level reference model of the cost-phase search.

Instead of gates, this module evolves a vector over the n! feasible
tours, in the phase dataset's tour order, with the diagonal cost
operator and the reflection about the uniform feasible superposition.
`evolve` and `state_at` take the dataset and the cost convention.  It
is the cross-check oracle for the circuit path and its fast stand-in:
at 6 cities it evolves 720 tour amplitudes, where the gate simulator
runs the circuit on its 18-qubit main register (46 qubits in full,
2**18 amplitudes).  This is the ideal form of the search: its
diffusion reflects about the exact feasible superposition, while the
circuit's D2 reflects about the stage-1 state, which keeps a small
infeasible remainder.

Cost values map to oracle angles in one of two conventions.  By
default the stored value is the angle, matching the circuit's cost
oracle gate for gate.  With ``rescale_costs`` set, the cost range is
mapped affinely onto [0, 2*pi], so the two extreme tours pick up phase
+1 while typical mid-range tours pick up roughly -1; that relative
phase of ~pi is what makes the Gaussian-cost search behave like a
textbook two-target amplitude amplification, and is the convention of
the five-city reference experiment.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import PhaseAssignment, gen_gaussian_phases


@dataclass(frozen=True)
class ProbabilitySeries:
    """Success probabilities of the two extreme tours for t = 0, 1, ... iterations."""

    p_min: tuple[float, ...]
    p_max: tuple[float, ...]

    def __post_init__(self):
        if len(self.p_min) != len(self.p_max):
            raise ValueError(f"p_min has {len(self.p_min)} entries, p_max {len(self.p_max)}")

    @property
    def times(self) -> range:
        return range(len(self.p_min))

    @property
    def p_combined(self) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(self.p_min, self.p_max))


def oracle_angles(phases: PhaseAssignment, rescale_costs: bool = False) -> np.ndarray:
    """Oracle angle of each tour, in the dataset's tour order, under the cost convention."""
    angles = phases.angles
    if not rescale_costs:
        return angles.copy()
    lo, hi = angles[phases.min_index], angles[phases.max_index]
    return 2 * math.pi * (angles - lo) / (hi - lo)


def _iterates(phases: PhaseAssignment, rescale_costs: bool) -> Iterator[np.ndarray]:
    """psi_0, psi_1, ...: the uniform tour state, then diffusion(cost(psi)) per step.

    The cost operator is the diagonal e^{i w} per tour.  The diffusion
    is the rank-1 reflection D v = 2 psi0 <psi0|v> - v about the
    uniform superposition of the tours.
    """
    cost_diag = np.exp(1j * oracle_angles(phases, rescale_costs))
    ones = np.ones(len(cost_diag), dtype=complex)
    psi0 = ones / np.linalg.norm(ones)
    two_psi0 = 2.0 * psi0
    psi = psi0
    while True:
        yield psi
        psi = cost_diag * psi
        psi = two_psi0 * np.vdot(psi0, psi) - psi


def evolve(phases: PhaseAssignment, t_max: int, rescale_costs: bool = False) -> ProbabilitySeries:
    """Iterate diffusion(cost(state)); record the extreme-tour mass for t = 0 .. t_max."""
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    p_min, p_max = [], []
    for psi in islice(_iterates(phases, rescale_costs), t_max + 1):
        p_min.append(float(np.abs(psi[phases.min_index]) ** 2))
        p_max.append(float(np.abs(psi[phases.max_index]) ** 2))
    return ProbabilitySeries(tuple(p_min), tuple(p_max))


def first_peak(series: ProbabilitySeries) -> int:
    """First t where p_combined is at least its neighbours' values."""
    p = series.p_combined
    for t in range(len(p)):
        left_ok = t == 0 or p[t] >= p[t - 1]
        right_ok = t == len(p) - 1 or p[t] >= p[t + 1]
        if left_ok and right_ok:
            return series.times[t]
    raise ValueError("empty series")


def state_at(phases: PhaseAssignment, t: int, rescale_costs: bool = False) -> np.ndarray:
    """State vector over the dataset's tours, in its order, after t search iterations."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return next(islice(_iterates(phases, rescale_costs), t, None))


def appendix_experiment(
    mu: float, sigma: float, seed: int, t_max: int = 10
) -> tuple[ProbabilitySeries, dict[str, float]]:
    """Five-city Gaussian-cost search: series plus the peak histogram.

    Generates a seeded Gaussian cost dataset over the 120 tours,
    evolves the ideal model under the rescaled-cost convention, and
    returns the probability series together with the full tour
    distribution at the first local maximum of the combined
    extreme-tour mass.  Histogram keys are ordered by ascending cost.
    """
    phases = gen_gaussian_phases(5, mu, sigma, seed)
    series = evolve(phases, t_max, rescale_costs=True)
    peak_t = first_peak(series)
    psi = state_at(phases, peak_t, rescale_costs=True)
    amplitude = dict(zip(phases.phases, psi))
    probs = {b: float(np.abs(amplitude[b]) ** 2) for b in sorted(amplitude, key=phases.phases.get)}
    return series, probs


def series_to_csv(series: ProbabilitySeries) -> str:
    """CSV text with header t,p_min,p_max,p_combined."""
    lines = ["t,p_min,p_max,p_combined"]
    for t, lo, hi, both in zip(series.times, series.p_min, series.p_max, series.p_combined):
        lines.append(f"{t},{lo!r},{hi!r},{both!r}")
    return "\n".join(lines) + "\n"
