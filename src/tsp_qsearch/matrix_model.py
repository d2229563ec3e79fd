"""Operator-level reference model of the cost-phase search.

Instead of gates, this module evolves a vector over the n! feasible
tours, in the phase dataset's tour order, with the diagonal cost
operator and the reflection about the uniform feasible superposition.
`evolve` and `state_at` take the dataset and the cost convention.  It
is the cross-check oracle for the circuit path and its fast stand-in:
at 6 cities it evolves 720 tour amplitudes and needs no circuit, where
the gate simulator compiles the circuit on its 18-qubit main register
(46 qubits in full) and runs it on the 720 tours and one value off
them.  This is the ideal form of the search: its diffusion reflects
about the exact feasible superposition, while the circuit's D2
reflects about the stage-1 state, which keeps a small infeasible
remainder.  Its state has the circuit's tour form with a background
of 0, so the simulator's executor runs its iteration as two tour-form
steps (see `_ideal`).

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
from dataclasses import dataclass

import numpy as np

from .core import PhaseAssignment, gen_gaussian_phases
from .simulator import _phase, _reflect_tours, _repeat


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


def _ideal(phases: PhaseAssignment, rescale_costs: bool) -> tuple[np.ndarray, tuple]:
    """psi_0 as a tour vector, and one search iteration as the simulator's tour-form steps.

    psi_0 is the uniform superposition of the tours, 1/sqrt(n!) each,
    with a background coordinate of 0 (see `simulator.TourState`).  An
    iteration is the cost operator, e^{i w} per tour, then the diffusion
    D v = 2 psi_0 <psi_0|v> - v: a phase step on the tour slice and a
    reflection step about psi_0 (c = 1/sqrt(n!) on the tours, d = 0),
    which `simulator._repeat` runs.  The reflection step is I - 2
    |psi_0><psi_0| = -D, so the phase step carries the -1: -e^{i w}.
    """
    factors = -np.exp(1j * oracle_angles(phases, rescale_costs))
    c = 1 / math.sqrt(factors.size)
    psi = np.append(np.full(factors.size, c, dtype=complex), 0)
    return psi, ((_phase, slice(0, factors.size), factors), (_reflect_tours, (None, c, 0.0), -1.0))


def evolve(phases: PhaseAssignment, t_max: int, rescale_costs: bool = False) -> ProbabilitySeries:
    """Iterate diffusion(cost(state)); record the extreme-tour mass for t = 0 .. t_max."""
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    psi, plan = _ideal(phases, rescale_costs)
    p_min, p_max = [], []
    for t in range(t_max + 1):
        _repeat(psi, plan, min(t, 1))  # psi_0, then one iteration per t
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
    psi, plan = _ideal(phases, rescale_costs)
    _repeat(psi, plan, t)
    return psi[:-1]


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
