"""Operator-level reference model of the cost-phase search.

Instead of gates, this module evolves a vector over an explicit tour
basis with the diagonal cost operator and the reflection about the
uniform feasible superposition.  It is the cross-check oracle for the
circuit path and the workhorse for sizes whose circuits are out of
reach of the dense simulator (the 5-city search space is 120 tours but
41 qubits).  The basis is the n! feasible tours.  This is the ideal
form of the search: its diffusion reflects about the exact feasible
superposition, while the circuit's D2 reflects about the stage-1 state,
which keeps a small infeasible remainder.

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

from .core import PhaseAssignment, enumerate_feasible, gen_gaussian_phases


@dataclass(frozen=True)
class SearchSpace:
    basis: tuple[str, ...]
    phases: PhaseAssignment
    rescale_costs: bool = False


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


def subspace(phases: PhaseAssignment, rescale_costs: bool = False) -> SearchSpace:
    return SearchSpace(enumerate_feasible(phases.n), phases, rescale_costs)


def oracle_angles(space: SearchSpace) -> dict[str, float]:
    """Per-tour oracle angle under the space's cost convention."""
    phases = space.phases.phases
    if not space.rescale_costs:
        return dict(phases)
    lo, hi = min(phases.values()), max(phases.values())
    return {b: 2 * math.pi * (w - lo) / (hi - lo) for b, w in phases.items()}


def build_cost_operator(space: SearchSpace) -> np.ndarray:
    """Diagonal of the cost operator: e^{i w} per tour of the basis."""
    angles = oracle_angles(space)
    return np.exp(1j * np.array([angles[b] for b in space.basis]))


def _iterates(space: SearchSpace) -> Iterator[np.ndarray]:
    """psi_0, psi_1, ...: the uniform tour state, then diffusion(cost(psi)) per step.

    The diffusion is the rank-1 reflection D v = 2 psi0 <psi0|v> - v
    about the uniform superposition of the basis.
    """
    cost_diag = build_cost_operator(space)
    ones = np.ones(len(space.basis), dtype=complex)
    psi0 = ones / np.linalg.norm(ones)
    psi = psi0
    while True:
        yield psi
        psi = cost_diag * psi
        psi = 2.0 * psi0 * np.vdot(psi0, psi) - psi


def evolve(space: SearchSpace, t_max: int) -> ProbabilitySeries:
    """Iterate diffusion(cost(state)); record the extreme-tour mass for t = 0 .. t_max."""
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    min_idx = space.basis.index(space.phases.min_key)
    max_idx = space.basis.index(space.phases.max_key)
    p_min, p_max = [], []
    for psi in islice(_iterates(space), t_max + 1):
        p_min.append(float(np.abs(psi[min_idx]) ** 2))
        p_max.append(float(np.abs(psi[max_idx]) ** 2))
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


def state_at(space: SearchSpace, t: int) -> np.ndarray:
    """State vector over the basis after t search iterations."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return next(islice(_iterates(space), t, None))


def appendix_experiment(
    mu: float, sigma: float, seed: int, t_max: int = 10
) -> tuple[ProbabilitySeries, dict[str, float]]:
    """Five-city Gaussian-cost search: series plus the peak histogram.

    Generates a seeded Gaussian cost dataset over the 120 tours,
    evolves the subspace model under the rescaled-cost convention, and
    returns the probability series together with the full tour
    distribution at the first local maximum of the combined
    extreme-tour mass.  Histogram keys are ordered by ascending cost.
    """
    phases = gen_gaussian_phases(5, mu, sigma, seed)
    space = subspace(phases, rescale_costs=True)
    series = evolve(space, t_max)
    peak_t = first_peak(series)
    psi = state_at(space, peak_t)
    by_phase = sorted(space.basis, key=lambda b: phases.phases[b])
    index_of = {b: i for i, b in enumerate(space.basis)}
    probs = {b: float(np.abs(psi[index_of[b]]) ** 2) for b in by_phase}
    return series, probs


def series_to_csv(series: ProbabilitySeries) -> str:
    """CSV text with header t,p_min,p_max,p_combined."""
    lines = ["t,p_min,p_max,p_combined"]
    for t, lo, hi, both in zip(series.times, series.p_min, series.p_max, series.p_combined):
        lines.append(f"{t},{lo!r},{hi!r},{both!r}")
    return "\n".join(lines) + "\n"
